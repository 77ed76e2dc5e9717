#include "address_space.hh"

#include "sim/logging.hh"

namespace pktchase::mem
{

AddressSpace::AddressSpace(PhysMem &phys, Owner owner)
    : phys_(phys), owner_(owner)
{
}

Addr
AddressSpace::mmap(std::size_t pages)
{
    if (pages == 0)
        panic("AddressSpace::mmap of zero pages");
    const Addr base_vpn = kBaseVpn + pageTable_.size();
    for (std::size_t i = 0; i < pages; ++i)
        pageTable_.push_back(phys_.allocFrame(owner_));
    mappedPages_ += pages;
    return base_vpn * pageBytes;
}

Addr
AddressSpace::frameOf(Addr vaddr) const
{
    // Below the base, the subtraction wraps and fails the bound too.
    const Addr idx = vaddr / pageBytes - kBaseVpn;
    return idx < pageTable_.size() ? pageTable_[idx] : kUnmapped;
}

void
AddressSpace::munmapPage(Addr vaddr)
{
    const Addr frame = frameOf(vaddr);
    if (frame == kUnmapped)
        panic("AddressSpace::munmapPage of unmapped page");
    phys_.freeFrame(frame);
    pageTable_[vaddr / pageBytes - kBaseVpn] = kUnmapped;
    --mappedPages_;
}

Addr
AddressSpace::translate(Addr vaddr) const
{
    const Addr frame = frameOf(vaddr);
    if (frame == kUnmapped)
        panic("AddressSpace::translate fault (unmapped page)");
    return frame + (vaddr & (pageBytes - 1));
}

bool
AddressSpace::mapped(Addr vaddr) const
{
    return frameOf(vaddr) != kUnmapped;
}

} // namespace pktchase::mem
