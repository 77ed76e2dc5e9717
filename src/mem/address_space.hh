/**
 * @file
 * Per-process virtual address spaces.
 *
 * The spy is an unprivileged process: it sees only virtual addresses and
 * cannot read /proc/self/pagemap. Its eviction-set construction therefore
 * has to work from timing alone. The AddressSpace maps virtual pages to
 * whatever (randomized) frames PhysMem hands out, modelling exactly that
 * constraint.
 */

#ifndef PKTCHASE_MEM_ADDRESS_SPACE_HH
#define PKTCHASE_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <vector>

#include "mem/phys_mem.hh"
#include "sim/types.hh"

namespace pktchase::mem
{

/**
 * A dense virtual-to-physical page mapping for one simulated process.
 *
 * The page table is a flat array indexed by vpn minus the mmap base.
 * vpns come from a bump allocator and are never reused, so the array
 * has no holes except munmapped pages, which hold a sentinel.
 */
class AddressSpace
{
  public:
    /**
     * @param phys  Backing physical memory (not owned; must outlive us).
     * @param owner Accounting tag used for frames mapped by this space.
     */
    AddressSpace(PhysMem &phys, Owner owner);

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map @p pages fresh anonymous pages at the first unused virtual
     * page range and return the starting virtual address.
     */
    Addr mmap(std::size_t pages);

    /** Unmap and free a single previously mapped page. */
    void munmapPage(Addr vaddr);

    /**
     * Translate a virtual address to physical.
     * Panics on unmapped addresses (a segfault in the real system).
     */
    Addr translate(Addr vaddr) const;

    /** Whether the page containing @p vaddr is mapped. */
    bool mapped(Addr vaddr) const;

    /** Number of currently mapped pages. */
    std::size_t pageCount() const { return mappedPages_; }

  private:
    static constexpr Addr kBaseVpn = 0x10000; ///< Arbitrary nonzero base.
    /** Table entry of an unmapped page; frames are page-aligned. */
    static constexpr Addr kUnmapped = ~Addr(0);

    /** Frame base of the page containing @p vaddr, or kUnmapped. */
    Addr frameOf(Addr vaddr) const;

    PhysMem &phys_;
    Owner owner_;
    std::vector<Addr> pageTable_;  ///< (vpn - kBaseVpn) -> frame base.
    std::size_t mappedPages_ = 0;
};

} // namespace pktchase::mem

#endif // PKTCHASE_MEM_ADDRESS_SPACE_HH
