#include "llc.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/stats.hh"
#include "sim/logging.hh"

namespace pktchase::cache
{

Llc::Llc(const LlcConfig &cfg, std::unique_ptr<SliceHash> hash,
         std::unique_ptr<InjectionPolicy> policy)
    : cfg_(cfg), hash_(std::move(hash)),
      policy_(policy ? std::move(policy)
                     : std::make_unique<DdioPolicy>()),
      lru_(cfg.geom.totalSets(), cfg.geom.ways)
{
    if (!hash_)
        fatal("Llc requires a slice hash");
    if (hash_->slices() != cfg_.geom.slices)
        fatal("Llc: slice hash width does not match geometry");
    if (cfg_.geom.setsPerSlice == 0 ||
        (cfg_.geom.setsPerSlice & (cfg_.geom.setsPerSlice - 1)) != 0)
        fatal("Llc: geom.setsPerSlice must be a nonzero power of two");
    if (cfg_.geom.ways > 32)
        fatal("Llc: way masks support at most 32 ways");

    tagShift_ = blockShift + cfg_.geom.indexBits();
    const std::size_t sets = cfg_.geom.totalSets();
    tags_.assign(sets * cfg_.geom.ways, kNoTag);
    meta_.assign(sets * cfg_.geom.ways, 0);
    ioLines_.assign(sets, 0);
    policy_->init(*this);
    partitioned_ = policy_->partitioned();
    wantsOnAccess_ = policy_->wantsOnAccess();
    ioCapUniform_ = policy_->ioCapUniform();
    if (ioCapUniform_)
        uniformIoCap_ = policy_->ioCap(0);

    // Concrete-type fast path for the standard slice hash.
    xorHash_ = dynamic_cast<const XorFoldSliceHash *>(hash_.get());
}

void
Llc::tagTooWide(Addr paddr)
{
    char msg[96];
    std::snprintf(msg, sizeof msg,
                  "Llc: address 0x%" PRIx64 " has a tag of 32 or more bits",
                  static_cast<std::uint64_t>(paddr));
    fatal(msg);
}

int
Llc::findWay(std::size_t gset, std::uint32_t tag) const
{
    // Invalid lines hold kNoTag, which no address's tag equals.
    const std::uint32_t *tags = &tags_[gset * cfg_.geom.ways];
    for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
        if (tags[w] == tag)
            return static_cast<int>(w);
    }
    return -1;
}

int
Llc::findInvalid(std::size_t gset) const
{
    const std::uint8_t *meta = &meta_[gset * cfg_.geom.ways];
    for (unsigned w = 0; w < cfg_.geom.ways; ++w)
        if (!(meta[w] & kValid))
            return static_cast<int>(w);
    return -1;
}

WayMask
Llc::kindMask(std::size_t gset, bool want_io) const
{
    const std::uint8_t *meta = &meta_[gset * cfg_.geom.ways];
    const std::uint8_t want = want_io ? kIo : 0;
    WayMask mask = 0;
    for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
        if ((meta[w] & kValid) && (meta[w] & kIo) == want)
            mask |= WayMask(1) << w;
    }
    return mask;
}

unsigned
Llc::validCount(std::size_t gset) const
{
    const std::uint8_t *meta = &meta_[gset * cfg_.geom.ways];
    unsigned n = 0;
    for (unsigned w = 0; w < cfg_.geom.ways; ++w)
        if (meta[w] & kValid)
            ++n;
    return n;
}

unsigned
Llc::ioCount(std::size_t gset) const
{
    return ioLines_[gset];
}

unsigned
Llc::ioPartitionSize(std::size_t gset) const
{
    return policy_->ioCap(gset);
}

void
Llc::evict(std::size_t gset, unsigned way, bool filler_is_io)
{
    const std::uint8_t m = meta_[lineIndex(gset, way)];
    if (!(m & kValid))
        panic("Llc::evict of invalid way");
    if (m & kDirty)
        ++stats_.writebacks;
    if (m & kIo) {
        if (filler_is_io)
            ++stats_.ioEvictedByIo;
        else
            ++stats_.ioEvictedByCpu;
    } else {
        if (filler_is_io)
            ++stats_.cpuEvictedByIo;
        else
            ++stats_.cpuEvictedByCpu;
    }
    setMeta(gset, way, static_cast<std::uint8_t>(m & ~(kValid | kDirty)));
    lru_.reset(gset, way);
}

void
Llc::partitionDrop(std::size_t gset, bool io_side)
{
    const WayMask mask = kindMask(gset, io_side);
    if (mask == 0)
        panic("Llc::partitionDrop: no line of the requested kind");
    const unsigned w = lru_.victim(gset, mask);
    const std::uint8_t m = meta_[lineIndex(gset, w)];
    if (m & kDirty)
        ++stats_.writebacks;
    setMeta(gset, w, static_cast<std::uint8_t>(m & ~(kValid | kDirty)));
    lru_.reset(gset, w);
    ++stats_.partitionInvalidations;
}

unsigned
Llc::cpuFill(std::size_t gset, std::uint32_t tag, bool dirty)
{
    ++stats_.memReads;
    int way = -1;

    if (partitioned_) {
        const unsigned cpu_quota =
            cfg_.geom.ways - policy_->ioCap(gset);
        // One pass over the set's flags and stamps counts its CPU
        // lines and finds the least recently used one -- the victim
        // lru_.victim would pick among them.
        const std::uint8_t *meta = &meta_[lineIndex(gset, 0)];
        const std::uint32_t *stamps = lru_.stampsOf(gset);
        unsigned cpu_count = 0;
        unsigned lru_cpu = 0;
        std::uint32_t oldest = ~std::uint32_t(0);
        for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
            if ((meta[w] & (kValid | kIo)) != kValid)
                continue;
            ++cpu_count;
            if (stamps[w] < oldest) {
                oldest = stamps[w];
                lru_cpu = w;
            }
        }
        if (cpu_count >= cpu_quota) {
            // Partition full: displace another CPU line, never I/O.
            if (cpu_count == 0)
                panic("Llc::cpuFill: no CPU line to displace");
            way = static_cast<int>(lru_cpu);
            evict(gset, lru_cpu, false);
        } else {
            way = findInvalid(gset);
            if (way < 0) {
                // All ways valid yet CPU under quota: the I/O side is
                // over its bound (cannot happen if enforcement ran).
                panic("Llc::cpuFill: partition accounting broken");
            }
        }
    } else {
        way = findInvalid(gset);
        if (way < 0) {
            const WayMask all =
                (cfg_.geom.ways >= 32) ? ~WayMask(0)
                : ((WayMask(1) << cfg_.geom.ways) - 1);
            way = static_cast<int>(lru_.victim(gset, all));
            evict(gset, static_cast<unsigned>(way), false);
        }
    }

    tags_[lineIndex(gset, static_cast<unsigned>(way))] = tag;
    setMeta(gset, static_cast<unsigned>(way),
            static_cast<std::uint8_t>(kValid | (dirty ? kDirty : 0)));
    lru_.touch(gset, static_cast<unsigned>(way));
    return static_cast<unsigned>(way);
}

void
Llc::ioFill(std::size_t gset, std::uint32_t tag)
{
    ++stats_.ioAllocations;
    obs::bump(obs::Stat::LlcMisses);
    int way = -1;
    if (ioLines_[gset] >= ioCapOf(gset)) {
        // DDIO cap (or partition bound) reached: recycle an I/O line.
        way = static_cast<int>(lru_.victim(gset, kindMask(gset, true)));
        evict(gset, static_cast<unsigned>(way), true);
    } else if (partitioned_) {
        // Defense: the partition guarantees a free slot for I/O.
        way = findInvalid(gset);
        if (way < 0)
            panic("Llc::ioFill: partition accounting broken");
    } else {
        // Baseline DDIO: take an invalid way if available, otherwise
        // displace the LRU line -- CPU lines included. This is the
        // eviction the spy observes.
        way = findInvalid(gset);
        if (way < 0) {
            const WayMask all =
                (cfg_.geom.ways >= 32) ? ~WayMask(0)
                : ((WayMask(1) << cfg_.geom.ways) - 1);
            way = static_cast<int>(lru_.victim(gset, all));
            evict(gset, static_cast<unsigned>(way), true);
        }
    }

    tags_[lineIndex(gset, static_cast<unsigned>(way))] = tag;
    // DDIO lines are written back only on eviction.
    setMeta(gset, static_cast<unsigned>(way), kValid | kDirty | kIo);
    lru_.touch(gset, static_cast<unsigned>(way));
}

void
Llc::cpuMissFill(std::size_t gset, std::uint32_t tag, bool dirty,
                 Cycles now)
{
    obs::bump(obs::Stat::LlcMisses);
    const std::uint64_t conflicts0 = stats_.ioEvictedByCpu;
    cpuFill(gset, tag, dirty);
    if (telem_) {
        telem_->cpuAccess(sliceOf(gset), false, now);
        if (stats_.ioEvictedByCpu != conflicts0)
            telem_->ioLineConflict(sliceOf(gset), now);
    }
}

bool
Llc::cpuReadAt(std::size_t gset, std::uint32_t tag, Cycles now)
{
    ++stats_.cpuReads;
    obs::bump(obs::Stat::LlcAccesses);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const int way = findWay(gset, tag);
    if (way >= 0) {
        lru_.touch(gset, static_cast<unsigned>(way));
        if (telem_)
            telem_->cpuAccess(sliceOf(gset), true, now);
        return true;
    }
    ++stats_.cpuReadMisses;
    cpuMissFill(gset, tag, false, now);
    return false;
}

bool
Llc::cpuWrite(Addr paddr, Cycles now)
{
    ++stats_.cpuWrites;
    obs::bump(obs::Stat::LlcAccesses);
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const int way = findWay(gset, tag);
    if (way >= 0) {
        const auto w = static_cast<unsigned>(way);
        const std::uint8_t m = meta_[lineIndex(gset, w)];
        if ((m & kIo) && partitioned_) {
            // Defense: ownership may not silently flip -- that would
            // leave the CPU side over quota and the I/O side under-
            // counted. Move the line across the boundary properly:
            // drop the I/O copy and refill as a CPU line (with a CPU-
            // partition eviction if the quota is full).
            if (m & kDirty)
                ++stats_.writebacks;
            setMeta(gset, w,
                    static_cast<std::uint8_t>(m & ~(kValid | kDirty)));
            lru_.reset(gset, w);
            ++stats_.invalidations;
            cpuFill(gset, tag, true);
            --stats_.memReads; // on-chip move, not a demand fill
            if (telem_)
                telem_->cpuAccess(sliceOf(gset), true, now);
            return true;
        }
        // A CPU write to a DDIO line takes ownership (the driver copied
        // or consumed the packet); it is no longer an I/O line.
        setMeta(gset, w, static_cast<std::uint8_t>((m | kDirty) & ~kIo));
        lru_.touch(gset, w);
        if (telem_)
            telem_->cpuAccess(sliceOf(gset), true, now);
        return true;
    }
    ++stats_.cpuWriteMisses;
    cpuMissFill(gset, tag, true, now);
    return false;
}

void
Llc::ioWrite(Addr paddr, Cycles now)
{
    ++stats_.ioWrites;
    obs::bump(obs::Stat::LlcAccesses);
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    if (wantsOnAccess_)
        policy_->onAccess(*this, gset, now);

    const std::uint64_t allocs0 = stats_.ioAllocations;
    const std::uint64_t displaced0 = stats_.cpuEvictedByIo;

    const int way = findWay(gset, tag);
    if (way >= 0) {
        const auto w = static_cast<unsigned>(way);
        const std::uint8_t m = meta_[lineIndex(gset, w)];
        if (!(m & kIo) && partitioned_) {
            // Defense: DMA may not silently convert a CPU line into an
            // I/O line (that would grow the I/O side past its bound).
            // Invalidate the stale copy and allocate in the partition.
            ++stats_.invalidations;
            setMeta(gset, w,
                    static_cast<std::uint8_t>(m & ~(kValid | kDirty)));
            lru_.reset(gset, w);
            ioFill(gset, tag);
        } else {
            ++stats_.ioWriteHits;
            setMeta(gset, w, static_cast<std::uint8_t>(m | kDirty | kIo));
            lru_.touch(gset, w);
        }
        if (telem_ && stats_.ioAllocations != allocs0) {
            telem_->ioInjection(sliceOf(gset),
                                stats_.cpuEvictedByIo != displaced0,
                                now);
        }
        return;
    }
    ioFill(gset, tag);
    if (telem_) {
        telem_->ioInjection(sliceOf(gset),
                            stats_.cpuEvictedByIo != displaced0, now);
    }
}

void
Llc::invalidateBlock(Addr paddr)
{
    const std::uint32_t tag = tagOf(paddr);
    const std::size_t gset = globalSet(paddr);
    const int way = findWay(gset, tag);
    if (way < 0)
        return;
    // The DMA engine just overwrote memory; the cached copy is stale,
    // so it is dropped without writeback.
    const auto w = static_cast<unsigned>(way);
    const std::uint8_t m = meta_[lineIndex(gset, w)];
    setMeta(gset, w, static_cast<std::uint8_t>(m & ~(kValid | kDirty)));
    lru_.reset(gset, w);
    ++stats_.invalidations;
}

bool
Llc::contains(Addr paddr) const
{
    return findWay(globalSet(paddr), tagOf(paddr)) >= 0;
}

bool
Llc::containsIoLine(Addr paddr) const
{
    const std::size_t gset = globalSet(paddr);
    const int way = findWay(gset, tagOf(paddr));
    return way >= 0 &&
        (meta_[lineIndex(gset, static_cast<unsigned>(way))] & kIo) != 0;
}

void
Llc::flushAll()
{
    for (std::size_t gset = 0; gset < cfg_.geom.totalSets(); ++gset) {
        for (unsigned w = 0; w < cfg_.geom.ways; ++w) {
            std::uint8_t &m = meta_[lineIndex(gset, w)];
            if ((m & kValid) && (m & kDirty))
                ++stats_.writebacks;
            m = 0;
            lru_.reset(gset, w);
        }
    }
    std::fill(tags_.begin(), tags_.end(), kNoTag);
    std::fill(ioLines_.begin(), ioLines_.end(), std::uint8_t{0});
}

} // namespace pktchase::cache
