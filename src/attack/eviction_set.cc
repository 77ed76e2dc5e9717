#include "eviction_set.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pktchase::attack
{

EvictionSet
ComboGroups::evictionSetFor(std::size_t c, unsigned ways) const
{
    if (c >= groups.size())
        panic("ComboGroups::evictionSetFor combo out of range");
    EvictionSet es;
    const auto &g = groups[c];
    const std::size_t take =
        std::min<std::size_t>(g.size(), ways);
    es.addrs.assign(g.begin(), g.begin() + take);
    return es;
}

EvictionSetBuilder::EvictionSetBuilder(cache::Hierarchy &hier,
                                       mem::AddressSpace &space,
                                       const BuilderConfig &cfg)
    : hier_(hier), space_(space), cfg_(cfg)
{
    allocatePool();
}

void
EvictionSetBuilder::allocatePool()
{
    const Addr base = space_.mmap(cfg_.poolPages);
    poolPhys_.reserve(cfg_.poolPages);
    for (std::size_t i = 0; i < cfg_.poolPages; ++i)
        poolPhys_.push_back(space_.translate(base + i * pageBytes));
}

ComboGroups
EvictionSetBuilder::buildWithOracle()
{
    const auto &geom = hier_.llc().geometry();
    ComboGroups out;
    out.groups.assign(geom.pageAlignedCombos(), {});
    for (Addr page : poolPhys_) {
        const unsigned slice = hier_.llc().sliceHash().slice(page);
        const unsigned set = geom.setIndex(page);
        const std::size_t rank =
            static_cast<std::size_t>(slice) *
                geom.pageAlignedSetsPerSlice() +
            set / blocksPerPage;
        out.groups[rank].push_back(page);
    }
    return out;
}

bool
EvictionSetBuilder::evictsOnce(const std::vector<Addr> &candidate,
                               Addr target)
{
    // PRIME: bring the target into the cache.
    vnow_ += hier_.timedRead(target, vnow_);
    ++timedLoads_;
    // Sweep the candidate set.
    for (Addr a : candidate) {
        vnow_ += hier_.timedRead(a, vnow_);
        ++timedLoads_;
    }
    // PROBE: a slow reload means the candidate evicted the target.
    const Cycles lat = hier_.timedRead(target, vnow_);
    vnow_ += lat;
    ++timedLoads_;
    return lat > kMissThreshold;
}

bool
EvictionSetBuilder::evicts(const std::vector<Addr> &candidate, Addr target)
{
    unsigned yes = 0;
    for (unsigned v = 0; v < kConflictVotes; ++v)
        if (evictsOnce(candidate, target))
            ++yes;
    return yes * 2 > kConflictVotes;
}

std::vector<Addr>
EvictionSetBuilder::reduce(std::vector<Addr> candidates, Addr target)
{
    const unsigned ways = hier_.llc().geometry().ways;
    unsigned reshuffles = 0;
    while (candidates.size() > ways) {
        const std::size_t chunks =
            std::min<std::size_t>(ways + 1, candidates.size());
        const std::size_t chunk_len =
            (candidates.size() + chunks - 1) / chunks;
        bool removed = false;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t lo = c * chunk_len;
            const std::size_t hi =
                std::min(lo + chunk_len, candidates.size());
            if (lo >= hi)
                continue;
            std::vector<Addr> rest;
            rest.reserve(candidates.size() - (hi - lo));
            rest.insert(rest.end(), candidates.begin(),
                        candidates.begin() +
                            static_cast<std::ptrdiff_t>(lo));
            rest.insert(rest.end(),
                        candidates.begin() +
                            static_cast<std::ptrdiff_t>(hi),
                        candidates.end());
            if (evicts(rest, target)) {
                candidates = std::move(rest);
                removed = true;
                break;
            }
        }
        if (!removed && candidates.size() <= 4 * ways) {
            // Near the end every chunk can hold a conflicting page,
            // leaving no removable chunk. Singleton removal always
            // makes progress when any non-essential page remains.
            for (std::size_t i = 0; i < candidates.size(); ++i) {
                std::vector<Addr> rest = candidates;
                rest.erase(rest.begin() +
                           static_cast<std::ptrdiff_t>(i));
                if (evicts(rest, target)) {
                    candidates = std::move(rest);
                    removed = true;
                    break;
                }
            }
        }
        if (!removed) {
            // Timing noise kept every element essential-looking:
            // reshuffle and retry (Vila et al.'s randomized variant);
            // give up only after several attempts, leaving an
            // oversized but still functional eviction set.
            if (++reshuffles > 10)
                break;
            rng_.shuffle(candidates);
        }
    }
    return candidates;
}

ComboGroups
EvictionSetBuilder::buildByConflictTesting(std::size_t max_groups)
{
    ComboGroups out;
    std::vector<Addr> remaining = poolPhys_;

    while (!remaining.empty() &&
           (max_groups == 0 || out.groups.size() < max_groups)) {
        const Addr target = remaining.front();
        std::vector<Addr> candidates(remaining.begin() + 1,
                                     remaining.end());
        if (!evicts(candidates, target)) {
            // Too few same-combo peers in the pool to evict the target;
            // no eviction set can be built for it. Drop it.
            remaining.erase(remaining.begin());
            continue;
        }

        std::vector<Addr> minimal = reduce(std::move(candidates), target);

        // Gather every remaining pool page that conflicts with the
        // minimal set: those share the target's combo.
        std::vector<Addr> group;
        group.push_back(target);
        std::vector<Addr> rest;
        for (Addr q : remaining) {
            if (q == target)
                continue;
            const bool in_minimal =
                std::find(minimal.begin(), minimal.end(), q) !=
                minimal.end();
            if (in_minimal || evicts(minimal, q))
                group.push_back(q);
            else
                rest.push_back(q);
        }
        out.groups.push_back(std::move(group));
        remaining = std::move(rest);
    }
    return out;
}

} // namespace pktchase::attack
