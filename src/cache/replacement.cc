#include "replacement.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace pktchase::cache
{

// ---------------------------------------------------------------- LRU --

// touch/victim/reset live in the header so the Llc's devirtualized
// fast path can inline them.

void
LruPolicy::panicEmptyMask()
{
    panic("LruPolicy::victim with empty candidate mask");
}

void
LruPolicy::renumber()
{
    // Nonzero stamps are distinct within a set (each touch takes a
    // fresh clock value), so ranks keep their order exactly; zero
    // (never used or reset) stays zero and stays oldest.
    std::vector<std::uint32_t> old(ways_);
    for (std::size_t base = 0; base < stamps_.size(); base += ways_) {
        std::uint32_t *stamps = &stamps_[base];
        std::copy(stamps, stamps + ways_, old.begin());
        for (unsigned w = 0; w < ways_; ++w) {
            if (old[w] == 0)
                continue;
            std::uint32_t rank = 1;
            for (unsigned v = 0; v < ways_; ++v)
                if (old[v] != 0 && old[v] < old[w])
                    ++rank;
            stamps[w] = rank;
        }
    }
    clock_ = ways_ + 1;
}

// ---------------------------------------------------------- Tree-PLRU --

TreePlruPolicy::TreePlruPolicy(std::size_t sets, unsigned ways)
    : ways_(ways), treeWays_(static_cast<unsigned>(bitCeil64(ways))),
      bits_(sets * (static_cast<unsigned>(bitCeil64(ways)) - 1), 0)
{
}

bool
TreePlruPolicy::anyCandidate(WayMask mask, unsigned lo, unsigned hi) const
{
    for (unsigned w = lo; w < hi && w < ways_; ++w)
        if (mask & (WayMask(1) << w))
            return true;
    return false;
}

void
TreePlruPolicy::touch(std::size_t set, unsigned way)
{
    // Walk from the root, flipping each node to point away from the
    // touched way.
    std::uint8_t *tree = &bits_[set * (treeWays_ - 1)];
    unsigned node = 0;
    unsigned lo = 0, hi = treeWays_;
    while (hi - lo > 1) {
        const unsigned mid = (lo + hi) / 2;
        const bool right = way >= mid;
        tree[node] = right ? 0 : 1; // 0: victim goes left next time
        node = 2 * node + 1 + (right ? 1 : 0);
        if (right)
            lo = mid;
        else
            hi = mid;
    }
}

unsigned
TreePlruPolicy::victim(std::size_t set, WayMask mask)
{
    if (mask == 0)
        panic("TreePlruPolicy::victim with empty candidate mask");
    std::uint8_t *tree = &bits_[set * (treeWays_ - 1)];
    unsigned node = 0;
    unsigned lo = 0, hi = treeWays_;
    while (hi - lo > 1) {
        const unsigned mid = (lo + hi) / 2;
        bool go_right = tree[node] != 0;
        // Respect the candidate mask: if the preferred subtree holds no
        // candidate, take the other branch.
        if (go_right && !anyCandidate(mask, mid, hi))
            go_right = false;
        else if (!go_right && !anyCandidate(mask, lo, mid))
            go_right = true;
        node = 2 * node + 1 + (go_right ? 1 : 0);
        if (go_right)
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

void
TreePlruPolicy::reset(std::size_t, unsigned)
{
    // Tree bits carry no per-line validity; nothing to clear.
}

// ------------------------------------------------------------- Random --

RandomPolicy::RandomPolicy(std::size_t, unsigned, Rng rng)
    : rng_(rng)
{
}

void
RandomPolicy::touch(std::size_t, unsigned)
{
}

unsigned
RandomPolicy::victim(std::size_t, WayMask mask)
{
    if (mask == 0)
        panic("RandomPolicy::victim with empty candidate mask");
    const unsigned count = static_cast<unsigned>(popcount64(mask));
    unsigned pick = static_cast<unsigned>(rng_.nextBounded(count));
    for (unsigned w = 0; ; ++w) {
        if (mask & (WayMask(1) << w)) {
            if (pick == 0)
                return w;
            --pick;
        }
    }
}

void
RandomPolicy::reset(std::size_t, unsigned)
{
}

std::unique_ptr<ReplacementPolicy>
makeReplacement(ReplacementKind kind, std::size_t sets, unsigned ways,
                Rng rng)
{
    switch (kind) {
      case ReplacementKind::Lru:
        return std::make_unique<LruPolicy>(sets, ways);
      case ReplacementKind::TreePlru:
        return std::make_unique<TreePlruPolicy>(sets, ways);
      case ReplacementKind::Random:
        return std::make_unique<RandomPolicy>(sets, ways, rng);
    }
    panic("makeReplacement: unknown kind");
}

} // namespace pktchase::cache
