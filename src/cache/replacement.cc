#include "replacement.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pktchase::cache
{

// touch/victim/reset live in the header so the Llc's access paths
// inline them.

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

} // namespace pktchase::cache
