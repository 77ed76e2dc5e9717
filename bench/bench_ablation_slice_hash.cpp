/**
 * @file
 * Ablation: does the complexity of the slice hash matter to the
 * attacker? The eviction-set strategy groups pages by observed
 * conflicts, never inverting the hash, so footprint recovery should be
 * equally effective whether the LLC uses the XOR-fold "complex
 * indexing" or a trivial identity mapping. This supports the paper's
 * premise that unpublished hashes are not a defense.
 */

#include <cstdio>
#include <set>

#include "attack/footprint.hh"
#include "bench_util.hh"
#include "cache/slice_hash.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

namespace
{

double
footprintRecall(std::unique_ptr<cache::SliceHash> hash,
                const char *name)
{
    // Build a testbed manually so we can swap the hash.
    testbed::TestbedConfig cfg;
    cfg.seed = 5;
    mem::PhysMem phys(cfg.physBytes, Rng(cfg.seed));
    cache::Hierarchy hier(cfg.llc, cfg.hier, std::move(hash));
    nic::IgbDriver driver(cfg.igb, phys, hier);
    mem::AddressSpace space(phys, mem::Owner::Attacker);
    attack::EvictionSetBuilder builder(hier, space, cfg.builder);
    const attack::ComboGroups groups = builder.buildWithOracle();

    EventQueue eq;
    std::vector<std::size_t> all;
    for (std::size_t c = 0; c < groups.groups.size(); ++c)
        all.push_back(c);
    attack::FootprintScanner scanner(hier, groups, all);
    net::TrafficPump pump(
        eq, driver,
        std::make_unique<net::ConstantStream>(192, 200000.0, 0),
        eq.now() + 1000);
    const auto samples =
        scanner.scan(eq, eq.now() + secondsToCycles(0.05));
    const auto found = attack::FootprintScanner::candidateBufferSets(
        samples, 0.05, 0.95);

    // Ground truth: combos hosting buffers under this hash.
    std::set<std::size_t> truth;
    const auto &geom = cfg.llc.geom;
    for (std::size_t i = 0; i < driver.ring().size(); ++i) {
        const Addr page = driver.pageBase(i);
        truth.insert(hier.llc().sliceHash().slice(page) *
                         geom.pageAlignedSetsPerSlice() +
                     geom.setIndex(page) / blocksPerPage);
    }
    unsigned hits = 0;
    for (std::size_t c : found)
        hits += truth.count(c);
    const double recall =
        truth.empty() ? 0.0
                      : static_cast<double>(hits) /
                static_cast<double>(truth.size());
    std::printf("  %-28s %10.1f%% %14zu %12zu\n", name, recall * 100.0,
                found.size(), truth.size());
    return recall;
}

} // namespace

int
main()
{
    bench::banner("Ablation: slice hash",
                  "Footprint recall under different slice-selection "
                  "hashes (expected: complex indexing does not impede "
                  "the attack)");

    std::printf("  %-28s %11s %14s %12s\n", "hash", "recall",
                "combos found", "ground truth");
    bench::rule(70);
    footprintRecall(cache::XorFoldSliceHash::sandyBridgeEP8(),
                    "xor-fold (Sandy Bridge-EP)");
    footprintRecall(std::make_unique<cache::IdentitySliceHash>(8, 17),
                    "identity (bits 17..19)");
    bench::rule(70);
    return 0;
}
