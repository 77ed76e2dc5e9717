/**
 * @file
 * Google-benchmark microbenchmarks of the simulator primitives, to
 * document the substrate's own throughput (host ops/sec, not simulated
 * performance).
 */

#include <benchmark/benchmark.h>

#include "attack/prime_probe.hh"
#include "net/traffic.hh"
#include "testbed/testbed.hh"

using namespace pktchase;

namespace
{

testbed::Testbed &
sharedBed()
{
    static testbed::Testbed tb(testbed::TestbedConfig{});
    return tb;
}

void
BM_LlcCpuRead(benchmark::State &state)
{
    auto &tb = sharedBed();
    Rng rng(1);
    Cycles t = 0;
    for (auto _ : state) {
        const Addr a = rng.nextBounded(Addr(128) << 20) & ~Addr(63);
        benchmark::DoNotOptimize(tb.hier().llc().cpuRead(a, t++));
    }
}
BENCHMARK(BM_LlcCpuRead);

void
BM_TimedRead(benchmark::State &state)
{
    auto &tb = sharedBed();
    Rng rng(2);
    Cycles t = 0;
    for (auto _ : state) {
        const Addr a = rng.nextBounded(Addr(128) << 20) & ~Addr(63);
        t += tb.hier().timedRead(a, t);
    }
}
BENCHMARK(BM_TimedRead);

void
BM_DmaWriteBlock(benchmark::State &state)
{
    auto &tb = sharedBed();
    Rng rng(3);
    Cycles t = 0;
    for (auto _ : state) {
        const Addr a = rng.nextBounded(Addr(128) << 20) & ~Addr(63);
        tb.hier().dmaWrite(a, 64, t++);
    }
}
BENCHMARK(BM_DmaWriteBlock);

void
BM_DriverReceive(benchmark::State &state)
{
    auto &tb = sharedBed();
    nic::Frame f;
    f.bytes = static_cast<Addr>(state.range(0));
    Cycles t = 0;
    for (auto _ : state) {
        tb.driver().receive(f, t);
        t += 10000;
    }
}
BENCHMARK(BM_DriverReceive)->Arg(64)->Arg(256)->Arg(1514);

void
BM_ProbeRound(benchmark::State &state)
{
    auto &tb = sharedBed();
    std::vector<attack::EvictionSet> sets;
    for (std::size_t c = 0; c < static_cast<std::size_t>(state.range(0));
         ++c) {
        sets.push_back(tb.groups().evictionSetFor(
            c, tb.config().llc.geom.ways));
    }
    attack::PrimeProbeMonitor mon(tb.hier(), std::move(sets));
    Cycles t = 0;
    mon.primeAll(t);
    for (auto _ : state) {
        const attack::ProbeSample s = mon.probeAll(t);
        t = s.end + 1;
        benchmark::DoNotOptimize(s.active.data());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ProbeRound)->Arg(32)->Arg(256);

void
BM_EventQueueChurn(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<Cycles>(i), [&sink] { ++sink; });
        eq.runUntil(1000);
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueChurn);

} // namespace

BENCHMARK_MAIN();
