#include "probe_engine.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::attack
{

namespace
{

/** Build the monitor sets for one ring slot's page. */
std::vector<EvictionSet>
slotSets(const ComboGroups &groups, std::size_t combo, unsigned ways,
         unsigned first_block, unsigned size_blocks, bool lower_only)
{
    std::vector<EvictionSet> sets;
    sets.reserve(2 * size_blocks);
    const EvictionSet base = groups.evictionSetFor(combo, ways);
    for (unsigned b = first_block; b < first_block + size_blocks; ++b)
        sets.push_back(base.atBlock(b));
    if (!lower_only) {
        const unsigned half = static_cast<unsigned>(blocksPerPage / 2);
        for (unsigned b = first_block; b < first_block + size_blocks;
             ++b) {
            sets.push_back(base.atBlock(half + b));
        }
    }
    return sets;
}

} // namespace

ProbeEngine::ProbeEngine(cache::Hierarchy &hier,
                         const ProbeEngineConfig &cfg)
    : hier_(hier), cfg_(cfg)
{
}

std::size_t
ProbeEngine::addChaseStream(const ComboGroups &groups,
                            std::vector<std::size_t> combo_seq)
{
    if (ran_)
        panic("ProbeEngine: cannot add streams after run()");
    if (combo_seq.empty())
        panic("ProbeEngine: a chase stream needs a nonempty sequence");
    auto st = std::make_unique<Stream>();
    st->chase = true;
    st->monitors.reserve(combo_seq.size());
    for (std::size_t combo : combo_seq) {
        st->monitors.emplace_back(
            hier_,
            slotSets(groups, combo, hier_.llc().geometry().ways,
                     cfg_.firstBlock, cfg_.sizeBlocks,
                     cfg_.lowerHalfOnly));
    }
    st->accum.assign(st->monitors[0].size(), 0);
    streams_.push_back(std::move(st));
    return streams_.size() - 1;
}

std::size_t
ProbeEngine::addSampleStream(
    std::vector<std::vector<EvictionSet>> buffer_sets)
{
    if (ran_)
        panic("ProbeEngine: cannot add streams after run()");
    if (buffer_sets.empty())
        panic("ProbeEngine: a sample stream needs at least one monitor");
    auto st = std::make_unique<Stream>();
    st->chase = false;
    st->monitors.reserve(buffer_sets.size());
    for (auto &sets : buffer_sets)
        st->monitors.emplace_back(hier_, std::move(sets));
    streams_.push_back(std::move(st));
    return streams_.size() - 1;
}

void
ProbeEngine::attach(ProbeObserver &obs)
{
    observers_.push_back(&obs);
}

const ProbeEngine::StreamStats &
ProbeEngine::stats(std::size_t stream) const
{
    if (stream >= streams_.size())
        panic("ProbeEngine::stats: no such stream");
    return streams_[stream]->stats;
}

void
ProbeEngine::deliver(ProbeObservation &obs)
{
    obs.seq = nextSeq_++;
    for (ProbeObserver *o : observers_)
        o->onObservation(obs);
}

unsigned
ProbeEngine::classify(const std::vector<std::uint8_t> &active,
                      bool &second_half) const
{
    const unsigned n = cfg_.sizeBlocks;
    // A packet fires the first monitored row (block 0, or block 1 in
    // covert mode where the prefetch guarantees it) of whichever half
    // the driver handed to the NIC; size class is the highest active
    // block in that half.
    auto class_of = [&](unsigned base) -> unsigned {
        if (!active[base])
            return 0;
        unsigned cls = cfg_.firstBlock + 1;
        for (unsigned b = 1; b < n; ++b)
            if (active[base + b])
                cls = cfg_.firstBlock + b + 1;
        return cls;
    };
    const unsigned lower = class_of(0);
    const unsigned upper = (active.size() >= 2 * n) ? class_of(n) : 0;
    if (lower >= upper) {
        second_half = false;
        return lower;
    }
    second_half = true;
    return upper;
}

void
ProbeEngine::scheduleChase(EventQueue &eq, Stream &st, std::size_t id,
                           Cycles horizon)
{
    st.lastActivity = eq.now();
    // A packet's DMA can land mid-probe, splitting its evidence across
    // two rounds (early rows in this round, late rows -- already
    // re-primed -- only via the previous round). Activity is therefore
    // accumulated across the probes of one slot visit and classified
    // once the first monitored row has fired.
    st.step = [this, &eq, &st, id, horizon] {
        static const obs::ProfilePhase kChasePhase{"probe.chase-round",
                                                   "attack"};
        const obs::ScopedSpan span(kChasePhase);
        const ProbeSample &s = st.monitors[st.cursor].probeAll(eq.now());
        ++st.stats.probes;
        for (std::size_t i = 0; i < st.accum.size(); ++i)
            st.accum[i] |= s.active[i];
        bool second_half = false;
        const unsigned cls = classify(st.accum, second_half);
        if (cls > 0) {
            ++st.stats.packets;
            ProbeObservation obs;
            obs.kind = ProbeKind::Packet;
            obs.when = eq.now();
            obs.stream = id;
            obs.buffer = st.cursor;
            obs.sizeClass = cls;
            obs.secondHalf = second_half;
            deliver(obs);
            st.lastActivity = eq.now();
            st.cursor = (st.cursor + 1) % st.monitors.size();
            std::fill(st.accum.begin(), st.accum.end(), 0);
        } else if (eq.now() - st.lastActivity > kResyncTimeout) {
            // Lost the ring position: park here until the ring wraps
            // and this buffer fills again.
            ++st.stats.outOfSyncEvents;
            ProbeObservation obs;
            obs.kind = ProbeKind::Resync;
            obs.when = eq.now();
            obs.stream = id;
            obs.buffer = st.cursor;
            deliver(obs);
            st.lastActivity = eq.now();
            std::fill(st.accum.begin(), st.accum.end(), 0);
        }
        // The next probe cannot start before this one's loads retired:
        // the probe cost is what lets fast senders outrun the spy
        // (the Fig. 12c/d error jump at the top rate).
        const Cycles next =
            std::max(eq.now() + cfg_.probeInterval, s.end);
        if (next <= horizon)
            eq.schedule(next, st.step);
    };
    eq.schedule(eq.now(), st.step);
}

void
ProbeEngine::scheduleSample(EventQueue &eq, Stream &st, std::size_t id,
                            Cycles horizon)
{
    const Cycles interval = secondsToCycles(1.0 / cfg_.sampleRateHz);
    st.step = [this, &eq, &st, id, horizon, interval] {
        static const obs::ProfilePhase kSamplePhase{"probe.sample-round",
                                                    "attack"};
        const obs::ScopedSpan span(kSamplePhase);
        Cycles t = eq.now();
        for (std::size_t b = 0; b < st.monitors.size(); ++b) {
            const ProbeSample &s = st.monitors[b].probeAll(t);
            t = s.end;
            ProbeObservation obs;
            obs.kind = ProbeKind::Sample;
            obs.when = s.start;
            obs.stream = id;
            obs.buffer = b;
            obs.active = s.active.data();
            obs.activeCount = s.active.size();
            deliver(obs);
        }
        ++st.stats.probes;
        const Cycles cost = t - eq.now();
        const Cycles next = eq.now() + std::max(interval, cost);
        if (next <= horizon)
            eq.schedule(next, st.step);
    };
    eq.schedule(eq.now(), st.step);
}

void
ProbeEngine::run(EventQueue &eq, Cycles horizon)
{
    if (ran_)
        panic("ProbeEngine::run: one run per engine");
    if (streams_.empty())
        panic("ProbeEngine::run: no streams");
    ran_ = true;

    // Prime every stream once; from then on each probe doubles as the
    // re-prime of its sets, so evidence of a packet that lands before
    // the spy reaches its buffer survives until the probe arrives
    // (stale by at most one ring lap).
    for (auto &st : streams_)
        for (auto &m : st->monitors)
            m.primeAll(eq.now());

    // Streams are scheduled in id order at the same cycle; the event
    // queue's FIFO tie-break keeps the round interleaving -- and hence
    // the merged observation order -- deterministic.
    for (std::size_t id = 0; id < streams_.size(); ++id) {
        Stream &st = *streams_[id];
        if (st.chase)
            scheduleChase(eq, st, id, horizon);
        else
            scheduleSample(eq, st, id, horizon);
    }
    eq.runUntil(horizon);
}

void
ChasingObserver::onObservation(const ProbeObservation &obs)
{
    if (obs.kind == ProbeKind::Packet) {
        packets_.push_back(PacketObservation{obs.when, obs.sizeClass,
                                             obs.secondHalf, obs.buffer,
                                             obs.stream});
    } else if (obs.kind == ProbeKind::Resync) {
        ++outOfSync_;
    }
}

} // namespace pktchase::attack
