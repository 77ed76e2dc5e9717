#include "spy.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pktchase::channel
{

std::vector<unsigned>
ListenResult::symbols() const
{
    std::vector<unsigned> out;
    out.reserve(events.size());
    for (const SymbolEvent &e : events)
        out.push_back(e.symbol);
    return out;
}

SpyDecoder::SpyDecoder(Scheme scheme, std::size_t buffers,
                       std::size_t stream)
    : scheme_(scheme), stream_(stream), raw_(buffers)
{
}

void
SpyDecoder::onObservation(const attack::ProbeObservation &obs)
{
    if (obs.kind != attack::ProbeKind::Sample ||
        obs.stream != stream_) {
        return;
    }
    if (obs.buffer >= raw_.size() || obs.activeCount < 3)
        panic("SpyDecoder: observation does not look like a spy round");
    raw_[obs.buffer].push_back(RawSample{obs.when, obs.active[0] != 0,
                                         obs.active[1] != 0,
                                         obs.active[2] != 0});
    // One engine round probes every buffer once; count it when the
    // first buffer reports.
    if (obs.buffer == 0)
        ++rounds_;
}

ListenResult
SpyDecoder::result() const
{
    ListenResult out;
    out.rounds = rounds_;
    for (std::size_t b = 0; b < raw_.size(); ++b) {
        std::vector<SymbolEvent> events = decodeBuffer(b, raw_[b]);
        out.events.insert(out.events.end(), events.begin(),
                          events.end());
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const SymbolEvent &a, const SymbolEvent &b) {
                  return a.when < b.when;
              });
    return out;
}

std::vector<SymbolEvent>
SpyDecoder::decodeBuffer(std::size_t buffer,
                         const std::vector<RawSample> &samples) const
{
    // Group consecutive clock-active samples into one packet event and
    // OR the data rows across a bounded window (wide peaks span two
    // samples; skewed arrivals shift data activity by one sample).
    std::vector<SymbolEvent> events;
    std::size_t i = 0;
    while (i < samples.size()) {
        if (!samples[i].clock) {
            ++i;
            continue;
        }
        bool b2 = false, b3 = false;
        const std::size_t end =
            std::min(samples.size(), i + kDecodeWindow);
        std::size_t j = i;
        for (; j < end && samples[j].clock; ++j) {
            b2 |= samples[j].b2;
            b3 |= samples[j].b3;
        }
        events.push_back(SymbolEvent{samples[i].when,
                                     decodeActivity(scheme_, b2, b3),
                                     buffer});
        i = std::max(j, i + 1);
        // Skip the remainder of an over-long run (background noise can
        // stretch the clock row) so one packet yields one symbol.
        while (i < samples.size() && samples[i].clock)
            ++i;
    }
    return events;
}

namespace
{

std::vector<std::vector<attack::EvictionSet>>
spyBufferSets(const attack::ComboGroups &groups,
              const std::vector<std::size_t> &buffer_combos,
              unsigned ways)
{
    if (buffer_combos.empty())
        panic("CovertSpy needs at least one monitored buffer");
    std::vector<std::vector<attack::EvictionSet>> out;
    out.reserve(buffer_combos.size());
    for (std::size_t combo : buffer_combos) {
        const attack::EvictionSet base =
            groups.evictionSetFor(combo, ways);
        std::vector<attack::EvictionSet> sets;
        sets.push_back(base.atBlock(1)); // clock (prefetch row)
        sets.push_back(base.atBlock(2));
        sets.push_back(base.atBlock(3));
        out.push_back(std::move(sets));
    }
    return out;
}

} // namespace

CovertSpy::CovertSpy(cache::Hierarchy &hier,
                     const attack::ComboGroups &groups,
                     std::vector<std::size_t> buffer_combos,
                     Scheme scheme, double probe_rate_hz)
    : engine_(hier, attack::ProbeEngineConfig::sampling(probe_rate_hz)),
      decoder_(scheme, buffer_combos.size())
{
    engine_.addSampleStream(spyBufferSets(groups, buffer_combos,
                                          hier.llc().geometry().ways));
    engine_.attach(decoder_);
}

ListenResult
CovertSpy::listen(EventQueue &eq, Cycles horizon)
{
    engine_.run(eq, horizon);
    return decoder_.result();
}

} // namespace pktchase::channel
