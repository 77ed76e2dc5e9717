#include "prime_probe.hh"

#include "obs/stats.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace pktchase::attack
{

namespace
{

/** Append the keys of @p set's lines to @p keys (tag-checked). */
void
appendKeys(const cache::Llc &llc, const EvictionSet &set,
           std::vector<cache::LineKey> &keys)
{
    for (Addr a : set.addrs)
        keys.push_back(llc.lineKey(a));
}

} // namespace

PrimeProbeMonitor::PrimeProbeMonitor(cache::Hierarchy &hier,
                                     std::vector<EvictionSet> sets)
    : hier_(hier)
{
    if (sets.empty())
        panic("PrimeProbeMonitor needs at least one eviction set");
    std::size_t lines = 0;
    for (const EvictionSet &es : sets)
        lines += es.addrs.size();
    keys_.reserve(lines);
    setStart_.reserve(sets.size() + 1);
    for (const EvictionSet &es : sets) {
        setStart_.push_back(keys_.size());
        appendKeys(hier_.llc(), es, keys_);
    }
    setStart_.push_back(keys_.size());
    sample_.active.resize(sets.size());
}

Cycles
PrimeProbeMonitor::primeAll(Cycles now)
{
    static const obs::ProfilePhase kPrimePhase{"llc.prime", "cache"};
    const obs::ScopedSpan span(kPrimePhase);
    unsigned misses = 0;
    const Cycles t = hier_.timedWalk(keys_.data(), keys_.size(), now,
                                     kMissThreshold, misses);
    timedLoads_ += keys_.size();
    return t - now;
}

unsigned
PrimeProbeMonitor::probeOne(std::size_t index, Cycles now,
                            Cycles &elapsed)
{
    if (index >= size())
        panic("PrimeProbeMonitor::probeOne out of range");
    const std::size_t begin = setStart_[index];
    const std::size_t n = setStart_[index + 1] - begin;
    unsigned misses = 0;
    elapsed = hier_.timedWalk(keys_.data() + begin, n, now,
                              kMissThreshold, misses) - now;
    timedLoads_ += n;
    return misses;
}

const ProbeSample &
PrimeProbeMonitor::probeAll(Cycles now)
{
    // One prime+probe round = one LLC walk over the monitor list; this
    // is the attacker pipeline's innermost hot path, so it carries
    // both the probe-round counter and the llc.walk trace span. Each
    // set is one timedWalk over its key range; the set boundaries
    // only mark where the active flag latches.
    static const obs::ProfilePhase kWalkPhase{"llc.walk", "cache"};
    const obs::ScopedSpan span(kWalkPhase);
    obs::bump(obs::Stat::ProbeRounds);
    sample_.start = now;
    Cycles t = now;
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
        unsigned misses = 0;
        t = hier_.timedWalk(keys_.data() + setStart_[i],
                            setStart_[i + 1] - setStart_[i], t,
                            kMissThreshold, misses);
        sample_.active[i] = misses > 0 ? 1 : 0;
    }
    timedLoads_ += keys_.size();
    sample_.end = t;
    return sample_;
}

void
PrimeProbeMonitor::replaceSet(std::size_t index, EvictionSet set)
{
    if (index >= size())
        panic("PrimeProbeMonitor::replaceSet out of range");
    std::vector<cache::LineKey> keys;
    appendKeys(hier_.llc(), set, keys);
    const std::size_t begin = setStart_[index];
    const std::size_t old_len = setStart_[index + 1] - begin;
    const auto at = keys_.begin() + static_cast<std::ptrdiff_t>(begin);
    keys_.insert(keys_.erase(at, at + static_cast<std::ptrdiff_t>(old_len)),
                 keys.begin(), keys.end());
    for (std::size_t i = index + 1; i < setStart_.size(); ++i)
        setStart_[i] = setStart_[i] - old_len + keys.size();
}

} // namespace pktchase::attack
