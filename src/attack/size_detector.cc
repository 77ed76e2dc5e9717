#include "size_detector.hh"

#include "sim/logging.hh"

namespace pktchase::attack
{

SizeClassifier::SizeClassifier(unsigned rows, std::size_t combos,
                               std::size_t stream)
    : stream_(stream),
      hits_(rows, std::vector<std::uint64_t>(combos, 0))
{
}

void
SizeClassifier::onObservation(const ProbeObservation &obs)
{
    if (obs.kind != ProbeKind::Sample || obs.stream != stream_)
        return;
    if (obs.buffer >= hits_.size() ||
        obs.activeCount != hits_[obs.buffer].size()) {
        panic("SizeClassifier: observation does not match the rows");
    }
    for (std::size_t c = 0; c < obs.activeCount; ++c)
        hits_[obs.buffer][c] += obs.active[c];
    // One engine round probes every row once; count it when row 0
    // reports.
    if (obs.buffer == 0)
        ++rounds_;
}

std::vector<std::vector<double>>
SizeClassifier::rates() const
{
    std::vector<std::vector<double>> out(
        hits_.size(),
        std::vector<double>(hits_.empty() ? 0 : hits_[0].size(), 0.0));
    if (rounds_ == 0)
        return out;
    for (std::size_t row = 0; row < hits_.size(); ++row)
        for (std::size_t c = 0; c < hits_[row].size(); ++c)
            out[row][c] = static_cast<double>(hits_[row][c]) /
                static_cast<double>(rounds_);
    return out;
}

namespace
{

std::vector<std::vector<EvictionSet>>
rowSets(const ComboGroups &groups,
        const std::vector<std::size_t> &combos, unsigned ways)
{
    if (combos.empty())
        panic("SizeDetector needs at least one combo");
    std::vector<std::vector<EvictionSet>> out;
    out.reserve(SizeDetector::kRows);
    for (unsigned row = 0; row < SizeDetector::kRows; ++row) {
        std::vector<EvictionSet> sets;
        sets.reserve(combos.size());
        for (std::size_t c : combos)
            sets.push_back(groups.evictionSetFor(c, ways).atBlock(row));
        out.push_back(std::move(sets));
    }
    return out;
}

} // namespace

SizeDetector::SizeDetector(cache::Hierarchy &hier,
                           const ComboGroups &groups,
                           std::vector<std::size_t> combos)
    : engine_(hier, ProbeEngineConfig::sampling(kProbeRateHz)),
      classifier_(kRows, combos.size())
{
    engine_.addSampleStream(
        rowSets(groups, combos, hier.llc().geometry().ways));
    engine_.attach(classifier_);
}

std::vector<std::vector<double>>
SizeDetector::measure(EventQueue &eq, Cycles horizon)
{
    engine_.run(eq, horizon);
    return classifier_.rates();
}

std::vector<double>
SizeDetector::rowActivity(const std::vector<std::vector<double>> &m)
{
    std::vector<double> out;
    out.reserve(m.size());
    for (const auto &row : m) {
        double sum = 0.0;
        for (double v : row)
            sum += v;
        out.push_back(row.empty() ? 0.0
                                  : sum / static_cast<double>(row.size()));
    }
    return out;
}

} // namespace pktchase::attack
