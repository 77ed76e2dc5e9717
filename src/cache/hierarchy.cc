#include "hierarchy.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hh"

namespace pktchase::cache
{

// timedRead's fast path. A timed read returns
//
//   Cycles(max(base + (0.0 + sigma * g) [+ outlier], 1.0))
//
// with g = Rng::boxMuller(u1, u2).first or .second. Only the integer
// matters, so the fast path rounds an approximation g~ of g and calls
// the libm transform only when the approximate latency is too close
// to an integer to round with certainty.
//
// Error bound E on |g~ - g| (u1 in [2^-53, 1), u2 in [0, 1)):
//  - ln u1 = e ln2 + ln c_i + p(r): a 256-entry table of c_i =
//    1 + (i + 1/2) / 256, 1 / c_i and ln c_i, and a degree-4 series
//    for ln(1 + r), |r| <= 2^-9 (truncation <= 2^-45 / 5). Rounding
//    of e * ln2 (|e| <= 53) and the two sums adds < 1.4e-14, so
//    |ln~ - ln| <= 2^-45. libm's own log is within 1 ulp (<= 2^-47).
//    So |L~ - L| <= 2^-43 for L = -2 ln u1.
//  - sqrt: |sqrt(a) - sqrt(b)| <= sqrt(|a - b|), so the magnitudes
//    differ by <= 2^-21.5 + 2^-49.
//  - cos/sin(2 pi u2): a 257-entry table at multiples of 2 pi / 256
//    and degree-3/4 series in |phi| <= pi/256 (truncation < 2.4e-12).
//    libm's argument fl(2 pi u2) is off by <= 7e-16; table and
//    arithmetic rounding add < 2e-15. Total < 2^-38.
//  - g = mag * trig with mag <= 8.58: E < 2^-21.5 + 2^-49 +
//    8.58 * 2^-38 + 2^-49 < 2^-21.
// The latency sum rounds s = sigma * g, then base + s, then
// + outlier, on both sides. Each magnitude is <= M = base + outlier
// + 9 sigma, so the six roundings add <= 6 * 2^-53 * M < 2^-50 * M.
// The exact latency therefore lies within
//
//   B = sigma * 2^-21 + M * 2^-50
//
// of the approximate one. If the approximate latency x satisfies
// x + B < 2, the result is 1. If B <= frac(x) < 1 - B, the result is
// floor(x). Anything else, and any B >= 1/4, takes the exact path.
// sigma = 0 adds exactly zero noise and needs no transform at all.
//
// A noiseless hierarchy (sigma = 0 and outlierProb = 0) is the one
// exception to "every read draws its noise": the noise then adds
// exactly zero to every latency, so both timedRead and timedWalk skip
// the generator and return max(base, 1), precomputed as
// quietHit/quietMiss. The noise state is never read for anything but
// latencies, so no result can tell the reads that were not drawn.
//
// timedWalk runs the same two steps, drawNoise then measure, in
// chunks: it draws kWalkChunk reads' noise (pair uniforms, approximate
// variates, outlier trials) ahead, then makes the chunk's LLC accesses
// and rounds each latency. That is exact. A read's draws never depend
// on whether it hit, and nothing but drawNoise reads noise_ -- the LLC's
// hooks and telemetry have no path to it -- so drawing ahead takes
// the same values in the same order as drawing after each access.

namespace
{

constexpr int kLogBits = 8;
constexpr int kTrigBits = 8;
constexpr double kLn2 = 0.6931471805599453;

struct LogEntry
{
    double c;    ///< 1 + (i + 1/2) / 256.
    double invC; ///< 1 / c.
    double logC; ///< ln c.
};

struct TrigEntry
{
    double cos; ///< cos(2 pi k / 256).
    double sin; ///< sin(2 pi k / 256).
};

/** Tables for the approximate log and sincos. Built once, with libm. */
struct NoiseTables
{
    LogEntry log[1 << kLogBits];
    TrigEntry trig[(1 << kTrigBits) + 1];

    NoiseTables()
    {
        for (int i = 0; i < (1 << kLogBits); ++i) {
            const double c = 1.0 + (i + 0.5) / (1 << kLogBits);
            log[i] = {c, 1.0 / c, std::log(c)};
        }
        for (int k = 0; k <= (1 << kTrigBits); ++k) {
            const double a = 2.0 * M_PI * k / (1 << kTrigBits);
            trig[k] = {std::cos(a), std::sin(a)};
        }
    }
};

[[gnu::always_inline]] inline const NoiseTables &
noiseTables()
{
    static const NoiseTables tables;
    return tables;
}

/** Approximate -2 ln(u) for u in [2^-53, 1); never negative. */
[[gnu::always_inline]] inline double
approxMinus2Log(const NoiseTables &t, double u)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &u, sizeof bits);
    const int e = static_cast<int>(bits >> 52) - 1023;
    const LogEntry &l =
        t.log[(bits >> (52 - kLogBits)) & ((1u << kLogBits) - 1)];
    const std::uint64_t mbits =
        (bits & ((std::uint64_t(1) << 52) - 1)) | 0x3FF0000000000000ull;
    double m = 0.0;
    std::memcpy(&m, &mbits, sizeof m);
    const double r = (m - l.c) * l.invC;
    const double p = r * (1.0 + r * (-0.5 + r * (1.0 / 3 + r * -0.25)));
    return std::max(-2.0 * (e * kLn2 + l.logC + p), 0.0);
}

/** Approximate (cos, sin)(2 pi u) for u in [0, 1). */
[[gnu::always_inline]] inline void
approxCosSin(const NoiseTables &t, double u, double &c, double &s)
{
    const double x = u * (1 << kTrigBits);
    const int k = static_cast<int>(x + 0.5);
    const double phi = (x - k) * (2.0 * M_PI / (1 << kTrigBits));
    const double p2 = phi * phi;
    const double sp = phi - phi * p2 * (1.0 / 6);
    const double cp = 1.0 - p2 * (0.5 - p2 * (1.0 / 24));
    const TrigEntry &a = t.trig[k];
    c = a.cos * cp - a.sin * sp;
    s = a.sin * cp + a.cos * sp;
}

} // namespace

Hierarchy::Hierarchy(const LlcConfig &llc_cfg, const HierarchyConfig &cfg,
                     std::unique_ptr<SliceHash> hash,
                     std::unique_ptr<InjectionPolicy> policy)
    : cfg_(cfg),
      llc_(std::make_unique<Llc>(llc_cfg, std::move(hash),
                                 std::move(policy))),
      noise_{Rng(cfg.seed)}
{
    lat_.hit = static_cast<double>(cfg_.llcHitLatency);
    lat_.miss = static_cast<double>(cfg_.dramLatency);
    lat_.outlier = static_cast<double>(cfg_.outlierCycles);
    lat_.outlierProb = cfg_.outlierProb;
    lat_.sigma = cfg_.timerNoiseSigma;
    const double sigma = std::fabs(cfg_.timerNoiseSigma);
    const double m = std::max(lat_.hit, lat_.miss) + lat_.outlier +
        9.0 * sigma;
    lat_.band = sigma * 0x1p-21 + m * 0x1p-50;
    lat_.exact = !(lat_.band < 0.25);
    lat_.approx = lat_.sigma != 0.0 && !lat_.exact;
    lat_.noiseless = lat_.sigma == 0.0 && lat_.outlierProb == 0.0;
    lat_.quietHit = static_cast<Cycles>(std::max(lat_.hit, 1.0));
    lat_.quietMiss = static_cast<Cycles>(std::max(lat_.miss, 1.0));
}

[[gnu::always_inline]] inline Hierarchy::NoiseDraw
Hierarchy::drawNoise(NoiseState &s, const LatencyModel &m)
{
    NoiseDraw d;
    d.second = s.pairHalf;
    s.pairHalf = !s.pairHalf;
    if (!d.second) {
        do {
            s.u1 = s.rng.nextDouble();
        } while (s.u1 <= 0.0);
        s.u2 = s.rng.nextDouble();
    }
    d.u1 = s.u1;
    d.u2 = s.u2;
    d.outlier = s.rng.nextBool(m.outlierProb);
    d.g = s.approxSecond;
    if (m.approx && !d.second) {
        const NoiseTables &t = noiseTables();
        const double mag = std::sqrt(approxMinus2Log(t, s.u1));
        double c = 0.0, sn = 0.0;
        approxCosSin(t, s.u2, c, sn);
        s.approxSecond = mag * sn;
        d.g = mag * c;
    }
    return d;
}

[[gnu::always_inline]] inline Cycles
Hierarchy::measure(const LatencyModel &m, bool hit, const NoiseDraw &noise,
                   std::uint64_t &fallbacks)
{
    const double base = hit ? m.hit : m.miss;

    if (m.sigma == 0.0) {
        // sigma * g is exactly zero for the finite g Box-Muller makes.
        double lat = base;
        if (noise.outlier)
            lat += m.outlier;
        return static_cast<Cycles>(std::max(lat, 1.0));
    }

    if (!m.exact) {
        double lat = base + m.sigma * noise.g;
        if (noise.outlier)
            lat += m.outlier;
        if (lat + m.band < 2.0)
            return 1;
        const auto whole = static_cast<Cycles>(lat);
        const double frac = lat - static_cast<double>(whole);
        if (frac >= m.band && frac + m.band < 1.0)
            return whole;
        ++fallbacks;
    }

    // nextGaussian(0.0, sigma)'s arithmetic, so the result is exact.
    const Rng::GaussianPair g = Rng::boxMuller(noise.u1, noise.u2);
    double lat = base;
    lat += 0.0 + m.sigma * (noise.second ? g.second : g.first);
    if (noise.outlier)
        lat += m.outlier;
    lat = std::max(lat, 1.0);
    return static_cast<Cycles>(lat);
}

Cycles
Hierarchy::timedRead(Addr paddr, Cycles now)
{
    const bool hit = llc_->cpuRead(paddr, now);
    if (lat_.noiseless)
        return hit ? lat_.quietHit : lat_.quietMiss;
    return measure(lat_, hit, drawNoise(noise_, lat_), noiseFallbacks_);
}

Cycles
Hierarchy::timedWalk(const LineKey *keys, std::size_t n, Cycles t,
                     Cycles threshold, unsigned &misses)
{
    if (lat_.noiseless) {
        const Cycles hit_lat = lat_.quietHit;
        const Cycles miss_lat = lat_.quietMiss;
        unsigned over = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const Cycles lat = llc_->cpuReadAt(keys[i].gset, keys[i].tag, t)
                ? hit_lat : miss_lat;
            t += lat;
            if (lat > threshold)
                ++over;
        }
        misses += over;
        return t;
    }

    // Local copies: no LLC access below can reach them, so they stay
    // in registers across the accesses.
    const LatencyModel m = lat_;
    NoiseState state = noise_;
    std::uint64_t fallbacks = noiseFallbacks_;
    unsigned over = 0;
    NoiseDraw noise[kWalkChunk];
    for (std::size_t done = 0; done < n;) {
        const std::size_t len = std::min(kWalkChunk, n - done);
        for (std::size_t i = 0; i < len; ++i)
            noise[i] = drawNoise(state, m);
        const LineKey *chunk = keys + done;
        for (std::size_t i = 0; i < len; ++i) {
            const bool hit = llc_->cpuReadAt(chunk[i].gset, chunk[i].tag, t);
            const Cycles lat = measure(m, hit, noise[i], fallbacks);
            t += lat;
            if (lat > threshold)
                ++over;
        }
        done += len;
    }
    noise_ = state;
    noiseFallbacks_ = fallbacks;
    misses += over;
    return t;
}

bool
Hierarchy::cpuRead(Addr paddr, Cycles now)
{
    return llc_->cpuRead(paddr, now);
}

bool
Hierarchy::cpuWrite(Addr paddr, Cycles now)
{
    return llc_->cpuWrite(paddr, now);
}

void
Hierarchy::dmaWrite(Addr paddr, Addr bytes, Cycles now)
{
    if (bytes == 0)
        return;
    const Addr first = paddr & ~(blockBytes - 1);
    const Addr last = (paddr + bytes - 1) & ~(blockBytes - 1);
    const bool ddio = ddioEnabled();
    for (Addr block = first; block <= last; block += blockBytes) {
        if (ddio) {
            llc_->ioWrite(block, now);
            ++dma_.ddioBlocks;
        } else {
            // Memory-first DMA: write DRAM and snoop-invalidate.
            llc_->invalidateBlock(block);
            ++dma_.memWriteBlocks;
        }
    }
}

std::uint64_t
Hierarchy::memReadBlocks() const
{
    return llc_->stats().memReads;
}

std::uint64_t
Hierarchy::memWriteBlocks() const
{
    return llc_->stats().writebacks + dma_.memWriteBlocks;
}

} // namespace pktchase::cache
