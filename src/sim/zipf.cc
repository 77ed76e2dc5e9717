#include "zipf.hh"

#include <algorithm>
#include <cmath>

#include "logging.hh"

namespace pktchase
{

// Why the guard band. Bisection finds, for each rank k, a lattice
// point j with formulaRank(j - 1) < k <= formulaRank(j). The table
// answer equals the formula wherever the formula is non-decreasing in
// j. Its multiply and add round monotonically. pow and exp are not
// correctly rounded, but glibc keeps them within one ulp. So two
// neighbouring arguments can come out in the wrong order only if
// their exact results lie within about one ulp of each other. And that
// changes a rank only where the result is within about one ulp of an
// integer. Such j sit within a few argument ulps of the threshold.
//
// Width. At base b = u * hn * (1 - s) + 1, one argument ulp is
// ulp(b) / (|1 - s| hn 2^-53) <= 2b / |(1 - s) hn| lattice points.
//  - For s = 0.6 and n = 4800, that is at most 2.2. For s = 0.6 and
//    n = 1000, it is at most 2.4.
//  - It grows as s -> 1, to about 95 points for s = 0.99 and n = 7.
//    But there pow's exponent 1 / (1 - s) is large, so consecutive
//    arguments land many result ulps apart and cannot swap.
//  - For s = 1, exp's argument u * hn has an ulp of at most 2 points.
// kGuard = 2^16 points on either side covers thousands of argument
// ulps for every exponent in use. It costs a formula evaluation on
// fewer than n * 2^17 / 2^53 of the draws (7e-8 for n = 4800).

ZipfSampler::ZipfSampler(std::uint64_t n, double s)
    : n_(n), s_(s)
{
    if (n == 0 || n >= (std::uint64_t(1) << 32))
        fatal("ZipfSampler: n must be in [1, 2^32)");
    const double oneMinusS = 1.0 - s;
    hn_ = s == 1.0
        ? std::log(static_cast<double>(n) + 1.0)
        : (std::pow(static_cast<double>(n) + 1.0, oneMinusS) - 1.0) /
            oneMinusS;

    // first_[k] for k in [1, n): the smallest j with rank >= k. Each
    // search starts at the continuous inverse's guess, gallops out to
    // a bracket, then bisects. Bracket ends kept as invariants:
    // rank(a) < k (a = lo - 1 may be a virtual point) and rank(b) >= k
    // (b = kOne + 1 is virtual: "never reached").
    first_.assign(n + 1, kOne + 1);
    first_[0] = 0;
    std::uint64_t lo = 1;
    for (std::uint64_t k = 1; k < n && lo <= kOne; ++k) {
        const auto reaches = [&](std::uint64_t j) {
            return formulaRank(j) >= k;
        };
        const double kk = static_cast<double>(k) + 1.0;
        const double u = s == 1.0
            ? std::log(kk) / hn_
            : (std::pow(kk, oneMinusS) - 1.0) / (oneMinusS * hn_);
        const double guess = std::ceil(u * static_cast<double>(kOne));
        std::uint64_t a = lo - 1;
        std::uint64_t b = kOne + 1;
        std::uint64_t g = lo;
        if (guess >= static_cast<double>(kOne))
            g = kOne;
        else if (guess > static_cast<double>(lo))
            g = static_cast<std::uint64_t>(guess);

        if (reaches(g)) {
            b = g;
            for (std::uint64_t step = 1; b - a > 1; step *= 2) {
                const std::uint64_t c = b - std::min(step, b - a - 1);
                if (!reaches(c)) {
                    a = c;
                    break;
                }
                b = c;
            }
        } else {
            a = g;
            for (std::uint64_t step = 1; b - a > 1; step *= 2) {
                const std::uint64_t c = a + std::min(step, b - a - 1);
                if (reaches(c)) {
                    b = c;
                    break;
                }
                a = c;
            }
        }
        while (b - a > 1) {
            const std::uint64_t mid = a + (b - a) / 2;
            (reaches(mid) ? b : a) = mid;
        }
        first_[k] = b;
        lo = b;
    }

    // One guide bucket per power-of-two share of the lattice, at least
    // n of them, so a lookup scans about one threshold on average.
    guideShift_ = 53;
    while ((std::uint64_t(1) << (53 - guideShift_)) < n)
        --guideShift_;
    guide_.resize((kOne >> guideShift_) + 1);
    std::uint64_t k = 0;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
        const std::uint64_t start = std::uint64_t(b) << guideShift_;
        while (k + 1 < n && first_[k + 1] <= start)
            ++k;
        guide_[b] = static_cast<std::uint32_t>(k);
    }
}

std::uint64_t
ZipfSampler::formulaRank(std::uint64_t j) const
{
    // The defining expression: the tables only ever reproduce it.
    const double u = static_cast<double>(j) * 0x1.0p-53;
    const double oneMinusS = 1.0 - s_;
    const double x = s_ == 1.0
        ? std::exp(u * hn_) - 1.0
        : std::pow(u * hn_ * oneMinusS + 1.0, 1.0 / oneMinusS) - 1.0;
    return std::min(static_cast<std::uint64_t>(x), n_ - 1);
}

} // namespace pktchase
