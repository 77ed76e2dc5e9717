#include "rng.hh"

#include "logging.hh"

namespace pktchase
{

namespace
{

/** splitmix64 step, used to expand seeds into full generator state. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitmix64(s);
}

void
Rng::panicZeroBound()
{
    panic("Rng::nextBounded called with bound == 0");
}

std::int64_t
Rng::nextRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        panic("Rng::nextRange called with lo > hi");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBounded(span));
}

double
Rng::nextGaussian()
{
    if (hasCachedGaussian_) {
        hasCachedGaussian_ = false;
        return cachedGaussian_;
    }
    double u1 = 0.0;
    do {
        u1 = nextDouble();
    } while (u1 <= 0.0);
    const double u2 = nextDouble();
    const GaussianPair g = boxMuller(u1, u2);
    cachedGaussian_ = g.second;
    hasCachedGaussian_ = true;
    return g.first;
}

Rng::GaussianPair
Rng::boxMuller(double u1, double u2)
{
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return {mag * std::cos(2.0 * M_PI * u2),
            mag * std::sin(2.0 * M_PI * u2)};
}

double
Rng::nextGaussian(double mean, double sigma)
{
    return mean + sigma * nextGaussian();
}

double
Rng::nextExponential(double lambda)
{
    if (lambda <= 0.0)
        panic("Rng::nextExponential requires lambda > 0");
    double u = 0.0;
    do {
        u = nextDouble();
    } while (u <= 0.0);
    return -std::log(u) / lambda;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xA5A5A5A5DEADBEEFull);
}

} // namespace pktchase
