/**
 * @file
 * Deterministic, seedable random number generation (xoshiro256**),
 * and the certified integer draws the per-access path takes from it.
 *
 * All simulator randomness flows through Rng so that a full experiment
 * is reproducible from (seed, config) alone.
 */

#ifndef JUMANJI_SIM_RNG_HH
#define JUMANJI_SIM_RNG_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>

#include "src/sim/check.hh"

namespace jumanji {

/**
 * xoshiro256** generator. Small, fast, high quality; not
 * cryptographic (we only drive workloads and sampling with it).
 */
class Rng
{
  public:
    /**
     * Seeds the generator via splitmix64 expansion of @p seed.
     *
     * Deliberately no default argument: every stream must trace back
     * to an explicit seed (ultimately the config's), or reproducibility
     * from (seed, config) silently breaks.
     */
    explicit Rng(std::uint64_t seed)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). @pre bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free-enough reduction.
        __uint128_t m = static_cast<__uint128_t>(next()) * bound;
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double on the 2^-53 grid in [0, 1 - 2^-53]. */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** True with probability @p p. */
    bool
    bernoulli(double p)
    {
        return uniform() < p;
    }

    /**
     * Forks a child generator whose stream is decorrelated from the
     * parent's; used to give each app / component its own stream.
     */
    Rng
    fork()
    {
        return Rng(next() ^ 0xd1b54a32d192ed03ull);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

/*
 * Certified integer draws (docs/INTERNALS.md §7). Each function below
 * returns exactly the integer its libm expression truncates to, for
 * every input. A cheap value with a proven error bound decides the
 * integer whenever the bound's margin around it holds no integer;
 * otherwise the libm expression itself runs. The margins exceed the
 * sum of the cheap value's error and glibc's documented error (log1p
 * below 1 ulp, pow 0.52 ulp) by at least 2^10.
 */

namespace detail {

/** One logarithm-table row: inv = 1/c rounded, lnC = -ln(inv). */
struct LogRow
{
    double inv;
    double lnC;
};

/** ln y for y in [1/2, 1], by the atanh series, in long double. */
constexpr long double
seriesLn(long double y)
{
    // ln y = 2 atanh(s) with |s| <= 1/3; 30 odd terms leave
    // (1/9)^30 < 2^-95 of the sum.
    const long double s = (y - 1) / (y + 1);
    long double term = s, sum = 0;
    for (int k = 1; k < 60; k += 2) {
        sum += term / k;
        term *= s * s;
    }
    return 2 * sum;
}

/**
 * Row i serves mantissas in [1 + i/256, 1 + (i+1)/256), centred on
 * c = 1 + (2i + 1)/512, so |m * inv - 1| <= 2^-9 + 2^-52. Each row
 * is 16 bytes of a 64-byte aligned table: one host line per lookup.
 */
constexpr std::array<LogRow, 256>
makeLogTable()
{
    std::array<LogRow, 256> rows{};
    for (int i = 0; i < 256; i++) {
        const double inv = 1.0 / (1.0 + (2 * i + 1) / 512.0);
        rows[i] = {inv, static_cast<double>(-seriesLn(inv))};
    }
    return rows;
}

alignas(64) inline constexpr std::array<LogRow, 256> kLogTable =
    makeLogTable();

/**
 * ln(1 - u) for u in [0, 1), within 2^-37 absolute. 1 - u is exact
 * for u >= 1/2 and within 2^-53 below; its exponent e and mantissa m
 * give ln(1 - u) = e ln 2 + lnC + ln(m * inv), where the last term
 * is a degree-3 polynomial in r = m * inv - 1. Truncation stays
 * below 1.01 * 2^-38 (r^4/4 at |r| <= 2^-9); the table, ln 2 and
 * every rounding add less than 2^-45.
 */
inline double
tableLnOneMinus(double u)
{
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(1.0 - u);
    const LogRow &row = kLogTable[(bits >> 44) & 0xff];
    const double m = std::bit_cast<double>(
        (bits & 0x000fffffffffffffull) | 0x3ff0000000000000ull);
    const double r = m * row.inv - 1.0;
    const int e = static_cast<int>(bits >> 52) - 1023;
    // ln(1 + r) = r - r^2/2 + r^3/3, split so that r^2 and the bracket
    // are computed side by side.
    const double head = (e * 0x1.62e42fefa39efp-1 + row.lnC) + r;
    return head + (r * r) * (r * (1.0 / 3.0) - 0.5);
}

/**
 * The floor shared by every x >= 0 in [lo, hi], or nullopt when they
 * may differ. Truncation is the floor on [0, 2^63); for lo in (-1, 0)
 * it gives 0, which is still right because x >= 0 and hi < 1 then.
 *
 * @pre hi >= 0 and |lo|, |hi| < 2^63.
 */
inline std::optional<std::uint64_t>
certifiedFloor(double lo, double hi)
{
    const auto k = static_cast<std::int64_t>(hi);
    if (static_cast<std::int64_t>(lo) != k) return std::nullopt;
    return static_cast<std::uint64_t>(k);
}

/**
 * The cheap half of floorExponential: its result, or nullopt where
 * the libm fallback must decide. Exposed so tests can count
 * fallbacks. The value is v = -mean * ln(1 - u) and the margin
 * mean * 2^-27 + v * 2^-40, folded into the two bounds. mean * 2^-27
 * covers the table's 2^-37 absolute error in ln(1 - u); v * 2^-40
 * covers the relative error of log1p (1 ulp) and of the roundings
 * on both sides (2^-50 in all).
 */
inline std::optional<std::uint64_t>
certifiedExponential(double u, double mean)
{
    const double ln = tableLnOneMinus(u);
    const double absolute = mean * 0x1p-27;
    return certifiedFloor(ln * (-mean * (1.0 - 0x1p-40)) - absolute,
                          ln * (-mean * (1.0 + 0x1p-40)) + absolute);
}

/**
 * The cheap half of floorScaledSquare. n * (u * u) and libm's
 * n * pow(u, 2) both lie within 2^-51 of n u^2 relative, so a margin
 * of 2^-40 of the value covers their difference with room to spare.
 */
inline std::optional<std::uint64_t>
certifiedScaledSquare(double u, std::uint64_t n)
{
    const double square = u * u;
    const double scale = static_cast<double>(n);
    return certifiedFloor(square * (scale * (1.0 - 0x1p-40)),
                          square * (scale * (1.0 + 0x1p-40)));
}

} // namespace detail

/**
 * floor of an exponential variate with the given mean, drawn by
 * inversion from @p u: exactly
 * `static_cast<std::uint64_t>(-mean * std::log1p(-u))`.
 *
 * @pre 0 <= u <= 1 - 2^-53 (every Rng::uniform() value), mean > 0
 *      and 37 * mean < 2^63.
 */
inline std::uint64_t
floorExponential(double u, double mean)
{
    JUMANJI_ASSERT(u >= 0.0 && u <= 1.0 - 0x1p-53,
                   "floorExponential: u outside Rng::uniform()'s range");
    if (auto k = detail::certifiedExponential(u, mean)) return *k;
    return static_cast<std::uint64_t>(-mean * std::log1p(-u));
}

/**
 * floor(n u^2): exactly what
 * `static_cast<std::uint64_t>(double(n) * std::pow(u, 1.0 + skew))`
 * gives at skew == 1.0.
 *
 * @pre 0 <= u <= 1 and n < 2^63.
 */
inline std::uint64_t
floorScaledSquare(double u, std::uint64_t n)
{
    if (auto k = detail::certifiedScaledSquare(u, n)) return *k;
    // The exponent must reach pow at run time: compilers fold a
    // literal pow(u, 2.0) into u * u, which rounds differently from
    // glibc's pow (n = 1000, u = 0x1.7731ef02e17bbp-1 gives 537
    // against pow's 536).
    volatile double exponent = 2.0;
    return static_cast<std::uint64_t>(static_cast<double>(n) *
                                      std::pow(u, exponent));
}

} // namespace jumanji

#endif // JUMANJI_SIM_RNG_HH
