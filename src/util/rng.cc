#include "util/rng.hh"

#include <cmath>

namespace flash::util
{

std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return mix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

std::uint64_t
hashWords(std::initializer_list<std::uint64_t> words)
{
    std::uint64_t h = 0x243f6a8885a308d3ULL; // pi fractional bits
    for (std::uint64_t w : words)
        h = hashCombine(h, w);
    return h;
}

double
toUnitUniform(std::uint64_t h)
{
    // Use the top 53 bits for a dense double in [0, 1).
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double
toGaussian(std::uint64_t h)
{
    // Keep u strictly inside (0, 1) so the inverse CDF stays finite.
    double u = toUnitUniform(h);
    constexpr double eps = 1e-12;
    if (u < eps)
        u = eps;
    if (u > 1.0 - eps)
        u = 1.0 - eps;

    // Acklam's rational approximation to the inverse normal CDF.
    static constexpr double a[] = {
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01};
    static constexpr double c[] = {
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00};
    static constexpr double d[] = {
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00};

    constexpr double plow = 0.02425;
    constexpr double phigh = 1.0 - plow;

    if (u < plow) {
        const double q = std::sqrt(-2.0 * std::log(u));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (u > phigh) {
        const double q = std::sqrt(-2.0 * std::log(1.0 - u));
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
                 + c[5])
            / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    const double q = u - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r
            + a[5])
        * q
        / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    if (u >= 1.0)
        u = 1.0 - 1e-12;
    return -mean * std::log1p(-u);
}

std::uint64_t
Rng::poisson(double lambda)
{
    if (lambda <= 0.0)
        return 0;
    if (lambda < 30.0) {
        // Knuth inversion.
        const double limit = std::exp(-lambda);
        double p = 1.0;
        std::uint64_t k = 0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation with continuity correction.
    const double x = gaussian(lambda, std::sqrt(lambda));
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

} // namespace flash::util
