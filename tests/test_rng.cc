#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.hh"
#include "util/stats.hh"

namespace flash::util
{
namespace
{

TEST(Mix64, IsDeterministic)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_EQ(mix64(0), mix64(0));
}

TEST(Mix64, DistinguishesCloseInputs)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Mix64, AvalanchesLowBits)
{
    // Flipping one input bit should flip roughly half the output bits.
    int total = 0;
    for (std::uint64_t i = 1; i <= 64; ++i) {
        const std::uint64_t d = mix64(i) ^ mix64(i ^ 1);
        total += __builtin_popcountll(d);
    }
    const double mean_flips = total / 64.0;
    EXPECT_GT(mean_flips, 24.0);
    EXPECT_LT(mean_flips, 40.0);
}

TEST(HashCombine, OrderMatters)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(HashWords, MatchesAcrossCalls)
{
    EXPECT_EQ(hashWords({1, 2, 3}), hashWords({1, 2, 3}));
    EXPECT_NE(hashWords({1, 2, 3}), hashWords({1, 2, 4}));
    EXPECT_NE(hashWords({1, 2, 3}), hashWords({1, 2}));
}

TEST(FastHash, DeterministicAndSensitive)
{
    EXPECT_EQ(fastHash(7ull, 8ull, 9ull), fastHash(7ull, 8ull, 9ull));
    EXPECT_NE(fastHash(7ull, 8ull, 9ull), fastHash(7ull, 9ull, 8ull));
    EXPECT_NE(fastHash(7ull, 8ull), fastHash(8ull, 7ull));
}

TEST(FastHash, UniformLowBits)
{
    // The chip model uses the low 11 bits to gate the tail
    // population; they must be uniform.
    int ones = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        ones += fastHash(static_cast<std::uint64_t>(i), 99ull) & 1;
    EXPECT_NEAR(ones, n / 2, 4 * std::sqrt(n / 4.0));
}

TEST(ToUnitUniform, InRange)
{
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const double u = toUnitUniform(mix64(i));
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(ToGaussian, MomentsMatchStandardNormal)
{
    RunningStats s;
    for (std::uint64_t i = 0; i < 200000; ++i)
        s.add(toGaussian(mix64(i)));
    EXPECT_NEAR(s.mean(), 0.0, 0.01);
    EXPECT_NEAR(s.stddev(), 1.0, 0.01);
}

TEST(ToGaussian, TailProbabilitiesAreRight)
{
    // P(Z > 2) ~ 0.02275; the Vth model lives off these tails.
    int above2 = 0, above3 = 0;
    const int n = 400000;
    for (int i = 0; i < n; ++i) {
        const double z = toGaussian(mix64(static_cast<std::uint64_t>(i)));
        above2 += z > 2.0;
        above3 += z > 3.0;
    }
    EXPECT_NEAR(above2 / static_cast<double>(n), 0.02275, 0.002);
    EXPECT_NEAR(above3 / static_cast<double>(n), 0.00135, 0.0004);
}

TEST(ToGaussian, SymmetricAroundZero)
{
    // u and 1-u map to +/- the same quantile.
    const double a = toGaussian(0x8000000000000000ull);
    EXPECT_NEAR(a, 0.0, 1e-6);
}

TEST(ToGaussian, BoundedByGaussianBound)
{
    // The clamped uniform's ends give the extremes.
    EXPECT_LE(std::abs(toGaussian(0)), kGaussianBound);
    EXPECT_LE(std::abs(toGaussian(~0ULL)), kGaussianBound);
    EXPECT_GT(std::abs(toGaussian(0)), kGaussianBound - 1e-4);
    for (std::uint64_t i = 0; i < (1u << 20); ++i) {
        const double z = toGaussian(i << 44);
        ASSERT_LE(std::abs(z), kGaussianBound) << "i " << i;
    }
}

/**
 * toGaussian must be monotone up to tiny jitter: the lazy snapshot
 * bounds a cell's z by its values at hash-bucket edges. Checked on a
 * dense grid and ulp by ulp of the uniform around the rational
 * approximation's branch points.
 */
TEST(ToGaussian, MonotoneWithinTolerance)
{
    constexpr double kJitter = 1e-9;
    double prev = toGaussian(0);
    for (std::uint64_t i = 1; i < (1u << 22); ++i) {
        const double z = toGaussian(i << 42);
        ASSERT_GE(z, prev - kJitter) << "i " << i;
        prev = z;
    }
    // h >> 11 is the uniform's 53-bit numerator.
    for (const double branch : {0.02425, 1.0 - 0.02425}) {
        const auto m0 = static_cast<std::int64_t>(branch * 0x1.0p53);
        double last = toGaussian(static_cast<std::uint64_t>(m0 - 200001)
                                 << 11);
        for (std::int64_t k = -200000; k <= 200000; ++k) {
            const double z =
                toGaussian(static_cast<std::uint64_t>(m0 + k) << 11);
            ASSERT_GE(z, last - kJitter) << "branch " << branch << " k " << k;
            last = z;
        }
    }
}

TEST(Rng, Reproducible)
{
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(7), b(8);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(5.0, 6.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 6.0);
    }
}

TEST(Rng, UniformIntRange)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = r.uniformInt(10);
        EXPECT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.01);
}

TEST(Rng, ExponentialMean)
{
    Rng r(13);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.exponential(250.0));
    EXPECT_NEAR(s.mean(), 250.0, 5.0);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, PoissonSmallLambda)
{
    Rng r(17);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(static_cast<double>(r.poisson(3.0)));
    EXPECT_NEAR(s.mean(), 3.0, 0.1);
    EXPECT_NEAR(s.variance(), 3.0, 0.3);
}

TEST(Rng, PoissonLargeLambdaUsesNormalApprox)
{
    Rng r(19);
    RunningStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(static_cast<double>(r.poisson(100.0)));
    EXPECT_NEAR(s.mean(), 100.0, 1.0);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng r(23);
    EXPECT_EQ(r.poisson(0.0), 0u);
    EXPECT_EQ(r.poisson(-1.0), 0u);
}

TEST(Rng, GaussianMeanSigma)
{
    Rng r(29);
    RunningStats s;
    for (int i = 0; i < 100000; ++i)
        s.add(r.gaussian(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

} // namespace
} // namespace flash::util
