#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace exadigit {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIsDeterministicAndDecorrelated) {
  Rng root(7);
  Rng a1 = root.fork("jobs");
  Rng a2 = Rng(7).fork("jobs");
  Rng b = root.fork("weather");
  EXPECT_EQ(a1.seed(), a2.seed());
  EXPECT_NE(a1.seed(), b.seed());
  EXPECT_DOUBLE_EQ(a1.uniform(), a2.uniform());
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusive) {
  Rng rng(6);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(1, 4);
    EXPECT_GE(x, 1);
    EXPECT_LE(x, 4);
    saw_lo |= x == 1;
    saw_hi |= x == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatchesPaperEq5) {
  // Eq. (5): tau = -ln(1-U)/lambda with lambda = 1/t_avg.
  Rng rng(9);
  SummaryStats s;
  const double mean = 55.0;
  for (int i = 0; i < 40000; ++i) s.add(rng.exponential(mean));
  EXPECT_NEAR(s.mean(), mean, mean * 0.03);
  // Exponential: stddev == mean.
  EXPECT_NEAR(s.stddev(), mean, mean * 0.05);
}

TEST(RngTest, TruncatedNormalRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.truncated_normal(0.5, 0.4, 0.0, 1.0);
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RngTest, TruncatedNormalDegenerateSigma) {
  Rng rng(11);
  EXPECT_DOUBLE_EQ(rng.truncated_normal(5.0, 0.0, 0.0, 1.0), 1.0);
}

TEST(RngTest, LognormalTargetsMeanAndStd) {
  Rng rng(12);
  SummaryStats s;
  for (int i = 0; i < 60000; ++i) s.add(rng.lognormal_mean_std(268.0, 626.0));
  EXPECT_NEAR(s.mean(), 268.0, 268.0 * 0.1);
  EXPECT_NEAR(s.stddev(), 626.0, 626.0 * 0.25);
  EXPECT_GT(s.min(), 0.0);
}

TEST(RngTest, LognormalZeroStdIsConstant) {
  Rng rng(13);
  EXPECT_DOUBLE_EQ(rng.lognormal_mean_std(10.0, 0.0), 10.0);
}

/// A zero sigma (a zero UQ sigma) returns the mean without building a
/// distribution with stddev 0, whose precondition is stddev > 0, and still
/// advances the stream exactly as a positive sigma does.
TEST(RngTest, NormalZeroSigmaReturnsMeanAndKeepsTheStreamAligned) {
  Rng zero(16);
  Rng one(16);
  EXPECT_EQ(zero.normal(3.0, 0.0), 3.0);
  (void)one.normal(3.0, 1.0);
  EXPECT_EQ(zero.uniform(), one.uniform());
  EXPECT_EQ(zero.normal(0.0, 2.0), one.normal(0.0, 2.0));
}

TEST(RngTest, NormalRejectsNegativeOrNanSigma) {
  Rng rng(17);
  EXPECT_THROW(rng.normal(0.0, -1.0), ConfigError);
  EXPECT_THROW(rng.normal(0.0, std::nan("")), ConfigError);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(14);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.02);
}

TEST(RngTest, InvalidArgumentsThrow) {
  Rng rng(15);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ConfigError);
  EXPECT_THROW(rng.exponential(0.0), ConfigError);
  EXPECT_THROW(rng.lognormal_mean_std(-1.0, 1.0), ConfigError);
  EXPECT_THROW(rng.truncated_normal(0.0, 1.0, 1.0, 0.0), ConfigError);
}

/// Property: Poisson arrivals built from Eq. (5) have count ~ duration/mean.
class PoissonCountProperty : public ::testing::TestWithParam<double> {};

TEST_P(PoissonCountProperty, ArrivalCountMatchesRate) {
  const double mean_arrival = GetParam();
  Rng rng(static_cast<std::uint64_t>(mean_arrival * 1000));
  const double duration = 500000.0;
  int count = 0;
  double t = 0.0;
  while ((t += rng.exponential(mean_arrival)) < duration) ++count;
  const double expected = duration / mean_arrival;
  EXPECT_NEAR(count, expected, 5.0 * std::sqrt(expected));
}

INSTANTIATE_TEST_SUITE_P(Rates, PoissonCountProperty,
                         ::testing::Values(17.0, 55.0, 138.0, 1000.0));

}  // namespace
}  // namespace exadigit
