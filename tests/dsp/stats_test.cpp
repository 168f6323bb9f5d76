#include "dsp/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace icgkit::dsp {
namespace {

TEST(StatsTest, MeanVarianceBasics) {
  const Signal x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_NEAR(variance(x), 5.0 / 3.0, 1e-12);
  EXPECT_NEAR(stddev(x), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(StatsTest, EmptyAndSingletonAreSafe) {
  EXPECT_DOUBLE_EQ(mean(Signal{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(Signal{}), 0.0);
  EXPECT_DOUBLE_EQ(variance(Signal{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(rms(Signal{}), 0.0);
  EXPECT_DOUBLE_EQ(median(Signal{}), 0.0);
}

TEST(StatsTest, Rms) {
  const Signal x{3.0, -4.0};
  EXPECT_NEAR(rms(x), std::sqrt(12.5), 1e-12);
}

TEST(StatsTest, PearsonPerfectCorrelation) {
  const Signal x{1.0, 2.0, 3.0, 4.0, 5.0};
  Signal y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 3.0 * x[i] - 7.0;
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  for (auto& v : y) v = -v;
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(StatsTest, PearsonConstantInputIsZero) {
  const Signal x{1.0, 1.0, 1.0};
  const Signal y{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(StatsTest, PearsonSizeMismatchThrows) {
  EXPECT_THROW(pearson(Signal{1.0, 2.0}, Signal{1.0}), std::invalid_argument);
}

TEST(StatsTest, PearsonIsShiftAndScaleInvariant) {
  const Signal x{0.3, -1.2, 2.2, 0.1, 0.9, -0.5};
  const Signal y{1.0, 0.2, 2.9, 1.1, 1.6, 0.4};
  const double r = pearson(x, y);
  Signal y2(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y2[i] = 100.0 + 42.0 * y[i];
  EXPECT_NEAR(pearson(x, y2), r, 1e-12);
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(Signal{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(Signal{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(StatsTest, MadOfConstantIsZero) {
  EXPECT_DOUBLE_EQ(mad(Signal{2.0, 2.0, 2.0, 2.0}), 0.0);
}

TEST(StatsTest, MadOfUniformGridExactValue) {
  // For the integer grid [-50, 50], median = 0 and median(|x|) = 25, so the
  // scaled MAD is exactly 1.4826 * 25.
  Signal x;
  for (int i = -50; i <= 50; ++i) x.push_back(static_cast<double>(i));
  EXPECT_NEAR(mad(x), 1.4826 * 25.0, 1e-9);
}

TEST(StatsTest, MadIgnoresOutliers) {
  // Robustness: one enormous outlier must not move the MAD much, unlike
  // the standard deviation.
  Signal x;
  for (int i = -50; i <= 50; ++i) x.push_back(static_cast<double>(i));
  const double mad_clean = mad(x);
  x.push_back(1e6);
  EXPECT_NEAR(mad(x), mad_clean, 0.05 * mad_clean);
  EXPECT_GT(stddev(x), 100.0 * mad_clean);
}

TEST(StatsTest, PercentileEndpoints) {
  const Signal x{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(x, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(x, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(x, 50.0), 25.0);
  EXPECT_THROW(percentile(x, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(x, 101.0), std::invalid_argument);
}

TEST(StatsTest, ArgminArgmax) {
  const Signal x{3.0, -1.0, 7.0, 2.0};
  EXPECT_EQ(argmax(x), 2u);
  EXPECT_EQ(argmin(x), 1u);
  EXPECT_THROW(argmax(Signal{}), std::invalid_argument);
}

TEST(StatsTest, FitLineExact) {
  const Signal x{0.0, 1.0, 2.0, 3.0};
  const Signal y{1.0, 3.0, 5.0, 7.0};
  const LineFit fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.at(10.0), 21.0, 1e-12);
  ASSERT_TRUE(fit.zero_crossing().has_value());
  EXPECT_NEAR(*fit.zero_crossing(), -0.5, 1e-12);
}

TEST(StatsTest, FitLineFlatHasNoZeroCrossing) {
  const Signal x{0.0, 1.0, 2.0};
  const Signal y{4.0, 4.0, 4.0};
  const LineFit fit = fit_line(x, y);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_FALSE(fit.zero_crossing().has_value());
}

TEST(StatsTest, FitLineNeedsTwoPoints) {
  EXPECT_THROW(fit_line(Signal{1.0}, Signal{1.0}), std::invalid_argument);
}

TEST(StatsTest, RelativeErrorMatchesPaperDefinition) {
  // Paper equations (1)-(3): e = (Za - Zb) / Za.
  EXPECT_NEAR(relative_error(200.0, 180.0), 0.1, 1e-12);
  EXPECT_NEAR(relative_error(200.0, 220.0), -0.1, 1e-12);
  EXPECT_DOUBLE_EQ(relative_error(0.0, 5.0), 0.0);
}

} // namespace
} // namespace icgkit::dsp
