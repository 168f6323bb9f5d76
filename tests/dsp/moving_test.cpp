#include "dsp/moving.h"

#include <gtest/gtest.h>

namespace icgkit::dsp {
namespace {

TEST(MovingTest, MwiCausalGrowingWindow) {
  const Signal x{2.0, 4.0, 6.0, 8.0};
  const Signal y = moving_window_integrate(x, 3);
  EXPECT_DOUBLE_EQ(y[0], 2.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 4.0);
  EXPECT_DOUBLE_EQ(y[3], 6.0);
}

TEST(MovingTest, MwiOfConstantIsConstant) {
  const Signal x(100, 5.0);
  const Signal y = moving_window_integrate(x, 37);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 5.0);
}

TEST(MovingTest, MwiSmoothsSpike) {
  Signal x(50, 0.0);
  x[25] = 10.0;
  const Signal y = moving_window_integrate(x, 5);
  EXPECT_DOUBLE_EQ(y[25], 2.0);
  EXPECT_DOUBLE_EQ(y[29], 2.0);
  EXPECT_DOUBLE_EQ(y[30], 0.0);
}

TEST(MovingTest, StreamingMatchesBatchMwi) {
  Signal x(64);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 7);
  const Signal batch = moving_window_integrate(x, 9);
  StreamingMovingAverage stream(9);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(stream.tick(x[i]), batch[i], 1e-12) << i;
}

} // namespace
} // namespace icgkit::dsp
