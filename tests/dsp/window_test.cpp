#include "dsp/window.h"

#include <gtest/gtest.h>

#include <cmath>

namespace icgkit::dsp {
namespace {

TEST(WindowTest, EmptyAndSingleton) {
  EXPECT_TRUE(make_window(WindowKind::Hamming, 0).empty());
  const Signal w = make_window(WindowKind::Hann, 1);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(WindowTest, RectangularIsAllOnes) {
  const Signal w = make_window(WindowKind::Rectangular, 17);
  for (const double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(WindowTest, HammingEndpointsAndPeak) {
  const Signal w = make_window(WindowKind::Hamming, 33);
  EXPECT_NEAR(w.front(), 0.08, 1e-12);
  EXPECT_NEAR(w.back(), 0.08, 1e-12);
  EXPECT_NEAR(w[16], 1.0, 1e-12); // center of odd-length symmetric window
}

TEST(WindowTest, HannEndpointsAreZero) {
  const Signal w = make_window(WindowKind::Hann, 21);
  EXPECT_NEAR(w.front(), 0.0, 1e-12);
  EXPECT_NEAR(w.back(), 0.0, 1e-12);
  EXPECT_NEAR(w[10], 1.0, 1e-12);
}

TEST(WindowTest, BlackmanEndpointsNearZero) {
  const Signal w = make_window(WindowKind::Blackman, 21);
  EXPECT_NEAR(w.front(), 0.0, 1e-9);
  EXPECT_NEAR(w[10], 1.0, 1e-12);
}

class WindowSymmetryTest : public ::testing::TestWithParam<WindowKind> {};

TEST_P(WindowSymmetryTest, SymmetricForOddAndEvenLengths) {
  for (const std::size_t n : {8u, 9u, 32u, 33u, 255u}) {
    const Signal w = make_window(GetParam(), n);
    for (std::size_t i = 0; i < n / 2; ++i) {
      EXPECT_NEAR(w[i], w[n - 1 - i], 1e-12) << "n=" << n << " i=" << i;
    }
  }
}

TEST_P(WindowSymmetryTest, ValuesInUnitRange) {
  const Signal w = make_window(GetParam(), 101);
  for (const double v : w) {
    EXPECT_GE(v, -1e-12);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, WindowSymmetryTest,
                         ::testing::Values(WindowKind::Rectangular, WindowKind::Hamming,
                                           WindowKind::Hann, WindowKind::Blackman));

} // namespace
} // namespace icgkit::dsp
