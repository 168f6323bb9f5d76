#include "dsp/butterworth.h"

#include "dsp/biquad.h"

#include <gtest/gtest.h>

#include <cmath>

namespace icgkit::dsp {
namespace {

constexpr double kFs = 250.0;

TEST(ButterworthTest, LowpassUnityDcGain) {
  for (std::size_t order : {1u, 2u, 3u, 4u, 5u, 8u}) {
    const SosFilter f = butterworth_lowpass(order, 20.0, kFs);
    EXPECT_NEAR(sos_magnitude_at(f, 0.0, kFs), 1.0, 1e-12) << "order=" << order;
  }
}

TEST(ButterworthTest, LowpassMinus3dBAtCutoff) {
  for (std::size_t order : {2u, 4u, 6u}) {
    const SosFilter f = butterworth_lowpass(order, 20.0, kFs);
    EXPECT_NEAR(sos_magnitude_at(f, 20.0, kFs), 1.0 / std::sqrt(2.0), 1e-6)
        << "order=" << order;
  }
}

TEST(ButterworthTest, HighpassMinus3dBAtCutoff) {
  for (std::size_t order : {1u, 2u, 4u}) {
    const SosFilter f = butterworth_highpass(order, 5.0, kFs);
    EXPECT_NEAR(sos_magnitude_at(f, 5.0, kFs), 1.0 / std::sqrt(2.0), 1e-6)
        << "order=" << order;
  }
}

TEST(ButterworthTest, RolloffSteepensWithOrder) {
  const SosFilter f2 = butterworth_lowpass(2, 20.0, kFs);
  const SosFilter f4 = butterworth_lowpass(4, 20.0, kFs);
  const SosFilter f8 = butterworth_lowpass(8, 20.0, kFs);
  const double m2 = sos_magnitude_at(f2, 40.0, kFs);
  const double m4 = sos_magnitude_at(f4, 40.0, kFs);
  const double m8 = sos_magnitude_at(f8, 40.0, kFs);
  EXPECT_GT(m2, m4);
  EXPECT_GT(m4, m8);
  // Asymptotic slope check: one octave above cutoff an N-pole Butterworth
  // is ~ -6N dB (within a few dB this close to the corner).
  EXPECT_NEAR(20.0 * std::log10(m4), -24.0, 4.0);
}

TEST(ButterworthTest, MonotonePassband) {
  // Butterworth is maximally flat: magnitude must be non-increasing.
  const SosFilter f = butterworth_lowpass(4, 20.0, kFs);
  double prev = sos_magnitude_at(f, 0.0, kFs);
  for (double freq = 1.0; freq < 125.0; freq += 1.0) {
    const double cur = sos_magnitude_at(f, freq, kFs);
    EXPECT_LE(cur, prev + 1e-9) << "freq=" << freq;
    prev = cur;
  }
}

TEST(ButterworthTest, HighpassRejectsDc) {
  const SosFilter f = butterworth_highpass(2, 0.5, kFs);
  EXPECT_LT(sos_magnitude_at(f, 0.0, kFs), 1e-9);
}

TEST(ButterworthTest, BandpassShape) {
  const SosFilter f = butterworth_bandpass(2, 5.0, 15.0, kFs);
  EXPECT_GT(sos_magnitude_at(f, 9.0, kFs), 0.9);
  EXPECT_LT(sos_magnitude_at(f, 0.5, kFs), 0.05);
  EXPECT_LT(sos_magnitude_at(f, 50.0, kFs), 0.1);
}

TEST(ButterworthTest, PaperIcgFilterSpec) {
  // Section IV-A.2: low-pass Butterworth, cutoff 20 Hz at fs = 250 Hz.
  const SosFilter f = butterworth_lowpass(4, 20.0, kFs);
  EXPECT_GT(sos_magnitude_at(f, 1.0, kFs), 0.999); // cardiac fundamentals pass
  EXPECT_GT(sos_magnitude_at(f, 15.0, kFs), 0.9);  // ICG band passes
  EXPECT_LT(sos_magnitude_at(f, 50.0, kFs), 0.03); // powerline rejected
}

TEST(ButterworthTest, RejectsBadArguments) {
  EXPECT_THROW(butterworth_lowpass(0, 20.0, kFs), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(4, 0.0, kFs), std::invalid_argument);
  EXPECT_THROW(butterworth_lowpass(4, 125.0, kFs), std::invalid_argument);
  EXPECT_THROW(butterworth_bandpass(2, 15.0, 5.0, kFs), std::invalid_argument);
}

TEST(ButterworthTest, StabilityPolesInsideUnitCircle) {
  // a2 is the product of the pole pair moduli squared; |a2| < 1 and
  // |a1| < 1 + a2 is the standard biquad stability triangle.
  for (std::size_t order : {2u, 4u, 6u, 8u}) {
    for (double fc : {0.5, 5.0, 20.0, 40.0, 100.0}) {
      const SosFilter f = butterworth_lowpass(order, fc, kFs);
      for (const Biquad& s : f.sections) {
        EXPECT_LT(std::abs(s.a2), 1.0) << "order=" << order << " fc=" << fc;
        EXPECT_LT(std::abs(s.a1), 1.0 + s.a2 + 1e-12) << "order=" << order << " fc=" << fc;
      }
    }
  }
}

TEST(ButterworthTest, ImpulseResponseDecays) {
  const SosFilter f = butterworth_lowpass(4, 20.0, kFs);
  Signal impulse(2000, 0.0);
  impulse[0] = 1.0;
  const Signal h = sos_apply(f, impulse);
  double tail = 0.0;
  for (std::size_t i = 1000; i < h.size(); ++i) tail += std::abs(h[i]);
  EXPECT_LT(tail, 1e-9);
}

class ButterCutoffSweep : public ::testing::TestWithParam<double> {};

TEST_P(ButterCutoffSweep, CutoffInvariant) {
  const double fc = GetParam();
  const SosFilter f = butterworth_lowpass(4, fc, kFs);
  EXPECT_NEAR(sos_magnitude_at(f, fc, kFs), 1.0 / std::sqrt(2.0), 1e-6);
  EXPECT_NEAR(sos_magnitude_at(f, 0.0, kFs), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Cutoffs, ButterCutoffSweep,
                         ::testing::Values(0.5, 1.0, 5.0, 10.0, 20.0, 40.0, 80.0, 110.0));

} // namespace
} // namespace icgkit::dsp
