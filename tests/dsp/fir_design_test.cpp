#include "dsp/fir_design.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace icgkit::dsp {
namespace {

constexpr double kFs = 250.0;

Signal sine(double freq, double fs, std::size_t n, double amp = 1.0) {
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = amp * std::sin(2.0 * std::numbers::pi * freq * static_cast<double>(i) / fs);
  return x;
}

TEST(FirDesignTest, LowpassUnityDcGain) {
  const auto fir = design_lowpass(32, 40.0, kFs);
  EXPECT_NEAR(fir_magnitude_at(fir, 0.0, kFs), 1.0, 1e-12);
}

TEST(FirDesignTest, LowpassAttenuatesStopband) {
  const auto fir = design_lowpass(64, 20.0, kFs);
  EXPECT_LT(fir_magnitude_at(fir, 60.0, kFs), 0.05);
  EXPECT_LT(fir_magnitude_at(fir, 100.0, kFs), 0.05);
}

TEST(FirDesignTest, LowpassHalfPowerNearCutoff) {
  const auto fir = design_lowpass(64, 25.0, kFs);
  // Windowed-sinc designs put ~ -6 dB (0.5 amplitude) at the cutoff.
  EXPECT_NEAR(fir_magnitude_at(fir, 25.0, kFs), 0.5, 0.05);
}

TEST(FirDesignTest, PaperBandpassSpec) {
  // The paper's ECG filter: 32nd-order FIR band-pass, 0.05-40 Hz at 250 Hz.
  const auto fir = design_bandpass(32, 0.05, 40.0, kFs);
  EXPECT_EQ(fir.order(), 32u);
  EXPECT_EQ(fir.taps.size(), 33u);
  // Passband center is normalized to unity.
  EXPECT_NEAR(fir_magnitude_at(fir, 0.5 * (0.05 + 40.0), kFs), 1.0, 1e-9);
  // In-band frequencies pass (a 33-tap filter has a soft passband; the
  // QRS band around 10-25 Hz is attenuated by < 2.3 dB)...
  EXPECT_GT(fir_magnitude_at(fir, 10.0, kFs), 0.75);
  EXPECT_GT(fir_magnitude_at(fir, 17.0, kFs), 0.9);
  // ...and far out-of-band frequencies are attenuated (a 32nd-order FIR has
  // a wide transition band; 100+ Hz is well into the stopband).
  EXPECT_LT(fir_magnitude_at(fir, 110.0, kFs), 0.15);
}

TEST(FirDesignTest, BandpassRejectsDc) {
  const auto fir = design_bandpass(32, 0.05, 40.0, kFs);
  double tap_sum = 0.0;
  for (const double t : fir.taps) tap_sum += t;
  EXPECT_NEAR(tap_sum, 0.0, 0.02); // DC gain ~ 0
}

TEST(FirDesignTest, TapsAreSymmetric) {
  const auto fir = design_bandpass(32, 0.5, 40.0, kFs);
  for (std::size_t i = 0; i < fir.taps.size() / 2; ++i)
    EXPECT_NEAR(fir.taps[i], fir.taps[fir.taps.size() - 1 - i], 1e-12);
}

TEST(FirDesignTest, GroupDelayIsHalfOrder) {
  const auto fir = design_lowpass(32, 30.0, kFs);
  EXPECT_DOUBLE_EQ(fir.group_delay(), 16.0);
}

TEST(FirDesignTest, RejectsBadArguments) {
  EXPECT_THROW(design_lowpass(32, 0.0, kFs), std::invalid_argument);
  EXPECT_THROW(design_lowpass(32, 130.0, kFs), std::invalid_argument);
  EXPECT_THROW(design_lowpass(32, 10.0, -1.0), std::invalid_argument);
  EXPECT_THROW(design_bandpass(31, 1.0, 10.0, kFs), std::invalid_argument);
  EXPECT_THROW(design_bandpass(32, 10.0, 1.0, kFs), std::invalid_argument);
}

TEST(FirDesignTest, SineInPassbandPreservedAfterTransient) {
  const auto fir = design_lowpass(64, 40.0, kFs);
  const Signal x = sine(10.0, kFs, 1000);
  const Signal y = fir_apply(fir, x);
  // Compare steady-state amplitude (skip the transient, account for the
  // 32-sample group delay by comparing RMS).
  double rx = 0.0, ry = 0.0;
  for (std::size_t i = 200; i < x.size(); ++i) {
    rx += x[i] * x[i];
    ry += y[i] * y[i];
  }
  EXPECT_NEAR(std::sqrt(ry / rx), 1.0, 0.02);
}

class FirStopbandSweep : public ::testing::TestWithParam<double> {};

TEST_P(FirStopbandSweep, StopbandSineSuppressed) {
  const double freq = GetParam();
  const auto fir = design_lowpass(96, 20.0, kFs);
  const Signal x = sine(freq, kFs, 2000);
  const Signal y = fir_apply(fir, x);
  double ry = 0.0;
  for (std::size_t i = 300; i < y.size(); ++i) ry += y[i] * y[i];
  ry = std::sqrt(ry / static_cast<double>(y.size() - 300));
  EXPECT_LT(ry, 0.06) << "freq=" << freq;
}

INSTANTIATE_TEST_SUITE_P(Frequencies, FirStopbandSweep,
                         ::testing::Values(40.0, 50.0, 60.0, 80.0, 100.0, 120.0));

} // namespace
} // namespace icgkit::dsp
