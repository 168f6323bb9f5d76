// The ECG cleaning chain as the engine runs it (core::EcgCleanerStage),
// on both numeric backends.
#include "ecg/ecg_filter.h"

#include "common/filtered.h"
#include "core/stream.h"
#include "dsp/fft.h"
#include "dsp/fir_design.h"
#include "dsp/morphology.h"
#include "dsp/stats.h"
#include "synth/artifacts.h"
#include "synth/ecg_synth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace icgkit::ecg {
namespace {

constexpr double kFs = 250.0;

dsp::Signal clean_ecg(double duration_s, double rr = 0.8) {
  const std::size_t beats = static_cast<std::size_t>(duration_s / rr) + 2;
  const auto out = synth::synthesize_ecg(std::vector<double>(beats, rr), kFs);
  return out.ecg_mv;
}

// The cleaning chain on each backend. Q31 carries the ECG at the
// engine's full scale.
template <typename B>
dsp::Signal cleaned(dsp::SignalView ecg_mv) {
  return test::filtered<B>(core::BasicEcgCleanerStage<B>(kFs), ecg_mv,
                           dsp::Q31ScalingPolicy{}.ecg_fullscale_mv);
}

struct Backend {
  const char* name;
  dsp::Signal (*clean)(dsp::SignalView);
};
const Backend kBackends[] = {{"Double", cleaned<dsp::DoubleBackend>},
                             {"Q31", cleaned<dsp::Q31Backend>}};

TEST(EcgFilterTest, RemovesBaselineWander) {
  dsp::Signal ecg = clean_ecg(20.0);
  dsp::Signal contaminated = ecg;
  for (std::size_t i = 0; i < contaminated.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    contaminated[i] += 0.8 * std::sin(2.0 * std::numbers::pi * 0.2 * t);
  }
  const dsp::Psd before = dsp::welch_psd(contaminated, kFs);
  const double wander_before = dsp::band_power(before, 0.05, 0.5);
  for (const Backend& b : kBackends) {
    SCOPED_TRACE(b.name);
    const dsp::Signal y = b.clean(contaminated);
    ASSERT_EQ(y.size(), contaminated.size());
    // Wander power (< 0.5 Hz) must drop by at least 20 dB.
    const dsp::Psd after = dsp::welch_psd(y, kFs);
    EXPECT_LT(dsp::band_power(after, 0.05, 0.5), 0.01 * wander_before);
  }
}

TEST(EcgFilterTest, PreservesQrsAmplitude) {
  const dsp::Signal ecg = clean_ecg(20.0);
  for (const Backend& b : kBackends) {
    SCOPED_TRACE(b.name);
    const dsp::Signal y = b.clean(ecg);
    // R peaks survive with most of their amplitude (the 33-tap FIR softens
    // them somewhat; > 60 % retention is the practical bound).
    EXPECT_GT(dsp::percentile(y, 99.9), 0.6 * dsp::percentile(ecg, 99.9));
  }
}

TEST(EcgFilterTest, SuppressesHighFrequencyNoise) {
  dsp::Signal ecg = clean_ecg(20.0);
  synth::Rng rng(3);
  const dsp::Signal noise = synth::white_noise(ecg.size(), 0.2, rng);
  dsp::Signal contaminated(ecg.size());
  for (std::size_t i = 0; i < ecg.size(); ++i) contaminated[i] = ecg[i] + noise[i];
  const dsp::Psd before = dsp::welch_psd(contaminated, kFs);
  const double hf_before = dsp::band_power(before, 60.0, 120.0);
  for (const Backend& b : kBackends) {
    SCOPED_TRACE(b.name);
    const dsp::Psd after = dsp::welch_psd(b.clean(contaminated), kFs);
    EXPECT_LT(dsp::band_power(after, 60.0, 120.0), 0.05 * hf_before);
  }
}

TEST(EcgFilterTest, BaselineEstimateTracksSlowDrift) {
  dsp::Signal ecg = clean_ecg(20.0);
  dsp::Signal drift(ecg.size());
  for (std::size_t i = 0; i < ecg.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    drift[i] = 0.6 * std::sin(2.0 * std::numbers::pi * 0.15 * t);
    ecg[i] += drift[i];
  }
  const dsp::Signal est = dsp::estimate_baseline(ecg, kFs);
  // Max error is dominated by T-wave leakage spikes (the T width is
  // marginal for the 0.2 s / 0.3 s structuring elements of Sun et al.);
  // judge tracking by RMS instead and bound the worst case loosely.
  double rms_err = 0.0, max_err = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 500; i + 500 < ecg.size(); ++i) {
    const double e = est[i] - drift[i];
    rms_err += e * e;
    max_err = std::max(max_err, std::abs(e));
    ++count;
  }
  EXPECT_LT(std::sqrt(rms_err / static_cast<double>(count)), 0.12);
  EXPECT_LT(max_err, 0.40);
}

// The frequency where the kernel's gain crosses `level` between lo and hi
// (bisection; the gain must be monotone there).
double crossing(const dsp::FirCoefficients& g, double level, double lo, double hi) {
  const bool rising = dsp::fir_magnitude_at(g, lo, kFs) < level;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    if ((dsp::fir_magnitude_at(g, mid, kFs) < level) == rising)
      lo = mid;
    else
      hi = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(EcgFilterTest, MatchesPaperFilterSpec) {
  // The engine's kernel is the zero-phase (squared) response of the
  // order-32 FIR band-pass designed at 0.05-40 Hz.
  const dsp::FirCoefficients g = core::ecg_cleaner_fir_kernel(kFs, {});
  EXPECT_EQ(g.taps.size(), 2 * 32 + 1u);
  EXPECT_LT(dsp::fir_magnitude_at(g, 0.0, kFs), 1e-9);
  EXPECT_GT(dsp::fir_magnitude_at(g, 20.0, kFs), 0.9);
  // 33 taps cannot realize the 0.05 Hz design edge: at 250 Hz the band
  // is 11-34 Hz at -3 dB, and 5 Hz is already down to 0.08.
  const double half_power = std::pow(10.0, -3.0 / 20.0);
  EXPECT_NEAR(crossing(g, half_power, 1.0, 20.0), 11.0, 0.5);
  EXPECT_NEAR(crossing(g, half_power, 20.0, 60.0), 34.0, 0.5);
  EXPECT_NEAR(dsp::fir_magnitude_at(g, 1.0, kFs), 0.0002, 0.0001);
  EXPECT_NEAR(dsp::fir_magnitude_at(g, 5.0, kFs), 0.08, 0.01);
}

TEST(EcgFilterTest, RejectsBadFs) {
  EXPECT_THROW(core::EcgCleanerStage(0.0), std::invalid_argument);
}

} // namespace
} // namespace icgkit::ecg
