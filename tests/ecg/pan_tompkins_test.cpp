#include "ecg/pan_tompkins.h"

#include "common/filtered.h"
#include "core/stream.h"
#include "synth/artifacts.h"
#include "synth/ecg_synth.h"
#include "synth/rr_process.h"

#include "dsp/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace icgkit::ecg {
namespace {

constexpr double kFs = 250.0;

struct MatchStats {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  double mean_abs_error_s = 0.0;

  [[nodiscard]] double sensitivity() const {
    const double denom = static_cast<double>(true_positives + false_negatives);
    return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
  }
  [[nodiscard]] double ppv() const {
    const double denom = static_cast<double>(true_positives + false_positives);
    return denom > 0 ? static_cast<double>(true_positives) / denom : 0.0;
  }
};

// Greedy matching of detections to ground-truth R times within a window.
MatchStats match_detections(const std::vector<double>& truth, const std::vector<double>& det,
                            double tol_s = 0.05) {
  MatchStats m;
  std::vector<bool> used(det.size(), false);
  double err_acc = 0.0;
  for (const double t : truth) {
    double best = tol_s;
    std::size_t best_i = det.size();
    for (std::size_t i = 0; i < det.size(); ++i) {
      if (used[i]) continue;
      const double e = std::abs(det[i] - t);
      if (e <= best) {
        best = e;
        best_i = i;
      }
    }
    if (best_i < det.size()) {
      used[best_i] = true;
      ++m.true_positives;
      err_acc += best;
    } else {
      ++m.false_negatives;
    }
  }
  for (const bool u : used)
    if (!u) ++m.false_positives;
  if (m.true_positives > 0) m.mean_abs_error_s = err_acc / static_cast<double>(m.true_positives);
  return m;
}

TEST(PanTompkinsTest, PerfectOnCleanEcg) {
  const auto rr = std::vector<double>(30, 0.8);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_EQ(m.false_negatives, 0u);
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_LT(m.mean_abs_error_s, 0.01);
}

TEST(PanTompkinsTest, HandlesHrVariability) {
  synth::Rng rng(11);
  synth::RrConfig rrcfg;
  rrcfg.mean_hr_bpm = 70.0;
  const auto rr = synth::generate_rr_intervals(rrcfg, 60.0, rng);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_GT(m.sensitivity(), 0.98);
  EXPECT_GT(m.ppv(), 0.98);
}

TEST(PanTompkinsTest, RobustToModerateNoise) {
  const auto rr = std::vector<double>(40, 0.85);
  auto gen = synth::synthesize_ecg(rr, kFs);
  synth::Rng rng(12);
  const dsp::Signal noise = synth::white_noise(gen.ecg_mv.size(), 0.08, rng);
  const dsp::Signal mains =
      synth::powerline_artifact(gen.ecg_mv.size(), kFs, 0.1, 50.0, rng);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i)
    gen.ecg_mv[i] += noise[i] + mains[i];
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  const MatchStats m = match_detections(gen.r_times_s, r_peak_times(det, kFs));
  EXPECT_GT(m.sensitivity(), 0.97);
  EXPECT_GT(m.ppv(), 0.97);
}

TEST(PanTompkinsTest, RobustToBaselineWanderAfterFiltering) {
  const auto rr = std::vector<double>(40, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    gen.ecg_mv[i] += 1.0 * std::sin(2.0 * std::numbers::pi * 0.3 * t);
  }
  const dsp::Signal cleaned = test::filtered(core::EcgCleanerStage(kFs), gen.ecg_mv);
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(cleaned), kFs));
  EXPECT_GT(m.sensitivity(), 0.97);
}

TEST(PanTompkinsTest, DoesNotDoubleCountTWaves) {
  // Exaggerated T waves must not produce extra detections.
  synth::EcgSynthConfig cfg;
  cfg.waves = synth::EcgSynthConfig::default_waves();
  cfg.waves[4].amplitude *= 2.0; // big T
  const auto rr = std::vector<double>(30, 0.9);
  const auto gen = synth::synthesize_ecg(rr, kFs, cfg);
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  EXPECT_EQ(m.false_positives, 0u);
  EXPECT_GT(m.sensitivity(), 0.97);
}

TEST(PanTompkinsTest, SearchbackRecoversAttenuatedBeat) {
  // One beat at 40 % amplitude: primary thresholds may miss it; the
  // search-back should recover it.
  const auto rr = std::vector<double>(20, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  const std::size_t target = static_cast<std::size_t>(gen.r_times_s[10] * kFs);
  for (std::size_t i = target - 30; i < target + 30 && i < gen.ecg_mv.size(); ++i)
    gen.ecg_mv[i] *= 0.4;
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  EXPECT_GE(m.sensitivity(), 0.95);
}

TEST(PanTompkinsTest, ShortSignalReturnsEmpty) {
  const PanTompkins pt(kFs);
  const dsp::Signal x(100, 0.0);
  const QrsDetection det = pt.detect(x);
  EXPECT_TRUE(det.r_samples.empty());
}

TEST(PanTompkinsTest, RrIntervalsConsistent) {
  const auto rr = std::vector<double>(25, 0.75);
  const auto gen = synth::synthesize_ecg(rr, kFs);
  const PanTompkins pt(kFs);
  const QrsDetection det = pt.detect(gen.ecg_mv);
  ASSERT_GE(det.rr_intervals_s.size(), 20u);
  for (const double v : det.rr_intervals_s) EXPECT_NEAR(v, 0.75, 0.03);
}

TEST(PanTompkinsTest, RejectsBadConfig) {
  EXPECT_THROW(PanTompkins(0.0), std::invalid_argument);
  PanTompkinsConfig cfg;
  cfg.bandpass_low_hz = 20.0;
  cfg.bandpass_high_hz = 10.0;
  EXPECT_THROW(PanTompkins(kFs, cfg), std::invalid_argument);
}

class PanTompkinsNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(PanTompkinsNoiseSweep, SensitivityDegradesGracefully) {
  const double sigma = GetParam();
  const auto rr = std::vector<double>(40, 0.8);
  auto gen = synth::synthesize_ecg(rr, kFs);
  synth::Rng rng(static_cast<std::uint64_t>(sigma * 1000) + 1);
  const dsp::Signal noise = synth::white_noise(gen.ecg_mv.size(), sigma, rng);
  for (std::size_t i = 0; i < gen.ecg_mv.size(); ++i) gen.ecg_mv[i] += noise[i];
  const PanTompkins pt(kFs);
  const MatchStats m =
      match_detections(gen.r_times_s, r_peak_times(pt.detect(gen.ecg_mv), kFs));
  // Up to sigma = 0.15 mV (SNR ~ 16 dB wrt 1 mV R) sensitivity stays high.
  EXPECT_GT(m.sensitivity(), 0.95) << "sigma=" << sigma;
  EXPECT_GT(m.ppv(), 0.93) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, PanTompkinsNoiseSweep,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10, 0.15));

} // namespace
} // namespace icgkit::ecg
