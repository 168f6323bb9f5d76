#include "core/delineator.h"

#include "common/filtered.h"
#include "core/stream.h"
#include "dsp/filtfilt.h"
#include "dsp/zero_phase_highpass.h"
#include "synth/artifacts.h"
#include "synth/icg_synth.h"

#include "dsp/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace icgkit::core {
namespace {

constexpr double kFs = 250.0;

struct Scenario {
  synth::IcgSynthesis synthesis;
  std::vector<std::size_t> r_samples;
};

Scenario make_scenario(std::size_t beats, double rr_s, const synth::IcgSynthConfig& cfg,
                       std::uint64_t seed, double noise_sigma = 0.0) {
  synth::Rng rng(seed);
  std::vector<double> r_times;
  for (std::size_t i = 0; i < beats; ++i) r_times.push_back(0.6 + rr_s * static_cast<double>(i));
  const double duration = 0.6 + rr_s * static_cast<double>(beats) + 1.0;
  Scenario sc;
  sc.synthesis = synth::synthesize_icg(r_times, duration, kFs, cfg, rng);
  if (noise_sigma > 0.0) {
    const dsp::Signal noise = synth::white_noise(sc.synthesis.icg.size(), noise_sigma, rng);
    for (std::size_t i = 0; i < noise.size(); ++i) sc.synthesis.icg[i] += noise[i];
  }
  for (const double t : r_times) sc.r_samples.push_back(static_cast<std::size_t>(t * kFs));
  return sc;
}

// Runs the delineator over all complete beats; returns per-point absolute
// errors in seconds.
struct Errors {
  dsp::Signal b, c, x;
  std::size_t invalid = 0;
};

Errors run_delineation(const Scenario& sc, const DelineationConfig& cfg = {},
                       bool prefilter = false) {
  const IcgDelineator delineator(kFs, cfg);
  dsp::Signal icg = sc.synthesis.icg;
  if (prefilter) {
    // The engine's ICG filters after its derivative: the 20 Hz low-pass,
    // then the baseline high-pass.
    icg = test::filtered(dsp::StreamingZeroPhaseFir(icg_conditioner_lowpass_kernel(kFs, {})),
                         icg);
    icg = test::filtered(dsp::StreamingZeroPhaseHighpass(kFs), icg);
  }
  Errors e;
  for (std::size_t i = 0; i < sc.synthesis.beats.size(); ++i) {
    const auto& truth = sc.synthesis.beats[i];
    const std::size_t r = sc.r_samples[i];
    const std::size_t r_next = (i + 1 < sc.r_samples.size())
                                   ? sc.r_samples[i + 1]
                                   : std::min(icg.size(), r + static_cast<std::size_t>(kFs));
    const BeatDelineation d = delineator.delineate(icg, r, r_next);
    if (!d.valid) {
      ++e.invalid;
      continue;
    }
    e.b.push_back(std::abs(static_cast<double>(d.b) / kFs - truth.b_time_s));
    e.c.push_back(std::abs(static_cast<double>(d.c) / kFs - truth.c_time_s));
    e.x.push_back(std::abs(static_cast<double>(d.x) / kFs - truth.x_time_s));
  }
  return e;
}

TEST(DelineatorTest, ExactCOnCleanBeats) {
  const Scenario sc = make_scenario(10, 0.85, {}, 1);
  const Errors e = run_delineation(sc);
  EXPECT_EQ(e.invalid, 0u);
  ASSERT_FALSE(e.c.empty());
  // C is the waveform max; detection should be within 2 samples.
  EXPECT_LT(dsp::percentile(e.c, 95.0), 2.5 / kFs);
}

TEST(DelineatorTest, BWithinToleranceOnCleanBeats) {
  const Scenario sc = make_scenario(10, 0.85, {}, 2);
  const Errors e = run_delineation(sc);
  ASSERT_FALSE(e.b.empty());
  // B tolerance: +-12 ms (3 samples at 250 Hz) against the clean-signal truth.
  EXPECT_LT(dsp::percentile(e.b, 95.0), 0.012);
}

TEST(DelineatorTest, XWithinToleranceOnCleanBeats) {
  const Scenario sc = make_scenario(10, 0.85, {}, 3);
  const Errors e = run_delineation(sc);
  ASSERT_FALSE(e.x.empty());
  EXPECT_LT(dsp::percentile(e.x, 95.0), 0.020);
}

TEST(DelineatorTest, CAmplitudeMatchesTruth) {
  synth::IcgSynthConfig cfg;
  cfg.amp_jitter_frac = 0.0;
  cfg.dzdt_max = 2.0;
  const Scenario sc = make_scenario(6, 0.9, cfg, 4);
  const IcgDelineator delineator(kFs);
  for (std::size_t i = 0; i + 1 < sc.r_samples.size(); ++i) {
    const BeatDelineation d =
        delineator.delineate(sc.synthesis.icg, sc.r_samples[i], sc.r_samples[i + 1]);
    ASSERT_TRUE(d.valid);
    // The delineator measures C relative to the detrended diastolic
    // baseline, while the synthesis truth includes the small negative
    // baseline-compensation level -- allow that offset.
    EXPECT_NEAR(d.c_amplitude, sc.synthesis.beats[i].dzdt_max, 0.12);
  }
}

TEST(DelineatorTest, RobustToNoiseWithPrefilter) {
  // With the paper's 20 Hz zero-phase prefilter, moderate broadband noise
  // must not break delineation.
  const Scenario sc = make_scenario(20, 0.85, {}, 5, /*noise_sigma=*/0.08);
  const Errors e = run_delineation(sc, {}, /*prefilter=*/true);
  EXPECT_LE(e.invalid, 1u);
  ASSERT_FALSE(e.b.empty());
  EXPECT_LT(dsp::median(e.b), 0.016);
  EXPECT_LT(dsp::median(e.c), 0.008);
  EXPECT_LT(dsp::median(e.x), 0.024);
}

TEST(DelineatorTest, PepLvetRangesPhysiological) {
  synth::IcgSynthConfig cfg;
  cfg.pep_s = 0.10;
  cfg.lvet_s = 0.30;
  const Scenario sc = make_scenario(12, 0.8, cfg, 6);
  const IcgDelineator delineator(kFs);
  for (std::size_t i = 0; i + 1 < sc.r_samples.size(); ++i) {
    const BeatDelineation d =
        delineator.delineate(sc.synthesis.icg, sc.r_samples[i], sc.r_samples[i + 1]);
    ASSERT_TRUE(d.valid);
    const double pep = static_cast<double>(d.b - d.r) / kFs;
    const double lvet = static_cast<double>(d.x - d.b) / kFs;
    EXPECT_GT(pep, 0.05);
    EXPECT_LT(pep, 0.16);
    EXPECT_GT(lvet, 0.24);
    EXPECT_LT(lvet, 0.40);
  }
}

TEST(DelineatorTest, TracksPepChanges) {
  // Shifting the configured PEP by 30 ms must shift detected B by ~30 ms.
  synth::IcgSynthConfig short_pep, long_pep;
  short_pep.pep_s = 0.085;
  short_pep.pep_jitter_s = 0.0;
  long_pep.pep_s = 0.115;
  long_pep.pep_jitter_s = 0.0;
  const Scenario a = make_scenario(8, 0.9, short_pep, 7);
  const Scenario b = make_scenario(8, 0.9, long_pep, 7);
  const IcgDelineator delineator(kFs);
  dsp::Signal peps_a, peps_b;
  for (std::size_t i = 0; i + 1 < a.r_samples.size(); ++i) {
    const auto da = delineator.delineate(a.synthesis.icg, a.r_samples[i], a.r_samples[i + 1]);
    const auto db = delineator.delineate(b.synthesis.icg, b.r_samples[i], b.r_samples[i + 1]);
    if (da.valid) peps_a.push_back(static_cast<double>(da.b - da.r) / kFs);
    if (db.valid) peps_b.push_back(static_cast<double>(db.b - db.r) / kFs);
  }
  EXPECT_NEAR(dsp::mean(peps_b) - dsp::mean(peps_a), 0.030, 0.012);
}

TEST(DelineatorTest, TracksLvetChanges) {
  synth::IcgSynthConfig short_lvet, long_lvet;
  short_lvet.lvet_s = 0.27;
  short_lvet.lvet_jitter_s = 0.0;
  long_lvet.lvet_s = 0.33;
  long_lvet.lvet_jitter_s = 0.0;
  const Scenario a = make_scenario(8, 0.9, short_lvet, 8);
  const Scenario b = make_scenario(8, 0.9, long_lvet, 8);
  const IcgDelineator delineator(kFs);
  dsp::Signal lvet_a, lvet_b;
  for (std::size_t i = 0; i + 1 < a.r_samples.size(); ++i) {
    const auto da = delineator.delineate(a.synthesis.icg, a.r_samples[i], a.r_samples[i + 1]);
    const auto db = delineator.delineate(b.synthesis.icg, b.r_samples[i], b.r_samples[i + 1]);
    if (da.valid) lvet_a.push_back(static_cast<double>(da.x - da.b) / kFs);
    if (db.valid) lvet_b.push_back(static_cast<double>(db.x - db.b) / kFs);
  }
  EXPECT_NEAR(dsp::mean(lvet_b) - dsp::mean(lvet_a), 0.060, 0.02);
}

TEST(DelineatorTest, InvalidOnDegenerateSegments) {
  const IcgDelineator delineator(kFs);
  const dsp::Signal flat(1000, 0.0);
  EXPECT_FALSE(delineator.delineate(flat, 100, 105).valid);   // too short
  EXPECT_FALSE(delineator.delineate(flat, 100, 400).valid);   // no C wave
  EXPECT_FALSE(delineator.delineate(flat, 100, 2000).valid);  // out of range
  dsp::Signal negative(1000, -1.0);
  EXPECT_FALSE(delineator.delineate(negative, 100, 400).valid);
}

TEST(DelineatorTest, CarvalhoRuleMatchesPaperRuleWithGoodRt) {
  // When the RT estimate is accurate, both X rules find the same trough.
  const Scenario sc = make_scenario(8, 0.9, {}, 9);
  DelineationConfig paper_cfg;
  DelineationConfig carvalho_cfg;
  carvalho_cfg.x_rule = XPointRule::CarvalhoRtWindow;
  const IcgDelineator paper(kFs, paper_cfg);
  const IcgDelineator carvalho(kFs, carvalho_cfg);
  for (std::size_t i = 0; i + 1 < sc.r_samples.size(); ++i) {
    const auto& truth = sc.synthesis.beats[i];
    // Good RT estimate: X sits near the T end, RT ~ (x_time - r_time)/1.3.
    const double rt = (truth.x_time_s - truth.r_time_s) / 1.3;
    const auto dp = paper.delineate(sc.synthesis.icg, sc.r_samples[i], sc.r_samples[i + 1]);
    const auto dc =
        carvalho.delineate(sc.synthesis.icg, sc.r_samples[i], sc.r_samples[i + 1], rt);
    ASSERT_TRUE(dp.valid);
    ASSERT_TRUE(dc.valid);
    EXPECT_NEAR(static_cast<double>(dp.x), static_cast<double>(dc.x), 3.0);
  }
}

TEST(DelineatorTest, CarvalhoRuleDegradesWithBadRt) {
  // The paper's stated reason for dropping the RT window: a wrong T-end
  // estimate shifts X0's search window off the trough.
  const Scenario sc = make_scenario(8, 0.9, {}, 10);
  DelineationConfig carvalho_cfg;
  carvalho_cfg.x_rule = XPointRule::CarvalhoRtWindow;
  const IcgDelineator carvalho(kFs, carvalho_cfg);
  std::size_t degraded = 0;
  for (std::size_t i = 0; i + 1 < sc.r_samples.size(); ++i) {
    const auto& truth = sc.synthesis.beats[i];
    const double bad_rt = (truth.x_time_s - truth.r_time_s) * 1.4; // late T estimate
    const auto d =
        carvalho.delineate(sc.synthesis.icg, sc.r_samples[i], sc.r_samples[i + 1], bad_rt);
    const double err =
        d.valid ? std::abs(static_cast<double>(d.x) / kFs - truth.x_time_s) : 1.0;
    if (err > 0.03) ++degraded;
  }
  EXPECT_GT(degraded, 3u);
}

TEST(DelineatorTest, RejectsBadConfig) {
  EXPECT_THROW(IcgDelineator(0.0), std::invalid_argument);
  DelineationConfig cfg;
  cfg.b_line_low_frac = 0.9;
  cfg.b_line_high_frac = 0.5;
  EXPECT_THROW(IcgDelineator(kFs, cfg), std::invalid_argument);
}

class DelineatorNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(DelineatorNoiseSweep, MedianErrorsBoundedUnderNoise) {
  const double sigma = GetParam();
  const Scenario sc =
      make_scenario(25, 0.85, {}, 100 + static_cast<std::uint64_t>(sigma * 1e3), sigma);
  const Errors e = run_delineation(sc, {}, /*prefilter=*/true);
  ASSERT_GT(e.b.size(), 15u);
  EXPECT_LT(dsp::median(e.c), 0.010) << "sigma=" << sigma;
  EXPECT_LT(dsp::median(e.b), 0.018) << "sigma=" << sigma;
  EXPECT_LT(dsp::median(e.x), 0.028) << "sigma=" << sigma;
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, DelineatorNoiseSweep,
                         ::testing::Values(0.0, 0.02, 0.05, 0.10));

} // namespace
} // namespace icgkit::core
