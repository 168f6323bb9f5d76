#include "core/ensemble.h"
#include "dsp/backend.h"

#include "dsp/stats.h"
#include "synth/artifacts.h"
#include "synth/icg_synth.h"

#include <gtest/gtest.h>

namespace icgkit {
namespace {

constexpr double kFs = 250.0;

struct IcgScenario {
  synth::IcgSynthesis syn;
  std::vector<std::size_t> r_idx;
};

IcgScenario make_icg(std::size_t beats, double noise_sigma, std::uint64_t seed) {
  synth::Rng rng(seed);
  synth::IcgSynthConfig cfg;
  std::vector<double> r_times;
  IcgScenario sc;
  for (std::size_t i = 0; i < beats; ++i) {
    r_times.push_back(0.6 + 0.85 * static_cast<double>(i));
    sc.r_idx.push_back(static_cast<std::size_t>(r_times.back() * kFs));
  }
  sc.syn = synth::synthesize_icg(r_times, 0.6 + 0.85 * static_cast<double>(beats) + 1.0,
                                 kFs, cfg, rng);
  if (noise_sigma > 0.0) {
    const dsp::Signal noise = synth::white_noise(sc.syn.icg.size(), noise_sigma, rng);
    for (std::size_t i = 0; i < noise.size(); ++i) sc.syn.icg[i] += noise[i];
  }
  return sc;
}

TEST(EnsembleTest, AverageOfCleanBeatsMatchesSingleBeat) {
  const IcgScenario sc = make_icg(10, 0.0, 1);
  core::EnsembleAverager avg(kFs);
  for (const std::size_t r : sc.r_idx) avg.add_beat(sc.syn.icg, r);
  ASSERT_GT(avg.beats_in_window(), 5u);
  const dsp::Signal tmpl = avg.average();
  // The template's peak equals the beats' C amplitude (low jitter).
  const double peak = *std::max_element(tmpl.begin(), tmpl.end());
  EXPECT_NEAR(peak, sc.syn.beats[3].dzdt_max, 0.25);
}

TEST(EnsembleTest, NoiseSuppressionScalesWithBeats) {
  // Residual noise on the template should shrink roughly as 1/sqrt(N).
  const IcgScenario noisy = make_icg(16, 0.3, 2);
  const IcgScenario clean = make_icg(16, 0.0, 2);
  core::EnsembleAverager avg(kFs, {.window_beats = 16, .min_template_corr = 0.2});
  for (const std::size_t r : noisy.r_idx) avg.add_beat(noisy.syn.icg, r);
  ASSERT_GE(avg.beats_in_window(), 12u);
  core::EnsembleAverager ref(kFs, {.window_beats = 16, .min_template_corr = 0.2});
  for (const std::size_t r : clean.r_idx) ref.add_beat(clean.syn.icg, r);

  const dsp::Signal a = avg.average();
  const dsp::Signal b = ref.average();
  dsp::Signal resid(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) resid[i] = a[i] - b[i];
  // 0.3 noise with ~14+ beats -> residual RMS well under 0.12.
  EXPECT_LT(dsp::rms(resid), 0.12);
}

TEST(EnsembleTest, RejectsEctopicBeat) {
  const IcgScenario sc = make_icg(10, 0.02, 3);
  core::EnsembleAverager avg(kFs);
  for (std::size_t i = 0; i < 6; ++i) avg.add_beat(sc.syn.icg, sc.r_idx[i]);
  // An "ectopic": feed a segment centered far from any R (plain baseline).
  const bool accepted = avg.add_beat(sc.syn.icg, sc.r_idx[6] + 55);
  EXPECT_FALSE(accepted);
  EXPECT_GE(avg.beats_rejected(), 1u);
}

TEST(EnsembleTest, WindowSlides) {
  const IcgScenario sc = make_icg(12, 0.0, 4);
  core::EnsembleAverager avg(kFs, {.window_beats = 4});
  for (const std::size_t r : sc.r_idx) avg.add_beat(sc.syn.icg, r);
  EXPECT_EQ(avg.beats_in_window(), 4u);
}

TEST(EnsembleTest, DelineatesAverageUnderHeavyNoise) {
  // At noise levels where single-beat delineation is unreliable, the
  // ensemble template still delineates close to the truth.
  const IcgScenario sc = make_icg(16, 0.25, 5);
  core::EnsembleAverager avg(kFs, {.window_beats = 16, .min_template_corr = 0.3});
  for (const std::size_t r : sc.r_idx) avg.add_beat(sc.syn.icg, r);
  const core::IcgDelineator delineator(kFs);
  const auto d = avg.delineate_average(delineator);
  ASSERT_TRUE(d.has_value());
  const double pep = static_cast<double>(d->b - d->r) / kFs;
  const double lvet = static_cast<double>(d->x - d->b) / kFs;
  // Truth: pep ~ 0.095-0.105, lvet ~ 0.29-0.31 for the default config.
  EXPECT_NEAR(pep, 0.10, 0.025);
  EXPECT_NEAR(lvet, 0.30, 0.04);
}

TEST(EnsembleTest, BoundaryBeatsIgnored) {
  const IcgScenario sc = make_icg(4, 0.0, 6);
  core::EnsembleAverager avg(kFs);
  EXPECT_FALSE(avg.add_beat(sc.syn.icg, 3));                      // before pre-window
  EXPECT_FALSE(avg.add_beat(sc.syn.icg, sc.syn.icg.size() - 2));  // after end
  EXPECT_EQ(avg.beats_in_window(), 0u);
}

TEST(EnsembleTest, ResetClears) {
  const IcgScenario sc = make_icg(6, 0.0, 7);
  core::EnsembleAverager avg(kFs);
  avg.add_beat(sc.syn.icg, sc.r_idx[0]);
  avg.reset();
  EXPECT_EQ(avg.beats_in_window(), 0u);
  EXPECT_TRUE(avg.average().empty());
}

TEST(EnsembleTest, RejectsBadConfig) {
  EXPECT_THROW(core::EnsembleAverager(0.0), std::invalid_argument);
  EXPECT_THROW(core::EnsembleAverager(kFs, {.window_beats = 0}), std::invalid_argument);
}

TEST(FixedPointTest, RejectsOutOfRangeCoefficients) {
  // The Q2.30 quantizer every Q31 FIR tap goes through: 3 lies outside [-2, 2).
  EXPECT_THROW(dsp::Q31Backend::coeff(3.0), std::invalid_argument);
}

TEST(FixedPointTest, QuantizationRoundTrip) {
  for (const double c : {0.51, -0.49, 0.25, -1.51, 0.76})
    EXPECT_NEAR(static_cast<double>(dsp::Q31Backend::coeff(c)) / 1073741824.0, c, 1e-9);
}

} // namespace
} // namespace icgkit
