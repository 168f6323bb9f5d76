#include "core/hemodynamics.h"

#include "common/filtered.h"
#include "core/quality.h"
#include "core/stream.h"
#include "dsp/filtfilt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

namespace icgkit::core {
namespace {

constexpr double kFs = 250.0;

BeatDelineation sample_beat() {
  BeatDelineation d;
  d.r = 1000;
  d.b = 1000 + 25;  // PEP = 100 ms
  d.c = 1000 + 55;
  d.x = 1000 + 100; // LVET = 300 ms
  d.c_amplitude = 1.8;
  d.valid = true;
  return d;
}

TEST(HemodynamicsTest, SystolicIntervals) {
  const BeatHemodynamics h = compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs);
  EXPECT_NEAR(h.pep_s, 0.100, 1e-9);
  EXPECT_NEAR(h.lvet_s, 0.300, 1e-9);
  EXPECT_NEAR(h.hr_bpm, 75.0, 1e-9);
  EXPECT_NEAR(h.dzdt_max, 1.8, 1e-12);
}

TEST(HemodynamicsTest, KubicekFormula) {
  BodyParameters body;
  body.blood_resistivity_ohm_cm = 135.0;
  body.electrode_distance_cm = 30.0;
  const BeatHemodynamics h = compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs, body);
  // SV = 135 * (30/25)^2 * 0.3 * 1.8 = 104.976 ml
  EXPECT_NEAR(h.sv_kubicek_ml, 135.0 * 1.44 * 0.3 * 1.8, 1e-9);
  EXPECT_NEAR(h.co_kubicek_l_min, h.sv_kubicek_ml * 75.0 / 1000.0, 1e-9);
}

TEST(HemodynamicsTest, SramekFormula) {
  BodyParameters body;
  body.height_cm = 178.0;
  const BeatHemodynamics h = compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs, body);
  const double vept = std::pow(0.17 * 178.0, 3.0) / 4.25;
  EXPECT_NEAR(h.sv_sramek_ml, vept * (1.8 / 25.0) * 0.3, 1e-9);
}

TEST(HemodynamicsTest, StrokeVolumePhysiological) {
  // Both estimators should land in the adult range (40-150 ml) for
  // typical inputs.
  const BeatHemodynamics h = compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs);
  EXPECT_GT(h.sv_kubicek_ml, 40.0);
  EXPECT_LT(h.sv_kubicek_ml, 150.0);
  EXPECT_GT(h.sv_sramek_ml, 40.0);
  EXPECT_LT(h.sv_sramek_ml, 150.0);
}

TEST(HemodynamicsTest, TfcInverseOfZ0) {
  const BeatHemodynamics h = compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs);
  EXPECT_NEAR(h.tfc_per_kohm, 40.0, 1e-9);
  const BeatHemodynamics wet = compute_beat_hemodynamics(sample_beat(), 0.8, 20.0, kFs);
  EXPECT_GT(wet.tfc_per_kohm, h.tfc_per_kohm); // more fluid -> lower Z0 -> higher TFC
}

TEST(HemodynamicsTest, InvalidBeatYieldsZeros) {
  BeatDelineation d = sample_beat();
  d.valid = false;
  const BeatHemodynamics h = compute_beat_hemodynamics(d, 0.8, 25.0, kFs);
  EXPECT_DOUBLE_EQ(h.sv_kubicek_ml, 0.0);
  EXPECT_DOUBLE_EQ(h.pep_s, 0.0);
}

TEST(HemodynamicsTest, BadInputsYieldZeros) {
  EXPECT_DOUBLE_EQ(compute_beat_hemodynamics(sample_beat(), -1.0, 25.0, kFs).sv_kubicek_ml,
                   0.0);
  EXPECT_DOUBLE_EQ(compute_beat_hemodynamics(sample_beat(), 0.8, 0.0, kFs).sv_kubicek_ml,
                   0.0);
  EXPECT_THROW(compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, 0.0),
               std::invalid_argument);
}

std::vector<BeatHemodynamics> uniform_beats(std::size_t n) {
  std::vector<BeatHemodynamics> v;
  for (std::size_t i = 0; i < n; ++i)
    v.push_back(compute_beat_hemodynamics(sample_beat(), 0.8, 25.0, kFs));
  return v;
}

TEST(HemodynamicsSummaryTest, AveragesUniformBeats) {
  const HemodynamicsSummary s = summarize_hemodynamics(uniform_beats(10));
  EXPECT_EQ(s.beats_used, 10u);
  EXPECT_EQ(s.beats_rejected, 0u);
  EXPECT_NEAR(s.pep_s, 0.100, 1e-9);
  EXPECT_NEAR(s.lvet_s, 0.300, 1e-9);
  EXPECT_NEAR(s.hr_bpm, 75.0, 1e-9);
}

TEST(HemodynamicsSummaryTest, RejectsOutliers) {
  auto beats = uniform_beats(12);
  beats[5].pep_s = 0.190;  // implausible jump
  beats[8].lvet_s = 0.450;
  const HemodynamicsSummary s = summarize_hemodynamics(beats);
  EXPECT_EQ(s.beats_rejected, 2u);
  EXPECT_NEAR(s.pep_s, 0.100, 1e-9);
  EXPECT_NEAR(s.lvet_s, 0.300, 1e-9);
}

TEST(HemodynamicsSummaryTest, EmptyInputSafe) {
  const HemodynamicsSummary s = summarize_hemodynamics({});
  EXPECT_EQ(s.beats_used, 0u);
  EXPECT_DOUBLE_EQ(s.pep_s, 0.0);
}

TEST(QualityTest, AcceptsGoodBeat) {
  EXPECT_EQ(assess_beat(sample_beat(), 0.8, kFs), BeatFlaw::None);
}

TEST(QualityTest, FlagsInvalidDelineation) {
  BeatDelineation d = sample_beat();
  d.valid = false;
  EXPECT_EQ(assess_beat(d, 0.8, kFs), BeatFlaw::InvalidDelineation);
}

TEST(QualityTest, FlagsPepRange) {
  BeatDelineation d = sample_beat();
  d.b = d.r + 2; // 8 ms PEP
  const BeatFlaw f = assess_beat(d, 0.8, kFs);
  EXPECT_TRUE(has_flaw(f, BeatFlaw::PepOutOfRange));
}

TEST(QualityTest, FlagsLvetRange) {
  BeatDelineation d = sample_beat();
  d.x = d.b + 20; // 80 ms LVET
  EXPECT_TRUE(has_flaw(assess_beat(d, 0.8, kFs), BeatFlaw::LvetOutOfRange));
}

TEST(QualityTest, FlagsAmplitude) {
  BeatDelineation d = sample_beat();
  d.c_amplitude = 50.0;
  EXPECT_TRUE(has_flaw(assess_beat(d, 0.8, kFs), BeatFlaw::AmplitudeOutOfRange));
}

TEST(QualityTest, FlagsRr) {
  EXPECT_TRUE(has_flaw(assess_beat(sample_beat(), 3.0, kFs), BeatFlaw::RrOutOfRange));
}

TEST(QualityTest, MultipleFlawsCombine) {
  BeatDelineation d = sample_beat();
  d.c_amplitude = 50.0;
  const BeatFlaw f = assess_beat(d, 3.0, kFs);
  EXPECT_TRUE(has_flaw(f, BeatFlaw::AmplitudeOutOfRange));
  EXPECT_TRUE(has_flaw(f, BeatFlaw::RrOutOfRange));
  EXPECT_EQ(describe_flaws(f), "amplitude-range|rr-range");
}

TEST(QualityTest, DescribeOk) {
  EXPECT_EQ(describe_flaws(BeatFlaw::None), "ok");
}

TEST(IcgFilterTest, IcgFromImpedanceSignConvention) {
  // Z falling (ejection) must give a positive conditioned ICG. The fall
  // is a transient, a 0.1 Ohm raised-cosine step over 100 ms: the 0.8 Hz
  // baseline high-pass removes a constant slope.
  constexpr std::size_t kStart = 1000, kLen = 25;
  dsp::Signal z(2000, 25.0);
  for (std::size_t i = kStart; i < z.size(); ++i) {
    const double phase = std::min(1.0, static_cast<double>(i - kStart) / kLen);
    z[i] -= 0.05 * (1.0 - std::cos(std::numbers::pi * phase));
  }
  const dsp::Signal icg = test::filtered(IcgConditionerStage(kFs), z);
  ASSERT_EQ(icg.size(), z.size());
  const auto peak = std::max_element(icg.begin(), icg.end());
  // -dZ/dt peaks mid-fall, at 0.05 * pi / 100 ms = 1.57 Ohm/s before
  // filtering; the high-pass's undershoot stays far smaller.
  EXPECT_NEAR(static_cast<double>(peak - icg.begin()), kStart + kLen / 2.0, 2.0);
  EXPECT_GT(*peak, 1.2);
  EXPECT_GT(*peak, -4.0 * *std::min_element(icg.begin(), icg.end()));
}

TEST(IcgFilterTest, TwentyHzCutoffApplied) {
  // The engine's ICG low-pass on each backend: a 40 Hz tone must be
  // strongly attenuated, a 5 Hz tone preserved. On Q31 the unit tones
  // run at a quarter of full scale.
  const dsp::FirCoefficients kernel = icg_conditioner_lowpass_kernel(kFs, {});
  dsp::Signal lo(2000), hi(2000);
  for (std::size_t i = 0; i < lo.size(); ++i) {
    const double t = static_cast<double>(i) / kFs;
    lo[i] = std::sin(2.0 * std::numbers::pi * 5.0 * t);
    hi[i] = std::sin(2.0 * std::numbers::pi * 40.0 * t);
  }
  const auto expect_cutoff = [&](const dsp::Signal& lo_f, const dsp::Signal& hi_f) {
    double lo_rms = 0.0, hi_rms = 0.0;
    for (std::size_t i = 300; i + 300 < lo.size(); ++i) {
      lo_rms += lo_f[i] * lo_f[i];
      hi_rms += hi_f[i] * hi_f[i];
    }
    EXPECT_GT(std::sqrt(lo_rms), 20.0 * std::sqrt(hi_rms));
  };
  {
    SCOPED_TRACE("Double");
    expect_cutoff(test::filtered(dsp::StreamingZeroPhaseFir(kernel), lo),
                  test::filtered(dsp::StreamingZeroPhaseFir(kernel), hi));
  }
  {
    SCOPED_TRACE("Q31");
    using Fir = dsp::BasicStreamingZeroPhaseFir<dsp::Q31Backend>;
    expect_cutoff(test::filtered<dsp::Q31Backend>(Fir(kernel), lo, 4.0),
                  test::filtered<dsp::Q31Backend>(Fir(kernel), hi, 4.0));
  }
}

TEST(IcgFilterTest, RejectsBadFs) {
  EXPECT_THROW(IcgConditionerStage(0.0), std::invalid_argument);
}

} // namespace
} // namespace icgkit::core
