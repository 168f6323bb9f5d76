// Numeric-backend layer: the Q31 instantiations of the streaming kernels
// must track their double twins to Q1.31 quantization accuracy, saturate
// instead of wrapping, and keep the power-of-two threshold arithmetic
// exact. The DoubleBackend instantiations being bit-identical to the
// pre-refactor kernels is covered by the existing streaming-stage and
// pipeline equivalence tests.
#include "dsp/backend.h"

#include "dsp/butterworth.h"
#include "dsp/filtfilt.h"
#include "dsp/fir_design.h"
#include "dsp/morphology.h"
#include "dsp/moving.h"
#include "ecg/pan_tompkins.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

namespace icgkit::dsp {
namespace {

constexpr double kFs = 250.0;

Signal test_tone(std::size_t n, double amp = 0.4) {
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    x[i] = amp * std::sin(2.0 * std::numbers::pi * 7.0 * t) +
           0.1 * amp * std::sin(2.0 * std::numbers::pi * 31.0 * t);
  }
  return x;
}

TEST(Q31BackendTest, ConversionsRoundTripAndSaturate) {
  EXPECT_EQ(Q31Backend::from_real(0.0), 0);
  EXPECT_NEAR(Q31Backend::to_real(Q31Backend::from_real(0.73)), 0.73, 1e-9);
  EXPECT_NEAR(Q31Backend::to_real(Q31Backend::from_real(-0.73)), -0.73, 1e-9);
  // Out-of-range input saturates instead of wrapping.
  EXPECT_EQ(Q31Backend::from_real(2.0), std::numeric_limits<std::int32_t>::max());
  EXPECT_EQ(Q31Backend::from_real(-2.0), std::numeric_limits<std::int32_t>::min());
}

// Finite input of any size saturates at the rail of its sign; inside
// the rails from_real is std::llround of v * 2^31, ties away from zero.
// llround itself overflows past 2^63, which once sent 4.3e9 to the
// negative rail.
TEST(Q31BackendTest, FiniteOutOfRangeInputSaturatesAtItsOwnRail) {
  constexpr auto kMax = std::numeric_limits<std::int32_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int32_t>::min();
  constexpr double kDblMax = std::numeric_limits<double>::max();
  for (const double v : {1.0, 1.5, 5e9, 1e300, kDblMax}) {
    EXPECT_EQ(Q31Backend::from_real(v), kMax) << v;
    EXPECT_EQ(Q31Backend::from_real(-v), kMin) << -v;
  }
  const auto reference = [](double v) {
    return Q31Backend::saturate(static_cast<std::int64_t>(std::llround(v * Q31Backend::kOne)));
  };
  const double one = Q31Backend::kOne;
  for (const double s : {0.5, 1.5, 2.5, 0.49999999999999994, 1e-300, 12345.5, 2147483646.5,
                         2147483646.49999, 2147483647.0, 2147483647.5, 2147483648.0}) {
    EXPECT_EQ(Q31Backend::from_real(s / one), reference(s / one)) << s;
    EXPECT_EQ(Q31Backend::from_real(-s / one), reference(-s / one)) << -s;
  }
  const Signal tone = test_tone(4096, 0.999);
  for (const double v : tone) ASSERT_EQ(Q31Backend::from_real(v), reference(v)) << v;
}

TEST(Q31BackendTest, CoefficientRangeEnforced) {
  EXPECT_NO_THROW(Q31Backend::coeff(1.9999));
  EXPECT_NO_THROW(Q31Backend::coeff(-2.0));
  EXPECT_THROW(Q31Backend::coeff(2.0), std::invalid_argument);
  EXPECT_THROW(Q31Backend::coeff(-2.1), std::invalid_argument);
  EXPECT_THROW(Q31Backend::coeff(std::nan("")), std::invalid_argument);
}

TEST(Q31BackendTest, SampleOpsSaturateInsteadOfWrapping) {
  const auto big = std::numeric_limits<std::int32_t>::max();
  EXPECT_EQ(Q31Backend::add(big, big), big);
  EXPECT_EQ(Q31Backend::sub(std::numeric_limits<std::int32_t>::min(), big),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(Q31Backend::twice(big), big);
  EXPECT_EQ(Q31Backend::neg(std::numeric_limits<std::int32_t>::min()), big);
  EXPECT_EQ(Q31Backend::abs(std::numeric_limits<std::int32_t>::min()), big);
  EXPECT_EQ(Q31Backend::rescale(big, 1.0, 4), big);
}

TEST(Q31BackendTest, ThresholdArithmeticMatchesPaperWeights) {
  // SPKI/NPKI updates are 1/8 and 1/4 weights; the shift form must agree
  // with the textbook formula to quantization accuracy.
  const std::int32_t old_v = Q31Backend::from_real(0.25);
  const std::int32_t new_v = Q31Backend::from_real(0.75);
  const double got8 = Q31Backend::to_real(Q31Backend::ewma_shift(old_v, new_v, 3));
  EXPECT_NEAR(got8, 0.125 * 0.75 + 0.875 * 0.25, 1e-8);
  const double got4 = Q31Backend::to_real(Q31Backend::ewma_shift(old_v, new_v, 2));
  EXPECT_NEAR(got4, 0.25 * 0.75 + 0.75 * 0.25, 1e-8);
}

TEST(Q31BackendTest, SquareAndLerpMatchDouble) {
  const std::int32_t v = Q31Backend::from_real(0.31);
  EXPECT_NEAR(Q31Backend::to_real(Q31Backend::square(v)), 0.31 * 0.31, 1e-8);
  const std::int32_t a = Q31Backend::from_real(-0.2);
  const std::int32_t b = Q31Backend::from_real(0.6);
  EXPECT_NEAR(Q31Backend::to_real(Q31Backend::lerp(a, b, 3, 8)),
              -0.2 + (0.6 - -0.2) * 3.0 / 8.0, 1e-8);
}

TEST(Q31KernelTest, MovingAverageTracksDoubleAndNeverAllocatesWide) {
  BasicStreamingMovingAverage<DoubleBackend> md(37);
  BasicStreamingMovingAverage<Q31Backend> mq(37);
  const Signal x = test_tone(800);
  for (const double v : x) {
    const double yd = md.tick(v);
    const double yq = Q31Backend::to_real(mq.tick(Q31Backend::from_real(v)));
    // Integer division truncates toward zero; error bounded by one LSB of
    // the sum plus the input quantization.
    EXPECT_NEAR(yq, yd, 1e-6);
  }
}

TEST(Q31KernelTest, ExtremumIsExactOnQuantizedInput) {
  // Order statistics commute with quantization: feeding the quantized
  // signal through the Q31 extremum equals quantizing the double output.
  using DKind = BasicStreamingExtremum<DoubleBackend>::Kind;
  using QKind = BasicStreamingExtremum<Q31Backend>::Kind;
  BasicStreamingExtremum<DoubleBackend> ed(11, DKind::Max);
  BasicStreamingExtremum<Q31Backend> eq(11, QKind::Max);
  const Signal x = test_tone(400);
  Signal outd;
  std::vector<std::int32_t> outq;
  for (const double v : x) {
    const std::int32_t q = Q31Backend::from_real(v);
    ed.push(Q31Backend::to_real(q), outd);
    eq.push(q, outq);
  }
  ed.finish(outd);
  eq.finish(outq);
  ASSERT_EQ(outd.size(), outq.size());
  for (std::size_t i = 0; i < outd.size(); ++i)
    EXPECT_EQ(Q31Backend::from_real(outd[i]), outq[i]) << "sample " << i;
}

TEST(Q31KernelTest, ZeroPhaseFirTracksDoubleAndStaysChunkInvariant) {
  const FirCoefficients kernel =
      zero_phase_sos_kernel(butterworth_lowpass(4, 20.0, kFs), 1e-6);
  // Amplitude kept under 1/3 full scale: the filtfilt-style odd
  // reflection 2*edge - x can reach 3x the signal peak, and beyond full
  // scale the Q31 edge synthesis (correctly) saturates, which is exactly
  // the headroom the pipeline's scaling policy provides in real use.
  const Signal x = test_tone(900, 0.25);

  BasicStreamingZeroPhaseFir<DoubleBackend> zd(kernel);
  Signal yd;
  zd.process_chunk(x, yd);
  zd.finish(yd);

  std::vector<std::int32_t> xq;
  for (const double v : x) xq.push_back(Q31Backend::from_real(v));

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{64}, x.size()}) {
    BasicStreamingZeroPhaseFir<Q31Backend> zq(kernel);
    std::vector<std::int32_t> yq;
    for (std::size_t i = 0; i < xq.size(); i += chunk) {
      const std::size_t len = std::min(chunk, xq.size() - i);
      for (std::size_t k = 0; k < len; ++k) zq.push(xq[i + k], yq);
    }
    zq.finish(yq);
    ASSERT_EQ(yq.size(), yd.size());
    for (std::size_t i = 0; i < yq.size(); ++i)
      EXPECT_NEAR(Q31Backend::to_real(yq[i]), yd[i], 5e-6) << "chunk " << chunk;
  }
}

TEST(Q31KernelTest, OnlinePanTompkinsFindsTheSameBeats) {
  // End-to-end QRS parity on a clean-ish synthetic ECG: the fixed
  // detector must confirm the identical R sample positions.
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = 20.0;
  const auto src = generate_source(roster[1], cfg);
  const auto rec =
      measure_device(roster[1], src, 50e3, synth::Position::ArmsOutstretched);

  ecg::BasicOnlinePanTompkins<DoubleBackend> pd(kFs);
  std::vector<std::size_t> rd;
  pd.push_chunk(rec.ecg_mv, rd);
  pd.finish(rd);
  ASSERT_GT(rd.size(), 15u);

  ecg::BasicOnlinePanTompkins<Q31Backend> pq(kFs);
  std::vector<std::size_t> rq;
  for (const double v : rec.ecg_mv) pq.push(Q31Backend::from_real(v / 16.0), rq);
  pq.finish(rq);

  ASSERT_EQ(rq.size(), rd.size());
  for (std::size_t i = 0; i < rd.size(); ++i) EXPECT_EQ(rq[i], rd[i]) << "peak " << i;
}

} // namespace
} // namespace icgkit::dsp
