// Numeric backends for the streaming kernel layer.
//
// Every stateful streaming kernel (the zero-phase FIR and high-pass, the
// moving/morphology kernels, the derivative stages, Pan-Tompkins'
// threshold state and the pipeline stage compositions) is a template over
// one of these policy types, so the same control flow runs either in
// double precision or in the Q-format integer arithmetic of the paper's
// FPU-less STM32L151 target (a software double MAC costs ~70 cycles
// there, a Q31 MAC ~4; see platform::McuConfig).
//
//   DoubleBackend  samples/accumulators are double and every op is the
//                  plain floating-point expression the kernels have
//                  always used: instantiating a kernel with this backend
//                  is *bit-identical* to the pre-refactor implementation
//                  (the streaming-equivalence tests pin this down).
//   Q31Backend     samples are Q1.31 integers against a per-stage full
//                  scale, coefficients Q2.30, accumulators 64-bit with
//                  saturation on narrowing -- the firmware arithmetic.
//                  Constant factors that are powers of two become
//                  arithmetic shifts; physical-unit factors (the fs in a
//                  derivative) are absorbed into the stage's nominal
//                  full scale instead of being multiplied per sample
//                  (that is what the `Rescale` hooks below encode).
//
// Per-stage scaling policy: a fixed-point stage tracks "what one unit of
// full scale means" as a plain double on the side (`Q31ScalingPolicy`,
// used by the fixed beat pipeline); the integer arithmetic itself never
// sees it. Ops that change the nominal scale take the double factor (for
// the double backend) *and* the power-of-two shift (for the fixed
// backend) so each instantiation applies its own form.
#pragma once

#include "dsp/simd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "support/contract.h"

namespace icgkit::dsp {

/// Double-precision backend: the reference arithmetic. All ops reduce to
/// the exact expressions the scalar kernels used before the backend
/// refactor (preserving evaluation order, so results are bit-identical).
struct DoubleBackend {
  using sample_t = double; ///< one signal sample
  using acc_t = double;    ///< wide accumulator (sums, filter state)
  using coeff_t = double;  ///< filter coefficient
  static constexpr bool kFixed = false;
  static constexpr std::size_t kLanes = 1;
  using lane_backend = DoubleBackend; ///< one lane's backend (itself)
  static sample_t lane(sample_t v, std::size_t) { return v; }

  // -- conversions (the double backend is its own real representation) --
  static sample_t from_real(double v) { return v; }
  static double to_real(sample_t v) { return v; }
  static coeff_t coeff(double c) { return c; }

  // -- accumulator ops --
  static acc_t acc_zero() { return 0.0; }
  static acc_t acc_add(acc_t a, sample_t v) { return a + v; }
  static acc_t acc_sub(acc_t a, sample_t v) { return a - v; }
  static acc_t mac(acc_t a, coeff_t c, sample_t v) { return a + c * v; }
  static sample_t narrow(acc_t a) { return a; }
  /// mean over n accumulated samples: a / n.
  static sample_t mean(acc_t a, std::size_t n) { return a / static_cast<double>(n); }
  /// (a / 2) / n -- the Pan-Tompkins noise-floor learning expression.
  static sample_t halved_mean(acc_t a, std::size_t n) {
    return 0.5 * a / static_cast<double>(n);
  }

  // -- sample ops --
  static sample_t add(sample_t a, sample_t b) { return a + b; }
  static sample_t sub(sample_t a, sample_t b) { return a - b; }
  static sample_t neg(sample_t v) { return -v; }
  static sample_t abs(sample_t v) { return std::abs(v); }
  static sample_t twice(sample_t v) { return 2.0 * v; }
  static sample_t half(sample_t v) { return v * 0.5; }
  static sample_t quarter(sample_t v) { return 0.25 * v; }
  static sample_t eighth(sample_t v) { return v / 8.0; }
  /// Normalized square (the Pan-Tompkins energy nonlinearity).
  static sample_t square(sample_t v) { return v * v; }
  /// Odd reflection about `edge`: 2*edge - v (filtfilt edge synthesis).
  static sample_t odd_reflect(sample_t edge, sample_t v) { return 2.0 * edge - v; }
  /// Scale change: double multiplies the physical factor, fixed shifts by
  /// `fx_shift` (the caller's scaling policy tracks what that does to the
  /// stage's nominal full scale).
  static sample_t rescale(sample_t v, double real_gain, int fx_shift) {
    (void)fx_shift;
    return v * real_gain;
  }
  /// Exponential update toward v with weight 2^-k: (1/2^k) v + (1-1/2^k) old
  /// (Pan-Tompkins SPKI/NPKI updates; k = 3 and 2 in the paper).
  static sample_t ewma_shift(sample_t old, sample_t v, int k) {
    const double w = 1.0 / static_cast<double>(1 << k);
    return w * v + (1.0 - w) * old;
  }
  /// Linear interpolation a + (b - a) * (num/den), num in [0, den].
  static sample_t lerp(sample_t a, sample_t b, std::size_t num, std::size_t den) {
    const double frac = static_cast<double>(num) / static_cast<double>(den);
    return a + (b - a) * frac;
  }
};

/// Q1.31 fixed-point backend: 32-bit samples, Q2.30 coefficients, 64-bit
/// accumulation, saturating narrowing -- the Cortex-M3 arithmetic the
/// paper's firmware would use (SMULL/SSAT instruction semantics).
struct Q31Backend {
  using sample_t = std::int32_t;
  using acc_t = std::int64_t;
  using coeff_t = std::int32_t; ///< Q2.30
  static constexpr bool kFixed = true;
  static constexpr std::size_t kLanes = 1;
  using lane_backend = Q31Backend; ///< one lane's backend (itself)
  static sample_t lane(sample_t v, std::size_t) { return v; }

  static constexpr double kOne = 2147483648.0;        // 2^31
  static constexpr double kCoeffOne = 1073741824.0;   // 2^30
  static constexpr acc_t kMax = 2147483647;
  static constexpr acc_t kMin = -2147483648LL;

  static sample_t saturate(acc_t v) {
    return static_cast<sample_t>(v > kMax ? kMax : (v < kMin ? kMin : v));
  }

  // -- conversions --
  /// Real value in [-1, 1) of stage full scale -> Q1.31, rounded half
  /// away from zero (std::llround's rule) and saturating. Out-of-range
  /// input saturates before any conversion, so every finite value maps
  /// exactly (llround itself overflows past 2^63); NaN maps to kMin.
  static sample_t from_real(double v) {
    const double s = v * kOne;
    if (!(s > static_cast<double>(kMin))) return static_cast<sample_t>(kMin);
    if (s >= static_cast<double>(kMax)) return static_cast<sample_t>(kMax);
    // |s| < 2^31: the truncation and the fraction s - t are both exact.
    const auto t = static_cast<acc_t>(s);
    const double f = s - static_cast<double>(t);
    return static_cast<sample_t>(t + (f >= 0.5) - (f <= -0.5));
  }
  static double to_real(sample_t v) { return static_cast<double>(v) / kOne; }
  /// Coefficient in [-2, 2) -> Q2.30. Throws outside the representable
  /// range (NaN included).
  static coeff_t coeff(double c) {
    if (!(c >= -2.0 && c < 2.0))
      ICGKIT_THROW(std::invalid_argument("Q31Backend: coefficient outside Q2.30 range"));
    return static_cast<coeff_t>(std::llround(c * kCoeffOne));
  }

  // -- accumulator ops --
  static acc_t acc_zero() { return 0; }
  static acc_t acc_add(acc_t a, sample_t v) { return a + v; }
  static acc_t acc_sub(acc_t a, sample_t v) { return a - v; }
  /// Q2.30 coefficient times Q1.31 sample, accumulated at Q1.31: the
  /// product is Q3.61, >> 30 brings it back to Q1.31 in the 64-bit
  /// accumulator (the headroom absorbs intermediate cascade overshoot).
  static acc_t mac(acc_t a, coeff_t c, sample_t v) {
    return a + ((static_cast<acc_t>(c) * v) >> 30);
  }
  static sample_t narrow(acc_t a) { return saturate(a); }
  static sample_t mean(acc_t a, std::size_t n) {
    return saturate(a / static_cast<acc_t>(n));
  }
  static sample_t halved_mean(acc_t a, std::size_t n) {
    return saturate((a >> 1) / static_cast<acc_t>(n));
  }

  // -- sample ops (64-bit intermediates, saturate on the way out) --
  static sample_t add(sample_t a, sample_t b) {
    return saturate(static_cast<acc_t>(a) + b);
  }
  static sample_t sub(sample_t a, sample_t b) {
    return saturate(static_cast<acc_t>(a) - b);
  }
  static sample_t neg(sample_t v) { return saturate(-static_cast<acc_t>(v)); }
  static sample_t abs(sample_t v) {
    return saturate(v < 0 ? -static_cast<acc_t>(v) : static_cast<acc_t>(v));
  }
  static sample_t twice(sample_t v) { return saturate(static_cast<acc_t>(v) << 1); }
  static sample_t half(sample_t v) { return static_cast<sample_t>(v >> 1); }
  static sample_t quarter(sample_t v) { return static_cast<sample_t>(v >> 2); }
  static sample_t eighth(sample_t v) { return static_cast<sample_t>(v >> 3); }
  /// Q1.31 x Q1.31 -> Q1.31: 64-bit product >> 31.
  static sample_t square(sample_t v) {
    return saturate((static_cast<acc_t>(v) * v) >> 31);
  }
  static sample_t odd_reflect(sample_t edge, sample_t v) {
    return saturate((static_cast<acc_t>(edge) << 1) - v);
  }
  /// Power-of-two gain; the physical factor only moves the stage's
  /// nominal full scale (tracked by the caller's scaling policy).
  static sample_t rescale(sample_t v, double real_gain, int fx_shift) {
    (void)real_gain;
    if (fx_shift >= 0) return saturate(static_cast<acc_t>(v) << fx_shift);
    return static_cast<sample_t>(v >> (-fx_shift));
  }
  static sample_t ewma_shift(sample_t old, sample_t v, int k) {
    // old + (v - old) * 2^-k without a multiply, the firmware idiom.
    const acc_t o = old;
    return saturate(o + ((static_cast<acc_t>(v) - o) >> k));
  }
  static sample_t lerp(sample_t a, sample_t b, std::size_t num, std::size_t den) {
    const acc_t d = static_cast<acc_t>(b) - a;
    return saturate(a + d * static_cast<acc_t>(num) / static_cast<acc_t>(den));
  }
};

/// SIMD batch backend: W double lanes advancing in lockstep, one lane
/// per co-scheduled session. Samples and accumulators are LaneVec<W>
/// (structure-of-arrays); coefficients stay scalar double, so a batched
/// kernel loads each coefficient once and broadcasts it across all W
/// sessions -- the cross-session amortization this backend exists for.
///
/// Identity contract: every op is the DoubleBackend expression applied
/// elementwise, in the same order, with no horizontal arithmetic. A
/// batched kernel whose control flow is lane-uniform (all the linear
/// filters and moving stats are; the divergent stages keep one scalar
/// `lane_backend` instance per lane, see core::BasicStreamingBeatPipeline)
/// therefore produces in lane i the exact
/// bytes the scalar double kernel produces for session i. The
/// batch-equivalence tests enforce byte identity, not an ULP band.
template <std::size_t W>
struct BatchBackend {
  using sample_t = LaneVec<W>; ///< W sessions' samples, SoA
  using acc_t = LaneVec<W>;    ///< wide state is per-lane double, like DoubleBackend
  using coeff_t = double;      ///< scalar: loaded once, broadcast across lanes
  static constexpr bool kFixed = false;
  static constexpr std::size_t kLanes = W;
  /// Each lane is one double session: per-lane state (decision tails,
  /// beat assemblers) runs the DoubleBackend code on `lane(v, l)`.
  using lane_backend = DoubleBackend;
  static double lane(sample_t v, std::size_t l) { return v.lane(l); }

  // -- conversions --
  static sample_t from_real(double v) { return sample_t::broadcast(v); }
  /// No single real value represents W lanes; lane extraction is explicit
  /// (LaneVec::lane) so a silent lane-0 projection can't hide in kernel
  /// code. to_real is deliberately absent.
  static coeff_t coeff(double c) { return c; }

  // -- accumulator ops (elementwise DoubleBackend expressions) --
  static acc_t acc_zero() { return acc_t{}; }
  static acc_t acc_add(acc_t a, sample_t v) { return a + v; }
  static acc_t acc_sub(acc_t a, sample_t v) { return a - v; }
  static acc_t mac(acc_t a, coeff_t c, sample_t v) { return a + c * v; }
  static sample_t narrow(acc_t a) { return a; }
  static sample_t mean(acc_t a, std::size_t n) { return a / static_cast<double>(n); }
  static sample_t halved_mean(acc_t a, std::size_t n) {
    return 0.5 * a / static_cast<double>(n);
  }

  // -- sample ops --
  static sample_t add(sample_t a, sample_t b) { return a + b; }
  static sample_t sub(sample_t a, sample_t b) { return a - b; }
  static sample_t neg(sample_t v) { return -v; }
  static sample_t abs(sample_t v) {
    sample_t r = v;
    for (std::size_t i = 0; i < W; ++i) r.set_lane(i, std::abs(r.lane(i)));
    return r;
  }
  static sample_t twice(sample_t v) { return 2.0 * v; }
  static sample_t half(sample_t v) { return v * 0.5; }
  static sample_t quarter(sample_t v) { return 0.25 * v; }
  static sample_t eighth(sample_t v) { return v / 8.0; }
  static sample_t square(sample_t v) { return v * v; }
  static sample_t odd_reflect(sample_t edge, sample_t v) { return 2.0 * edge - v; }
  static sample_t rescale(sample_t v, double real_gain, int fx_shift) {
    (void)fx_shift;
    return v * real_gain;
  }
  static sample_t ewma_shift(sample_t old, sample_t v, int k) {
    const double w = 1.0 / static_cast<double>(1 << k);
    return w * v + (1.0 - w) * old;
  }
  static sample_t lerp(sample_t a, sample_t b, std::size_t num, std::size_t den) {
    const double frac = static_cast<double>(num) / static_cast<double>(den);
    return a + (b - a) * frac;
  }
};

/// True for backends whose sample_t carries multiple lockstep lanes.
template <typename B>
inline constexpr bool is_batch_backend_v = (B::kLanes > 1);

/// Per-lane state held inline: N objects of T, each constructed from
/// `args` (T need not be default-constructible or movable).
template <typename T, std::size_t N, typename... Args>
std::array<T, N> make_lanes(const Args&... args) {
  const auto make = [&](std::size_t) { return T(args...); };
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return std::array<T, N>{make(I)...};
  }(std::make_index_sequence<N>{});
}

/// Per-stage Q-format scaling of the fixed beat pipeline: what one unit
/// of Q1.31 full scale means at each boundary, and the power-of-two gain
/// applied where the double pipeline multiplies by fs.
///
/// Stage scales that follow from these choices (defaults, fs = 250 Hz):
///   raw ECG          Q1.31 @ 16 mV        (hand ECG stays well inside)
///   cleaned ECG      Q1.31 @ 16 mV        (morphology/FIR are gain <= 1)
///   QRS feature      (counts)^2           (scale cancels in thresholds)
///   raw impedance Z  Q1.31 @ 1024 Ohm     (covers hand-to-hand Z0)
///   ICG = -dZ/dt     Q1.31 @ 1024*250/2^14 = 15.6 Ohm/s
/// The derivative stage's fs multiply is absorbed into the ICG full
/// scale; `icg_gain_log2` left-shifts the difference so the tiny
/// sample-to-sample impedance deltas keep ~27 significant bits (the
/// delineator's third-derivative rules need them), while the 15.6 Ohm/s
/// full scale still clears the 10 Ohm/s physiological ceiling the
/// quality gate enforces. The sweep in bench_fixed_pipeline pins the
/// trade-off: one notch higher (7.8 Ohm/s) clips real beats and costs
/// whole-sample delineation errors, two notches lower costs the
/// precision the X-point rules need.
struct Q31ScalingPolicy {
  double ecg_fullscale_mv = 16.0;
  double z_fullscale_ohm = 1024.0;
  int icg_gain_log2 = 14;

  /// Full scale of the conditioned ICG stream in Ohm/s.
  [[nodiscard]] double icg_fullscale(double fs) const {
    return z_fullscale_ohm * fs / static_cast<double>(1 << icg_gain_log2);
  }
};

} // namespace icgkit::dsp
