#include "dsp/fir_design.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "support/contract.h"

namespace icgkit::dsp {

namespace {
constexpr double kPi = std::numbers::pi;

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  return std::sin(kPi * x) / (kPi * x);
}

// Raw (un-normalized) windowed-sinc low-pass taps.
Signal lowpass_taps(std::size_t order, double cutoff_hz, SampleRate fs, WindowKind window) {
  if (fs <= 0.0) ICGKIT_THROW(std::invalid_argument("fir design: fs must be positive"));
  if (cutoff_hz <= 0.0 || cutoff_hz >= fs / 2.0)
    ICGKIT_THROW(std::invalid_argument("fir design: cutoff must lie in (0, fs/2)"));
  const std::size_t n = order + 1;
  const double fc = cutoff_hz / fs; // normalized cutoff, cycles/sample
  const double mid = static_cast<double>(order) / 2.0;
  Signal h(n);
  const Signal w = make_window(window, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) - mid;
    h[i] = 2.0 * fc * sinc(2.0 * fc * t) * w[i];
  }
  return h;
}

void normalize_gain_at(Signal& h, double freq_hz, SampleRate fs) {
  // |H(f)| for a real FIR evaluated directly; then scale taps.
  double re = 0.0, im = 0.0;
  const double omega = 2.0 * kPi * freq_hz / fs;
  for (std::size_t i = 0; i < h.size(); ++i) {
    re += h[i] * std::cos(omega * static_cast<double>(i));
    im -= h[i] * std::sin(omega * static_cast<double>(i));
  }
  const double mag = std::hypot(re, im);
  if (mag <= 0.0) ICGKIT_THROW(std::logic_error("fir design: zero gain at normalization frequency"));
  for (auto& tap : h) tap /= mag;
}
} // namespace

FirCoefficients design_lowpass(std::size_t order, double cutoff_hz, SampleRate fs,
                               WindowKind window) {
  Signal h = lowpass_taps(order, cutoff_hz, fs, window);
  normalize_gain_at(h, 0.0, fs);
  return FirCoefficients{std::move(h)};
}

FirCoefficients design_bandpass(std::size_t order, double f1_hz, double f2_hz, SampleRate fs,
                                WindowKind window) {
  if (order % 2 != 0)
    ICGKIT_THROW(std::invalid_argument("fir design: band-pass requires even order"));
  if (!(f1_hz < f2_hz))
    ICGKIT_THROW(std::invalid_argument("fir design: band-pass requires f1 < f2"));
  // Difference of two unity-DC low-passes: tap sum (= DC gain) is exactly 0.
  Signal lo = lowpass_taps(order, f1_hz, fs, window);
  normalize_gain_at(lo, 0.0, fs);
  Signal hi = lowpass_taps(order, f2_hz, fs, window);
  normalize_gain_at(hi, 0.0, fs);
  Signal h(order + 1);
  for (std::size_t i = 0; i <= order; ++i) h[i] = hi[i] - lo[i];
  FirCoefficients fir{std::move(h)};
  // Normalize at the arithmetic band center (matching MATLAB fir1's
  // 'scale' convention). The geometric center would sit inside the
  // transition region for very asymmetric bands such as 0.05-40 Hz at a
  // short order, where the response is nowhere near flat.
  normalize_gain_at(fir.taps, 0.5 * (f1_hz + f2_hz), fs);
  return fir;
}

Signal fir_apply(const FirCoefficients& fir, SignalView x) {
  const auto& h = fir.taps;
  Signal y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    const std::size_t kmax = std::min(h.size() - 1, n);
    for (std::size_t k = 0; k <= kmax; ++k) acc += h[k] * x[n - k];
    y[n] = acc;
  }
  return y;
}

double fir_magnitude_at(const FirCoefficients& fir, double freq_hz, SampleRate fs) {
  double re = 0.0, im = 0.0;
  const double omega = 2.0 * kPi * freq_hz / fs;
  for (std::size_t i = 0; i < fir.taps.size(); ++i) {
    re += fir.taps[i] * std::cos(omega * static_cast<double>(i));
    im -= fir.taps[i] * std::sin(omega * static_cast<double>(i));
  }
  return std::hypot(re, im);
}

} // namespace icgkit::dsp
