#include "dsp/filtfilt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

namespace {
Signal reversed(Signal x) {
  std::reverse(x.begin(), x.end());
  return x;
}

std::size_t clamp_pad(std::size_t want, std::size_t n) {
  if (n <= 1) return 0;
  return std::min(want, n - 1);
}

template <typename ApplyFn>
Signal forward_backward(SignalView x, std::size_t pad, ApplyFn&& apply) {
  if (x.empty()) return {};
  const Signal padded = odd_reflect_pad(x, pad);
  Signal y = apply(padded);
  y = reversed(std::move(y));
  y = apply(y);
  y = reversed(std::move(y));
  return Signal(y.begin() + static_cast<Index>(pad),
                y.begin() + static_cast<Index>(pad + x.size()));
}
} // namespace

Signal odd_reflect_pad(SignalView x, std::size_t pad) {
  if (x.empty()) return {};
  if (pad >= x.size())
    ICGKIT_THROW(std::invalid_argument("odd_reflect_pad: pad must be < signal length"));
  Signal out;
  out.reserve(x.size() + 2 * pad);
  const double first = x.front();
  const double last = x.back();
  for (std::size_t k = pad; k >= 1; --k) out.push_back(2.0 * first - x[k]);
  out.insert(out.end(), x.begin(), x.end());
  for (std::size_t k = 1; k <= pad; ++k) out.push_back(2.0 * last - x[x.size() - 1 - k]);
  return out;
}

Signal filtfilt_sos(const SosFilter& filter, SignalView x) {
  const std::size_t pad = clamp_pad(3 * filter.order() + 1, x.size());
  return forward_backward(x, pad,
                          [&](SignalView v) { return sos_apply_steady(filter, v); });
}

Signal filtfilt_fir(const FirCoefficients& fir, SignalView x) {
  const std::size_t pad = clamp_pad(3 * fir.taps.size(), x.size());
  return forward_backward(x, pad, [&](SignalView v) { return fir_apply(fir, v); });
}

// ---------------------------------------------------------------------------
// Streaming zero-phase filtering
// ---------------------------------------------------------------------------

FirCoefficients zero_phase_fir_kernel(const FirCoefficients& fir) {
  const Signal& h = fir.taps;
  if (h.empty()) ICGKIT_THROW(std::invalid_argument("zero_phase_fir_kernel: empty taps"));
  const std::size_t taps = h.size();
  Signal g(2 * taps - 1, 0.0);
  // Full convolution of h with its reverse: g[m] = sum_j h[j] h[taps-1-m+j].
  for (std::size_t m = 0; m < g.size(); ++m) {
    const std::size_t shift = taps - 1 > m ? taps - 1 - m : m - (taps - 1);
    double acc = 0.0;
    for (std::size_t j = 0; j + shift < taps; ++j) acc += h[j] * h[j + shift];
    g[m] = acc;
  }
  return FirCoefficients{std::move(g)};
}

FirCoefficients zero_phase_sos_kernel(const SosFilter& filter, double tol,
                                      std::size_t max_half_len) {
  if (filter.sections.empty())
    ICGKIT_THROW(std::invalid_argument("zero_phase_sos_kernel: empty cascade"));
  if (tol <= 0.0 || tol >= 1.0)
    ICGKIT_THROW(std::invalid_argument("zero_phase_sos_kernel: tol must be in (0, 1)"));
  // Impulse response of the causal cascade: transposed direct form II
  // sections, gain applied once at the output (the autocorrelation below
  // squares it, matching two filtfilt passes).
  struct SectionState {
    double s1 = 0.0, s2 = 0.0;
  };
  std::vector<SectionState> state(filter.sections.size());
  Signal h;
  double peak = 0.0;
  std::size_t quiet = 0;
  constexpr std::size_t kQuietNeeded = 64;
  const std::size_t sim_cap = 4 * max_half_len + kQuietNeeded;
  for (std::size_t n = 0; n < sim_cap; ++n) {
    double v = n == 0 ? 1.0 : 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      const Biquad& s = filter.sections[i];
      SectionState& st = state[i];
      const double out = s.b0 * v + st.s1;
      st.s1 = s.b1 * v - s.a1 * out + st.s2;
      st.s2 = s.b2 * v - s.a2 * out;
      v = out;
    }
    v *= filter.gain;
    if (!std::isfinite(v) || std::abs(v) > 1e9)
      ICGKIT_THROW(std::invalid_argument("zero_phase_sos_kernel: cascade is unstable"));
    h.push_back(v);
    peak = std::max(peak, std::abs(v));
    if (std::abs(v) < 0.01 * tol * peak) {
      if (++quiet >= kQuietNeeded && h.size() > 16) break;
    } else {
      quiet = 0;
    }
  }
  // Autocorrelation g[k] = sum_n h[n] h[n+k]; |G(f)| = |H(f)|^2.
  const std::size_t n_h = h.size();
  Signal g(std::min(n_h, max_half_len + 1), 0.0);
  for (std::size_t k = 0; k < g.size(); ++k) {
    double acc = 0.0;
    for (std::size_t n = 0; n + k < n_h; ++n) acc += h[n] * h[n + k];
    g[k] = acc;
  }
  std::size_t half = 0;
  for (std::size_t k = 0; k < g.size(); ++k)
    if (std::abs(g[k]) > tol * std::abs(g[0])) half = k;
  FirCoefficients out;
  out.taps.assign(2 * half + 1, 0.0);
  for (std::size_t k = 0; k <= half; ++k) {
    out.taps[half + k] = g[k];
    out.taps[half - k] = g[k];
  }
  return out;
}

// The one copy of the scalar streaming FIR (see the extern declarations
// in filtfilt.h).
template class BasicStreamingZeroPhaseFir<DoubleBackend>;
template class BasicStreamingZeroPhaseFir<Q31Backend>;

} // namespace icgkit::dsp
