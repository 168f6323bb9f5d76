#include "dsp/filtfilt.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "support/contract.h"

#if defined(ICGKIT_FIR_AVX512)
#include <immintrin.h>
#define ICGKIT_AVX512_TARGET __attribute__((target("avx512f,avx512vl")))
#endif

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

#if defined(ICGKIT_FIR_AVX512)
bool wide_fir_active() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl");
  }();
  return ok;
}

namespace {

// V registers of eight outputs side by side: lane l of register v is
// output 8v + l, the convolution at x + 8v + l, accumulated in tap order.
// `last` masks the lanes of register V - 1 that exist (all eight in a
// full pass); masked lanes are neither loaded nor stored.
template <int V>
ICGKIT_AVX512_TARGET inline void wide_pass(const double* tap, std::size_t len, const double* x,
                                           double* dst, __mmask8 last) {
  __m512d acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm512_setzero_pd();
  for (std::size_t j = 0; j < len; ++j) {
    const __m512d c = _mm512_set1_pd(tap[j]);
    const double* p = x - j;
#pragma GCC unroll 4
    for (int v = 0; v + 1 < V; ++v)
      acc[v] = _mm512_add_pd(acc[v], _mm512_mul_pd(c, _mm512_loadu_pd(p + 8 * v)));
    const __m512d tail = _mm512_maskz_loadu_pd(last, p + 8 * (V - 1));
    acc[V - 1] = _mm512_add_pd(acc[V - 1], _mm512_mul_pd(c, tail));
  }
  for (int v = 0; v + 1 < V; ++v) _mm512_storeu_pd(dst + 8 * v, acc[v]);
  _mm512_mask_storeu_pd(dst + 8 * (V - 1), last, acc[V - 1]);
}

// The Q31 pass: each sample widens to a 64-bit lane, vpmuldq forms the
// exact Q3.61 product with the tap, vpsraq brings it to Q1.31 and vpaddq
// accumulates; vpmovsqd narrows with signed saturation. The zero-masking
// forms under an all-lanes mask are the plain instructions; GCC 12's
// unmasked ones read an undefined source it warns about.
template <int V>
ICGKIT_AVX512_TARGET inline void wide_pass(const std::int32_t* tap, std::size_t len,
                                           const std::int32_t* x, std::int32_t* dst,
                                           __mmask8 last) {
  __m512i acc[V];
  for (int v = 0; v < V; ++v) acc[v] = _mm512_setzero_si512();
  for (std::size_t j = 0; j < len; ++j) {
    const __m512i c = _mm512_set1_epi32(tap[j]);  // vpmuldq reads each lane's low half
    const std::int32_t* p = x - j;
#pragma GCC unroll 4
    for (int v = 0; v < V; ++v) {
      const __m256i s = v + 1 < V ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8 * v))
                                  : _mm256_maskz_loadu_epi32(last, p + 8 * v);
      const __m512i prod = _mm512_maskz_mul_epi32(0xFF, c, _mm512_maskz_cvtepi32_epi64(0xFF, s));
      acc[v] = _mm512_add_epi64(acc[v], _mm512_maskz_srai_epi64(0xFF, prod, 30));
    }
  }
  for (int v = 0; v + 1 < V; ++v) _mm512_mask_cvtsepi64_storeu_epi32(dst + 8 * v, 0xFF, acc[v]);
  _mm512_mask_cvtsepi64_storeu_epi32(dst + 8 * (V - 1), last, acc[V - 1]);
}

// Full passes of 32 outputs, then one pass over the remaining 1..31
// with its last register masked.
template <typename T>
ICGKIT_AVX512_TARGET void convolve_runs(const T* tap, std::size_t len, const T* newest,
                                        std::size_t n, T* dst) {
  std::size_t k = 0;
  for (; k + 32 <= n; k += 32) wide_pass<4>(tap, len, newest + k, dst + k, 0xFF);
  const std::size_t rest = n - k;
  if (rest == 0) return;
  const auto last = static_cast<__mmask8>((1u << ((rest - 1) % 8 + 1)) - 1);
  switch ((rest + 7) / 8) {
    case 1: return wide_pass<1>(tap, len, newest + k, dst + k, last);
    case 2: return wide_pass<2>(tap, len, newest + k, dst + k, last);
    case 3: return wide_pass<3>(tap, len, newest + k, dst + k, last);
    default: return wide_pass<4>(tap, len, newest + k, dst + k, last);
  }
}

} // namespace

namespace detail {
void convolve_wide(const double* tap, std::size_t len, const double* newest, std::size_t n,
                   double* dst) {
  convolve_runs(tap, len, newest, n, dst);
}
void convolve_wide(const std::int32_t* tap, std::size_t len, const std::int32_t* newest,
                   std::size_t n, std::int32_t* dst) {
  convolve_runs(tap, len, newest, n, dst);
}
} // namespace detail
#endif  // ICGKIT_FIR_AVX512

// The one copy of the scalar streaming FIR (see the extern declarations
// in filtfilt.h).
template class BasicStreamingZeroPhaseFir<DoubleBackend>;
template class BasicStreamingZeroPhaseFir<Q31Backend>;

} // namespace icgkit::dsp
