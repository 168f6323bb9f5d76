// Zero-phase (forward-backward) filtering.
//
// Both of the paper's cleaning chains are explicitly *zero-phase*
// (Section IV-A): B, C and X are timing features, so any group delay
// biases PEP and LVET directly. Forward-backward application squares the
// magnitude response and cancels the phase exactly.
//
// Edge handling follows the standard practice (MATLAB filtfilt): the
// signal is extended at both ends by `pad` samples of odd reflection
// (2*x[0] - x[k]) so the filter state is warmed up before the true data
// begins, then the extension is discarded.
#pragma once

#include "dsp/backend.h"
#include "dsp/biquad.h"
#include "dsp/fir_design.h"
#include "dsp/types.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

/// Zero-phase application of an SOS cascade. `pad` defaults to
/// 3 * order + 1 samples (clamped to the signal length - 1).
Signal filtfilt_sos(const SosFilter& filter, SignalView x);

/// Zero-phase application of an FIR filter. Pad defaults to 3 * taps.
Signal filtfilt_fir(const FirCoefficients& fir, SignalView x);

/// Odd-reflection padding used by the filtfilt implementations; exposed
/// for testing. Returns pad + x + pad samples.
Signal odd_reflect_pad(SignalView x, std::size_t pad);

// ---------------------------------------------------------------------------
// Streaming zero-phase filtering
// ---------------------------------------------------------------------------
//
// filtfilt needs the whole signal (it runs backwards), so a streaming
// engine cannot use it. The single-pass equivalent: convolve with the
// *symmetric* kernel g = h (*) reverse(h), whose magnitude response is
// |H(f)|^2 -- exactly the filtfilt magnitude -- and whose phase is exactly
// linear with an integer group delay of half the kernel length. A causal
// implementation therefore produces the zero-phase output delayed by a
// known constant, which the caller compensates by re-indexing (out[i]
// corresponds to input sample i; it is simply emitted delay() samples
// later). That is the documented group-delay compensation used throughout
// the streaming pipeline.

/// Symmetric zero-phase-equivalent kernel of an FIR filter:
/// g = h (*) reverse(h), length 2*taps-1, |G(f)| = |H(f)|^2. Interior
/// samples of a causal convolution with g match filtfilt_fir exactly (up
/// to floating-point summation order).
FirCoefficients zero_phase_fir_kernel(const FirCoefficients& fir);

/// Symmetric FIR approximation of the zero-phase response of an SOS
/// cascade: g[k] = sum_n h[n] h[n+|k|], the autocorrelation of the causal
/// impulse response (so |G(f)| = |H(f)|^2), truncated once the tail falls
/// below `tol` times the peak. Longer cascades with slow poles produce
/// longer kernels; `max_half_len` caps the half-length.
FirCoefficients zero_phase_sos_kernel(const SosFilter& filter, double tol = 1e-6,
                                      std::size_t max_half_len = 4096);

// The AVX-512 convolutions of the scalar streaming FIRs are host-only,
// under the same guard as the checkpoint CRC's PCLMUL fold: the firmware
// archive (ICGKIT_EMBEDDED, set by the icgkit_embedded target alone)
// compiles them, and the CPU probe that picks them, out.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(ICGKIT_EMBEDDED)
#define ICGKIT_FIR_AVX512 1
#endif

/// Whether the chunk feeds of the double and Q31 streaming FIRs run the
/// AVX-512 convolution in this process: the CPU has avx512f and
/// avx512vl. Decided once, on the first call; false where the wide
/// kernel is compiled out.
#if defined(ICGKIT_FIR_AVX512)
bool wide_fir_active();

namespace detail {
/// dst[k] = sum_j tap[j] * newest[k - j] (j = 0..len-1) for k < n, each
/// output accumulated in its own lane in tap order and narrowed like
/// B::narrow; reads no sample past newest[n - 1]. Requires
/// wide_fir_active().
void convolve_wide(const double* tap, std::size_t len, const double* newest, std::size_t n,
                   double* dst);
void convolve_wide(const std::int32_t* tap, std::size_t len, const std::int32_t* newest,
                   std::size_t n, std::int32_t* dst);
} // namespace detail
#else
constexpr bool wide_fir_active() { return false; }
#endif

/// Single-pass streaming filter for a symmetric (odd-length) kernel with
/// group-delay compensation and filtfilt-style odd-reflection edges,
/// generic over the numeric backend (dsp/backend.h; the Q31
/// instantiation quantizes the taps to Q2.30 and runs 64-bit MAC loops
/// with saturating edge reflection).
///
/// Feeding x[0..n) through push() or process_chunk() and then finish()
/// produces exactly n output samples, where out[i] is aligned with input
/// x[i] (the constant group delay of (len-1)/2 samples is absorbed:
/// out[i] is emitted once x[i + delay()] has been consumed, and finish()
/// flushes the tail by synthesizing the same odd-reflection extension
/// filtfilt uses). The result is chunk-size invariant: any segmentation
/// of the input yields bit-identical output and checkpoint state.
///
/// The filtered stream lives in a linear history. Once the first kernel
/// window is full, the chunk feeds (process_chunk and
/// process_chunk_counted) append a run of samples and then convolve
/// kBlock consecutive outputs per pass over the taps. Each output keeps
/// its own accumulator and adds its products in the scalar tap order
/// j = 0..len-1, and the build forbids FP contraction
/// (-ffp-contract=off), so every output carries the bytes of the
/// one-output-at-a-time push(); only which outputs run side by side
/// changes. The side-by-side accumulators are the speed-up: a single
/// output is one dependent add chain, bound by FP-add latency.
///
/// On a host whose CPU has AVX-512 (F and VL), the double and Q31 chunk
/// feeds hand each whole run to detail::convolve_wide instead, chosen
/// once per process (wide_fir_active()). It keeps eight outputs per
/// 512-bit register, 32 per pass, with the same per-output contract:
/// each lane starts at zero and adds tap j's product for j = 0..len-1.
/// Double multiplies and then adds (vmulpd, vaddpd) and uses no FMA
/// intrinsic, which -ffp-contract=off would not cover; both paths round
/// under the same MXCSR, so DenormalGuard's FTZ/DAZ applies to them
/// alike. Q31 forms each product with vpmuldq, shifts it by vpsraq 30 and
/// adds it with vpaddq, which are Q31Backend::mac; vpmovsqd's signed
/// saturation is Q31Backend::saturate. A run's last n mod 8 outputs use
/// masked loads and stores, so the device's 10-sample chunks stay wide
/// and no sample past the written history is read. The firmware archive
/// compiles the wide kernel and its CPU probe out, and no knob forces
/// either path: the bytes are the same, only the speed differs.
template <typename B>
class BasicStreamingZeroPhaseFir {
 public:
  using sample_t = typename B::sample_t;

  /// `kernel` must have odd length and be symmetric (as produced by
  /// zero_phase_fir_kernel / zero_phase_sos_kernel).
  explicit BasicStreamingZeroPhaseFir(FirCoefficients kernel)
      : kernel_(std::move(kernel)) {
    const Signal& g = kernel_.taps;
    if (g.empty() || g.size() % 2 == 0)
      ICGKIT_THROW(std::invalid_argument("StreamingZeroPhaseFir: kernel length must be odd"));
    double peak = 0.0;
    for (const double v : g) peak = std::max(peak, std::abs(v));
    for (std::size_t i = 0; i < g.size() / 2; ++i)
      if (std::abs(g[i] - g[g.size() - 1 - i]) > 1e-9 * peak)
        ICGKIT_THROW(std::invalid_argument("StreamingZeroPhaseFir: kernel must be symmetric"));
    if constexpr (B::kFixed) {
      taps_.reserve(g.size());
      for (const double c : g) taps_.push_back(B::coeff(c));
    }
    half_ = (g.size() - 1) / 2;
    line_.assign(2 * g.size(), sample_t{});
    pos_ = g.size();
    tail_.assign(half_ + 1, sample_t{});
  }

  /// Feeds one sample; appends any newly aligned outputs to `out`.
  void push(sample_t x, std::vector<sample_t>& out) {
    const std::size_t raw = raw_count_++;
    tail_[raw % tail_.size()] = x;
    if (warm_) {
      feed_extended(x, out);
      return;
    }
    warmup_.push_back(x);
    if (warmup_.size() < half_ + 1) return;
    // Have x[0..half]: synthesize the odd-reflection prefix 2 x[0] - x[k]
    // (k = half..1), then feed the buffered head. The last of these feeds
    // emits out[0]; the stage is in steady state afterwards.
    for (std::size_t k = half_; k >= 1; --k)
      feed_extended(B::odd_reflect(warmup_[0], warmup_[k]), out);
    for (const sample_t v : warmup_) feed_extended(v, out);
    warmup_.clear();
    warmup_.shrink_to_fit();
    warm_ = true;
  }

  /// Feeds a chunk; appends newly aligned outputs to `out`. Typed span:
  /// cross-backend container mixups fail to compile instead of
  /// truncating.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out) {
    feed_chunk(x, out, nullptr);
  }

  /// End of stream: emits the remaining delay() samples (or, for streams
  /// shorter than delay(), the best-effort short-signal output).
  void finish(std::vector<sample_t>& out) {
    if (raw_count_ == 0) return;
    if (!warm_) {
      // Short stream (n <= delay): emit the zero-phase output directly from
      // the buffered samples with the clamped odd-reflection padding the
      // batch filtfilt would use. The buffer is empty once a finish() has
      // emitted those outputs.
      if (warmup_.empty()) return;
      const std::size_t n = warmup_.size();
      const std::size_t pad = std::min(half_, n - 1);
      std::vector<sample_t> ext;
      ext.reserve(n + 2 * pad);
      for (std::size_t k = pad; k >= 1; --k)
        ext.push_back(B::odd_reflect(warmup_.front(), warmup_[k]));
      ext.insert(ext.end(), warmup_.begin(), warmup_.end());
      for (std::size_t k = 1; k <= pad; ++k)
        ext.push_back(B::odd_reflect(warmup_.back(), warmup_[n - 1 - k]));
      for (std::size_t i = 0; i < n; ++i) {
        typename B::acc_t acc = B::acc_zero();
        const auto& g_taps = taps();
        for (std::size_t j = 0; j < g_taps.size(); ++j) {
          // Extended index of the sample hit by tap j for aligned output i.
          const std::ptrdiff_t e = static_cast<std::ptrdiff_t>(i + half_ - j) +
                                   static_cast<std::ptrdiff_t>(pad);
          if (e < 0 || e >= static_cast<std::ptrdiff_t>(ext.size())) continue;
          acc = B::mac(acc, g_taps[j], ext[static_cast<std::size_t>(e)]);
        }
        out.push_back(B::narrow(acc));
      }
      warmup_.clear();
      return;
    }
    // Steady state: synthesize the odd-reflection suffix 2 x[n-1] - x[n-1-k]
    // (k = 1..half), flushing the remaining delay() aligned outputs.
    const sample_t last = tail_[(raw_count_ - 1) % tail_.size()];
    for (std::size_t k = 1; k <= half_; ++k) {
      const sample_t mirrored = tail_[(raw_count_ - 1 - k) % tail_.size()];
      feed_extended(B::odd_reflect(last, mirrored), out);
    }
  }

  /// Feeds a chunk, recording the cumulative output count after each
  /// input: cum[k] - (entry count) outputs exist once x[0..k] has been
  /// consumed. The counts are what lets a caller that batches the stage
  /// front re-associate each emitted sample with the input that produced
  /// it (core's fused per-chunk front).
  void process_chunk_counted(std::span<const sample_t> x, std::vector<sample_t>& out,
                             std::vector<std::uint32_t>& cum) {
    feed_chunk(x, out, &cum);
  }

  /// Serializes the carried stream state — delay line, warm-up prefix
  /// buffer, suffix-synthesis tail and the counters that align them —
  /// for core::Checkpoint round trips. The kernel taps are construction
  /// state; load_state() rejects blobs designed for a different kernel
  /// length.
  template <typename W>
  void save_state(W& w) const {
    // The wire layout predates the linear history: it carries one
    // kernel-length window in the slot order of a ring written at slot
    // fed_ % len, so the head slot holds the oldest sample and v1 blobs
    // stay byte-identical.
    const std::size_t len = kernel_.taps.size();
    const std::size_t head = fed_ % len;
    const sample_t* window = line_.data() + pos_ - len;  // oldest first
    w.u64(len);
    for (std::size_t i = 0; i < len; ++i)
      w.value(window[i < head ? i + len - head : i - head]);
    w.u64(head);
    w.u64(fed_);
    w.u64(raw_count_);
    w.u64(warmup_.size());
    for (const sample_t v : warmup_) w.value(v);
    for (const sample_t v : tail_) w.value(v);
    w.boolean(warm_);
  }

  template <typename R>
  void load_state(R& r) {
    const std::size_t len = kernel_.taps.size();
    if (r.u64() != len) return r.fail("StreamingZeroPhaseFir: kernel length mismatch");
    // The slots land in the upper half; once the head names the oldest
    // slot they are rotated into the window [0, len).
    sample_t* slots = line_.data() + len;
    for (std::size_t i = 0; i < len; ++i) slots[i] = r.template value<sample_t>();
    const std::size_t head = r.u64();
    if (head >= len) return r.fail("StreamingZeroPhaseFir: head index out of range");
    for (std::size_t k = 0; k < len; ++k)
      line_[k] = slots[k < len - head ? head + k : head + k - len];
    pos_ = len;
    fed_ = r.u64();
    raw_count_ = r.u64();
    const std::size_t warm_n = r.u64();
    if (warm_n > half_ + 1) return r.fail("StreamingZeroPhaseFir: warm-up buffer overflow");
    warmup_.clear();
    warmup_.reserve(warm_n);
    for (std::size_t i = 0; i < warm_n; ++i)
      warmup_.push_back(r.template value<sample_t>());
    for (sample_t& v : tail_) v = r.template value<sample_t>();
    warm_ = r.boolean();
  }

  /// Group delay in samples: out[i] is emitted upon input i + delay().
  [[nodiscard]] std::size_t delay() const { return half_; }
  [[nodiscard]] const FirCoefficients& kernel() const { return kernel_; }

 private:
  /// Outputs convolved per pass over the taps by the chunk feeds where
  /// the AVX-512 kernel does not run (other hosts, the firmware): eight
  /// doubles as four LaneVec<2> accumulators (elementwise, so even the
  /// baseline SSE2 build vectorizes without reassociating), four Q31
  /// outputs on 64-bit accumulators (one tap load per four MACs), and one
  /// for the batch backend, whose W lanes are already independent chains.
  static constexpr std::size_t kBlock = std::is_same_v<B, DoubleBackend> ? 8
                                        : std::is_same_v<B, Q31Backend>  ? 4
                                                                         : 1;

  /// Every further extended sample emits exactly one output.
  [[nodiscard]] bool steady() const { return warm_ && fed_ >= kernel_.taps.size(); }

  void feed_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                  std::vector<std::uint32_t>* cum) {
    // Until the window is full an input emits zero outputs or, ending
    // the warm-up, a burst of them: one push() per input.
    std::size_t i = 0;
    for (; i < x.size() && !steady(); ++i) {
      push(x[i], out);
      if (cum != nullptr) cum->push_back(static_cast<std::uint32_t>(out.size()));
    }
    const std::span<const sample_t> rest = x.subspan(i);
    std::size_t t = raw_count_ % tail_.size();
    for (const sample_t v : rest) {
      tail_[t] = v;
      t = (t + 1 == tail_.size()) ? 0 : t + 1;
    }
    raw_count_ += rest.size();
    const std::size_t base = out.size();
    for (std::size_t k = 0; k < rest.size();) {
      if (pos_ == line_.size()) slide();
      const std::size_t n = std::min(rest.size() - k, line_.size() - pos_);
      std::copy_n(rest.data() + k, n, line_.data() + pos_);
      emit_run(n, out);
      k += n;
    }
    if (cum != nullptr)
      for (std::size_t k = 1; k <= rest.size(); ++k)
        cum->push_back(static_cast<std::uint32_t>(base + k));
  }

  /// The n samples just written at line_[pos_, pos_ + n) join the
  /// history, each emitting one output; the window must be full
  /// (steady()).
  void emit_run(std::size_t n, std::vector<sample_t>& out) {
    pos_ += n;
    fed_ += n;
    const sample_t* newest = line_.data() + pos_ - n;
#if defined(ICGKIT_FIR_AVX512)
    if constexpr (kBlock > 1) {
      if (wide_fir_active()) {
        const std::size_t base = out.size();
        out.resize(base + n);
        detail::convolve_wide(taps().data(), taps().size(), newest, n, out.data() + base);
        return;
      }
    }
#endif
    std::size_t k = 0;
    if constexpr (kBlock > 1) {
      for (; k + kBlock <= n; k += kBlock) {
        sample_t y[kBlock];
        convolve_block(newest + k, y);
        for (const sample_t v : y) out.push_back(v);
      }
    }
    for (; k < n; ++k) out.push_back(convolve_one(newest + k));
  }

  void feed_extended(sample_t z, std::vector<sample_t>& out) {
    if (pos_ == line_.size()) slide();
    line_[pos_++] = z;
    if (++fed_ < kernel_.taps.size()) return;
    out.push_back(convolve_one(line_.data() + pos_ - 1));
  }

  /// The newest len - 1 samples, all the next output reads besides its
  /// own, move to the front. The feeds slide a full history: one copy per
  /// len + 1 samples.
  void slide() {
    const std::size_t keep = kernel_.taps.size() - 1;
    std::copy_n(line_.data() + pos_ - keep, keep, line_.data());
    pos_ = keep;
  }

  /// One output: sum_j tap[j] * newest[-j], j = 0..len-1.
  sample_t convolve_one(const sample_t* newest) const {
    const auto& g_taps = taps();
    const auto* tap = g_taps.data();
    typename B::acc_t acc = B::acc_zero();
    for (std::size_t j = 0; j < g_taps.size(); ++j)
      acc = B::mac(acc, tap[j], newest[-static_cast<std::ptrdiff_t>(j)]);
    return B::narrow(acc);
  }

  /// kBlock outputs side by side: output k is convolve_one(newest + k),
  /// accumulated in its own register in the same tap order.
  void convolve_block(const sample_t* newest, sample_t* dst) const {
    const auto& g_taps = taps();
    const auto* tap = g_taps.data();
    const std::size_t len = g_taps.size();
    if constexpr (std::is_same_v<B, DoubleBackend>) {
      // DoubleBackend::mac (a + c * v) on lane pairs of consecutive outputs.
      using V = LaneVec<2>;
      V a0{}, a1{}, a2{}, a3{};
      for (std::size_t j = 0; j < len; ++j) {
        const double c = tap[j];
        const double* x = newest - j;
        a0 = a0 + c * V::load(x);
        a1 = a1 + c * V::load(x + 2);
        a2 = a2 + c * V::load(x + 4);
        a3 = a3 + c * V::load(x + 6);
      }
      a0.store(dst);
      a1.store(dst + 2);
      a2.store(dst + 4);
      a3.store(dst + 6);
    } else if constexpr (std::is_same_v<B, Q31Backend>) {
      typename B::acc_t a0 = B::acc_zero(), a1 = a0, a2 = a0, a3 = a0;
      for (std::size_t j = 0; j < len; ++j) {
        const typename B::coeff_t c = tap[j];
        const sample_t* x = newest - j;
        a0 = B::mac(a0, c, x[0]);
        a1 = B::mac(a1, c, x[1]);
        a2 = B::mac(a2, c, x[2]);
        a3 = B::mac(a3, c, x[3]);
      }
      dst[0] = B::narrow(a0);
      dst[1] = B::narrow(a1);
      dst[2] = B::narrow(a2);
      dst[3] = B::narrow(a3);
    }
  }

  /// The double backend convolves with the design taps directly; only
  /// the fixed backend materializes a quantized copy (these kernels run
  /// to thousands of taps, and fleet sessions each own several).
  [[nodiscard]] const std::vector<typename B::coeff_t>& taps() const {
    if constexpr (B::kFixed) return taps_;
    else return kernel_.taps;
  }

  FirCoefficients kernel_;                 ///< the double-precision design
  std::vector<typename B::coeff_t> taps_;  ///< Q2.30 taps (fixed backend only)
  std::size_t half_;          ///< (len - 1) / 2 == group delay
  /// Linear history, size == 2 * kernel length: line_[pos_ - len, pos_)
  /// is the newest window, oldest first, so every convolution is a flat
  /// loop. It starts as an all-zero window at pos_ == len; a full buffer
  /// slides its newest len - 1 samples to the front (slide()).
  /// Checkpoints serialize the window in ring-slot order (see save_state).
  std::vector<sample_t> line_;
  std::size_t pos_ = 0;       ///< one past the newest sample in line_
  std::size_t fed_ = 0;       ///< extended-stream samples consumed
  std::size_t raw_count_ = 0; ///< raw input samples consumed
  std::vector<sample_t> warmup_; ///< first half_+1 raw samples (prefix synthesis)
  std::vector<sample_t> tail_;   ///< last half_+1 raw samples (suffix synthesis)
  bool warm_ = false;         ///< prefix emitted, steady state reached
};

using StreamingZeroPhaseFir = BasicStreamingZeroPhaseFir<DoubleBackend>;

// The scalar instantiations are compiled once, in filtfilt.cpp. This
// convolution loop is where the engines' fronts spend most of their
// time; implicitly instantiated, every translation unit that builds a
// stage emits its own copy and the linker keeps whichever comes first,
// so an engine's speed would depend on who else links against it.
extern template class BasicStreamingZeroPhaseFir<DoubleBackend>;
extern template class BasicStreamingZeroPhaseFir<Q31Backend>;

} // namespace icgkit::dsp
