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

/// Single-pass streaming filter for a symmetric (odd-length) kernel with
/// group-delay compensation and filtfilt-style odd-reflection edges,
/// generic over the numeric backend (dsp/backend.h; the Q31
/// instantiation quantizes the taps to Q2.30 and runs 64-bit MAC loops
/// with saturating edge reflection).
///
/// Feeding x[0..n) through push() and then finish() produces exactly n
/// output samples, where out[i] is aligned with input x[i] (the constant
/// group delay of (len-1)/2 samples is absorbed: out[i] is emitted once
/// x[i + delay()] has been consumed, and finish() flushes the tail by
/// synthesizing the same odd-reflection extension filtfilt uses). The
/// result is chunk-size invariant: any segmentation of the input yields
/// bit-identical output.
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
    for (const sample_t v : x) push(v, out);
  }

  /// End of stream: emits the remaining delay() samples (or, for streams
  /// shorter than delay(), the best-effort short-signal output).
  void finish(std::vector<sample_t>& out) {
    if (raw_count_ == 0) return;
    if (!warm_) {
      // Short stream (n <= delay): emit the zero-phase output directly from
      // the buffered samples with the clamped odd-reflection padding the
      // batch filtfilt would use.
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
    for (const sample_t v : x) {
      push(v, out);
      cum.push_back(static_cast<std::uint32_t>(out.size()));
    }
  }

  /// Serializes the carried stream state — delay line, warm-up prefix
  /// buffer, suffix-synthesis tail and the counters that align them —
  /// for core::Checkpoint round trips. The kernel taps are construction
  /// state; load_state() rejects blobs designed for a different kernel
  /// length.
  template <typename W>
  void save_state(W& w) const {
    // The wire layout predates the doubled (mirrored) delay line: it
    // carries one kernel-length window, slot order. The mirror copy is
    // reconstructed on load, so v1 blobs stay byte-identical.
    const std::size_t len = kernel_.taps.size();
    w.u64(len);
    for (std::size_t i = 0; i < len; ++i) w.value(line_[i]);
    w.u64(head_);
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
    if (r.u64() != len) r.fail("StreamingZeroPhaseFir: kernel length mismatch");
    for (std::size_t i = 0; i < len; ++i) {
      const sample_t v = r.template value<sample_t>();
      line_[i] = v;
      line_[i + len] = v;
    }
    head_ = r.u64();
    if (head_ >= len) r.fail("StreamingZeroPhaseFir: head index out of range");
    fed_ = r.u64();
    raw_count_ = r.u64();
    const std::size_t warm_n = r.u64();
    if (warm_n > half_ + 1) r.fail("StreamingZeroPhaseFir: warm-up buffer overflow");
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
  void feed_extended(sample_t z, std::vector<sample_t>& out) {
    const std::size_t len = kernel_.taps.size();
    // Mirrored write: slot head_ and its +len twin always hold the same
    // sample, so the newest len samples are contiguous ending at
    // head_ + len - 1 (post-increment) and the convolution below is a
    // branch-free flat loop instead of a per-tap wrap test. Same (tap,
    // sample) pairing and summation order as the circular walk it
    // replaced — bit-identical output.
    line_[head_] = z;
    line_[head_ + len] = z;
    head_ = (head_ + 1 == len) ? 0 : head_ + 1;
    ++fed_;
    if (fed_ < len) return;
    typename B::acc_t acc = B::acc_zero();
    const sample_t* newest = line_.data() + head_ + len - 1;
    const auto& g_taps = taps();
    const auto* tap = g_taps.data();
    for (std::size_t j = 0; j < len; ++j)
      acc = B::mac(acc, tap[j], newest[-static_cast<std::ptrdiff_t>(j)]);
    out.push_back(B::narrow(acc));
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
  /// Mirrored delay line, size == 2 * kernel length: slots [i] and
  /// [i + len] carry the same sample so the newest window is always
  /// contiguous (see feed_extended). Checkpoints serialize one window.
  std::vector<sample_t> line_;
  std::size_t head_ = 0;      ///< next write slot in line_
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
