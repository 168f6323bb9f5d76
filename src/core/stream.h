// Shared single-pass streaming infrastructure for the beat pipeline.
//
// Every stage consumes a chunk per process_chunk() and appends zero or
// more *delay-compensated* output samples: output index i always
// corresponds to input index i, it is just emitted latency() samples
// later. finish() flushes the tail so a stream of n inputs always yields
// exactly n outputs. Every sub-stage's outputs depend only on the
// sequence of samples it has consumed, never on how that sequence was
// cut: the zero-phase FIR convolves a chunk's outputs side by side, but
// each in its own accumulator and the one tap order (dsp/filtfilt.h).
// So the composed pipeline is chunk-size invariant: any segmentation of
// the input produces bit-identical output, which is what lets
// BeatPipeline::process be a thin one-big-chunk wrapper around
// StreamingBeatPipeline (see pipeline.h).
//
// Both stages are generic over the numeric backend (dsp/backend.h): the
// DoubleBackend instantiations are the reference engine, the Q31Backend
// instantiations the firmware arithmetic feeding
// FixedStreamingBeatPipeline. Filter kernels are always *designed* in
// double; the backend only decides how they are quantized and applied.
#pragma once

#include "core/icg_filter.h"
#include "dsp/backend.h"
#include "dsp/filtfilt.h"
#include "dsp/morphology.h"
#include "dsp/types.h"
#include "dsp/zero_phase_highpass.h"
#include "ecg/ecg_filter.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::core {

/// The zero-phase FIR band-pass kernel of the ECG cleaning chain
/// (designed 0.05-40 Hz; see ecg/ecg_filter.h for the realized band).
dsp::FirCoefficients ecg_cleaner_fir_kernel(dsp::SampleRate fs,
                                            const ecg::EcgFilterConfig& cfg);
/// The symmetric zero-phase kernel of the 20 Hz ICG Butterworth low-pass
/// (validates fs).
dsp::FirCoefficients icg_conditioner_lowpass_kernel(dsp::SampleRate fs,
                                                    const IcgFilterConfig& cfg);

/// The ECG cleaning chain: morphological baseline removal (bit-identical
/// to dsp::remove_baseline) followed by the FIR band-pass as a causal
/// symmetric kernel equal to its zero-phase filtfilt response.
template <typename B>
class BasicEcgCleanerStage {
 public:
  using sample_t = typename B::sample_t;

  BasicEcgCleanerStage(dsp::SampleRate fs, const ecg::EcgFilterConfig& cfg = {})
      : morph_(fs, cfg.baseline), fir_(ecg_cleaner_fir_kernel(fs, cfg)) {}

  /// Feeds a chunk, one pass per sub-stage over the whole chunk. For
  /// every input sample appends one entry to `cum`: the absolute size of
  /// `out` after that sample's outputs (callers slice per-input output
  /// ranges as [cum[i-1], cum[i])). Chunk-size invariant: each sub-stage
  /// sees the identical input sequence whatever the segmentation, only
  /// the interleaving of *stage* work changes, never the order within a
  /// stage.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                     std::vector<std::uint32_t>& cum) {
    morph_arena_.clear();
    morph_cum_.clear();
    for (const sample_t v : x) {
      morph_.push(v, morph_arena_);
      morph_cum_.push_back(static_cast<std::uint32_t>(morph_arena_.size()));
    }
    const auto base = static_cast<std::uint32_t>(out.size());
    fir_cum_.clear();
    fir_.process_chunk_counted(morph_arena_, out, fir_cum_);
    for (std::size_t i = 0; i < x.size(); ++i)
      cum.push_back(morph_cum_[i] > 0 ? fir_cum_[morph_cum_[i] - 1] : base);
  }

  void finish(std::vector<sample_t>& out) {
    scratch_.clear();
    morph_.finish(scratch_);
    for (const sample_t v : scratch_) fir_.push(v, out);
    fir_.finish(out);
  }

  /// Serializes both sub-stages for core::Checkpoint round trips. The v1
  /// layout leads with one presence byte per sub-stage: save_state()
  /// always sets both, and load_state() refuses a blob with either
  /// cleared.
  template <typename W>
  void save_state(W& w) const {
    w.boolean(true);
    w.boolean(true);
    morph_.save_state(w);
    fir_.save_state(w);
  }

  template <typename R>
  void load_state(R& r) {
    if (!r.boolean() || !r.boolean()) return r.fail("EcgCleanerStage: sub-stage missing");
    morph_.load_state(r);
    fir_.load_state(r);
  }

  [[nodiscard]] std::size_t latency() const { return morph_.delay() + fir_.delay(); }

 private:
  dsp::BasicStreamingBaselineRemover<B> morph_;
  dsp::BasicStreamingZeroPhaseFir<B> fir_;
  std::vector<sample_t> scratch_;
  // process_chunk arenas: intermediate morph outputs and per-stage
  // cumulative-output snapshots, reused across chunks (no steady-state
  // allocation once grown).
  std::vector<sample_t> morph_arena_;
  std::vector<std::uint32_t> morph_cum_;
  std::vector<std::uint32_t> fir_cum_;
};

using EcgCleanerStage = BasicEcgCleanerStage<dsp::DoubleBackend>;

/// The ICG conditioning chain: impedance in, cleaned ICG (-dZ/dt,
/// zero-phase 20 Hz low-pass, zero-phase baseline high-pass) out. The
/// derivative uses the batch central-difference stencil (one sample of
/// lookahead), the low-pass a symmetric kernel equal to the zero-phase
/// Butterworth response, and the high-pass the decimated zero-phase
/// baseline subtractor (see StreamingZeroPhaseHighpass).
///
/// `deriv_gain_log2` is the fixed-point scaling policy hook: the double
/// backend multiplies the derivative by fs as always, while the Q31
/// backend left-shifts by this amount instead and the caller accounts
/// for the absorbed fs/2^shift factor in the stage's nominal full scale
/// (see dsp::Q31ScalingPolicy).
template <typename B>
class BasicIcgConditionerStage {
 public:
  using sample_t = typename B::sample_t;

  BasicIcgConditionerStage(dsp::SampleRate fs, const IcgFilterConfig& cfg = {},
                           int deriv_gain_log2 = 0)
      : fs_(fs), gain_log2_(deriv_gain_log2),
        lp_(icg_conditioner_lowpass_kernel(fs, cfg)),
        hp_(fs, {.cutoff_hz = cfg.highpass_hz, .order = cfg.highpass_order}) {}

  /// Feeds a chunk: derivative stencil, low-pass FIR and baseline
  /// high-pass each run as one flat pass over the chunk. Appends one
  /// `cum` entry per input sample: the absolute size of `out` after that
  /// sample's outputs. Chunk-size invariant: every sub-stage consumes the
  /// identical sample sequence in the identical order.
  void process_chunk(std::span<const sample_t> x, std::vector<sample_t>& out,
                     std::vector<std::uint32_t>& cum) {
    d_arena_.clear();
    d_cum_.clear();
    for (const sample_t v : x) {
      // ICG = -dZ/dt with the batch derivative() stencil: the aligned
      // central difference needs one sample of lookahead, the first
      // sample uses the forward difference.
      const std::size_t j = z_count_++;
      if (j == 1)
        d_arena_.push_back(B::rescale(B::neg(B::sub(v, prev_[1])), fs_, gain_log2_));
      else if (j >= 2)
        d_arena_.push_back(
            B::half(B::rescale(B::neg(B::sub(v, prev_[0])), fs_, gain_log2_)));
      prev_[0] = prev_[1];
      prev_[1] = v;
      d_cum_.push_back(static_cast<std::uint32_t>(d_arena_.size()));
    }
    lp_arena_.clear();
    lp_cum_.clear();
    lp_.process_chunk_counted(d_arena_, lp_arena_, lp_cum_);
    const auto base = static_cast<std::uint32_t>(out.size());
    hp_cum_.clear();
    for (const sample_t v : lp_arena_) {
      hp_.push(v, out);
      hp_cum_.push_back(static_cast<std::uint32_t>(out.size()));
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::uint32_t nd = d_cum_[i];
      const std::uint32_t nlp = nd > 0 ? lp_cum_[nd - 1] : 0;
      cum.push_back(nlp > 0 ? hp_cum_[nlp - 1] : base);
    }
  }

  void finish(std::vector<sample_t>& out) {
    // Trailing derivative sample: batch edge form -(x[n-1] - x[n-2]) * fs.
    lp_scratch_.clear();
    if (z_count_ >= 2)
      lp_.push(B::rescale(B::neg(B::sub(prev_[1], prev_[0])), fs_, gain_log2_),
               lp_scratch_);
    else if (z_count_ == 1)
      lp_.push(sample_t{}, lp_scratch_);
    lp_.finish(lp_scratch_);
    for (const sample_t v : lp_scratch_) hp_.push(v, out);
    hp_.finish(out);
  }

  /// Serializes the low-pass/high-pass kernels and the derivative
  /// stencil's two-sample history for core::Checkpoint round trips. The
  /// v1 layout carries a presence byte before the high-pass: save_state()
  /// always sets it, and load_state() refuses a blob with it cleared.
  template <typename W>
  void save_state(W& w) const {
    lp_.save_state(w);
    w.boolean(true);
    hp_.save_state(w);
    w.value(prev_[0]);
    w.value(prev_[1]);
    w.u64(z_count_);
  }

  template <typename R>
  void load_state(R& r) {
    lp_.load_state(r);
    if (!r.boolean()) return r.fail("IcgConditionerStage: baseline high-pass missing");
    hp_.load_state(r);
    prev_[0] = r.template value<sample_t>();
    prev_[1] = r.template value<sample_t>();
    z_count_ = r.u64();
  }

  [[nodiscard]] std::size_t latency() const { return 1 + lp_.delay() + hp_.delay(); }

 private:
  dsp::SampleRate fs_;
  int gain_log2_;
  dsp::BasicStreamingZeroPhaseFir<B> lp_;
  dsp::BasicStreamingZeroPhaseHighpass<B> hp_;
  std::vector<sample_t> lp_scratch_;
  sample_t prev_[2] = {};        ///< last two impedance samples
  std::size_t z_count_ = 0;
  // process_chunk arenas: derivative and low-pass intermediates plus the
  // per-stage cumulative-output snapshots, reused across chunks.
  std::vector<sample_t> d_arena_;
  std::vector<sample_t> lp_arena_;
  std::vector<std::uint32_t> d_cum_;
  std::vector<std::uint32_t> lp_cum_;
  std::vector<std::uint32_t> hp_cum_;
};

using IcgConditionerStage = BasicIcgConditionerStage<dsp::DoubleBackend>;

} // namespace icgkit::core
