// Real-time QRS detection after Pan & Tompkins (IEEE TBME 1985), the
// R-peak detector the paper uses to segment ICG beats (Section IV-C).
//
// Stage chain: band-pass (5-15 Hz, isolating QRS energy) -> 5-point
// derivative -> squaring -> moving-window integration (150 ms) -> dual
// adaptive thresholds with a 200 ms refractory period, T-wave slope
// discrimination in the 200-360 ms window, and RR-based search-back for
// missed beats. Detected peaks are finally refined to the local maximum
// of the *input* signal so the reported indices are true R sample
// positions.
//
// The detector is split along its data-parallelism boundary:
//
//   feature front   band-pass, 5-point derivative, squaring, MWI --
//                   counter-driven control flow, identical across
//                   sessions, so the SIMD batch backend ticks W sessions
//                   in lockstep through the same code.
//   decision tail   QrsDecisionTail: thresholds, candidate merging,
//                   T-wave discrimination, search-back, refinement --
//                   data-dependent branching that diverges per session,
//                   so there is one scalar tail per lane.
//
// BasicOnlinePanTompkins<B> composes one front with B::kLanes tails: one
// on the double and Q31 backends, where it is byte-for-byte the detector
// it was before the split (checkpoint layout included), and W under
// BatchBackend<W>.
#pragma once

#include "dsp/backend.h"
#include "dsp/filtfilt.h"
#include "dsp/moving.h"
#include "dsp/ring_buffer.h"
#include "dsp/types.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace icgkit::ecg {

struct PanTompkinsConfig {
  double bandpass_low_hz = 5.0;
  double bandpass_high_hz = 15.0;
  double integration_window_s = 0.150;
  double refractory_s = 0.200;
  double t_wave_window_s = 0.360;
  /// Search-back triggers when no peak was found for this multiple of the
  /// running RR average.
  double searchback_rr_factor = 1.66;
  /// Half-width of the window used to refine detections onto the raw ECG.
  double refine_window_s = 0.050;
};

struct QrsDetection {
  std::vector<std::size_t> r_samples;  ///< R-peak sample indices
  std::vector<double> rr_intervals_s;  ///< successive differences
};

/// The symmetric zero-phase kernel of the 5-15 Hz feature band-pass
/// (validates fs and the band edges; shared by every backend
/// instantiation of the online detector).
dsp::FirCoefficients pan_tompkins_bandpass_kernel(dsp::SampleRate fs,
                                                  const PanTompkinsConfig& cfg);

/// The decision half of the online detector: everything downstream of
/// the integrated (MWI) feature stream, plus the raw-input history used
/// for refinement. One instance per session: the detector owns one per
/// lane and feeds lane l's feature samples into tail l.
///
/// All adaptive state -- signal/noise thresholds (SPKI/NPKI), the RR
/// history driving search-back, the pending MWI candidate, and the
/// refinement look-back buffers -- is carried across calls, so the tail
/// does O(1) amortized work per feature sample and its output is
/// invariant to how the input is chunked.
template <typename B>
class QrsDecisionTail {
 public:
  using sample_t = typename B::sample_t;

  QrsDecisionTail(dsp::SampleRate fs, const PanTompkinsConfig& cfg)
      : fs_(fs), searchback_rr_factor_(cfg.searchback_rr_factor),
        refractory_(static_cast<std::size_t>(cfg.refractory_s * fs)),
        min_sep_(std::max<std::size_t>(1, refractory_ / 2)),
        t_wave_win_(static_cast<std::size_t>(cfg.t_wave_window_s * fs)),
        mwi_win_(std::max<std::size_t>(
            1, static_cast<std::size_t>(cfg.integration_window_s * fs))),
        refine_(static_cast<std::size_t>(cfg.refine_window_s * fs)),
        learn_end_(static_cast<std::size_t>(2.0 * fs)),
        mwi_ring_(history_capacity(fs, learn_end_, mwi_win_)),
        in_ring_(history_capacity(fs, learn_end_, mwi_win_)) {}

  /// Records one raw input sample (the refinement look-back timeline).
  /// Called once per detector input, before the feature chain runs.
  void note_input(sample_t x) {
    in_ring_.push(x);
    ++in_count_;
  }

  /// Feeds one integrated feature sample; appends the indices of any R
  /// peaks it confirms to `out`.
  void on_feature_sample(sample_t v, std::vector<std::size_t>& out) {
    mwi_ring_.push(v);
    const std::size_t i = mwi_produced_++;
    // A sample is a candidate once its right neighbour arrives: strictly
    // above the left neighbour, at least the right one (plateaus keep the
    // first sample), matching the batch local_maxima().
    if (i >= 2 && mwi_at(i - 1) > mwi_at(i - 2) && mwi_at(i - 1) >= v)
      on_local_max(i - 1, out);
    if (!learned_ && mwi_produced_ >= learn_end_) {
      learn_thresholds();
      for (const std::size_t idx : prelearn_) process_candidate(idx, out);
      prelearn_.clear();
    }
  }

  /// End of stream (after the feature front has flushed): settles
  /// learning and the pending candidate.
  void settle(std::vector<std::size_t>& out) {
    if (!learned_) learn_thresholds();
    for (const std::size_t idx : prelearn_) process_candidate(idx, out);
    prelearn_.clear();
    if (pending_.has_value()) {
      process_candidate(*pending_, out);
      pending_.reset();
    }
  }

  /// Quality-adaptive recovery hook (contact-gap resets): discards every
  /// *adaptive* decision state — SPKI/NPKI thresholds, RR history,
  /// search-back bookkeeping, pending/unlearned candidates — and
  /// schedules a fresh 2 s threshold-learning window starting at the
  /// current stream position, while keeping the history rings and sample
  /// counters intact. Detection therefore resumes on a clean slate after
  /// an electrode dropout without disturbing the input/feature timeline
  /// alignment (indices keep counting; no output samples are lost), so
  /// the pipeline's chunk-size invariance is preserved. Allocation-free.
  void soft_reset() {
    pending_.reset();
    prelearn_.clear();
    learned_ = false;
    learn_start_ = mwi_produced_;
    learn_end_ = mwi_produced_ + learn_window_;
    spki_ = npki_ = sample_t{};
    last_accepted_.reset();
    last_accepted_slope_ = sample_t{};
    rr_history_.clear();
    rejected_since_.clear();
    // last_r_ is kept: the refractory guard against already-emitted peaks
    // must keep holding across the reset.
  }

  /// Serializes the carried decision state. The byte sequence is exactly
  /// the tail segment of the pre-split BasicOnlinePanTompkins layout, so
  /// checkpoints remain wire-compatible.
  template <typename W>
  void save_state(W& w) const {
    mwi_ring_.save_state(w);
    w.u64(mwi_produced_);
    in_ring_.save_state(w);
    w.u64(in_count_);
    save_optional(w, pending_);
    w.boolean(learned_);
    w.u64(learn_start_);
    w.u64(learn_end_);
    w.u64(learn_window_);
    w.u64(prelearn_.size());
    for (const std::size_t idx : prelearn_) w.u64(idx);
    w.value(spki_);
    w.value(npki_);
    save_optional(w, last_accepted_);
    w.value(last_accepted_slope_);
    w.u64(rr_history_.size());
    for (const double rr : rr_history_) w.f64(rr);
    w.u64(rejected_since_.size());
    for (const std::size_t idx : rejected_since_) w.u64(idx);
    save_optional(w, last_r_);
    w.u64(peaks_emitted_);
  }

  template <typename R>
  void load_state(R& r) {
    mwi_ring_.load_state(r, "OnlinePanTompkins");
    mwi_produced_ = r.u64();
    in_ring_.load_state(r, "OnlinePanTompkins");
    in_count_ = r.u64();
    load_optional(r, pending_);
    learned_ = r.boolean();
    learn_start_ = r.u64();
    learn_end_ = r.u64();
    learn_window_ = r.u64();
    load_index_vec(r, prelearn_);
    spki_ = r.template value<sample_t>();
    npki_ = r.template value<sample_t>();
    load_optional(r, last_accepted_);
    last_accepted_slope_ = r.template value<sample_t>();
    const std::size_t rr_n = r.u64();
    if (rr_n > 8) return r.fail("OnlinePanTompkins: RR history overflow");
    rr_history_.clear();
    for (std::size_t i = 0; i < rr_n; ++i) rr_history_.push_back(r.f64());
    load_index_vec(r, rejected_since_);
    load_optional(r, last_r_);
    peaks_emitted_ = r.u64();
  }

 private:
  static std::size_t history_capacity(dsp::SampleRate fs, std::size_t learn_end,
                                      std::size_t mwi_win) {
    return std::max<std::size_t>(learn_end + 2,
                                 static_cast<std::size_t>(8.0 * fs)) +
           mwi_win + 2;
  }

  // -- checkpoint helpers ---------------------------------------------
  template <typename W>
  static void save_optional(W& w, const std::optional<std::size_t>& v) {
    w.boolean(v.has_value());
    if (v.has_value()) w.u64(*v);
  }
  template <typename R>
  static void load_optional(R& r, std::optional<std::size_t>& v) {
    if (r.boolean()) v = r.u64();
    else v.reset();
  }
  template <typename R>
  static void load_index_vec(R& r, std::vector<std::size_t>& v) {
    const std::size_t n = r.u64();
    if (n > r.section_remaining() / 8)
      return r.fail("OnlinePanTompkins: candidate list longer than its section");
    v.clear();
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(r.u64());
  }

  void on_local_max(std::size_t idx, std::vector<std::size_t>& out) {
    if (pending_.has_value() && idx - *pending_ < min_sep_) {
      // Same merge rule as the batch candidate pass: within half a
      // refractory of the previous candidate, the larger one wins.
      if (mwi_available(*pending_) && mwi_at(idx) > mwi_at(*pending_)) pending_ = idx;
      return;
    }
    if (pending_.has_value()) finalize_candidate(*pending_, out);
    pending_ = idx;
  }

  void finalize_candidate(std::size_t idx, std::vector<std::size_t>& out) {
    if (!learned_) {
      prelearn_.push_back(idx);
      return;
    }
    process_candidate(idx, out);
  }

  void learn_thresholds() {
    const std::size_t learn = std::min(mwi_produced_, learn_end_);
    learned_ = true;
    if (learn == 0) return;
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    // After a soft_reset the learning window starts at the reset point
    // (learn_start_), not the stream start: only post-gap feature samples
    // may seed the new thresholds.
    sample_t peak{};
    typename B::acc_t acc = B::acc_zero();
    std::size_t count = 0;
    for (std::size_t i = std::max(oldest, learn_start_); i < learn; ++i) {
      const sample_t v = mwi_ring_.at(i - oldest);
      peak = std::max(peak, v);
      acc = B::acc_add(acc, v);
      ++count;
    }
    spki_ = count > 0 ? B::quarter(peak) : sample_t{};
    npki_ = count > 0 ? B::halved_mean(acc, count) : sample_t{};
  }

  void process_candidate(std::size_t idx, std::vector<std::size_t>& out) {
    if (!mwi_available(idx)) return; // fell out of the bounded history
    const sample_t threshold1 = B::add(npki_, B::quarter(B::sub(spki_, npki_)));
    const bool after_refractory =
        !last_accepted_.has_value() || idx - *last_accepted_ >= refractory_;

    bool is_qrs = after_refractory && mwi_at(idx) > threshold1;

    // T-wave discrimination: a candidate 200-360 ms after the previous QRS
    // whose slope is less than half of that QRS's slope is a T wave.
    if (is_qrs && last_accepted_.has_value()) {
      const std::size_t since = idx - *last_accepted_;
      if (since < t_wave_win_ && peak_slope(idx) < B::half(last_accepted_slope_))
        is_qrs = false;
    }

    if (is_qrs) {
      accept(idx, /*searchback=*/false, out);
    } else {
      npki_ = B::ewma_shift(npki_, mwi_at(idx), 3);
      rejected_since_.push_back(idx);
    }

    // Search-back: if the gap since the last QRS exceeds the factor times
    // the running RR average, re-examine rejected candidates against the
    // lower threshold.
    if (last_accepted_.has_value() && !rejected_since_.empty()) {
      const double gap = static_cast<double>(idx - *last_accepted_);
      if (gap > searchback_rr_factor_ * rr_average_samples()) {
        const sample_t threshold2 =
            B::half(B::add(npki_, B::quarter(B::sub(spki_, npki_))));
        std::size_t best = 0;
        sample_t best_val = threshold2;
        for (const std::size_t cand : rejected_since_) {
          if (cand <= *last_accepted_ + refractory_) continue;
          if (!mwi_available(cand)) continue;
          if (mwi_at(cand) > best_val) {
            best_val = mwi_at(cand);
            best = cand;
          }
        }
        if (best != 0) accept(best, /*searchback=*/true, out);
      }
    }
  }

  void accept(std::size_t idx, bool searchback, std::vector<std::size_t>& out) {
    if (last_accepted_.has_value()) {
      rr_history_.push_back(static_cast<double>(idx - *last_accepted_));
      if (rr_history_.size() > 8) rr_history_.erase(rr_history_.begin());
    }
    last_accepted_ = idx;
    last_accepted_slope_ = peak_slope(idx);
    // SPKI update weight: 1/4 after a search-back acceptance, 1/8 normally.
    spki_ = B::ewma_shift(spki_, mwi_at(idx), searchback ? 2 : 3);
    rejected_since_.clear();
    refine_and_emit(idx, out);
  }

  void refine_and_emit(std::size_t idx, std::vector<std::size_t>& out) {
    // The zero-phase band-pass introduces no shift, but the causal MWI
    // moves energy right by up to its window, so search left of the MWI
    // peak (batch refinement geometry).
    const std::size_t oldest = in_count_ - in_ring_.size();
    const std::size_t lo_want = idx > mwi_win_ + refine_ ? idx - mwi_win_ - refine_ : 0;
    const std::size_t lo = std::max(lo_want, oldest);
    const std::size_t hi = std::min(in_count_ - 1, idx + refine_);
    if (lo > hi) return;
    std::size_t best = lo;
    for (std::size_t i = lo; i <= hi; ++i)
      if (in_ring_.at(i - oldest) > in_ring_.at(best - oldest)) best = i;
    if (!last_r_.has_value() ||
        (best > *last_r_ && best - *last_r_ >= refractory_)) {
      last_r_ = best;
      ++peaks_emitted_;
      out.push_back(best);
    }
  }

  [[nodiscard]] double rr_average_samples() const {
    if (rr_history_.empty()) return 0.8 * fs_; // prior: 75 bpm, in samples
    double acc = 0.0;
    for (const double rr : rr_history_) acc += rr;
    return acc / static_cast<double>(rr_history_.size());
  }

  [[nodiscard]] bool mwi_available(std::size_t idx) const {
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    return idx >= oldest && idx < mwi_produced_;
  }

  [[nodiscard]] sample_t mwi_at(std::size_t idx) const {
    return mwi_ring_.at(idx - (mwi_produced_ - mwi_ring_.size()));
  }

  [[nodiscard]] sample_t slope_at(std::size_t idx) const {
    // derivative(mwi) with the batch edge forms.
    if (idx == 0)
      return mwi_produced_ > 1 ? B::rescale(B::sub(mwi_at(1), mwi_at(0)), fs_, 0)
                               : sample_t{};
    if (idx + 1 < mwi_produced_)
      return B::half(B::rescale(B::sub(mwi_at(idx + 1), mwi_at(idx - 1)), fs_, 0));
    return B::rescale(B::sub(mwi_at(idx), mwi_at(idx - 1)), fs_, 0);
  }

  [[nodiscard]] sample_t peak_slope(std::size_t idx) const {
    const std::size_t oldest = mwi_produced_ - mwi_ring_.size();
    std::size_t lo = idx > mwi_win_ ? idx - mwi_win_ : 0;
    if (lo < oldest + 1) lo = oldest + 1 > idx ? idx : oldest + 1;
    sample_t best{};
    for (std::size_t i = lo; i <= idx && i < mwi_produced_; ++i)
      best = std::max(best, B::abs(slope_at(i)));
    return best;
  }

  dsp::SampleRate fs_;
  double searchback_rr_factor_;
  std::size_t refractory_, min_sep_, t_wave_win_, mwi_win_, refine_, learn_end_;
  /// Length of one threshold-learning window (2 s of feature samples);
  /// learn_end_ - learn_start_ whenever learning is pending.
  std::size_t learn_window_ = learn_end_;
  /// First feature sample eligible for the current learning window
  /// (0 from construction; the reset point after soft_reset()).
  std::size_t learn_start_ = 0;

  // Feature history for thresholds, slopes and search-back.
  dsp::RingBuffer<sample_t> mwi_ring_;
  std::size_t mwi_produced_ = 0;
  dsp::RingBuffer<sample_t> in_ring_;  ///< raw input for refinement
  std::size_t in_count_ = 0;

  // Candidate finalization (batch local_maxima semantics).
  std::optional<std::size_t> pending_;
  bool learned_ = false;
  std::vector<std::size_t> prelearn_;     ///< candidates before thresholds exist

  // Adaptive detector state (sample-domain values live in the backend's
  // numeric type; RR statistics are index arithmetic and stay double).
  sample_t spki_{}, npki_{};
  std::optional<std::size_t> last_accepted_;
  sample_t last_accepted_slope_{};
  std::vector<double> rr_history_;        ///< trimmed to the last 8
  std::vector<std::size_t> rejected_since_;
  std::optional<std::size_t> last_r_;
  std::size_t peaks_emitted_ = 0;  ///< only checkpointed: part of the v1 QRSD layout
};

/// Online (sample-by-sample) Pan-Tompkins detector, generic over the
/// numeric backend (dsp/backend.h): one feature front (band-pass,
/// derivative, squaring, MWI) feeding one QrsDecisionTail per lane.
///
/// The feature chain mirrors the batch one: the 5-15 Hz band-pass runs as
/// a causal symmetric-kernel stage whose output equals the zero-phase
/// filtfilt response (group delay absorbed internally; see
/// StreamingZeroPhaseFir), followed by the aligned 5-point derivative,
/// squaring and the 150 ms moving-window integration. Detection decisions
/// are therefore made on (numerically) the same feature signal the batch
/// detector sees, with a data-driven confirmation latency: an MWI
/// candidate is final once the next MWI local maximum at least half a
/// refractory later has been observed (or the stream ends).
///
/// Under Q31Backend every sample-domain value (band-pass output, squared
/// feature, MWI, the SPKI/NPKI thresholds and the slopes they gate on) is
/// a Q1.31 integer; the power-of-two threshold weights of the original
/// paper (1/8, 1/4, 7/8) become arithmetic shifts, and the fs factors of
/// the derivative stencils cancel out of every comparison, so they are
/// absorbed into the (implicit) feature scale instead of multiplied per
/// sample. Indices, RR statistics and search-back bookkeeping stay in
/// integer/double exactly as in the reference.
///
/// Under BatchBackend<W> the front ticks W sessions in lockstep (each
/// band-pass tap and derivative coefficient loaded once for all lanes)
/// and lane l's feature samples fan out into decision tail l, a
/// QrsDecisionTail<DoubleBackend> -- the scalar detector's own code, so
/// lane l's peaks are byte-identical to a scalar detector fed lane l's
/// samples. The front has no data-dependent branches: a lane in a dropout
/// gap or awaiting a soft reset keeps streaming, and only its own tail
/// diverges. The scalar backends have one lane. Every `out` pointer below
/// addresses kLanes vectors, lane l's peaks going to out[l].
template <typename B>
class BasicOnlinePanTompkins {
 public:
  using sample_t = typename B::sample_t;
  using Tail = QrsDecisionTail<typename B::lane_backend>;
  static constexpr std::size_t kLanes = B::kLanes;

  explicit BasicOnlinePanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg = {})
      : fs_(fs),
        mwi_win_(std::max<std::size_t>(
            1, static_cast<std::size_t>(cfg.integration_window_s * fs))),
        bp_(pan_tompkins_bandpass_kernel(fs, cfg)),
        mwi_(mwi_win_),
        tails_(dsp::make_lanes<Tail, kLanes>(fs, cfg)) {}

  /// Feeds one cleaned-ECG sample per lane; appends the indices
  /// (absolute, in the fed sample timeline) of any R peaks it confirms.
  void push(sample_t x, std::vector<std::size_t>* out) {
    for (std::size_t l = 0; l < kLanes; ++l) tails_[l].note_input(B::lane(x, l));
    bp_scratch_.clear();
    bp_.push(x, bp_scratch_);
    for (const sample_t v : bp_scratch_) on_bp_sample(v, out);
  }

  void push(sample_t x, std::vector<std::size_t>& out) requires(kLanes == 1) {
    push(x, &out);
  }

  /// Typed span: cross-backend container mixups fail to compile.
  void push_chunk(std::span<const sample_t> x, std::vector<std::size_t>& out)
    requires(kLanes == 1)
  {
    for (const sample_t v : x) push(v, &out);
  }

  /// Feature front only, fused per chunk: band-pass, derivative,
  /// squaring and MWI run as flat passes, appending the integrated
  /// feature samples to `feat` and one `cum` entry per input sample (the
  /// absolute size of `feat` after that sample). The decision tails are
  /// NOT driven and note_input() is NOT called — the caller replays lane
  /// l's features through decision_tail(l) itself, calling
  /// note_input(lane l of x[i]) before consuming sample i's feature
  /// range. That replay order is exactly push()'s interleaving, so the
  /// result is byte-identical.
  void front_chunk(std::span<const sample_t> x, std::vector<sample_t>& feat,
                   std::vector<std::uint32_t>& cum) {
    bp_arena_.clear();
    bp_cum_.clear();
    bp_.process_chunk_counted(x, bp_arena_, bp_cum_);
    const auto base = static_cast<std::uint32_t>(feat.size());
    feat_cum_.clear();
    for (const sample_t v : bp_arena_) {
      sample_t f{};
      if (bp_feature_step(v, f)) feat.push_back(f);
      feat_cum_.push_back(static_cast<std::uint32_t>(feat.size()));
    }
    for (std::size_t i = 0; i < x.size(); ++i)
      cum.push_back(bp_cum_[i] > 0 ? feat_cum_[bp_cum_[i] - 1] : base);
  }

  /// Lane l's decision half, for callers driving the front via
  /// front_chunk().
  [[nodiscard]] Tail& decision_tail(std::size_t lane = 0) { return tails_[lane]; }

  /// End of stream: processes the pending candidates and flushes.
  void finish(std::vector<std::size_t>* out) {
    // Flush the band-pass stage, then the derivative tail with the batch
    // edge fallbacks, then settle learning and the pending candidates.
    bp_scratch_.clear();
    bp_.finish(bp_scratch_);
    for (const sample_t v : bp_scratch_) on_bp_sample(v, out);

    const std::size_t n = bp_count_;
    auto h = [&](std::size_t i) { return bp_hist_[i % 5]; };
    for (std::size_t i = d_emitted_; i < n; ++i) {
      sample_t d{};
      if (n == 1) {
        d = sample_t{};
      } else if (i == 0) {
        d = B::rescale(B::sub(h(1), h(0)), fs_, 0);
      } else if (i + 1 < n) {
        d = B::half(B::rescale(B::sub(h(i + 1), h(i - 1)), fs_, 0));
      } else {
        d = B::rescale(B::sub(h(n - 1), h(n - 2)), fs_, 0);
      }
      const sample_t f = mwi_.tick(B::square(d));
      for (std::size_t l = 0; l < kLanes; ++l) tails_[l].on_feature_sample(B::lane(f, l), out[l]);
      ++d_emitted_;
    }

    for (std::size_t l = 0; l < kLanes; ++l) tails_[l].settle(out[l]);
  }

  void finish(std::vector<std::size_t>& out) requires(kLanes == 1) { finish(&out); }

  /// Serializes the full carried detector state — feature chain (band
  /// pass, derivative history, MWI), then the decision tail — for
  /// core::Checkpoint round trips. The byte layout is identical to the
  /// pre-split detector (front fields, then tail fields, in the same
  /// order), so existing checkpoints restore unchanged. A restored
  /// detector continues the stream bit-identically to one that was never
  /// interrupted. Lane l's tail goes to w.lane_writer(l): the writer
  /// itself for a plain StateWriter, lane l's blob under a lane adaptor
  /// (core::LaneStateWriter), which also scatters the front's lane
  /// vectors — so every lane's bytes are the scalar layout.
  template <typename W>
  void save_state(W& w) const {
    bp_.save_state(w);
    for (const sample_t v : bp_hist_) w.value(v);
    w.u64(bp_count_);
    w.u64(d_emitted_);
    mwi_.save_state(w);
    for (std::size_t l = 0; l < kLanes; ++l) tails_[l].save_state(w.lane_writer(l));
  }

  /// Scalar backends only: a batch is never restored (see
  /// core::SessionBatch).
  template <typename R>
  void load_state(R& r) requires(kLanes == 1) {
    bp_.load_state(r);
    for (sample_t& v : bp_hist_) v = r.template value<sample_t>();
    bp_count_ = r.u64();
    d_emitted_ = r.u64();
    mwi_.load_state(r);
    tails_[0].load_state(r);
  }

 private:
  /// One band-passed sample through the derivative/square/MWI chain.
  /// Returns true and sets `f` when a feature sample is produced.
  /// Aligned 5-point derivative with the batch edge fallbacks (see
  /// five_point_derivative): d[0], d[1] use the one-sided/central forms,
  /// d[i] for i >= 2 the centered 5-point stencil once x[i+2] exists. The
  /// trailing d[n-2], d[n-1] are emitted by finish().
  bool bp_feature_step(sample_t v, sample_t& f) {
    bp_hist_[bp_count_ % 5] = v;
    const std::size_t j = bp_count_++;
    auto h = [&](std::size_t i) { return bp_hist_[i % 5]; };
    sample_t d{};
    if (j == 1) {
      d = B::rescale(B::sub(h(1), h(0)), fs_, 0);
    } else if (j == 2) {
      d = B::half(B::rescale(B::sub(h(2), h(0)), fs_, 0));
    } else if (j >= 4) {
      d = B::eighth(B::rescale(
          B::sub(B::sub(B::add(B::twice(h(j)), h(j - 1)), h(j - 3)), B::twice(h(j - 4))),
          fs_, 0));
    } else {
      return false;
    }
    f = mwi_.tick(B::square(d));
    ++d_emitted_;
    return true;
  }

  void on_bp_sample(sample_t v, std::vector<std::size_t>* out) {
    sample_t f{};
    if (!bp_feature_step(v, f)) return;
    for (std::size_t l = 0; l < kLanes; ++l) tails_[l].on_feature_sample(B::lane(f, l), out[l]);
  }

  dsp::SampleRate fs_;
  std::size_t mwi_win_;

  // Feature chain (input timeline == feature timeline; the band-pass
  // stage absorbs its own group delay).
  dsp::BasicStreamingZeroPhaseFir<B> bp_;
  std::vector<sample_t> bp_scratch_;
  sample_t bp_hist_[5] = {};        ///< last 5 band-passed samples
  std::size_t bp_count_ = 0;
  std::size_t d_emitted_ = 0;       ///< derivative samples emitted so far

  // front_chunk arenas: band-pass intermediates and the per-stage
  // cumulative-output snapshots, reused across chunks.
  std::vector<sample_t> bp_arena_;
  std::vector<std::uint32_t> bp_cum_;
  std::vector<std::uint32_t> feat_cum_;

  dsp::BasicStreamingMovingAverage<B> mwi_;
  std::array<Tail, kLanes> tails_;  ///< one per lane
};

using OnlinePanTompkins = BasicOnlinePanTompkins<dsp::DoubleBackend>;

class PanTompkins {
 public:
  explicit PanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg = {});

  /// Detects R peaks over a full recording segment. Thin wrapper: feeds
  /// the whole segment through an OnlinePanTompkins and collects the
  /// confirmed peaks, so batch and streaming detection cannot drift.
  [[nodiscard]] QrsDetection detect(dsp::SignalView ecg) const;

 private:
  dsp::SampleRate fs_;
  PanTompkinsConfig cfg_;
};

/// Convenience: R-peak times in seconds.
std::vector<double> r_peak_times(const QrsDetection& det, dsp::SampleRate fs);

} // namespace icgkit::ecg
