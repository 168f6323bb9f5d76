// The beat-to-beat processing engine: the composition the paper's Fig 3
// flowchart describes. Raw ECG + impedance in; per-beat characteristic
// points and hemodynamic parameters out.
//
//   ECG  -> morphological baseline removal -> zero-phase FIR band-pass
//        -> Pan-Tompkins R peaks
//   Z    -> ICG = -dZ/dt -> zero-phase Butterworth low-pass 20 Hz
//        -> zero-phase baseline high-pass
//   per R-R pair -> C/B/X delineation -> quality gate -> PEP/LVET/SV/CO
//
// The engine is a true single-pass streaming system: every stage carries
// persistent state (see core/stream.h), each push() does O(chunk) work,
// and only the newly completed R-R intervals are delineated. It is also
// generic over the numeric backend (dsp/backend.h):
//
//   - StreamingBeatPipeline        the double-precision reference engine
//     (chunked feed; emits each beat exactly once, in order, with a fixed
//     sub-window latency, the way the embedded firmware reports results
//     beat by beat over the radio).
//   - FixedStreamingBeatPipeline   the same engine instantiated with the
//     Q31 backend: the whole sample-rate front end (ECG cleaning, QRS
//     detection, ICG conditioning) runs in the firmware's Q1.31 integer
//     arithmetic under a per-stage scaling policy (dsp::Q31ScalingPolicy)
//     and converts to double exactly once per completed R-R window, at
//     the delineation boundary -- the beat-rate tail (delineator, quality
//     gate, hemodynamics) stays in double for both backends.
//   - BasicStreamingBeatPipeline<dsp::BatchBackend<W>>  W sessions in
//     SIMD lockstep, one per lane, each byte-identical to its own
//     StreamingBeatPipeline (wrapped by core::SessionBatch).
//   - BeatPipeline::process        one recording, offline; byte-identical
//     BeatRecords to StreamingBeatPipeline at any chunking, because it
//     *is* StreamingBeatPipeline fed a single chunk.
//
// Internally the engine is two halves joined at the feature boundary:
// the *stage front* (ECG cleaner, QRS feature chain, ICG conditioner —
// the data-parallel sample-rate chain, which ticks all lanes at once)
// and, per lane, the QRS decision tail plus the BeatAssembler (look-back
// rings, contact-gap recovery, delineation, quality, hemodynamics,
// ensemble — the per-session beat-rate tail). That lane split is the
// whole difference between the scalar and the batch engines, so one
// body serves both.
#pragma once

#include "core/checkpoint.h"
#include "core/delineator.h"
#include "core/ensemble.h"
#include "core/hemodynamics.h"
#include "core/icg_filter.h"
#include "core/quality.h"
#include "core/stream.h"
#include "ecg/ecg_filter.h"
#include "ecg/pan_tompkins.h"
#include "dsp/backend.h"
#include "dsp/denormal.h"
#include "dsp/ring_buffer.h"
#include "dsp/stats.h"
#include "dsp/types.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "support/contract.h"

namespace icgkit::core {

struct PipelineConfig {
  ecg::EcgFilterConfig ecg_filter{};
  ecg::PanTompkinsConfig qrs{};
  IcgFilterConfig icg_filter{};
  DelineationConfig delineation{};
  QualityConfig quality{};
  BodyParameters body{};
  /// Optional ensemble-averaging stage: when enabled, each accepted beat
  /// is folded into a correlation-gated R-aligned template and the
  /// emitted BeatRecords carry the template's delineation alongside the
  /// single-beat one (ensemble_points). Off by default: the stage buffers
  /// beat segments, so it trades the zero-steady-state-allocation
  /// guarantee for noise robustness.
  bool enable_ensemble = false;
  EnsembleConfig ensemble{};
};

/// The sample rates the engine supports, in Hz. Every designed kernel is
/// pinned at 125-1000 Hz; the filter designs refuse fs <= 80 Hz, and Q31
/// coefficients leave the Q2.30 range from about 1.9 kHz. The C ABI and
/// the network server refuse rates outside this range.
inline constexpr double kMinSampleRateHz = 125.0;
inline constexpr double kMaxSampleRateHz = 1000.0;

[[nodiscard]] constexpr bool sample_rate_supported(double fs_hz) {
  return fs_hz >= kMinSampleRateHz && fs_hz <= kMaxSampleRateHz;
}

/// One fully-processed beat.
struct BeatRecord {
  BeatDelineation points;
  BeatHemodynamics hemo;
  BeatFlaw flaws = BeatFlaw::None;
  double rr_s = 0.0;
  /// Signal-integrity metrics of this beat's R-R window (SNR, saturation,
  /// flatline); the source of the LowSnr/Saturated/Flatline flaw bits.
  SignalQuality signal;
  /// Delineation of the running ensemble template at this beat (absolute
  /// indices, like `points`). Only populated when the pipeline's ensemble
  /// stage is enabled and the template has enough beats.
  std::optional<BeatDelineation> ensemble_points;
  [[nodiscard]] bool usable() const { return flaws == BeatFlaw::None; }
};

struct PipelineResult {
  std::vector<BeatRecord> beats;
  HemodynamicsSummary summary;       ///< over usable beats only
  double z0_mean_ohm = 0.0;          ///< mean of the impedance trace
  std::size_t r_peak_count = 0;
};

namespace detail {
// Pending beats are bounded by the configured Pan-Tompkins refractory
// period: R peaks arrive at most once per refractory interval, and a
// pending beat drains as soon as its aligned ICG catches up (a latency
// of well under a second), so the depth is tiny in practice. Size the
// fixed ring for the pathological ceiling — one beat per refractory
// interval across the whole look-back window — plus headroom.
inline std::size_t pending_capacity(std::size_t window_samples, dsp::SampleRate fs,
                                    double refractory_s) {
  const std::size_t refractory = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::max(0.0, refractory_s) * fs));
  return std::max<std::size_t>(64, window_samples / refractory + 16);
}

// Per-raw-sample signal-integrity mark bits (see StreamingBeatPipeline's
// marks ring). Computed from the incoming *double* samples before any
// backend quantization, so the double and Q31 engines agree bit for bit
// on flatline/saturation verdicts.
inline constexpr std::uint8_t kEcgFlat = 1u << 0;
inline constexpr std::uint8_t kZFlat = 1u << 1;
inline constexpr std::uint8_t kEcgSat = 1u << 2;
inline constexpr std::uint8_t kZSat = 1u << 3;
} // namespace detail

/// The per-session beat-rate tail of the streaming engine: look-back
/// rings, the contact-gap state machine and quality-adaptive recovery,
/// pending-beat scheduling, delineation, the quality gate, hemodynamics
/// and the optional ensemble stage. Everything downstream of the
/// sample-rate stage front, with scalar (per-session) control flow.
///
/// BasicStreamingBeatPipeline owns one assembler per lane: one on the
/// scalar backends, W (one per SIMD lane, each a
/// BeatAssembler<DoubleBackend>) behind the shared batched front of
/// BatchBackend<W> -- the assembler is exactly the state whose control
/// flow diverges per session, so batching stops at its boundary.
///
/// Serialization is exposed as one body per checkpoint section (RING /
/// BEAT / GAPS / QSUM / ENSB); the pipeline wraps them in its section
/// framing, keeping the v1 wire layout byte-identical to the pre-split
/// engine.
template <typename B>
class BeatAssembler {
 public:
  using sample_t = typename B::sample_t;

  BeatAssembler(dsp::SampleRate fs, const PipelineConfig& cfg,
                std::size_t window_samples, double z_scale, double icg_scale,
                double ecg_rail_mv, double z_rail_ohm, std::size_t icg_latency)
      : fs_(fs), quality_(cfg.quality), body_(cfg.body),
        window_samples_(window_samples), z_scale_(z_scale), icg_scale_(icg_scale),
        delineator_(fs, cfg.delineation),
        ecg_rail_mv_(ecg_rail_mv), z_rail_ohm_(z_rail_ohm),
        icg_latency_(icg_latency),
        dropout_samples_(std::max<std::size_t>(
            2, static_cast<std::size_t>(std::max(0.0, cfg.quality.dropout_reset_s) * fs))),
        icg_ring_(window_samples_),
        z_ring_(window_samples_),
        marks_(window_samples_),
        pending_beats_(detail::pending_capacity(window_samples_, fs, cfg.qrs.refractory_s)) {
    // Memory-pool invariant: pre-size the per-beat buffers for any
    // physiologically plausible beat (3 s covers HR down to 20 bpm) so a
    // warmed-up session never allocates on push. Longer beats — artifact
    // dropouts — still work, at the cost of a one-off reallocation.
    const std::size_t max_beat =
        std::min(window_samples_, static_cast<std::size_t>(3.0 * fs));
    beat_scratch_.reserve(max_beat);
    delin_scratch_.reserve(max_beat);
    if (cfg.enable_ensemble) {
      ensemble_.emplace(fs, cfg.ensemble);
      ens_scratch_.reserve(ensemble_->segment_samples());
      // Worst-case folds in flight: one R per refractory interval across
      // the post window (same reasoning as pending_capacity above), so
      // the queue never silently overwrites a pending fold.
      ens_pending_ = dsp::RingBuffer<std::size_t>(detail::pending_capacity(
          ensemble_->segment_samples(), fs, cfg.qrs.refractory_s));
    }
  }

  /// Consumes one raw sample pair: classifies it into the marks ring,
  /// advances the contact-gap state machine (invoking `qrs_soft_reset`
  /// when an ECG gap closes and recovery is enabled), and accounts the
  /// raw impedance sample `zq` into the look-back ring and running sum.
  template <typename SoftResetFn>
  void on_raw_sample(double ecg_mv, double z_ohm, sample_t zq,
                     SoftResetFn&& qrs_soft_reset) {
    track_signal_marks(ecg_mv, z_ohm, qrs_soft_reset);
    z_ring_.push(zq);
    z_sum_ = B::acc_add(z_sum_, zq);
    ++consumed_;
  }

  /// Accounts one aligned conditioned-ICG sample into the look-back ring.
  void on_icg_sample(sample_t v) {
    icg_ring_.push(v);
    ++icg_count_;
  }

  /// Folds any queued ensemble segments whose post window has completed
  /// (no-op when the ensemble stage is off or the queue is empty).
  void maybe_drain_ensemble() {
    if (ensemble_.has_value() && !ens_pending_.empty()) drain_ensemble();
  }

  /// Registers a confirmed R peak; pairs it with the previous one into a
  /// pending beat.
  void on_r_peak(std::size_t r) {
    ++r_peak_count_;
    if (last_r_.has_value()) enqueue_beat(*last_r_, r);
    last_r_ = r;
  }

  /// Emits every pending beat whose aligned ICG is now complete. Called
  /// per sample so the emission point (and thus the ring-buffer state it
  /// reads) is identical however the input was chunked.
  void drain_ready(std::vector<BeatRecord>& out) {
    while (!pending_beats_.empty() && icg_count_ >= pending_beats_.front().second) {
      const auto [r, r_next] = pending_beats_.front();
      pending_beats_.pop();
      out.push_back(make_beat(r, r_next));
    }
  }

  [[nodiscard]] std::size_t samples_consumed() const { return consumed_; }
  [[nodiscard]] std::size_t r_peak_count() const { return r_peak_count_; }
  [[nodiscard]] const QualitySummary& quality_summary() const { return summary_; }

  /// Running mean of the impedance trace consumed so far.
  [[nodiscard]] double z_mean_ohm() const {
    if (consumed_ == 0) return 0.0;
    if constexpr (B::kFixed)
      return B::to_real(B::mean(z_sum_, consumed_)) * z_scale_;
    else
      return z_sum_ / static_cast<double>(consumed_);
  }

  // -- checkpoint section bodies (wrapped by the owner's framing) -------
  template <typename W>
  void save_ring_body(W& w) const {
    icg_ring_.save_state(w);
    z_ring_.save_state(w);
    marks_.save_state(w);
    w.u64(icg_count_);
    w.u64(consumed_);
    w.value(z_sum_);
  }
  template <typename R>
  void load_ring_body(R& r) {
    icg_ring_.load_state(r, "StreamingBeatPipeline");
    z_ring_.load_state(r, "StreamingBeatPipeline");
    marks_.load_state(r, "StreamingBeatPipeline");
    icg_count_ = r.u64();
    consumed_ = r.u64();
    z_sum_ = r.template value<typename B::acc_t>();
  }

  template <typename W>
  void save_beat_body(W& w) const {
    w.boolean(last_r_.has_value());
    if (last_r_.has_value()) w.u64(*last_r_);
    save_pair_ring(w, pending_beats_);
    w.u64(r_peak_count_);
  }
  template <typename R>
  void load_beat_body(R& r) {
    if (r.boolean()) last_r_ = r.u64();
    else last_r_.reset();
    load_pair_ring(r, pending_beats_);
    r_peak_count_ = r.u64();
  }

  template <typename W>
  void save_gaps_body(W& w) const {
    w.f64(prev_ecg_raw_);
    w.f64(prev_z_raw_);
    w.boolean(have_prev_raw_);
    w.u64(ecg_flat_run_);
    w.u64(z_flat_run_);
    w.boolean(ecg_gap_);
    w.boolean(z_gap_);
    save_pair_ring(w, gap_spans_);
  }
  template <typename R>
  void load_gaps_body(R& r) {
    prev_ecg_raw_ = r.f64();
    prev_z_raw_ = r.f64();
    have_prev_raw_ = r.boolean();
    ecg_flat_run_ = r.u64();
    z_flat_run_ = r.u64();
    ecg_gap_ = r.boolean();
    z_gap_ = r.boolean();
    load_pair_ring(r, gap_spans_);
  }

  template <typename W>
  void save_qsum_body(W& w) const {
    summary_.save_state(w);
  }
  template <typename R>
  void load_qsum_body(R& r) {
    summary_.load_state(r);
  }

  template <typename W>
  void save_ensb_body(W& w) const {
    w.boolean(ensemble_.has_value());
    if (ensemble_.has_value()) {
      ensemble_->save_state(w);
      ens_pending_.save_state(w);
    }
  }
  template <typename R>
  void load_ensb_body(R& r) {
    if (r.boolean() != ensemble_.has_value())
      return r.fail("StreamingBeatPipeline: ensemble-stage layout mismatch");
    if (ensemble_.has_value()) {
      ensemble_->load_state(r);
      ens_pending_.load_state(r, "StreamingBeatPipeline ensemble queue");
    }
  }

 private:
  // Checkpoint helpers for the index-pair rings (sample/mark/index rings
  // serialize through dsp::RingBuffer::save_state/load_state directly).
  template <typename W>
  static void save_pair_ring(W& w,
                             const dsp::RingBuffer<std::pair<std::size_t, std::size_t>>& ring) {
    w.u64(ring.capacity());
    w.u64(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      w.u64(ring.at(i).first);
      w.u64(ring.at(i).second);
    }
  }
  template <typename R>
  static void load_pair_ring(R& r,
                             dsp::RingBuffer<std::pair<std::size_t, std::size_t>>& ring) {
    if (r.u64() != ring.capacity())
      return r.fail("StreamingBeatPipeline: pair-ring capacity mismatch");
    const std::size_t n = r.u64();
    if (n > ring.capacity()) return r.fail("StreamingBeatPipeline: pair-ring overflow");
    ring.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t a = r.u64();
      const std::size_t b = r.u64();
      ring.push({a, b});
    }
  }

  [[nodiscard]] double icg_real(sample_t v) const {
    if constexpr (B::kFixed) return B::to_real(v) * icg_scale_;
    else return v;
  }

  /// Classifies one raw sample pair (flat? saturated?) into the marks
  /// ring and advances the contact-gap state machine. Runs on the
  /// incoming doubles before backend quantization, per sample, so the
  /// verdicts are backend-identical and chunk-size invariant.
  template <typename SoftResetFn>
  void track_signal_marks(double ecg_mv, double z_ohm, SoftResetFn&& qrs_soft_reset) {
    std::uint8_t m = 0;
    if (have_prev_raw_) {
      if (std::abs(ecg_mv - prev_ecg_raw_) <= quality_.flatline_epsilon_mv)
        m |= detail::kEcgFlat;
      if (std::abs(z_ohm - prev_z_raw_) <= quality_.flatline_epsilon_ohm)
        m |= detail::kZFlat;
    }
    const double margin = quality_.saturation_margin;
    if (std::abs(ecg_mv) >= margin * ecg_rail_mv_) m |= detail::kEcgSat;
    if (std::abs(z_ohm) >= margin * z_rail_ohm_) m |= detail::kZSat;
    marks_.push(m);
    prev_ecg_raw_ = ecg_mv;
    prev_z_raw_ = z_ohm;
    have_prev_raw_ = true;
    update_gap((m & detail::kEcgFlat) != 0, ecg_flat_run_, ecg_gap_, /*is_ecg=*/true,
               qrs_soft_reset);
    update_gap((m & detail::kZFlat) != 0, z_flat_run_, z_gap_, /*is_ecg=*/false,
               qrs_soft_reset);
  }

  /// Contact-gap state machine for one channel. On the first sample after
  /// a gap ends, the quality-adaptive recovery fires: an ECG gap poisons
  /// the QRS detector's adaptive thresholds, so they are soft-reset and
  /// relearned from post-gap data only (and the open R is dropped so no
  /// R-R pair spans the gap); an impedance gap poisons the ensemble
  /// template, so the gap's span (smeared by the ICG chain's kernel
  /// footprint) is recorded and every ensemble fold overlapping it is
  /// skipped — the template keeps its clean pre-gap beats and resumes
  /// with clean post-gap ones. Filter state is never touched — linear
  /// stages flush a gap by themselves and resetting them would break the
  /// stream's sample alignment. (This is also what makes the SIMD batch
  /// front mask-free: a lane in a gap keeps filtering like every other
  /// lane, and only its assembler/detector-tail state diverges.)
  template <typename SoftResetFn>
  void update_gap(bool flat, std::size_t& run, bool& gap, bool is_ecg,
                  SoftResetFn&& qrs_soft_reset) {
    if (flat) {
      ++run;
      if (!gap && run >= dropout_samples_) {
        gap = true;
        if (is_ecg) ++summary_.ecg_dropouts;
        else ++summary_.z_dropouts;
      }
      return;
    }
    if (gap) {
      gap = false;
      if (quality_.enable_recovery) {
        if (is_ecg) {
          qrs_soft_reset();
          last_r_.reset();
          ++summary_.detector_resets;
        } else {
          // The flat span is [consumed_ - run, consumed_); the zero-phase
          // ICG kernels smear its edge transients by their look-back, so
          // quarantine that margin on both sides.
          const std::size_t margin = icg_latency_;
          const std::size_t begin =
              consumed_ > run + margin ? consumed_ - run - margin : 0;
          gap_spans_.push({begin, consumed_ + margin});
        }
      }
    }
    run = 0;
  }

  /// True when the ensemble segment [begin, end) overlaps a recorded
  /// impedance contact gap (quarantined ICG samples).
  [[nodiscard]] bool overlaps_gap_span(std::size_t begin, std::size_t end) const {
    for (std::size_t i = 0; i < gap_spans_.size(); ++i) {
      const auto& [b, e] = gap_spans_.at(i);
      if (b < end && begin < e) return true;
    }
    return false;
  }

  void enqueue_beat(std::size_t r, std::size_t r_next) {
    if (pending_beats_.full())
      ICGKIT_THROW(std::runtime_error("StreamingBeatPipeline: pending-beat ring overflow"));
    pending_beats_.push({r, r_next});
  }

  [[nodiscard]] BeatRecord make_beat(std::size_t r, std::size_t r_next) {
    BeatRecord rec;
    rec.rr_s = static_cast<double>(r_next - r) / fs_;

    const std::size_t oldest_icg = icg_count_ - icg_ring_.size();
    if (r < oldest_icg) {
      // The look-back window no longer covers this beat (window smaller
      // than the R-R interval plus stage latencies). Emit it flagged, with
      // every point clamped to its R so no index references trimmed data.
      rec.points.r = rec.points.b = rec.points.b0 = rec.points.c = rec.points.x = r;
      rec.flaws = BeatFlaw::InvalidDelineation;
      // No window to measure: keep this beat out of the SNR statistics.
      summary_.tally(rec.flaws, rec.signal, /*snr_measured=*/false);
      return rec;
    }

    // The one per-beat numeric boundary: the R-R window of conditioned
    // ICG leaves the backend's sample domain here (identity for the
    // double backend, counts -> Ohm/s for Q31) and the shared double
    // delineation/quality/hemodynamics tail takes over. The zero-copy
    // segment view keeps the fill a flat (auto-vectorizable) pass — the
    // conversion runs exactly once per beat, and both delineation and
    // the SNR measurement read the converted window from beat_scratch_.
    beat_scratch_.clear();
    const auto beat_seg = icg_ring_.segments(r - oldest_icg, r_next - oldest_icg);
    for (const sample_t v : beat_seg.first) beat_scratch_.push_back(icg_real(v));
    for (const sample_t v : beat_seg.second) beat_scratch_.push_back(icg_real(v));
    rec.points = delineator_.delineate(beat_scratch_, 0, beat_scratch_.size(), delin_scratch_);
    rec.points.r += r;
    rec.points.b += r;
    rec.points.b0 += r;
    rec.points.c += r;
    rec.points.x += r;
    rec.flaws = assess_beat(rec.points, rec.rr_s, fs_, quality_);
    rec.signal = measure_signal_quality(r, r_next);
    rec.flaws = rec.flaws | assess_signal(rec.signal, quality_);
    rec.hemo = compute_beat_hemodynamics(rec.points, rec.rr_s, beat_z0(r, r_next), fs_,
                                         body_);
    if (ensemble_.has_value()) attach_ensemble(rec, r);
    summary_.tally(rec.flaws, rec.signal);
    return rec;
  }

  /// Signal-integrity metrics of the beat window [r, r_next):
  /// saturation/flatline fractions from the raw-sample marks ring, SNR as
  /// peak |ICG| against the diastolic floor (RMS of the final third of
  /// the R-R window, where the clean ICG has decayed to the O-wave
  /// recovery). Uses beat_scratch_, which make_beat has just filled.
  [[nodiscard]] SignalQuality measure_signal_quality(std::size_t r,
                                                     std::size_t r_next) const {
    SignalQuality q;
    const std::size_t oldest_mark = consumed_ - marks_.size();
    const std::size_t lo = std::max(r, oldest_mark);
    const std::size_t hi = std::min(r_next, consumed_);
    if (lo < hi) {
      std::size_t flat = 0, sat = 0;
      const auto seg = marks_.segments(lo - oldest_mark, hi - oldest_mark);
      for (const std::span<const std::uint8_t> s : {seg.first, seg.second}) {
        for (const std::uint8_t m : s) {
          if ((m & (detail::kEcgFlat | detail::kZFlat)) != 0) ++flat;
          if ((m & (detail::kEcgSat | detail::kZSat)) != 0) ++sat;
        }
      }
      const auto n = static_cast<double>(hi - lo);
      q.flatline_fraction = static_cast<double>(flat) / n;
      q.saturation_fraction = static_cast<double>(sat) / n;
    }
    const std::size_t len = beat_scratch_.size();
    if (len >= 8) {
      double peak = 0.0;
      for (const double v : beat_scratch_) peak = std::max(peak, std::abs(v));
      const std::size_t tail = 2 * len / 3;
      const double noise =
          dsp::rms(dsp::SignalView(beat_scratch_.data() + tail, len - tail));
      q.snr_db = noise > 1e-12 * peak && noise > 0.0
                     ? std::min(99.0, 20.0 * std::log10(peak / noise))
                     : 99.0;
      if (peak <= 0.0) q.snr_db = 0.0;
    }
    return q;
  }

  /// Optional ensemble stage: fold this beat's R-aligned segment into the
  /// running template (correlation-gated) and attach the template's
  /// delineation, rebased to absolute indices around this beat's R.
  ///
  /// The segment extends post_r_s past R, which a beat emitted at its
  /// closing R has only when RR >= post_r_s. When it does not (fast
  /// heart rates), the R is queued and folded by drain_ensemble() as
  /// soon as the ICG stream reaches R + post; the beat's attached
  /// template then simply lags that beat by one fold, instead of the
  /// stage silently going inert above ~100 bpm.
  void attach_ensemble(BeatRecord& rec, std::size_t r) {
    const std::size_t pre = ensemble_->r_offset();
    if (r < pre) return;
    if (!try_fold_ensemble(r))
      ens_pending_.push(r); // post window not complete yet; fold later
    if (auto d = ensemble_->delineate_average(delineator_); d.has_value()) {
      const std::size_t base = r - pre; // template sample 0 in absolute indices
      d->r += base;
      d->b += base;
      d->b0 += base;
      d->c += base;
      d->x += base;
      rec.ensemble_points = *d;
    }
  }

  /// Folds every queued R whose post window has completed (FIFO; stops
  /// at the first one still waiting for ICG samples).
  void drain_ensemble() {
    while (!ens_pending_.empty()) {
      if (!try_fold_ensemble(ens_pending_.front())) return;
      ens_pending_.pop();
    }
  }

  /// Adds the segment around `r` to the averager if its post window has
  /// completed. Returns false only when more ICG is still to come (the
  /// one retryable condition); a segment whose start already scrolled
  /// out of the look-back ring is unrecoverable and reported handled, as
  /// is a segment quarantined by a recorded contact gap (the
  /// template-poisoning protection — see update_gap).
  bool try_fold_ensemble(std::size_t r) {
    const std::size_t pre = ensemble_->r_offset();
    const std::size_t len = ensemble_->segment_samples();
    if (r < pre) return true;
    if (r - pre + len > icg_count_) return false;
    const std::size_t oldest_icg = icg_count_ - icg_ring_.size();
    if (r - pre < oldest_icg) return true;
    if (overlaps_gap_span(r - pre, r - pre + len)) {
      ++summary_.ensemble_folds_skipped;
      return true;
    }
    ens_scratch_.clear();
    const auto seg =
        icg_ring_.segments(r - pre - oldest_icg, r - pre + len - oldest_icg);
    for (const sample_t v : seg.first) ens_scratch_.push_back(icg_real(v));
    for (const sample_t v : seg.second) ens_scratch_.push_back(icg_real(v));
    ensemble_->add_beat(ens_scratch_, pre);
    return true;
  }

  [[nodiscard]] double beat_z0(std::size_t r, std::size_t r_next) const {
    // Base impedance during the beat: mean of the raw trace over the R-R
    // interval (the firmware analogue of the batch recording mean; local,
    // deterministic, and available at emission time).
    const std::size_t oldest_z = consumed_ - z_ring_.size();
    const std::size_t lo = std::max(r, oldest_z);
    const std::size_t hi = std::min(r_next, consumed_);
    if (lo >= hi) return z_mean_ohm();
    typename B::acc_t acc = B::acc_zero();
    const auto seg = z_ring_.segments(lo - oldest_z, hi - oldest_z);
    for (const sample_t v : seg.first) acc = B::acc_add(acc, v);
    for (const sample_t v : seg.second) acc = B::acc_add(acc, v);
    if constexpr (B::kFixed)
      return B::to_real(B::mean(acc, hi - lo)) * z_scale_;
    else
      return acc / static_cast<double>(hi - lo);
  }

  dsp::SampleRate fs_;
  QualityConfig quality_;
  BodyParameters body_;
  std::size_t window_samples_;
  double z_scale_, icg_scale_;      ///< Q31 full scales (1 for double)
  IcgDelineator delineator_;

  double ecg_rail_mv_, z_rail_ohm_; ///< acquisition rails (saturation detector)
  std::size_t icg_latency_;         ///< ICG chain look-back (gap-span smear margin)
  std::size_t dropout_samples_;     ///< flat run length that counts as a gap

  dsp::RingBuffer<sample_t> icg_ring_;  ///< aligned cleaned ICG look-back
  dsp::RingBuffer<sample_t> z_ring_;    ///< raw impedance look-back
  /// Per-raw-sample integrity marks (detail::kEcgFlat...), same timeline
  /// and capacity as the raw look-back.
  dsp::RingBuffer<std::uint8_t> marks_;
  std::size_t icg_count_ = 0;   ///< aligned ICG samples produced
  std::size_t consumed_ = 0;    ///< absolute samples fed so far
  typename B::acc_t z_sum_ = B::acc_zero();

  std::optional<std::size_t> last_r_;
  /// Beats awaiting their aligned ICG, in fixed storage (no per-push
  /// allocation). Capacity covers the refractory-bounded R rate over the
  /// full look-back window with headroom; exceeding it throws rather
  /// than silently dropping a beat.
  dsp::RingBuffer<std::pair<std::size_t, std::size_t>> pending_beats_;
  std::size_t r_peak_count_ = 0;

  // Contact-gap state machine (see track_signal_marks / update_gap).
  double prev_ecg_raw_ = 0.0, prev_z_raw_ = 0.0;
  bool have_prev_raw_ = false;
  std::size_t ecg_flat_run_ = 0, z_flat_run_ = 0;
  bool ecg_gap_ = false, z_gap_ = false;
  /// Recent impedance contact-gap spans (input-timeline indices, smeared
  /// by the ICG kernel footprint); ensemble folds overlapping one are
  /// skipped. Bounded: older spans scroll out of the look-back anyway.
  dsp::RingBuffer<std::pair<std::size_t, std::size_t>> gap_spans_{16};
  QualitySummary summary_;

  dsp::Signal beat_scratch_;
  DelineationScratch delin_scratch_;
  std::optional<EnsembleAverager> ensemble_;
  dsp::Signal ens_scratch_;
  /// R indices whose ensemble segment still awaits its post window
  /// (RR < post_r_s, i.e. fast heart rates). Re-sized in the constructor
  /// for the worst case (one R per refractory across the post window)
  /// when the ensemble stage is enabled.
  dsp::RingBuffer<std::size_t> ens_pending_{1};
};

/// Chunk-fed incremental engine, generic over the numeric backend.
/// Internals:
///
///  - the ECG cleaner, QRS detector and ICG conditioner advance sample by
///    sample with carried state (O(chunk) work per push, no window
///    recomputation);
///  - cleaned ICG and raw impedance are retained in bounded ring buffers
///    (default 12 s) purely as *look-back* for delineation -- they are
///    never reprocessed;
///  - a beat (R_i, R_{i+1}) is delineated exactly once, as soon as
///    R_{i+1} is confirmed and the aligned ICG covers it. Its emitted
///    indices are absolute sample positions in the fed stream.
///
/// The output is invariant to chunk size: any segmentation of the same
/// recording yields byte-identical BeatRecords (the chunking only decides
/// which push() call returns them). Beats whose samples have already left
/// the look-back window (window smaller than an R-R interval plus the
/// stage latencies) are emitted flagged InvalidDelineation with all
/// points clamped to their R index, never referencing trimmed samples.
///
/// With the Q31 backend, push() quantizes each incoming double sample to
/// Q1.31 against the scaling policy's full scales (the ADC boundary a
/// real firmware has anyway), runs the whole sample-rate chain in integer
/// arithmetic, and converts each completed R-R window of ICG counts back
/// to Ohm/s once, feeding the same double delineation/quality/
/// hemodynamics tail as the reference engine.
///
/// With BatchBackend<W> the same body advances W same-configuration
/// sessions (lanes) in lockstep: the stage front ticks LaneVec<W>
/// samples, and every lane has its own QRS decision tail and
/// BeatAssembler<DoubleBackend>, the state whose control flow diverges
/// per session. core::SessionBatch wraps that instantiation. The scalar
/// backends have one lane; the single-session members (SignalView push,
/// finish, checkpoint blobs, load_state/restore) exist only there. A
/// batch only ever saves its state (SessionBatch::unpack): the fleet
/// builds batches fresh and dissolves them into scalar sessions.
template <typename B>
class BasicStreamingBeatPipeline {
 public:
  using sample_t = typename B::sample_t;
  static constexpr std::size_t kLanes = B::kLanes;
  static constexpr bool kFixed = B::kFixed;  ///< the Q31 backend

  BasicStreamingBeatPipeline(dsp::SampleRate fs, const PipelineConfig& cfg = {},
                             double window_s = 12.0,
                             const dsp::Q31ScalingPolicy& scaling = {})
      : fs_(fs), cfg_(cfg), window_s_(window_s),
        window_samples_(static_cast<std::size_t>(std::max(4.0, window_s) * fs)),
        ecg_scale_(B::kFixed ? scaling.ecg_fullscale_mv : 1.0),
        z_scale_(B::kFixed ? scaling.z_fullscale_ohm : 1.0),
        icg_scale_(B::kFixed ? scaling.icg_fullscale(fs) : 1.0),
        ecg_stage_(fs, cfg.ecg_filter),
        icg_stage_(fs, cfg.icg_filter, B::kFixed ? scaling.icg_gain_log2 : 0),
        qrs_(fs, cfg.qrs),
        assemblers_(dsp::make_lanes<Assembler, kLanes>(
            fs, cfg, window_samples_, z_scale_, icg_scale_, scaling.ecg_fullscale_mv,
            scaling.z_fullscale_ohm, icg_stage_.latency())) {
    ecg_scratch_.reserve(512);
    icg_scratch_.reserve(512);
    for (auto& rs : r_scratch_) rs.reserve(64);
  }

  /// Feeds one synchronized chunk; returns the beats completed by it.
  std::vector<BeatRecord> push(dsp::SignalView ecg_mv, dsp::SignalView z_ohm)
    requires(kLanes == 1)
  {
    std::vector<BeatRecord> emitted;
    push_into(ecg_mv, z_ohm, emitted);
    return emitted;
  }

  /// Allocation-free form of push(): appends completed beats to `out`
  /// (which is not cleared). With a caller-reused `out`, a warmed-up
  /// session does zero heap allocation per push — the property the fleet
  /// hot path relies on (verified by the allocation-probe test).
  void push_into(dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                 std::vector<BeatRecord>& out)
    requires(kLanes == 1)
  {
    if (ecg_mv.size() != z_ohm.size())
      ICGKIT_THROW(std::invalid_argument("StreamingBeatPipeline: chunk length mismatch"));
    const double* e = ecg_mv.data();
    const double* z = z_ohm.data();
    push_lanes(&e, &z, ecg_mv.size(), &out);
  }

  /// Advances every lane by `n` samples: ecg_mv[l] and z_ohm[l] point at
  /// lane l's samples, and lane l's completed beats are appended to
  /// out[l].
  ///
  /// Two-phase per chunk: the sample-rate fronts (ICG conditioner, ECG
  /// cleaner, QRS feature chain) each run as one fused flat pass over
  /// the whole chunk first — W lanes at once under the batch backend —
  /// then a per-raw-sample replay drives each lane's scalar tails (gap
  /// machine, decision tail, assembler) in exactly the per-sample ingest
  /// order. The fronts depend only on their own raw inputs — never on
  /// tail state (soft_reset touches only the decision tail's adaptive
  /// state) — and lanes share no tail state, so splitting the phases and
  /// replaying lane by lane is byte-identical to interleaving them
  /// sample by sample, session by session.
  void push_lanes(const double* const* ecg_mv, const double* const* z_ohm, std::size_t n,
                  std::vector<BeatRecord>* out);

  /// Flushes the stage tails and any pending beats (end of recording).
  std::vector<BeatRecord> finish() requires(kLanes == 1) {
    std::vector<BeatRecord> emitted;
    finish_lanes(&emitted);
    return emitted;
  }

  /// Allocation-free form of finish(): appends to `out`.
  void finish_into(std::vector<BeatRecord>& out) requires(kLanes == 1) {
    finish_lanes(&out);
  }

  /// End of stream for every lane; lane l's tail beats are appended to
  /// out[l].
  void finish_lanes(std::vector<BeatRecord>* out) {
    const dsp::DenormalGuard denormal_guard;
    icg_scratch_.clear();
    icg_stage_.finish(icg_scratch_);
    ecg_scratch_.clear();
    ecg_stage_.finish(ecg_scratch_);
    for (auto& rs : r_scratch_) rs.clear();
    for (const sample_t v : ecg_scratch_) qrs_.push(v, r_scratch_);
    qrs_.finish(r_scratch_);

    for (std::size_t l = 0; l < kLanes; ++l) {
      Assembler& a = assemblers_[l];
      for (const sample_t v : icg_scratch_) a.on_icg_sample(B::lane(v, l));
      a.maybe_drain_ensemble();
      for (const std::size_t r : r_scratch_[l]) a.on_r_peak(r);
      a.drain_ready(out[l]);
    }
  }

  /// Samples consumed per lane (identical across lanes, by lockstep).
  [[nodiscard]] std::size_t samples_consumed() const {
    return assemblers_[0].samples_consumed();
  }
  [[nodiscard]] std::size_t r_peak_count() const requires(kLanes == 1) {
    return assemblers_[0].r_peak_count();
  }
  [[nodiscard]] dsp::SampleRate sample_rate() const { return fs_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }
  /// The look-back window as constructed, in seconds; window_samples()
  /// is max(4, window_s()) * fs.
  [[nodiscard]] double window_s() const { return window_s_; }
  [[nodiscard]] std::size_t window_samples() const { return window_samples_; }
  /// Running mean of the impedance trace consumed so far.
  [[nodiscard]] double z_mean_ohm() const requires(kLanes == 1) {
    return assemblers_[0].z_mean_ohm();
  }

  /// Running per-session (per-lane) quality aggregate: every emitted
  /// beat's verdict plus the contact gaps detected and the recovery
  /// resets performed so far. The fleet surfaces this through its
  /// end-of-session FleetBeat.
  [[nodiscard]] const QualitySummary& quality_summary(std::size_t lane = 0) const {
    return assemblers_[lane].quality_summary();
  }

  // -- checkpoint/restore (core::Checkpoint subsystem) -----------------
  //
  // The whole carried session state — every stage's filter/detector
  // state, the look-back rings, the pending-beat and gap bookkeeping,
  // the quality aggregate and the optional ensemble template — in the
  // versioned, CRC-framed wire format of core/checkpoint.h. The
  // contract (pinned by tests and the round-trip fuzz CI job): for any
  // cut point and any chunking, checkpoint() then restore() into a
  // freshly constructed pipeline with the same configuration, then
  // resuming the stream, emits byte-identical BeatRecords to the
  // uninterrupted run — for both backends.

  /// The version-1 section list, in blob order: the stage sections, then
  /// one lane's beat-rate sections. save_state writes it, load_state
  /// reads it, and restore_compatible holds a blob to it, so a missing,
  /// extra or renamed section is refused before any state is touched.
  enum Section : std::size_t { kCfg, kEcgc, kIcgc, kQrsd, kRing, kBeat, kGaps, kQsum, kEnsb };
  static constexpr char kSections[][5] = {"CFG ", "ECGC", "ICGC", "QRSD", "RING",
                                          "BEAT", "GAPS", "QSUM", "ENSB"};

  /// Serializes the session into `w` as one section per stage group, in
  /// kSections order. The beat-rate sections are per lane: lane l's go
  /// to w.lane_writer(l), which is the writer itself for a plain
  /// StateWriter; under a lane adaptor (core::LaneStateWriter) every
  /// lane's byte stream is this same scalar layout.
  template <typename W>
  void save_state(W& w) const {
    w.begin_section(kSections[kCfg]);
    w.u8(B::kFixed ? 1 : 0);
    w.f64(fs_);
    w.u64(window_samples_);
    w.boolean(cfg_.enable_ensemble);
    w.end_section();

    w.begin_section(kSections[kEcgc]);
    ecg_stage_.save_state(w);
    w.end_section();

    w.begin_section(kSections[kIcgc]);
    icg_stage_.save_state(w);
    w.end_section();

    w.begin_section(kSections[kQrsd]);
    qrs_.save_state(w);
    w.end_section();

    for (std::size_t l = 0; l < kLanes; ++l) {
      auto& lw = w.lane_writer(l);
      const Assembler& a = assemblers_[l];

      lw.begin_section(kSections[kRing]);
      a.save_ring_body(lw);
      lw.end_section();

      lw.begin_section(kSections[kBeat]);
      a.save_beat_body(lw);
      lw.end_section();

      lw.begin_section(kSections[kGaps]);
      a.save_gaps_body(lw);
      lw.end_section();

      lw.begin_section(kSections[kQsum]);
      a.save_qsum_body(lw);
      lw.end_section();

      lw.begin_section(kSections[kEnsb]);
      a.save_ensb_body(lw);
      lw.end_section();
    }
  }

  /// Restores the session from `r`, mirroring save_state. The target
  /// must have been constructed with the same configuration (backend,
  /// sample rate, window, stage layout); any disagreement or corruption
  /// is recorded in `r` (r.ok() turns false) and leaves the pipeline in
  /// an unspecified state until a load succeeds.
  void load_state(StateReader& r) requires(kLanes == 1) {
    load_config(r);

    r.begin_section(kSections[kEcgc]);
    ecg_stage_.load_state(r);
    r.end_section();

    r.begin_section(kSections[kIcgc]);
    icg_stage_.load_state(r);
    r.end_section();

    r.begin_section(kSections[kQrsd]);
    qrs_.load_state(r);
    r.end_section();

    Assembler& a = assemblers_[0];
    r.begin_section(kSections[kRing]);
    a.load_ring_body(r);
    r.end_section();

    r.begin_section(kSections[kBeat]);
    a.load_beat_body(r);
    r.end_section();

    r.begin_section(kSections[kGaps]);
    a.load_gaps_body(r);
    r.end_section();

    r.begin_section(kSections[kQsum]);
    a.load_qsum_body(r);
    r.end_section();

    r.begin_section(kSections[kEnsb]);
    a.load_ensb_body(r);
    r.end_section();
  }

  /// Serializes the session into `blob` (replaced; its capacity is
  /// reused, so a warmed-up migration path does not allocate).
  void checkpoint_into(std::vector<std::uint8_t>& blob) const requires(kLanes == 1) {
    StateWriter w(std::move(blob));
    save_state(w);
    blob = w.take();
  }

  /// The session as a self-contained blob.
  [[nodiscard]] std::vector<std::uint8_t> checkpoint() const requires(kLanes == 1) {
    std::vector<std::uint8_t> blob;
    checkpoint_into(blob);
    return blob;
  }

  /// Whether `blob` can be restored here, checked without touching any
  /// state: its CFG matches this pipeline's construction (load_state's
  /// check), it holds exactly the kSections list, and every section's
  /// frame (bounds, CRC) is intact. A loader can still refuse a payload
  /// past this check.
  [[nodiscard]] bool restore_compatible(std::span<const std::uint8_t> blob) const
    requires(kLanes == 1)
  {
    StateReader r(blob);
    load_config(r);
    for (std::size_t k = kEcgc; k < std::size(kSections); ++k) {
      r.begin_section(kSections[k]);
      (void)r.bytes(r.section_remaining());
      r.end_section();
    }
    if (!r.at_end()) r.fail("StreamingBeatPipeline: trailing bytes after final section");
    return r.ok();
  }

  /// Restores a checkpoint() blob into this pipeline (same-configuration
  /// target; see load_state) without raising. On any refusal returns
  /// false with the reader's message in `why`; the state is then
  /// unspecified (part of the blob may be loaded) until a restore
  /// succeeds.
  [[nodiscard]] bool try_restore(std::span<const std::uint8_t> blob, std::string& why)
    requires(kLanes == 1)
  {
    StateReader r(blob);
    load_state(r);
    if (!r.at_end()) r.fail("StreamingBeatPipeline: trailing bytes after final section");
    if (!r.ok()) why = r.error();
    return r.ok();
  }

  /// try_restore() that raises its refusal as CheckpointError.
  void restore(std::span<const std::uint8_t> blob) requires(kLanes == 1) {
    std::string why;
    if (!try_restore(blob, why)) ICGKIT_THROW(CheckpointError(why));
  }

 private:
  using L = typename B::lane_backend;  ///< one lane's (scalar) backend
  using lane_t = typename L::sample_t;
  using Assembler = BeatAssembler<L>;

  /// Reads the CFG section and refuses, through r.fail(), a blob whose
  /// recorded construction differs from this pipeline's: the one CFG
  /// check load_state and restore_compatible share.
  void load_config(StateReader& r) const {
    r.begin_section(kSections[kCfg]);
    if (r.u8() != (B::kFixed ? 1 : 0))
      return r.fail("StreamingBeatPipeline: numeric-backend mismatch");
    if (r.f64() != fs_) return r.fail("StreamingBeatPipeline: sample-rate mismatch");
    if (r.u64() != window_samples_) return r.fail("StreamingBeatPipeline: window mismatch");
    if (r.boolean() != cfg_.enable_ensemble)
      return r.fail("StreamingBeatPipeline: ensemble-stage mismatch");
    r.end_section();
  }

  /// The input-staging step for sample i of every lane: Q31 quantizes
  /// it exactly once against the stage full scale (the ADC boundary),
  /// the batch backend packs the W lane streams into a SoA lane vector.
  /// The double backend reads its input in place and has none.
  [[nodiscard]] sample_t stage(const double* const* x, std::size_t i, double scale) const
    requires(!std::is_same_v<sample_t, double>)
  {
    if constexpr (kLanes > 1) {
      (void)scale;
      sample_t v{};
      for (std::size_t l = 0; l < kLanes; ++l) v.set_lane(l, x[l][i]);
      return v;
    } else {
      return B::from_real(x[0][i] / scale);
    }
  }

  dsp::SampleRate fs_;
  PipelineConfig cfg_;
  double window_s_;
  std::size_t window_samples_;
  double ecg_scale_, z_scale_, icg_scale_; ///< per-stage Q31 full scales (1 for double)

  BasicEcgCleanerStage<B> ecg_stage_;
  BasicIcgConditionerStage<B> icg_stage_;
  ecg::BasicOnlinePanTompkins<B> qrs_;
  std::array<Assembler, kLanes> assemblers_;  ///< one per lane

  std::vector<sample_t> ecg_scratch_, icg_scratch_;
  std::vector<std::size_t> r_scratch_[kLanes];  ///< per-lane R peaks
  // Two-phase push arenas: staged input copies (Q31 and batch backends),
  // the QRS front's feature stream, and the per-input cumulative-output
  // counts of each front. All reused across chunks.
  std::vector<sample_t> e_arena_, z_arena_;
  std::vector<sample_t> feat_out_;
  std::vector<std::uint32_t> icg_cum_, ecg_cum_, feat_cum_;
};

// Out of line, unlike the rest of the engine: an inline body gets split
// and re-compiled into every translation unit that pushes (the fleet,
// the C ABI, ...), each copy under that unit's inlining budget, instead
// of every caller running the one instantiation compiled with the engine
// (pipeline.cpp, batch.cpp).
template <typename B>
void BasicStreamingBeatPipeline<B>::push_lanes(const double* const* ecg_mv,
                                               const double* const* z_ohm, std::size_t n,
                                               std::vector<BeatRecord>* out) {
  if (n == 0) return;
  // One floating-point mode whichever thread drives the engine (see
  // dsp/denormal.h): the fleet's workers, the C ABI and replay agree.
  const dsp::DenormalGuard denormal_guard;

  // Phase 1: fused fronts over the whole chunk. The double backend
  // reads the caller's samples in place; the others stage them once.
  std::span<const sample_t> e, z;
  if constexpr (std::is_same_v<sample_t, double>) {
    e = {ecg_mv[0], n};
    z = {z_ohm[0], n};
  } else {
    e_arena_.clear();
    z_arena_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      e_arena_.push_back(stage(ecg_mv, i, ecg_scale_));
      z_arena_.push_back(stage(z_ohm, i, z_scale_));
    }
    e = e_arena_;
    z = z_arena_;
  }
  icg_scratch_.clear();
  icg_cum_.clear();
  icg_stage_.process_chunk(z, icg_scratch_, icg_cum_);
  ecg_scratch_.clear();
  ecg_cum_.clear();
  ecg_stage_.process_chunk(e, ecg_scratch_, ecg_cum_);
  feat_out_.clear();
  feat_cum_.clear();
  qrs_.front_chunk(ecg_scratch_, feat_out_, feat_cum_);

  // Phase 2: per-lane, per-raw-sample replay of the scalar tails,
  // consuming each front's per-input output range [cum[i-1], cum[i]).
  for (std::size_t l = 0; l < kLanes; ++l) {
    Assembler& a = assemblers_[l];
    auto& tail = qrs_.decision_tail(l);
    std::vector<std::size_t>& rs = r_scratch_[l];
    const double* ecg_raw = ecg_mv[l];
    const double* z_raw = z_ohm[l];
    std::uint32_t icg_lo = 0, ecg_lo = 0;
    for (std::size_t i = 0; i < n; ++i) {
      a.on_raw_sample(ecg_raw[i], z_raw[i], B::lane(z[i], l), [&tail] { tail.soft_reset(); });
      for (std::uint32_t k = icg_lo; k < icg_cum_[i]; ++k)
        a.on_icg_sample(B::lane(icg_scratch_[k], l));
      icg_lo = icg_cum_[i];
      a.maybe_drain_ensemble();

      rs.clear();
      for (std::uint32_t k = ecg_lo; k < ecg_cum_[i]; ++k) {
        const lane_t v = B::lane(ecg_scratch_[k], l);
        tail.note_input(v);
        const std::uint32_t f_lo = k > 0 ? feat_cum_[k - 1] : 0;
        for (std::uint32_t f = f_lo; f < feat_cum_[k]; ++f)
          tail.on_feature_sample(B::lane(feat_out_[f], l), rs);
      }
      ecg_lo = ecg_cum_[i];
      for (const std::size_t r : rs) a.on_r_peak(r);
      // Emit every beat whose aligned ICG is now complete -- done per
      // sample so the emission point (and thus the ring-buffer state it
      // reads) is identical however the input was chunked.
      a.drain_ready(out[l]);
    }
  }
}

/// The double-precision reference engine.
using StreamingBeatPipeline = BasicStreamingBeatPipeline<dsp::DoubleBackend>;

/// The firmware-arithmetic engine: the full sample-rate chain in Q1.31
/// under dsp::Q31ScalingPolicy, double only past the per-beat boundary.
using FixedStreamingBeatPipeline = BasicStreamingBeatPipeline<dsp::Q31Backend>;

// Both instantiations are compiled once, in pipeline.cpp; every other
// translation unit links against that copy instead of re-instantiating
// the whole engine.
extern template class BeatAssembler<dsp::DoubleBackend>;
extern template class BeatAssembler<dsp::Q31Backend>;
extern template class BasicStreamingBeatPipeline<dsp::DoubleBackend>;
extern template class BasicStreamingBeatPipeline<dsp::Q31Backend>;

class BeatPipeline {
 public:
  explicit BeatPipeline(dsp::SampleRate fs, const PipelineConfig& cfg = {});

  /// Processes one synchronized recording (equal-length ECG mV and
  /// impedance Ohm traces). Thin wrapper: feeds the whole recording as a
  /// single chunk through StreamingBeatPipeline and finish(), so batch
  /// and streaming BeatRecords are byte-identical by construction.
  [[nodiscard]] PipelineResult process(dsp::SignalView ecg_mv,
                                       dsp::SignalView z_ohm) const;

  [[nodiscard]] dsp::SampleRate sample_rate() const { return fs_; }
  [[nodiscard]] const PipelineConfig& config() const { return cfg_; }

 private:
  dsp::SampleRate fs_;
  PipelineConfig cfg_;
};

} // namespace icgkit::core
