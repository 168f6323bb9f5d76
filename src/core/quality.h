// Per-beat quality gating. The device is used unsupervised at the point
// of care (Section I of the paper), so every beat is screened against
// physiological plausibility before its parameters are reported — and,
// since PR 4, against signal integrity: per-beat SNR, saturation and
// flatline detectors catch the contact artifacts the scenario engine
// (synth/scenario.h) injects, and a per-session QualitySummary aggregates
// the verdicts for monitoring surfaces (fleet results, dashboards).
#pragma once

#include "core/delineator.h"
#include "dsp/types.h"

#include <cstdint>
#include <string>

namespace icgkit::core {

/// Reasons a beat can be rejected (bitmask).
enum class BeatFlaw : std::uint32_t {
  None = 0,
  InvalidDelineation = 1u << 0,
  PepOutOfRange = 1u << 1,      ///< outside [40, 200] ms
  LvetOutOfRange = 1u << 2,     ///< outside [150, 500] ms
  AmplitudeOutOfRange = 1u << 3,///< (dZ/dt)max implausible
  RrOutOfRange = 1u << 4,       ///< outside [0.3, 2.0] s
  LowSnr = 1u << 5,             ///< ICG peak vs diastolic floor below min_snr_db
  Saturated = 1u << 6,          ///< raw samples pinned at the acquisition rails
  Flatline = 1u << 7,           ///< raw samples frozen (contact gap / sample-and-hold)
};

/// Number of distinct flaw bits (size of QualitySummary::flaw_counts).
inline constexpr std::size_t kBeatFlawCount = 8;

constexpr BeatFlaw operator|(BeatFlaw a, BeatFlaw b) {
  return static_cast<BeatFlaw>(static_cast<std::uint32_t>(a) | static_cast<std::uint32_t>(b));
}
constexpr bool has_flaw(BeatFlaw set, BeatFlaw f) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(f)) != 0;
}

struct QualityConfig {
  double min_pep_s = 0.040;
  double max_pep_s = 0.200;
  double min_lvet_s = 0.150;
  double max_lvet_s = 0.500;
  double min_dzdt = 0.1;  ///< Ohm/s
  double max_dzdt = 10.0;
  double min_rr_s = 0.3;
  double max_rr_s = 2.0;

  // --- signal-integrity detectors (PR 4) -------------------------------
  /// Beat SNR floor: 20*log10(peak |ICG| / diastolic RMS) over the R-R
  /// window. Clean beats sit well above 10 dB (the diastolic floor is the
  /// O-wave recovery, ~1/10 of the C amplitude); in-band motion raises
  /// the floor toward the peak.
  double min_snr_db = 6.0;
  /// Beat rejected when more than this fraction of its raw samples sit at
  /// the acquisition rails (either channel).
  double max_saturation_fraction = 0.02;
  /// Beat rejected when more than this fraction of its raw samples are
  /// frozen (|sample-to-sample delta| under the flatline epsilon on
  /// either channel) — the signature of a sample-and-hold contact gap.
  double max_flatline_fraction = 0.25;
  /// |ECG delta| below this counts as frozen (well under any real
  /// channel's noise floor, well over Q31 quantization at 16 mV FS).
  double flatline_epsilon_mv = 1e-4;
  /// |Z delta| below this counts as frozen.
  double flatline_epsilon_ohm = 1e-5;
  /// A raw sample saturates when |value| >= margin * rail.
  double saturation_margin = 0.98;

  // --- dropout-aware recovery (StreamingBeatPipeline) ------------------
  /// Master switch for the quality-adaptive recovery: when an ECG
  /// contact gap closes, the QRS detector's adaptive thresholds are
  /// relearned from post-gap data; when an impedance gap closes, its
  /// span is quarantined and ensemble folds overlapping it are skipped
  /// (the template itself is kept), so a gap cannot poison either.
  bool enable_recovery = true;
  /// A per-channel flat run at least this long is a contact gap.
  double dropout_reset_s = 0.30;
};

/// Screens one delineated beat. BeatFlaw::None means the beat is usable.
BeatFlaw assess_beat(const BeatDelineation& beat, double rr_s, dsp::SampleRate fs,
                     const QualityConfig& cfg = {});

/// Per-beat signal-integrity metrics, measured by the streaming pipeline
/// over the beat's R-R window (raw-sample domain for saturation/flatline,
/// conditioned ICG for the SNR).
struct SignalQuality {
  double snr_db = 0.0;              ///< peak |ICG| vs diastolic RMS
  double saturation_fraction = 0.0; ///< raw samples at the rails
  double flatline_fraction = 0.0;   ///< raw samples frozen
};

/// Screens the signal-integrity metrics of one beat window.
BeatFlaw assess_signal(const SignalQuality& q, const QualityConfig& cfg = {});

/// Human-readable rendering of a flaw set ("pep-range|rr-range" etc.).
std::string describe_flaws(BeatFlaw flaws);

/// Per-session quality aggregate, accumulated beat by beat inside the
/// streaming pipeline and surfaced through the fleet's end-of-session
/// FleetBeat records. Plain counters only (trivially copyable): it rides
/// the fleet's by-value SPSC result queues without allocation.
struct QualitySummary {
  std::uint64_t beats = 0;   ///< beats emitted
  std::uint64_t usable = 0;  ///< beats with no flaw
  /// Per-flaw-bit counts, indexed by bit position (0 = InvalidDelineation
  /// ... 7 = Flatline); a beat with several flaws counts once per flaw.
  std::uint64_t flaw_counts[kBeatFlawCount] = {};
  std::uint64_t ecg_dropouts = 0;    ///< contact gaps detected on the ECG channel
  std::uint64_t z_dropouts = 0;      ///< contact gaps detected on the impedance channel
  std::uint64_t detector_resets = 0; ///< QRS threshold relearns triggered by recovery
  /// Ensemble folds skipped because the beat's segment overlapped a
  /// recorded impedance contact gap (template-poisoning protection).
  std::uint64_t ensemble_folds_skipped = 0;
  /// Beats whose SNR was actually measured (beats that scrolled out of
  /// the look-back window before delineation have no window to measure,
  /// and are excluded from the SNR statistics below).
  std::uint64_t snr_beats = 0;
  double sum_snr_db = 0.0; ///< for mean_snr_db(), over snr_beats
  double min_snr_db = 0.0; ///< worst measured beat SNR (0 until the first)

  /// Folds one emitted beat's verdict into the tallies. Pass
  /// `snr_measured = false` for beats whose window was unavailable so
  /// they do not drag the SNR statistics to zero.
  void tally(BeatFlaw flaws, const SignalQuality& q, bool snr_measured = true);

  /// Writes every field in declaration order: the one layout of the
  /// QSUM checkpoint section, the flight recorder's FINI summary and the
  /// wire QUAL payload. Duck-typed over the writer, like the kernels'
  /// save_state.
  template <typename W>
  void save_state(W& w) const {
    w.u64(beats);
    w.u64(usable);
    for (const std::uint64_t c : flaw_counts) w.u64(c);
    w.u64(ecg_dropouts);
    w.u64(z_dropouts);
    w.u64(detector_resets);
    w.u64(ensemble_folds_skipped);
    w.u64(snr_beats);
    w.f64(sum_snr_db);
    w.f64(min_snr_db);
  }

  template <typename R>
  void load_state(R& r) {
    beats = r.u64();
    usable = r.u64();
    for (std::uint64_t& c : flaw_counts) c = r.u64();
    ecg_dropouts = r.u64();
    z_dropouts = r.u64();
    detector_resets = r.u64();
    ensemble_folds_skipped = r.u64();
    snr_beats = r.u64();
    sum_snr_db = r.f64();
    min_snr_db = r.f64();
  }

  [[nodiscard]] double usable_fraction() const {
    return beats > 0 ? static_cast<double>(usable) / static_cast<double>(beats) : 0.0;
  }
  [[nodiscard]] double mean_snr_db() const {
    return snr_beats > 0 ? sum_snr_db / static_cast<double>(snr_beats) : 0.0;
  }
};

} // namespace icgkit::core
