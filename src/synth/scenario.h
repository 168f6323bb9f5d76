// Artifact-injection scenario engine: composable, seeded corruption of
// synthesized recordings.
//
// The paper's touch acquisition (Section II) is exactly the setting where
// real deployments degrade — intermittent electrode contact, motion
// bursts, mains pickup, baseline wander — yet the study substrate only
// exercises clean protocols. A ScenarioSpec describes an ordered list of
// independently parameterized, per-channel corruption stages; applying it
// to a Recording (or a whole fleet workload) produces the degraded
// streams the quality-adaptive pipeline recovery is tested against.
//
// Every stage draws from its own deterministic RNG substream derived from
// (scenario seed, stage index), so adding, removing or re-parameterizing
// one stage never changes the noise another stage injects — corruption
// severity sweeps stay comparable point to point.
//
// Stage order matters physically and is honored as listed: additive
// interference (motion, mains, drift, noise, pops) models signal-domain
// contamination, amplitude fades model coupling loss of the *dynamic*
// component, and dropouts freeze the final front-end output (a contact
// gap holds whatever the electrode last saw, artifacts included). The
// severity presets list their stages in that order.
#pragma once

#include "dsp/types.h"
#include "synth/recording.h"

#include <cstdint>
#include <variant>
#include <vector>

namespace icgkit::synth {

/// Which channel(s) of a Recording a corruption stage touches.
enum class Channel : std::uint8_t {
  Ecg,   ///< ecg_mv only
  Z,     ///< z_ohm only
  Both,  ///< both channels (independent RNG draws per channel)
};

/// Episodic motion-artifact bursts: band-limited (0.1-10 Hz, ~1/f^2
/// tilted) noise from synth::motion_artifact, windowed by a raised-cosine
/// envelope so each burst ramps in and out the way limb motion does.
struct MotionBurstConfig {
  double rate_per_min = 2.0;    ///< expected bursts per minute
  double mean_duration_s = 2.0; ///< mean burst length (uniform 0.5x-1.5x)
  double amplitude = 0.5;       ///< burst RMS, units of the host channel
};

/// Electrode-pop transients: an instantaneous step of random sign that
/// decays exponentially — the classic half-cell-potential discontinuity
/// when a dry contact slips and re-seats.
struct ElectrodePopConfig {
  double rate_per_min = 1.0;  ///< expected pops per minute
  double amplitude = 2.0;     ///< initial step height, host-channel units
  double decay_s = 0.15;      ///< exponential recovery time constant
};

/// Contact-loss dropouts with sample-and-hold gaps: for the gap duration
/// the channel repeats the last pre-gap sample (what a high-impedance
/// front end outputs when the electrode floats), optionally slamming to a
/// rail value instead.
struct DropoutConfig {
  double rate_per_min = 0.5;    ///< expected gaps per minute
  double mean_duration_s = 1.0; ///< mean gap length (uniform 0.5x-1.5x)
  bool slam_to_rail = false;    ///< rail instead of sample-and-hold
  double rail_value = 0.0;      ///< output during a slammed gap
};

/// Additive mains interference (50/60 Hz) with slow amplitude wobble.
struct MainsConfig {
  double amplitude = 0.05; ///< peak amplitude, host-channel units
  double mains_hz = 50.0;  ///< 50 Hz (EU) or 60 Hz (US)
};

/// Respiration-scale baseline drift: a quasi-sinusoidal wander (with
/// second harmonic and slow amplitude drift) well below the signal band,
/// the way breathing and electrode-gel changes move the baseline.
struct BaselineDriftConfig {
  double amplitude = 0.5; ///< drift amplitude, host-channel units
  double freq_hz = 0.08;  ///< drift fundamental (sub-respiratory)
};

/// Additive broadband noise: white Gaussian plus an optional pink (1/f)
/// component (Voss-McCartney), modelling amplifier and contact noise.
struct AdditiveNoiseConfig {
  double white_sigma = 0.01; ///< white component s.d., host-channel units
  double pink_sigma = 0.0;   ///< pink component s.d. (0 disables)
};

/// Episodic amplitude fades: the *dynamic* part of the channel (the
/// signal minus its session baseline) is scaled down by up to `depth`
/// with a raised-cosine profile — grip pressure easing off reduces the
/// coupling of cardiac dynamics without moving the baseline.
struct AmplitudeFadeConfig {
  double rate_per_min = 1.0;    ///< expected fades per minute
  double mean_duration_s = 3.0; ///< mean fade length (uniform 0.5x-1.5x)
  double depth = 0.6;           ///< max attenuation: gain dips to 1-depth
};

/// One corruption stage: parameters plus the channel(s) it applies to.
struct ScenarioStage {
  std::variant<MotionBurstConfig, ElectrodePopConfig, DropoutConfig, MainsConfig,
               BaselineDriftConfig, AdditiveNoiseConfig, AmplitudeFadeConfig>
      params;
  Channel channel = Channel::Z;
};

/// An ordered, composable list of corruption stages (applied as listed).
struct ScenarioSpec {
  std::vector<ScenarioStage> stages;

  /// Fluent append, e.g. `spec.add(MainsConfig{...}, Channel::Both)`.
  template <typename Cfg>
  ScenarioSpec& add(const Cfg& cfg, Channel ch = Channel::Z) {
    stages.push_back(ScenarioStage{cfg, ch});
    return *this;
  }

  // Severity presets used by bench_scenarios and the recovery tests.
  // Amplitudes are in the *thoracic* recording's units (Ohm / mV).
  static ScenarioSpec clean();    ///< no stages: applying it is a no-op
  static ScenarioSpec mild();     ///< light noise + mains + drift
  static ScenarioSpec moderate(); ///< adds motion bursts, pops, one short gap
  static ScenarioSpec severe();   ///< heavy everything, long gaps
};

/// What one applied stage did to one channel, in sample indices. For
/// always-on stages (mains, drift, noise) the interval is the whole
/// recording; episodic stages report each episode separately.
struct CorruptionEvent {
  std::size_t stage = 0;  ///< index into ScenarioSpec::stages
  Channel channel = Channel::Z;
  std::size_t begin = 0;  ///< first corrupted sample
  std::size_t end = 0;    ///< one past the last corrupted sample
  bool dropout = false;   ///< true when the event is a contact gap
};

/// Everything apply_scenario did, for tests and for bench scoring (e.g.
/// excluding ground-truth beats that fall inside a contact gap from the
/// sensitivity denominator — there is no signal to detect there).
struct ScenarioReport {
  std::vector<CorruptionEvent> events;

  /// True when [begin, end) of the ECG or Z channel overlaps a dropout.
  [[nodiscard]] bool in_dropout(std::size_t begin, std::size_t end) const;
};

/// Applies the scenario to `rec` in place. Deterministic: the same
/// (recording, spec, seed) triple always produces the same corruption.
ScenarioReport apply_scenario(Recording& rec, const ScenarioSpec& spec,
                              std::uint64_t seed);

/// Copying convenience: returns the corrupted recording, original intact.
Recording corrupt(const Recording& rec, const ScenarioSpec& spec, std::uint64_t seed);

/// Fleet-workload wrapper: `count` thoracic recordings from
/// make_fleet_workload, each corrupted with its own per-recording seed
/// (base seed + index) so no two sessions degrade identically. Reports
/// are returned in workload order when `reports` is non-null.
std::vector<Recording> make_corrupted_workload(std::size_t count,
                                               const RecordingConfig& base,
                                               const ScenarioSpec& spec,
                                               std::uint64_t scenario_seed,
                                               std::vector<ScenarioReport>* reports = nullptr);

/// The one scenario stream tools/replay --record, the checkpoint
/// round-trip fuzzer and bench_replay all synthesize: roster subject
/// `subject` (modulo the roster size) for `duration_s` at 250 Hz under
/// recording seed `seed`, measured through the thoracic electrodes at
/// 50 kHz, then corrupted at severity `tier` (0 clean, 1 mild,
/// 2 moderate, 3 severe; any other value is clean) under scenario seed
/// `seed ^ 0x5CE11A1105`. Deterministic in its arguments, so a flight
/// record's provenance (seed, tier, subject) regenerates its input.
Recording make_scenario_stream(std::uint64_t subject, int tier, std::uint64_t seed,
                               double duration_s);

} // namespace icgkit::synth
