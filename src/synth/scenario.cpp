#include "synth/scenario.h"

#include "synth/artifacts.h"
#include "synth/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace icgkit::synth {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Independent RNG substream per (scenario seed, stage, channel): stage
// lists stay composable — editing one stage never shifts the draws of
// another — and the two channels of a Both stage get uncorrelated noise.
Rng stage_rng(std::uint64_t seed, std::size_t stage, std::size_t channel) {
  return Rng(seed * 0x9E3779B97F4A7C15ULL + 0x100000001B3ULL * (stage + 1) +
             0xD6E8FEB86659FD93ULL * channel);
}

struct Episode {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// Poisson-like episodic placement: expected_count = rate * minutes, the
// fractional part resolved by one Bernoulli draw; starts uniform over the
// recording, durations uniform in [0.5, 1.5] x mean.
std::vector<Episode> place_episodes(std::size_t n, dsp::SampleRate fs,
                                    double rate_per_min, double mean_duration_s,
                                    Rng& rng) {
  std::vector<Episode> eps;
  if (n == 0 || rate_per_min <= 0.0 || mean_duration_s <= 0.0) return eps;
  const double minutes = static_cast<double>(n) / fs / 60.0;
  const double expected = rate_per_min * minutes;
  std::size_t count = static_cast<std::size_t>(expected);
  if (rng.uniform() < expected - static_cast<double>(count)) ++count;
  for (std::size_t e = 0; e < count; ++e) {
    const double dur_s = mean_duration_s * rng.uniform(0.5, 1.5);
    const auto len = std::max<std::size_t>(2, static_cast<std::size_t>(dur_s * fs));
    const auto begin = static_cast<std::size_t>(rng.uniform() * static_cast<double>(n));
    eps.push_back({begin, std::min(n, begin + len)});
  }
  std::sort(eps.begin(), eps.end(),
            [](const Episode& a, const Episode& b) { return a.begin < b.begin; });
  return eps;
}

// Hann ramp over one episode: 0 at the edges, 1 in the middle, so bursts
// and fades ease in and out instead of switching on.
double hann_env(std::size_t i, std::size_t len) {
  if (len <= 1) return 1.0;
  return 0.5 * (1.0 - std::cos(kTwoPi * static_cast<double>(i) /
                               static_cast<double>(len - 1)));
}

// Voss-McCartney pink (1/f) noise: kRows octave-spaced white sources, row
// k redrawn every 2^k samples; the sum's spectrum is ~1/f across the
// audible decades, normalized to unit variance before scaling.
dsp::Signal pink_noise(std::size_t n, double sigma, Rng& rng) {
  constexpr std::size_t kRows = 8;
  dsp::Signal x(n);
  double rows[kRows];
  for (auto& r : rows) r = rng.normal();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < kRows; ++k)
      if (i % (std::size_t{1} << k) == 0) rows[k] = rng.normal();
    double acc = 0.0;
    for (const double r : rows) acc += r;
    x[i] = sigma * acc / std::sqrt(static_cast<double>(kRows));
  }
  return x;
}

struct StageContext {
  std::size_t stage_index;
  Channel channel;  ///< the concrete channel being corrupted
  double baseline;  ///< session baseline of this channel
};

void record_event(ScenarioReport& report, const StageContext& ctx, std::size_t begin,
                  std::size_t end, bool dropout) {
  report.events.push_back({ctx.stage_index, ctx.channel, begin, end, dropout});
}

void apply_motion_bursts(dsp::Signal& x, dsp::SampleRate fs, const MotionBurstConfig& cfg,
                         const std::vector<Episode>& eps, Rng& rng,
                         const StageContext& ctx, ScenarioReport& report) {
  for (const Episode& e : eps) {
    const std::size_t len = e.end - e.begin;
    // filtfilt inside motion_artifact needs a few filter lengths of
    // signal; pad the generated trace and keep the center, away from
    // the filtfilt edge regions.
    const std::size_t gen = std::max<std::size_t>(len, static_cast<std::size_t>(fs));
    const std::size_t offset = (gen - len) / 2;
    MotionConfig mcfg;
    mcfg.amplitude = cfg.amplitude;
    const dsp::Signal burst = motion_artifact(gen, fs, mcfg, rng);
    for (std::size_t i = 0; i < len; ++i)
      x[e.begin + i] += burst[offset + i] * hann_env(i, len);
    record_event(report, ctx, e.begin, e.end, false);
  }
}

void apply_pops(dsp::Signal& x, dsp::SampleRate fs, const ElectrodePopConfig& cfg,
                const std::vector<Episode>& eps, Rng& rng, const StageContext& ctx,
                ScenarioReport& report) {
  const std::size_t n = x.size();
  for (const Episode& e : eps) {
    const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
    const double amp = sign * cfg.amplitude * rng.uniform(0.7, 1.3);
    // Decay to < 1% of the step: the pop's effective footprint.
    const auto tail = static_cast<std::size_t>(5.0 * cfg.decay_s * fs);
    const std::size_t end = std::min(n, e.begin + std::max<std::size_t>(2, tail));
    for (std::size_t i = e.begin; i < end; ++i) {
      const double t = static_cast<double>(i - e.begin) / fs;
      x[i] += amp * std::exp(-t / cfg.decay_s);
    }
    record_event(report, ctx, e.begin, end, false);
  }
}

void apply_dropouts(dsp::Signal& x, const DropoutConfig& cfg,
                    const std::vector<Episode>& eps, const StageContext& ctx,
                    ScenarioReport& report) {
  for (const Episode& e : eps) {
    const double held = cfg.slam_to_rail
                            ? cfg.rail_value
                            : (e.begin > 0 ? x[e.begin - 1] : cfg.rail_value);
    std::fill(x.begin() + static_cast<dsp::Index>(e.begin),
              x.begin() + static_cast<dsp::Index>(e.end), held);
    record_event(report, ctx, e.begin, e.end, true);
  }
}

void apply_fades(dsp::Signal& x, const AmplitudeFadeConfig& cfg,
                 const std::vector<Episode>& eps, const StageContext& ctx,
                 ScenarioReport& report) {
  for (const Episode& e : eps) {
    const std::size_t len = e.end - e.begin;
    for (std::size_t i = 0; i < len; ++i) {
      const double gain = 1.0 - cfg.depth * hann_env(i, len);
      x[e.begin + i] = ctx.baseline + gain * (x[e.begin + i] - ctx.baseline);
    }
    record_event(report, ctx, e.begin, e.end, false);
  }
}

void apply_stage_to_channel(dsp::Signal& x, dsp::SampleRate fs, const ScenarioStage& stage,
                            const std::vector<Episode>& eps, Rng& rng,
                            const StageContext& ctx, ScenarioReport& report) {
  const std::size_t n = x.size();
  std::visit(
      [&](const auto& cfg) {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, MotionBurstConfig>) {
          apply_motion_bursts(x, fs, cfg, eps, rng, ctx, report);
        } else if constexpr (std::is_same_v<T, ElectrodePopConfig>) {
          apply_pops(x, fs, cfg, eps, rng, ctx, report);
        } else if constexpr (std::is_same_v<T, DropoutConfig>) {
          apply_dropouts(x, cfg, eps, ctx, report);
        } else if constexpr (std::is_same_v<T, MainsConfig>) {
          const dsp::Signal tone = powerline_artifact(n, fs, cfg.amplitude, cfg.mains_hz, rng);
          for (std::size_t i = 0; i < n; ++i) x[i] += tone[i];
          record_event(report, ctx, 0, n, false);
        } else if constexpr (std::is_same_v<T, BaselineDriftConfig>) {
          RespirationConfig rcfg;
          rcfg.freq_hz = cfg.freq_hz;
          rcfg.amplitude = cfg.amplitude;
          rcfg.phase_rad = rng.uniform(0.0, kTwoPi);
          const dsp::Signal drift = respiration_artifact(n, fs, rcfg, rng);
          for (std::size_t i = 0; i < n; ++i) x[i] += drift[i];
          record_event(report, ctx, 0, n, false);
        } else if constexpr (std::is_same_v<T, AdditiveNoiseConfig>) {
          if (cfg.white_sigma > 0.0) {
            const dsp::Signal w = white_noise(n, cfg.white_sigma, rng);
            for (std::size_t i = 0; i < n; ++i) x[i] += w[i];
          }
          if (cfg.pink_sigma > 0.0) {
            const dsp::Signal p = pink_noise(n, cfg.pink_sigma, rng);
            for (std::size_t i = 0; i < n; ++i) x[i] += p[i];
          }
          record_event(report, ctx, 0, n, false);
        } else if constexpr (std::is_same_v<T, AmplitudeFadeConfig>) {
          apply_fades(x, cfg, eps, ctx, report);
        }
      },
      stage.params);
}

// Episodic stages share one episode placement across channels: a contact
// gap or a motion episode is one physical event seen by every electrode,
// so a Both stage corrupts the same instants of ECG and Z (with
// channel-independent noise realizations where noise is drawn).
std::vector<Episode> stage_episodes(const ScenarioStage& stage, std::size_t n,
                                    dsp::SampleRate fs, Rng& rng) {
  return std::visit(
      [&](const auto& cfg) -> std::vector<Episode> {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, MotionBurstConfig> ||
                      std::is_same_v<T, DropoutConfig> ||
                      std::is_same_v<T, AmplitudeFadeConfig>) {
          return place_episodes(n, fs, cfg.rate_per_min, cfg.mean_duration_s, rng);
        } else if constexpr (std::is_same_v<T, ElectrodePopConfig>) {
          return place_episodes(n, fs, cfg.rate_per_min, 0.01, rng);
        } else {
          return {};  // always-on stages need no placement
        }
      },
      stage.params);
}

} // namespace

bool ScenarioReport::in_dropout(std::size_t begin, std::size_t end) const {
  for (const CorruptionEvent& e : events)
    if (e.dropout && e.begin < end && begin < e.end) return true;
  return false;
}

ScenarioReport apply_scenario(Recording& rec, const ScenarioSpec& spec,
                              std::uint64_t seed) {
  if (rec.ecg_mv.size() != rec.z_ohm.size())
    throw std::invalid_argument("apply_scenario: channel length mismatch");
  ScenarioReport report;
  const std::size_t n = rec.z_ohm.size();
  for (std::size_t s = 0; s < spec.stages.size(); ++s) {
    const ScenarioStage& stage = spec.stages[s];
    // Placement stream is channel-independent (substream channel 2), so a
    // Both stage hits identical instants on ECG and Z.
    Rng placement = stage_rng(seed, s, 2);
    const std::vector<Episode> eps = stage_episodes(stage, n, rec.fs, placement);

    const bool on_ecg = stage.channel == Channel::Ecg || stage.channel == Channel::Both;
    const bool on_z = stage.channel == Channel::Z || stage.channel == Channel::Both;
    if (on_ecg) {
      Rng rng = stage_rng(seed, s, 0);
      StageContext ctx{s, Channel::Ecg, 0.0};
      apply_stage_to_channel(rec.ecg_mv, rec.fs, stage, eps, rng, ctx, report);
    }
    if (on_z) {
      Rng rng = stage_rng(seed, s, 1);
      StageContext ctx{s, Channel::Z, rec.z0_mean_ohm};
      apply_stage_to_channel(rec.z_ohm, rec.fs, stage, eps, rng, ctx, report);
    }
  }
  return report;
}

Recording corrupt(const Recording& rec, const ScenarioSpec& spec, std::uint64_t seed) {
  Recording out = rec;
  apply_scenario(out, spec, seed);
  return out;
}

std::vector<Recording> make_corrupted_workload(std::size_t count,
                                               const RecordingConfig& base,
                                               const ScenarioSpec& spec,
                                               std::uint64_t scenario_seed,
                                               std::vector<ScenarioReport>* reports) {
  std::vector<Recording> workload = make_fleet_workload(count, base);
  if (reports != nullptr) {
    reports->clear();
    reports->reserve(workload.size());
  }
  for (std::size_t i = 0; i < workload.size(); ++i) {
    ScenarioReport r = apply_scenario(workload[i], spec, scenario_seed + i);
    if (reports != nullptr) reports->push_back(std::move(r));
  }
  return workload;
}

Recording make_scenario_stream(std::uint64_t subject, int tier, std::uint64_t seed,
                               double duration_s) {
  RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = seed;
  const std::vector<SubjectProfile> roster = paper_roster();
  const SubjectProfile& who = roster[subject % roster.size()];
  Recording rec = measure_thoracic(who, generate_source(who, cfg), 50e3);
  const ScenarioSpec spec = tier == 1   ? ScenarioSpec::mild()
                            : tier == 2 ? ScenarioSpec::moderate()
                            : tier == 3 ? ScenarioSpec::severe()
                                        : ScenarioSpec::clean();
  apply_scenario(rec, spec, seed ^ 0x5CE11A1105ULL);
  return rec;
}

// ---------------------------------------------------------------------------
// Severity presets. Amplitudes are in the thoracic recording's units
// (ECG mV, impedance Ohm); the tiers are what bench_scenarios sweeps and
// what the CI sensitivity floor is pinned against, so changing them is a
// reviewed baseline change (see bench/bench_baselines.json).
// ---------------------------------------------------------------------------

ScenarioSpec ScenarioSpec::clean() { return {}; }

ScenarioSpec ScenarioSpec::mild() {
  ScenarioSpec s;
  s.add(AdditiveNoiseConfig{.white_sigma = 0.02, .pink_sigma = 0.0}, Channel::Ecg);
  s.add(AdditiveNoiseConfig{.white_sigma = 0.005, .pink_sigma = 0.002}, Channel::Z);
  s.add(MainsConfig{.amplitude = 0.05, .mains_hz = 50.0}, Channel::Ecg);
  s.add(MainsConfig{.amplitude = 0.02, .mains_hz = 50.0}, Channel::Z);
  s.add(BaselineDriftConfig{.amplitude = 0.3, .freq_hz = 0.08}, Channel::Z);
  return s;
}

ScenarioSpec ScenarioSpec::moderate() {
  ScenarioSpec s = mild();
  s.add(MotionBurstConfig{.rate_per_min = 3.0, .mean_duration_s = 1.5, .amplitude = 0.08},
        Channel::Z);
  s.add(MotionBurstConfig{.rate_per_min = 2.0, .mean_duration_s = 1.0, .amplitude = 0.08},
        Channel::Ecg);
  s.add(ElectrodePopConfig{.rate_per_min = 1.0, .amplitude = 1.0, .decay_s = 0.15},
        Channel::Ecg);
  s.add(ElectrodePopConfig{.rate_per_min = 1.0, .amplitude = 3.0, .decay_s = 0.2},
        Channel::Z);
  s.add(AmplitudeFadeConfig{.rate_per_min = 1.0, .mean_duration_s = 3.0, .depth = 0.4},
        Channel::Z);
  s.add(DropoutConfig{.rate_per_min = 1.0, .mean_duration_s = 0.8}, Channel::Both);
  return s;
}

ScenarioSpec ScenarioSpec::severe() {
  ScenarioSpec s;
  s.add(AdditiveNoiseConfig{.white_sigma = 0.08, .pink_sigma = 0.03}, Channel::Ecg);
  s.add(AdditiveNoiseConfig{.white_sigma = 0.015, .pink_sigma = 0.008}, Channel::Z);
  s.add(MainsConfig{.amplitude = 0.2, .mains_hz = 50.0}, Channel::Ecg);
  s.add(MainsConfig{.amplitude = 0.08, .mains_hz = 50.0}, Channel::Z);
  s.add(BaselineDriftConfig{.amplitude = 0.8, .freq_hz = 0.1}, Channel::Z);
  s.add(MotionBurstConfig{.rate_per_min = 8.0, .mean_duration_s = 2.5, .amplitude = 0.25},
        Channel::Z);
  s.add(MotionBurstConfig{.rate_per_min = 6.0, .mean_duration_s = 2.0, .amplitude = 0.25},
        Channel::Ecg);
  s.add(ElectrodePopConfig{.rate_per_min = 3.0, .amplitude = 2.0, .decay_s = 0.2},
        Channel::Ecg);
  s.add(ElectrodePopConfig{.rate_per_min = 3.0, .amplitude = 8.0, .decay_s = 0.25},
        Channel::Z);
  s.add(AmplitudeFadeConfig{.rate_per_min = 2.0, .mean_duration_s = 4.0, .depth = 0.7},
        Channel::Z);
  s.add(DropoutConfig{.rate_per_min = 2.0, .mean_duration_s = 1.5}, Channel::Both);
  return s;
}

} // namespace icgkit::synth
