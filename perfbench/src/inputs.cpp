#include "inputs.h"

#include "harness.h"

#include "core/beat_serializer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perfbench {

namespace synth = icgkit::synth;
namespace core = icgkit::core;
namespace dsp = icgkit::dsp;

synth::ScenarioSpec preset_spec(const std::string& name) {
  if (name == "clean") return synth::ScenarioSpec::clean();
  if (name == "mild") return synth::ScenarioSpec::mild();
  if (name == "moderate") return synth::ScenarioSpec::moderate();
  if (name == "severe") return synth::ScenarioSpec::severe();
  throw std::invalid_argument("unknown scenario preset: " + name);
}

std::vector<StoredRecording> make_recordings(const std::vector<std::string>& presets,
                                             std::size_t per_preset, double duration_s,
                                             std::uint64_t seed) {
  std::vector<std::vector<StoredRecording>> by_preset;
  for (std::size_t pi = 0; pi < presets.size(); ++pi) {
    synth::RecordingConfig base;
    base.duration_s = duration_s;
    base.fs = kFs;
    base.session_seed = seed * 7919u + pi * 104729u;
    std::vector<synth::ScenarioReport> reports;
    std::vector<synth::Recording> recs = synth::make_corrupted_workload(
        per_preset, base, preset_spec(presets[pi]), seed * 31u + pi * 1009u + 17u, &reports);
    std::vector<StoredRecording> group;
    for (std::size_t i = 0; i < recs.size(); ++i)
      group.push_back(StoredRecording{std::move(recs[i]), std::move(reports[i]), presets[pi]});
    by_preset.push_back(std::move(group));
  }
  std::vector<StoredRecording> out;
  for (std::size_t i = 0; i < per_preset; ++i)
    for (auto& group : by_preset) out.push_back(std::move(group[i]));
  return out;
}

StoredRecording concat(const std::vector<StoredRecording>& parts) {
  StoredRecording joined;
  joined.rec.fs = kFs;
  joined.preset = parts.empty() ? "" : parts.front().preset;
  double z0 = 0.0;
  for (const StoredRecording& p : parts) {
    const std::size_t offset = joined.size();
    const double offset_s = static_cast<double>(offset) / kFs;
    joined.rec.ecg_mv.insert(joined.rec.ecg_mv.end(), p.rec.ecg_mv.begin(), p.rec.ecg_mv.end());
    joined.rec.z_ohm.insert(joined.rec.z_ohm.end(), p.rec.z_ohm.begin(), p.rec.z_ohm.end());
    for (synth::BeatTruth t : p.rec.beats) {
      t.r_time_s += offset_s;
      t.b_time_s += offset_s;
      t.c_time_s += offset_s;
      t.x_time_s += offset_s;
      joined.rec.beats.push_back(t);
    }
    for (synth::CorruptionEvent e : p.report.events) {
      e.begin += offset;
      e.end += offset;
      joined.report.events.push_back(e);
    }
    z0 += p.rec.z0_mean_ohm;
  }
  joined.rec.z0_mean_ohm = parts.empty() ? 0.0 : z0 / static_cast<double>(parts.size());
  return joined;
}

std::uint64_t input_digest(const std::vector<StoredRecording>& recs) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const StoredRecording& r : recs) {
    h = fnv1a(r.rec.ecg_mv.data(), r.rec.ecg_mv.size() * sizeof(double), h);
    h = fnv1a(r.rec.z_ohm.data(), r.rec.z_ohm.size() * sizeof(double), h);
  }
  return h;
}

void looped_slice(const StoredRecording& r, std::uint64_t from, std::size_t n,
                  std::vector<double>& ecg, std::vector<double>& z) {
  ecg.resize(n);
  z.resize(n);
  const std::size_t len = r.size();
  std::size_t pos = static_cast<std::size_t>(from % len);
  for (std::size_t i = 0; i < n; ++i) {
    ecg[i] = r.rec.ecg_mv[pos];
    z[i] = r.rec.z_ohm[pos];
    if (++pos == len) pos = 0;
  }
}

// ------------------------------------------------------------- references

std::size_t beat_byte_size() {
  static const std::size_t n = [] {
    std::vector<unsigned char> out;
    core::serialize_beat(BeatRecord{}, out);
    return out.size();
  }();
  return n;
}

namespace {
template <typename Pipeline>
Reference reference_impl(const StoredRecording& r, std::uint64_t samples, bool finish) {
  Pipeline p(kFs);
  Reference ref;
  std::vector<BeatRecord> out;
  const std::size_t len = r.size();
  for (std::uint64_t j = 0; j < samples; ++j) {
    const std::size_t k = static_cast<std::size_t>(j % len);
    p.push_into(dsp::SignalView(r.rec.ecg_mv.data() + k, 1),
                dsp::SignalView(r.rec.z_ohm.data() + k, 1), out);
    for (const BeatRecord& b : out) {
      core::serialize_beat(b, ref.bytes);
      ref.emit.push_back(j);
      ref.beats.push_back(scored(b));
    }
    out.clear();
  }
  ref.streamed_beats = ref.emit.size();
  if (finish) {
    p.finish_into(out);
    for (const BeatRecord& b : out) {
      core::serialize_beat(b, ref.bytes);
      ref.emit.push_back(std::numeric_limits<std::uint64_t>::max());
      ref.beats.push_back(scored(b));
    }
  }
  return ref;
}
} // namespace

std::size_t Reference::beats_before(std::uint64_t n) const {
  const auto end = emit.begin() + static_cast<std::ptrdiff_t>(streamed_beats);
  return static_cast<std::size_t>(std::lower_bound(emit.begin(), end, n) - emit.begin());
}

Reference reference_run(const StoredRecording& r, std::uint64_t samples, Backend backend,
                        bool finish) {
  return backend == Backend::Double
             ? reference_impl<core::StreamingBeatPipeline>(r, samples, finish)
             : reference_impl<core::FixedStreamingBeatPipeline>(r, samples, finish);
}

// ---------------------------------------------------------------- scoring

namespace {
constexpr double kMatchToleranceS = 0.100;
constexpr double kGapGraceS = 0.5;
/// Unfinished streams: truth this close to the end may still be pending.
constexpr double kPendingGuardS = 3.0;

bool near_gap(double t_local_s, const synth::ScenarioReport& report) {
  const auto lo = static_cast<std::size_t>(std::max(0.0, t_local_s - kGapGraceS) * kFs);
  const auto hi = static_cast<std::size_t>(std::max(0.0, t_local_s) * kFs) + 1;
  return report.in_dropout(lo, hi);
}
} // namespace

ScoredBeat scored(const BeatRecord& b) {
  return ScoredBeat{b.points.r, b.rr_s, b.hemo.pep_s, b.hemo.lvet_s, b.usable()};
}

double AccuracyScore::sensitivity() const {
  return observable > 0 ? static_cast<double>(matched) / static_cast<double>(observable) : 0.0;
}
double AccuracyScore::pep_mae_ms() const {
  return err_n > 0 ? 1e3 * pep_err_sum / static_cast<double>(err_n) : 0.0;
}
double AccuracyScore::lvet_mae_ms() const {
  return err_n > 0 ? 1e3 * lvet_err_sum / static_cast<double>(err_n) : 0.0;
}
double AccuracyScore::usable_fraction() const {
  return beats > 0 ? static_cast<double>(usable) / static_cast<double>(beats) : 0.0;
}

void score_stream(const StoredRecording& r, std::uint64_t samples, bool finished,
                  std::span<const ScoredBeat> beats, AccuracyScore& score) {
  const double len_s = static_cast<double>(r.size()) / kFs;
  const double end_s = static_cast<double>(samples) / kFs;
  const double truth_end_s = finished ? end_s : end_s - kPendingGuardS;

  struct Truth {
    double t_s;
    double pep_s, lvet_s;
    bool observable;
  };
  std::vector<Truth> truth;
  for (std::size_t loop = 0; static_cast<double>(loop) * len_s < end_s; ++loop) {
    const double base = static_cast<double>(loop) * len_s;
    for (const synth::BeatTruth& t : r.rec.beats) {
      const double at = base + t.r_time_s;
      if (at >= end_s) break;
      truth.push_back({at, t.pep_s, t.lvet_s,
                       at < truth_end_s && !near_gap(t.r_time_s, r.report)});
    }
  }

  // Detected R set: opening and closing R of every beat (see
  // bench_scenarios: a recovery reset drops the open R after a gap).
  std::vector<std::uint64_t> detected;
  detected.reserve(2 * beats.size());
  for (const ScoredBeat& b : beats) {
    detected.push_back(b.r);
    detected.push_back(b.r + static_cast<std::uint64_t>(std::llround(b.rr_s * kFs)));
  }
  std::sort(detected.begin(), detected.end());
  detected.erase(std::unique(detected.begin(), detected.end()), detected.end());
  std::vector<bool> used(detected.size(), false);
  const auto tol = static_cast<std::uint64_t>(kMatchToleranceS * kFs);

  for (const Truth& t : truth) {
    if (!t.observable) continue;
    ++score.observable;
    const auto want = static_cast<std::uint64_t>(std::llround(t.t_s * kFs));
    // Nearest unused detection within tolerance; ties go to the earlier.
    const auto mid = std::lower_bound(detected.begin(), detected.end(), want) - detected.begin();
    std::size_t best = detected.size();
    std::uint64_t best_dist = tol + 1;
    for (std::ptrdiff_t d = mid - 1; d >= 0 && want - detected[static_cast<std::size_t>(d)] <= tol; --d) {
      if (used[static_cast<std::size_t>(d)]) continue;
      best = static_cast<std::size_t>(d);
      best_dist = want - detected[best];
      break;
    }
    for (std::size_t d = static_cast<std::size_t>(mid); d < detected.size() && detected[d] - want <= tol; ++d) {
      if (used[d]) continue;
      if (detected[d] - want < best_dist) best = d;
      break;
    }
    if (best < detected.size()) {
      used[best] = true;
      ++score.matched;
    }
  }

  for (const ScoredBeat& b : beats) {
    ++score.beats;
    if (!b.usable) continue;
    ++score.usable;
    const double r_s = static_cast<double>(b.r) / kFs;
    // Nearest truth within tolerance; ties go to the later one.
    const auto it = std::lower_bound(truth.begin(), truth.end(), r_s,
                                     [](const Truth& t, double v) { return t.t_s < v; });
    const Truth* nearest = nullptr;
    double nearest_dist = kMatchToleranceS;
    if (it != truth.begin()) {
      const Truth& prev = *(it - 1);
      if (r_s - prev.t_s <= nearest_dist) {
        nearest = &prev;
        nearest_dist = r_s - prev.t_s;
      }
    }
    if (it != truth.end() && it->t_s - r_s <= nearest_dist) nearest = &*it;
    if (nearest == nullptr) continue;
    score.pep_err_sum += std::abs(b.pep_s - nearest->pep_s);
    score.lvet_err_sum += std::abs(b.lvet_s - nearest->lvet_s);
    ++score.err_n;
  }
}

} // namespace perfbench
