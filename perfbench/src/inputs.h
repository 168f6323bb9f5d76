// Seeded workload inputs, in-process reference runs and accuracy scoring.
//
// Inputs are synthesized once per run from --seed with the repository's
// own generators (synth::make_corrupted_workload over the ScenarioSpec
// presets); the system under test only ever sees the generated samples.
// A stored recording is replayed as a stream that loops back to its
// start, so a session can run for as long as a measurement lasts.
#pragma once

#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/scenario.h"

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using icgkit::core::BeatRecord;

inline constexpr double kFs = 250.0;

/// One synthesized, corrupted recording plus what the corruption did.
struct StoredRecording {
  icgkit::synth::Recording rec;
  icgkit::synth::ScenarioReport report;
  std::string preset;
  [[nodiscard]] std::size_t size() const { return rec.ecg_mv.size(); }
};

/// ScenarioSpec preset by name: clean, mild, moderate or severe.
icgkit::synth::ScenarioSpec preset_spec(const std::string& name);

/// `per_preset` recordings of `duration_s` for each preset, interleaved
/// (preset 0, preset 1, ..., preset 0, ...), all derived from `seed`.
std::vector<StoredRecording> make_recordings(const std::vector<std::string>& presets,
                                             std::size_t per_preset, double duration_s,
                                             std::uint64_t seed);

/// Concatenates recordings into one, shifting ground truth and
/// corruption events onto the joined timeline.
StoredRecording concat(const std::vector<StoredRecording>& parts);

/// FNV-1a digest of every sample of every recording (bit patterns).
std::uint64_t input_digest(const std::vector<StoredRecording>& recs);

/// Fills ecg/z with samples [from, from + n) of the looped stream.
void looped_slice(const StoredRecording& r, std::uint64_t from, std::size_t n,
                  std::vector<double>& ecg, std::vector<double>& z);

/// The fields of a delivered beat that accuracy scoring reads.
struct ScoredBeat {
  std::uint64_t r = 0;
  double rr_s = 0.0;
  double pep_s = 0.0;
  double lvet_s = 0.0;
  bool usable = false;
};
ScoredBeat scored(const BeatRecord& b);

// ------------------------------------------------------------- references

/// Length of one serialized beat (core::serialize_beat) in this build.
std::size_t beat_byte_size();

/// Output of an in-process reference run over the first `samples`
/// samples of a looped recording, fed one sample at a time so each
/// beat's emission sample is exact.
struct Reference {
  std::vector<unsigned char> bytes;  ///< every beat, serialized, in order
  std::vector<std::uint64_t> emit;   ///< emission sample per beat; UINT64_MAX for finish()
  std::vector<ScoredBeat> beats;     ///< every beat, as scoring reads it
  std::size_t streamed_beats = 0;    ///< beats before finish()

  /// Beats emitted before sample `n` (emission samples ascend).
  [[nodiscard]] std::size_t beats_before(std::uint64_t n) const;
};

enum class Backend { Double, Q31 };

Reference reference_run(const StoredRecording& r, std::uint64_t samples, Backend backend,
                        bool finish);

/// Calls fn(i) for every i < jobs on up to `threads` threads (work
/// stealing by atomic counter) and joins them all before returning.
template <typename Fn>
void parallel_for(std::size_t jobs, unsigned threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < jobs;) fn(i);
  };
  std::vector<std::thread> pool;
  const unsigned extra = threads > 1 ? threads - 1 : 0;
  for (unsigned t = 0; t < extra && t + 1 < jobs; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
}

// ---------------------------------------------------------------- scoring

/// Accuracy against synth ground truth with the bench_scenarios rule:
/// an observable truth R (outside contact gaps plus 0.5 s grace) is
/// detected when an unused detected R lies within 100 ms; PEP/LVET error
/// is taken over usable beats matched to the nearest truth within 100 ms.
struct AccuracyScore {
  std::size_t observable = 0;
  std::size_t matched = 0;
  std::uint64_t beats = 0, usable = 0;
  double pep_err_sum = 0.0, lvet_err_sum = 0.0;
  std::size_t err_n = 0;

  [[nodiscard]] double sensitivity() const;
  [[nodiscard]] double pep_mae_ms() const;
  [[nodiscard]] double lvet_mae_ms() const;
  [[nodiscard]] double usable_fraction() const;
};

/// Scores the beats a stream delivered over its first `samples` samples
/// of the looped recording. Unfinished streams ignore truth in the last
/// few seconds, whose beats are still inside the engine.
void score_stream(const StoredRecording& r, std::uint64_t samples, bool finished,
                  std::span<const ScoredBeat> beats, AccuracyScore& score);

} // namespace perfbench
