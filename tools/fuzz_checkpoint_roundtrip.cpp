// Checkpoint round-trip differential fuzzer (the CI fuzz job's driver).
//
// Each round synthesizes a randomized scenario stream (severity tier,
// subject, scenario seed and recording seed all drawn from the round
// seed), picks a random cut offset, chunk size in {1, 7, 64, 1024} and
// numeric backend, then runs the stream twice: uninterrupted, and
// checkpointed at the cut + restored into a fresh engine. The two runs
// must produce byte-identical serialized beat streams and equal quality
// summaries. Any divergence is a format or state-capture bug; the
// failing (seed, cut, chunk, tier, backend) tuple is appended to the
// repro report the CI job uploads as an artifact, and the process exits
// non-zero.
//
//   ./fuzz_checkpoint_roundtrip [--rounds N] [--seed BASE] [--report PATH]
//                               [--corpus-dir DIR]
//
// Defaults: 24 rounds, seed 1, report FUZZ_checkpoint_repro.json. A
// repro: rerun with --seed <reported seed> --rounds 1 after offsetting
// the base so the failing round is round 0 (the report lists the exact
// per-round seed).
//
// With --corpus-dir, every divergence is additionally emitted as a
// replayable flight record (.icgr): the uninterrupted reference run is
// re-recorded with the checkpoint cadence set to the failing cut, so
// `replay --verify` on the emitted file re-executes the exact
// checkpoint-at-cut comparison that diverged — no fuzzer or synth stack
// needed to reproduce, and the file can be committed straight into
// tests/data/replay_corpus to pin the regression forever.
#include "core/beat_serializer.h"
#include "core/flight_recorder.h"
#include "core/pipeline.h"
#include "synth/rng.h"
#include "synth/scenario.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace icgkit;

namespace {

struct RoundSpec {
  std::uint64_t seed = 0;       ///< this round's derived seed
  std::size_t cut = 0;          ///< checkpoint offset, samples
  std::size_t chunk = 64;       ///< push granularity
  int tier = 0;                 ///< 0 clean, 1 mild, 2 moderate, 3 severe
  bool q31 = false;             ///< numeric backend
  std::size_t subject = 0;      ///< roster index
};

template <typename Pipeline>
void feed(Pipeline& p, const synth::Recording& rec, std::size_t from, std::size_t to,
          std::size_t chunk, std::vector<core::BeatRecord>& out) {
  for (std::size_t i = from; i < to; i += chunk) {
    const std::size_t len = std::min(chunk, to - i);
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), out);
  }
}

std::vector<unsigned char> bytes_of(const std::vector<core::BeatRecord>& beats) {
  std::vector<unsigned char> out;
  for (const core::BeatRecord& b : beats) serialize_beat(b, out);
  return out;
}

/// Re-records the uninterrupted run of a diverged round as a replayable
/// .icgr whose periodic checkpoint cadence equals the failing cut, and
/// returns the file path. `replay --verify` on it re-runs the exact
/// restore-at-cut comparison that diverged.
template <typename Pipeline>
std::string emit_corpus(const synth::Recording& rec, const RoundSpec& spec,
                        const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/diverged_seed" + std::to_string(spec.seed) +
                           (spec.q31 ? "_q31" : "_double") + ".icgr";
  Pipeline p(rec.fs);
  core::FileRecorderSink sink(path);
  core::FlightRecorderConfig rcfg;
  rcfg.checkpoint_interval = spec.cut;
  rcfg.seed = spec.seed;
  rcfg.tier = spec.tier;
  rcfg.subject = spec.subject;
  rcfg.note = "fuzz_checkpoint_roundtrip divergence, cut " + std::to_string(spec.cut) +
              ", chunk " + std::to_string(spec.chunk);
  core::FlightRecorder recorder(sink, p, rcfg);
  const std::size_t n = rec.ecg_mv.size();
  std::vector<core::BeatRecord> emitted;
  for (std::size_t i = 0; i < n; i += spec.chunk) {
    const std::size_t len = std::min(spec.chunk, n - i);
    emitted.clear();
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
    recorder.on_chunk(p, dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
  }
  emitted.clear();
  p.finish_into(emitted);
  recorder.on_finish(p, emitted);
  return path;
}

template <typename Pipeline>
bool run_round(const synth::Recording& rec, const RoundSpec& spec) {
  const std::size_t n = rec.ecg_mv.size();
  Pipeline ref(rec.fs);
  std::vector<core::BeatRecord> ref_beats;
  feed(ref, rec, 0, n, spec.chunk, ref_beats);
  ref.finish_into(ref_beats);

  std::vector<core::BeatRecord> cut_beats;
  std::vector<std::uint8_t> blob;
  {
    Pipeline first(rec.fs);
    feed(first, rec, 0, spec.cut, spec.chunk, cut_beats);
    blob = first.checkpoint();
  }
  Pipeline second(rec.fs);
  second.restore(blob);
  feed(second, rec, spec.cut, n, spec.chunk, cut_beats);
  second.finish_into(cut_beats);

  return bytes_of(ref_beats) == bytes_of(cut_beats) &&
         core::summaries_identical(ref.quality_summary(), second.quality_summary());
}

} // namespace

int main(int argc, char** argv) {
  std::size_t rounds = 24;
  std::uint64_t base_seed = 1;
  std::string report_path = "FUZZ_checkpoint_repro.json";
  std::string corpus_dir;
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--rounds N] [--seed BASE] [--report PATH] [--corpus-dir DIR]\n";
    return 2;
  };
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "flag " << flag << " is missing its value\n";
      return usage();
    }
    try {
      if (flag == "--rounds") rounds = std::stoull(argv[i + 1]);
      else if (flag == "--seed") base_seed = std::stoull(argv[i + 1]);
      else if (flag == "--report") report_path = argv[i + 1];
      else if (flag == "--corpus-dir") corpus_dir = argv[i + 1];
      else {
        std::cerr << "unknown flag " << flag << "\n";
        return usage();
      }
    } catch (const std::exception&) {
      std::cerr << "flag " << flag << " needs an unsigned integer, got '"
                << argv[i + 1] << "'\n";
      return usage();
    }
  }

  std::vector<RoundSpec> failures;
  std::vector<std::string> corpus_files;
  const std::size_t chunks[] = {1, 7, 64, 1024};
  for (std::size_t round = 0; round < rounds; ++round) {
    RoundSpec spec;
    spec.seed = base_seed * 1000003ULL + round;
    synth::Rng rng(spec.seed);
    spec.tier = static_cast<int>(rng.next_u64() % 4);
    spec.subject = static_cast<std::size_t>(rng.next_u64() % 5);
    spec.chunk = chunks[rng.next_u64() % 4];
    spec.q31 = (rng.next_u64() & 1) != 0;
    const synth::Recording rec =
        synth::make_scenario_stream(spec.subject, spec.tier, spec.seed, 20.0);
    // Any offset except the degenerate empty/full stream.
    spec.cut = 1 + static_cast<std::size_t>(rng.next_u64() % (rec.ecg_mv.size() - 1));

    const bool ok = spec.q31 ? run_round<core::FixedStreamingBeatPipeline>(rec, spec)
                             : run_round<core::StreamingBeatPipeline>(rec, spec);
    std::cout << "round " << round << ": seed " << spec.seed << " tier " << spec.tier
              << " subject " << spec.subject << " chunk " << spec.chunk << " cut "
              << spec.cut << " backend " << (spec.q31 ? "q31" : "double") << " -> "
              << (ok ? "identical" : "DIVERGED") << "\n";
    if (!ok) {
      failures.push_back(spec);
      if (!corpus_dir.empty()) {
        const std::string path =
            spec.q31
                ? emit_corpus<core::FixedStreamingBeatPipeline>(rec, spec, corpus_dir)
                : emit_corpus<core::StreamingBeatPipeline>(rec, spec, corpus_dir);
        corpus_files.push_back(path);
        std::cerr << "  emitted replayable corpus file " << path << "\n";
      }
    }
  }

  if (!failures.empty()) {
    std::ofstream report(report_path);
    report << "{\n  \"failures\": [\n";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      const RoundSpec& f = failures[i];
      report << "    {\"seed\": " << f.seed << ", \"cut\": " << f.cut
             << ", \"chunk\": " << f.chunk << ", \"tier\": " << f.tier
             << ", \"subject\": " << f.subject << ", \"backend\": \""
             << (f.q31 ? "q31" : "double") << "\"";
      if (i < corpus_files.size())
        report << ", \"corpus\": \"" << corpus_files[i] << "\"";
      report << "}" << (i + 1 < failures.size() ? "," : "") << "\n";
    }
    report << "  ]\n}\n";
    std::cerr << "FUZZ FAILED: " << failures.size() << "/" << rounds
              << " rounds diverged (repro tuples in " << report_path << ")\n";
    return 1;
  }
  std::cout << "fuzz: " << rounds << " rounds, every round byte-identical\n";
  return 0;
}
