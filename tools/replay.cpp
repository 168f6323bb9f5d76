// Flight-record replay driver: record, verify, time-travel and bisect
// `.icgr` session recordings (see core/flight_recorder.h for the wire
// format and docs/ARCHITECTURE.md for the ops story).
//
//   ./replay --record OUT.icgr [--seed N] [--tier T] [--backend B]
//            [--duration S] [--subject N] [--chunk N] [--interval SAMPLES]
//            [--ensemble] [--stop-at SAMPLES] [--min-beats N] [--note STR]
//       Synthesizes one scenario session (synth::make_scenario_stream,
//       the fuzzer's generator) and flight-records it. --stop-at cuts
//       the recording mid-stream (an unfinished file, the crash/power-loss
//       shape). --min-beats fails the run when the session emitted fewer
//       beats (CI uses it to pin the 1000-beat determinism session).
//
//   ./replay --verify FILE [--no-checkpoints]
//       Re-runs the recording end-to-end through a fresh engine and
//       byte-compares every emitted beat, every periodic checkpoint and
//       (when finished) the finish() tail + QualitySummary.
//
//   ./replay --seek FILE (--at-sample N | --at-beat N)
//       Restores the latest checkpoint at or before the target and
//       re-runs only the suffix, byte-comparing it to the recording.
//
//   ./replay --dump FILE [--at-sample N]
//       Reconstructs the full kernel state at the cut point and prints
//       the checkpoint section table, the config and the quality
//       summary (default cut: end of recording).
//
//   ./replay --bisect FILE [FILE2]
//       One file: localizes a self-divergence (replay vs recording) to
//       the exact chunk/checkpoint. Two files recorded from the same
//       input stream (two builds, ISAs or backends): byte-compares the
//       inputs, then narrows the first output divergence to the exact
//       chunk — the cross-build bisection mode.
//
//   ./replay --info FILE
//       Prints the parsed header and section counts (non-throwing probe).
//
// Exit codes: 0 success/identical, 1 divergence or failed expectation,
// 2 usage error, 3 structurally bad file (clean CheckpointError refusal).
#include "core/flight_recorder.h"
#include "synth/scenario.h"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace icgkit;

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "replay: cannot open '" << path << "'\n";
    std::exit(3);
  }
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

const char* tier_name(int tier) {
  switch (tier) {
    case 0: return "clean";
    case 1: return "mild";
    case 2: return "moderate";
    case 3: return "severe";
    default: return "n/a";
  }
}

struct RecordSpec {
  std::string out;
  std::uint64_t seed = 1;
  int tier = 3;
  bool q31 = false;
  bool ensemble = false;
  double duration_s = 20.0;
  std::uint64_t subject = 0;
  std::size_t chunk = 64;
  std::uint64_t interval = core::kFlightCheckpointInterval;
  std::uint64_t stop_at = 0;  ///< 0 = run to finish()
  std::uint64_t min_beats = 0;
  std::string note;
};

template <typename Pipeline>
int record_with(const RecordSpec& spec, const synth::Recording& rec) {
  core::PipelineConfig pcfg;
  pcfg.enable_ensemble = spec.ensemble;
  Pipeline engine(rec.fs, pcfg);
  core::FileRecorderSink sink(spec.out);
  core::FlightRecorderConfig rcfg;
  rcfg.checkpoint_interval = spec.interval;
  rcfg.seed = spec.seed;
  rcfg.tier = spec.tier;
  rcfg.subject = spec.subject;
  rcfg.note = spec.note.empty() ? "tools/replay --record" : spec.note;
  core::FlightRecorder recorder(sink, engine, rcfg);

  const std::size_t n = rec.ecg_mv.size();
  std::vector<core::BeatRecord> beats;
  std::uint64_t total_beats = 0;
  bool stopped = false;
  for (std::size_t i = 0; i < n; i += spec.chunk) {
    if (spec.stop_at > 0 && i >= spec.stop_at) {
      recorder.on_stop(engine);
      stopped = true;
      break;
    }
    const std::size_t len = std::min(spec.chunk, n - i);
    beats.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                     dsp::SignalView(rec.z_ohm.data() + i, len), beats);
    recorder.on_chunk(engine, dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), beats);
    total_beats += beats.size();
  }
  if (!stopped) {
    beats.clear();
    engine.finish_into(beats);
    recorder.on_finish(engine, beats);
    total_beats += beats.size();
  }

  std::cout << "recorded " << spec.out << ": " << recorder.chunks_recorded()
            << " chunks, " << total_beats << " beats, "
            << recorder.checkpoints_recorded() << " checkpoints, "
            << recorder.bytes_written() << " bytes ("
            << (spec.q31 ? "q31" : "double") << ", tier " << tier_name(spec.tier)
            << ", seed " << spec.seed << (stopped ? ", stopped mid-stream" : "")
            << ")\n";
  if (spec.min_beats > 0 && total_beats < spec.min_beats) {
    std::cerr << "replay: expected at least " << spec.min_beats
              << " beats, session emitted " << total_beats << "\n";
    return 1;
  }
  return 0;
}

int cmd_record(const RecordSpec& spec) {
  const synth::Recording rec =
      synth::make_scenario_stream(spec.subject, spec.tier, spec.seed, spec.duration_s);
  return spec.q31 ? record_with<core::FixedStreamingBeatPipeline>(spec, rec)
                  : record_with<core::StreamingBeatPipeline>(spec, rec);
}

void print_header(const core::FlightHeader& h) {
  std::cout << "  backend " << (h.backend_fixed ? "q31" : "double") << ", fs "
            << h.fs << " Hz, window " << h.window_s << " s ("
            << h.window_samples << " samples), ensemble "
            << (h.ensemble ? "on" : "off") << "\n"
            << "  checkpoint interval " << h.checkpoint_interval
            << " samples, start position " << h.start_samples << "\n"
            << "  provenance: seed " << h.seed << ", tier " << tier_name(h.tier)
            << ", subject " << h.subject
            << (h.note.empty() ? "" : (", note \"" + h.note + "\"")) << "\n";
}

int cmd_info(const std::string& path) {
  const auto file = read_file(path);
  const core::FlightProbe p = core::probe_flight(file);
  if (!p.valid) {
    std::cerr << "replay: '" << path << "' is not an intact flight record\n";
    return 3;
  }
  std::cout << "flight record " << path << " (" << file.size() << " bytes)\n";
  print_header(p.header);
  std::cout << "  " << p.chunks << " chunks, " << p.beats << " beats, "
            << p.checkpoints << " periodic checkpoints, final position "
            << p.samples << " samples, "
            << (p.has_end ? (p.finished ? "finished" : "stopped mid-stream")
                          : "unterminated")
            << "\n";
  return 0;
}

int cmd_verify(const std::string& path, bool check_checkpoints) {
  const auto file = read_file(path);
  const core::FlightVerifyReport rep = core::flight_verify(file, check_checkpoints);
  std::cout << "verify " << path << ": " << rep.chunks << " chunks, "
            << rep.beats_recorded << " recorded beats, " << rep.beats_replayed
            << " replayed beats, " << rep.samples << " samples"
            << (rep.has_end ? (rep.finished ? ", finished" : ", stopped")
                            : ", unterminated")
            << "\n";
  if (rep.ok) {
    std::cout << "verify: byte-identical replay\n";
    return 0;
  }
  if (rep.first_divergent_chunk >= 0)
    std::cout << "verify: FIRST DIVERGENT CHUNK " << rep.first_divergent_chunk << "\n";
  if (rep.first_divergent_checkpoint >= 0)
    std::cout << "verify: FIRST DIVERGENT CHECKPOINT "
              << rep.first_divergent_checkpoint << "\n";
  if (!rep.summary_match) std::cout << "verify: quality summary DIVERGED\n";
  if (!rep.tail_match) std::cout << "verify: finish() tail DIVERGED\n";
  return 1;
}

/// Maps a beat ordinal (0-based, in emission order) to the consumed-
/// samples position just after the chunk that emitted it.
std::optional<std::uint64_t> sample_of_beat(std::span<const std::uint8_t> file,
                                            std::uint64_t beat) {
  core::FlightReader rd(file);
  core::FlightReader::Event ev;
  std::uint64_t pos = rd.header().start_samples;
  std::uint64_t beats = 0;
  std::vector<unsigned char> one;
  serialize_beat(core::BeatRecord{}, one);
  while (rd.next(ev)) {
    if (ev.kind == core::FlightReader::EventKind::Chunk) {
      pos += ev.ecg.size();
      beats += ev.beat_bytes.size() / one.size();
      if (beats > beat) return pos;
    } else if (ev.kind == core::FlightReader::EventKind::End) {
      if (ev.beat_bytes.size() / one.size() + beats > beat) return ev.samples;
    }
  }
  return std::nullopt;
}

int cmd_seek(const std::string& path, std::optional<std::uint64_t> at_sample,
             std::optional<std::uint64_t> at_beat) {
  const auto file = read_file(path);
  std::uint64_t target = 0;
  if (at_sample) {
    target = *at_sample;
  } else {
    const auto pos = sample_of_beat(file, *at_beat);
    if (!pos) {
      std::cerr << "replay: recording has no beat " << *at_beat << "\n";
      return 1;
    }
    target = *pos;
  }
  const core::FlightSeekReport rep = core::flight_seek(file, target);
  std::cout << "seek " << path << " to sample " << target << ": restored at "
            << rep.restored_at << ", replayed " << rep.suffix_chunks
            << " suffix chunks (" << rep.suffix_beats << " beats)\n";
  if (rep.ok) {
    std::cout << "seek: suffix byte-identical to straight-through recording\n";
    return 0;
  }
  if (rep.first_divergent_chunk >= 0)
    std::cout << "seek: FIRST DIVERGENT CHUNK " << rep.first_divergent_chunk << "\n";
  if (!rep.summary_match) std::cout << "seek: quality summary DIVERGED\n";
  if (!rep.tail_match) std::cout << "seek: finish() tail DIVERGED\n";
  return 1;
}

int cmd_dump(const std::string& path, std::optional<std::uint64_t> at_sample) {
  const auto file = read_file(path);
  const core::FlightProbe p = core::probe_flight(file);
  if (!p.valid) {
    std::cerr << "replay: '" << path << "' is not an intact flight record\n";
    return 3;
  }
  const std::uint64_t target = at_sample.value_or(p.samples);

  std::vector<std::uint8_t> state;
  const core::FlightStateReport rep = core::flight_state_at(file, target, state);
  std::cout << "state at sample " << rep.samples << " (target " << target
            << ", " << rep.beats << " beats emitted on the way):\n";

  // Walk the reconstructed checkpoint blob's section table.
  core::StateReader r(state);
  char tag[5];
  while (r.peek_tag(tag)) {
    r.begin_section(tag);
    const std::size_t len = r.section_remaining();
    std::cout << "  section " << tag << "  " << len << " bytes";
    if (std::string(tag) == "CFG ") {
      const bool fixed = r.u8() == 1;
      const double fs = r.f64();
      const std::uint64_t window = r.u64();
      const bool ens = r.boolean();
      std::cout << "  (backend " << (fixed ? "q31" : "double") << ", fs " << fs
                << " Hz, window " << window << " samples, ensemble "
                << (ens ? "on" : "off") << ")";
    } else if (std::string(tag) == "QSUM") {
      const std::uint64_t beats = r.u64();
      const std::uint64_t usable = r.u64();
      std::uint64_t flaws = 0;
      for (std::size_t i = 0; i < core::kBeatFlawCount; ++i) flaws += r.u64();
      std::cout << "  (beats " << beats << ", usable " << usable
                << ", flaw marks " << flaws << ")";
      (void)r.bytes(r.section_remaining());
    } else {
      (void)r.bytes(r.section_remaining());
    }
    r.end_section();
    std::cout << "\n";
  }
  if (!r.ok()) throw core::CheckpointError(r.error());
  return 0;
}

int cmd_bisect(const std::string& path_a, const std::string& path_b) {
  const auto a = read_file(path_a);
  if (path_b.empty()) {
    const core::FlightVerifyReport rep = core::flight_verify(a, true);
    if (rep.ok) {
      std::cout << "bisect " << path_a << ": replay matches the recording — no divergence\n";
      return 0;
    }
    std::cout << "bisect " << path_a << ": replay diverges from the recording\n";
    if (rep.first_divergent_checkpoint >= 0)
      std::cout << "  first divergent checkpoint: ordinal "
                << rep.first_divergent_checkpoint << "\n";
    if (rep.first_divergent_chunk >= 0)
      std::cout << "  first divergent chunk: " << rep.first_divergent_chunk << "\n";
    if (!rep.summary_match) std::cout << "  quality summary diverged\n";
    if (!rep.tail_match) std::cout << "  finish() tail diverged\n";
    return 1;
  }

  const auto b = read_file(path_b);
  const core::FlightCompareReport rep = core::flight_compare(a, b);
  if (!rep.inputs_identical) {
    std::cerr << "bisect: the two recordings carry different input streams"
              << " (first mismatch at chunk " << rep.first_input_mismatch
              << ") — bisection needs recordings of the same stream\n";
    return 2;
  }
  std::cout << "bisect " << path_a << " vs " << path_b << ": "
            << rep.chunks_compared << " chunks, identical inputs\n";
  if (rep.outputs_identical) {
    std::cout << "bisect: outputs byte-identical\n";
    return 0;
  }
  if (rep.first_divergent_checkpoint >= 0)
    std::cout << "bisect: first divergent co-positioned checkpoint: ordinal "
              << rep.first_divergent_checkpoint << "\n";
  if (rep.first_divergent_chunk >= 0)
    std::cout << "bisect: FIRST DIVERGENT CHUNK " << rep.first_divergent_chunk << "\n";
  if (!rep.summary_match) std::cout << "bisect: quality summaries diverge\n";
  if (!rep.tail_match) std::cout << "bisect: finish() tails diverge\n";
  return 1;
}

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --record OUT.icgr [--seed N] [--tier clean|mild|moderate|severe]\n"
               "         [--backend double|q31] [--duration S] [--subject N] [--chunk N]\n"
               "         [--interval SAMPLES] [--ensemble] [--stop-at SAMPLES]\n"
               "         [--min-beats N] [--note STR]\n"
            << "       " << argv0 << " --verify FILE [--no-checkpoints]\n"
            << "       " << argv0 << " --seek FILE (--at-sample N | --at-beat N)\n"
            << "       " << argv0 << " --dump FILE [--at-sample N]\n"
            << "       " << argv0 << " --bisect FILE [FILE2]\n"
            << "       " << argv0 << " --info FILE\n";
  return 2;
}

int parse_tier(const std::string& s) {
  if (s == "clean") return 0;
  if (s == "mild") return 1;
  if (s == "moderate") return 2;
  if (s == "severe") return 3;
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode, file_a, file_b;
  RecordSpec spec;
  bool check_checkpoints = true;
  std::optional<std::uint64_t> at_sample, at_beat;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "flag " << flag << " is missing its value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (flag == "--record" || flag == "--verify" || flag == "--seek" ||
          flag == "--dump" || flag == "--bisect" || flag == "--info") {
        if (!mode.empty()) return usage(argv[0]);
        mode = flag;
        file_a = value();
        if (flag == "--record") spec.out = file_a;
        if (flag == "--bisect" && i + 1 < argc && argv[i + 1][0] != '-')
          file_b = argv[++i];
      } else if (flag == "--seed") spec.seed = std::stoull(value());
      else if (flag == "--tier") {
        spec.tier = parse_tier(value());
        if (spec.tier < 0) return usage(argv[0]);
      } else if (flag == "--backend") {
        const std::string b = value();
        if (b == "q31") spec.q31 = true;
        else if (b == "double") spec.q31 = false;
        else return usage(argv[0]);
      } else if (flag == "--duration") spec.duration_s = std::stod(value());
      else if (flag == "--subject") spec.subject = std::stoull(value());
      else if (flag == "--chunk") spec.chunk = std::stoull(value());
      else if (flag == "--interval") spec.interval = std::stoull(value());
      else if (flag == "--ensemble") spec.ensemble = true;
      else if (flag == "--stop-at") spec.stop_at = std::stoull(value());
      else if (flag == "--min-beats") spec.min_beats = std::stoull(value());
      else if (flag == "--note") spec.note = value();
      else if (flag == "--no-checkpoints") check_checkpoints = false;
      else if (flag == "--at-sample") at_sample = std::stoull(value());
      else if (flag == "--at-beat") at_beat = std::stoull(value());
      else {
        std::cerr << "unknown flag " << flag << "\n";
        return usage(argv[0]);
      }
    } catch (const std::invalid_argument&) {
      std::cerr << "flag " << flag << " has a malformed numeric value\n";
      return 2;
    } catch (const std::out_of_range&) {
      std::cerr << "flag " << flag << " has an out-of-range value\n";
      return 2;
    }
  }
  if (mode.empty()) return usage(argv[0]);
  if (spec.chunk == 0) return usage(argv[0]);

  try {
    if (mode == "--record") return cmd_record(spec);
    if (mode == "--info") return cmd_info(file_a);
    if (mode == "--verify") return cmd_verify(file_a, check_checkpoints);
    if (mode == "--seek") {
      if (!at_sample && !at_beat) return usage(argv[0]);
      return cmd_seek(file_a, at_sample, at_beat);
    }
    if (mode == "--dump") return cmd_dump(file_a, at_sample);
    if (mode == "--bisect") return cmd_bisect(file_a, file_b);
  } catch (const core::CheckpointError& e) {
    // The refusal path: a corrupt, truncated or mismatched file is
    // rejected at the frame with a diagnostic, never UB.
    std::cerr << "replay: refused: " << e.what() << "\n";
    return 3;
  }
  return usage(argv[0]);
}
