// The three perfbench workloads and the per-layer ladder.
//
//   fleet_replay     closed loop, in-process SessionManager (3 workers +
//                    the pilot), 192 sessions in 64-sample chunks
//   server_realtime  open loop, loopback FleetServer (2 workers + IO
//                    thread) driven by one client thread at true realtime
//   device_q31       closed loop, 4 independent C ABI Q31 sessions, one
//                    per thread, 10-sample chunks, power-loss checkpoints
//
// Each run_* function builds the system under test several times (the
// set-up samples), measures for `seconds` after a short warm-up, then
// checks every delivered beat against an in-process reference and
// scores accuracy against the synth ground truth.
#pragma once

#include "harness.h"
#include "inputs.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seeded inputs of one workload.
struct WorkloadInputs {
  std::string workload;
  std::uint64_t seed = 0;
  std::vector<StoredRecording> recordings;
  std::size_t chunk = 64;            ///< samples per chunk the workload sends
  Backend backend = Backend::Double; ///< numeric backend of the system under test
  std::uint64_t digest = 0;          ///< input_digest of the recordings
};

/// Synthesizes the inputs of `workload` from `seed`. Throws on an
/// unknown workload name.
WorkloadInputs make_inputs(const std::string& workload, std::uint64_t seed);

/// What one measured run produced, before it becomes metrics.
struct RunOutcome {
  std::vector<double> setup_s;          ///< one entry per set-up repetition
  SlicedCounter completed;              ///< samples completed, by completion time
  SlicedSample chunk_latency_ms;        ///< by chunk offer time; failed chunks are +inf
  SlicedSample beat_latency_ms;         ///< by offer time of the emission sample's chunk
  std::uint64_t chunks_in_window = 0;
  std::uint64_t late_chunks = 0;        ///< over the realtime limit, shed or failed
  std::uint64_t attempted = 0;          ///< chunks + session opens offered
  std::uint64_t failed = 0;             ///< failed, refused or divergent operations
  std::uint64_t streams_checked = 0;
  std::uint64_t divergent_streams = 0;
  AccuracyScore accuracy;
  double peak_rss_mb = 0.0;             ///< after the measurement, before verification
  std::vector<Metric> layer;            ///< per-layer metrics the run itself yields
  std::vector<std::string> problems;    ///< human-readable correctness failures
};

RunOutcome run_fleet_replay(const WorkloadInputs& in, double seconds, Tracer& tracer);
RunOutcome run_server_realtime(const WorkloadInputs& in, double seconds, Tracer& tracer);
RunOutcome run_device_q31(const WorkloadInputs& in, double seconds, Tracer& tracer);

/// Replays the workload's own chunks through each layer's public entry
/// point, standalone, appending the per-layer metrics the workload's own
/// run does not measure (see README.md, "The ladder").
void run_ladder(const WorkloadInputs& in, Tracer& tracer, std::vector<Metric>& out);

// ---------------------------------------------------------- shared pieces

/// Warm-up excluded from every measurement window.
inline constexpr double kWarmupS = 1.0;

/// Slice lengths for the per-slice statistics (see SlicedSample): short
/// for chunks, so a host stall spoils few slices; long enough for beats
/// that a slice's p99 keeps at least ten beats beyond it on every
/// workload.
inline constexpr double kChunkSliceS = 0.1;
inline constexpr double kBeatSliceS = 0.5;

/// The three per-run sample sets, sliced over [window_start, +seconds).
inline void init_slices(RunOutcome& out, std::int64_t window_start_ns, double seconds) {
  out.completed = SlicedCounter(window_start_ns, seconds, kChunkSliceS);
  out.chunk_latency_ms = SlicedSample(window_start_ns, seconds, kChunkSliceS);
  out.beat_latency_ms = SlicedSample(window_start_ns, seconds, kBeatSliceS);
}

/// On-wire size of one framed record with a `payload`-byte body
/// (tag, length and CRC around it).
inline std::size_t frame_bytes(std::size_t payload) { return payload + 12; }

/// Framed sizes of the variable-layout server records, from the codecs.
struct WireSizes {
  std::size_t beat = 0;
  std::size_t qual = 0;
};
WireSizes wire_sizes();

} // namespace perfbench
