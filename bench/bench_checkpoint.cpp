// Checkpoint/restore and live-migration characterization for the
// core::Checkpoint subsystem: blob size per backend, save/restore
// latency on a warmed-up session, migration throughput while the fleet
// is streaming under load, and the byte-identity acceptance (round trip
// and migrated-fleet-vs-pinned-fleet) — written to BENCH_checkpoint.json
// and gated by ci/check_bench_regression.py.
#include "core/beat_serializer.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "dsp/stats.h"
#include "report/table.h"
#include "synth/recording.h"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

using namespace icgkit;

namespace {

constexpr std::size_t kChunk = 64;

/// Save and restore are timed as kBatches batches of kBatchReps calls
/// each. One mean over every call cannot show a slowdown smaller than the
/// host's own drift (the same binary's single mean of 50 restores read
/// 66-82 us across five runs); the batch means' median and their 10th and
/// 90th percentiles can.
constexpr int kBatches = 60;
constexpr int kBatchReps = 20;

/// The 10th, 50th and 90th percentiles of the batch means, in us per call.
struct Timing {
  double p10 = 0.0;
  double median = 0.0;
  double p90 = 0.0;
};

template <typename Op>
Timing time_batches(Op&& op) {
  std::vector<double> means(kBatches);
  for (double& mean : means) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kBatchReps; ++i) op();
    const auto t1 = std::chrono::steady_clock::now();
    mean = std::chrono::duration<double, std::micro>(t1 - t0).count() / kBatchReps;
  }
  return {dsp::percentile(means, 10.0), dsp::percentile(means, 50.0),
          dsp::percentile(means, 90.0)};
}

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

struct BackendResult {
  std::size_t blob_bytes = 0;
  Timing save_us;
  Timing restore_us;
  bool roundtrip_identical = false;
};

/// Blob size, save/restore latency and resume byte-identity for one
/// backend, on a session checkpointed halfway through the recording.
template <typename Pipeline>
BackendResult bench_backend(const synth::Recording& rec) {
  BackendResult res;
  const std::size_t n = rec.ecg_mv.size();
  const std::size_t cut = n / 2;

  Pipeline ref(rec.fs);
  std::vector<core::BeatRecord> ref_beats;
  feed(ref, rec, 0, n, kChunk, ref_beats);
  ref.finish_into(ref_beats);

  Pipeline source(rec.fs);
  std::vector<core::BeatRecord> beats;
  feed(source, rec, 0, cut, kChunk, beats);

  // Latency: repeat into a reused buffer, the way the fleet migrates.
  std::vector<std::uint8_t> blob;
  res.save_us = time_batches([&] { source.checkpoint_into(blob); });
  res.blob_bytes = blob.size();

  Pipeline target(rec.fs);
  res.restore_us = time_batches([&] { target.restore(blob); });

  feed(target, rec, cut, n, kChunk, beats);
  target.finish_into(beats);
  res.roundtrip_identical = bytes_of(ref_beats) == bytes_of(beats);
  return res;
}

struct MigrationResult {
  std::size_t sessions = 0;
  std::size_t migrations = 0;
  double wall_s = 0.0;
  double migrations_per_s = 0.0;
  bool identical = false;
};

/// Streams `sessions` copies of the workload through a 2-worker fleet
/// while continuously rebalancing (every session round-robins across the
/// workers every few chunks), then compares every per-session stream
/// against the pinned (no-migration) fleet.
MigrationResult bench_migration(const std::vector<synth::Recording>& workload,
                                std::size_t sessions) {
  const std::size_t n = workload[0].ecg_mv.size();

  const auto run = [&](bool migrate_continuously, double& wall_s, std::size_t& moved) {
    core::FleetConfig cfg;
    cfg.workers = 2;
    cfg.max_chunk = kChunk;
    core::SessionManager fleet(workload[0].fs, cfg);
    std::vector<core::SessionHandle> handles;
    handles.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());
    fleet.start();
    std::vector<core::FleetBeat> sink;
    sink.reserve(1 << 16);
    const auto t0 = std::chrono::steady_clock::now();
    std::size_t chunk_index = 0;
    for (std::size_t i = 0; i < n; i += kChunk, ++chunk_index) {
      if (migrate_continuously && chunk_index % 4 == 3) {
        // One session moves per migration window, cycling the roster.
        const auto s = static_cast<std::uint32_t>((chunk_index / 4) % sessions);
        handles[s].migrate_to(1 - handles[s].worker() % 2, sink);
      }
      const std::size_t len = std::min(kChunk, n - i);
      for (std::size_t s = 0; s < sessions; ++s) {
        const synth::Recording& rec = workload[s % workload.size()];
        handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                        dsp::SignalView(rec.z_ohm.data() + i, len), sink);
      }
    }
    fleet.run_to_completion(sink);
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    moved = fleet.migrations();
    std::vector<std::vector<unsigned char>> streams(sessions);
    for (const core::FleetBeat& fb : sink)
      if (!fb.end_of_session) serialize_beat(fb.beat, streams[fb.session]);
    return streams;
  };

  MigrationResult res;
  res.sessions = sessions;
  double pinned_wall = 0.0;
  std::size_t none = 0;
  const auto pinned = run(false, pinned_wall, none);
  const auto rebalanced = run(true, res.wall_s, res.migrations);
  res.migrations_per_s =
      res.wall_s > 0.0 ? static_cast<double>(res.migrations) / res.wall_s : 0.0;
  res.identical = pinned == rebalanced;
  return res;
}

} // namespace

int main() {
  report::banner(std::cout, "checkpoint/restore + live migration");

  synth::RecordingConfig rcfg;
  rcfg.duration_s = 30.0;
  rcfg.session_seed = 31;
  const std::vector<synth::Recording> workload = synth::make_fleet_workload(4, rcfg);
  const synth::Recording& rec = workload[0];

  const BackendResult dbl = bench_backend<core::StreamingBeatPipeline>(rec);
  const BackendResult q31 = bench_backend<core::FixedStreamingBeatPipeline>(rec);

  report::Table table({"backend", "blob KiB", "save us p10", "save us", "save us p90",
                        "restore us p10", "restore us", "restore us p90", "round trip"});
  const auto add_row = [&](const char* name, const BackendResult& r) {
    table.row()
        .add(name)
        .add(static_cast<double>(r.blob_bytes) / 1024.0, 1)
        .add(r.save_us.p10, 1)
        .add(r.save_us.median, 1)
        .add(r.save_us.p90, 1)
        .add(r.restore_us.p10, 1)
        .add(r.restore_us.median, 1)
        .add(r.restore_us.p90, 1)
        .add(r.roundtrip_identical ? "identical" : "DIVERGED");
  };
  add_row("double", dbl);
  add_row("q31", q31);
  table.print(std::cout);
  std::cout << "(median, 10th and 90th percentile of " << kBatches << " batch means of "
            << kBatchReps << " calls)\n";

  const std::size_t kSessions = 48;
  const MigrationResult mig = bench_migration(workload, kSessions);
  std::cout << "\nlive rebalancing: " << mig.migrations << " migrations across "
            << mig.sessions << " streaming sessions in " << mig.wall_s << " s ("
            << mig.migrations_per_s << " migrations/s under load), output "
            << (mig.identical ? "byte-identical to the pinned fleet" : "DIVERGED") << "\n";

  const unsigned hw = std::thread::hardware_concurrency();
  const bool pass = dbl.roundtrip_identical && q31.roundtrip_identical && mig.identical;

  std::ofstream json("BENCH_checkpoint.json");
  json << "{\n  \"fs_hz\": 250.0,\n  \"recording_s\": " << rcfg.duration_s
       << ",\n  \"chunk\": " << kChunk
       << ",\n  \"blob_bytes_double\": " << dbl.blob_bytes
       << ",\n  \"blob_bytes_q31\": " << q31.blob_bytes
       << ",\n  \"timing_batches\": " << kBatches
       << ",\n  \"timing_batch_reps\": " << kBatchReps;
  // The median under the plain key (the gate's seek budget reads it),
  // the 10th and 90th percentiles beside it.
  const auto timing = [&](const char* key, const Timing& t) {
    json << ",\n  \"" << key << "\": " << t.median << ",\n  \"" << key << "_p10\": " << t.p10
         << ",\n  \"" << key << "_p90\": " << t.p90;
  };
  timing("save_us_double", dbl.save_us);
  timing("restore_us_double", dbl.restore_us);
  timing("save_us_q31", q31.save_us);
  timing("restore_us_q31", q31.restore_us);
  json << ",\n  \"roundtrip_identical\": "
       << (dbl.roundtrip_identical && q31.roundtrip_identical ? "true" : "false")
       << ",\n  \"migration_sessions\": " << mig.sessions
       << ",\n  \"migrations\": " << mig.migrations
       << ",\n  \"migrations_per_s\": " << mig.migrations_per_s
       << ",\n  \"migration_identical\": " << (mig.identical ? "true" : "false")
       << ",\n  \"hardware_threads\": " << hw
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "(written to BENCH_checkpoint.json)\n";
  return pass ? 0 : 1;
}
