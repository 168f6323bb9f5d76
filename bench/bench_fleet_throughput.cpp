// Fleet throughput bench: >= 1000 concurrent StreamingBeatPipeline
// sessions on one host, swept across worker-pool sizes.
//
// Reports, per worker count: aggregate samples/sec and beats emitted;
// verifies that the 1-worker and 8-worker
// fleets produce byte-identical per-session beat streams (the sharding
// determinism contract); and writes everything to BENCH_fleet.json for
// the CI bench-regression gate.
//
// Acceptance (enforced where the hardware can express it): near-linear
// scaling from 1 to 4 workers, >= 3x samples/sec. On hosts with fewer
// than 4 cores the scaling row is still recorded but not enforced —
// CI's Release runner provides the >= 4 cores that arm the gate.
#include "core/beat_serializer.h"
#include "core/fleet.h"
#include "report/table.h"
#include "synth/recording.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

namespace {

using namespace icgkit;
using core::FleetBeat;
using core::FleetConfig;
using core::SessionHandle;
using core::SessionManager;
using core::serialize_beat;

constexpr std::size_t kChunk = 64;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const long parsed = std::atol(v);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

struct FleetRunResult {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t beats = 0;
  std::vector<std::vector<unsigned char>> streams;  ///< per-session bytes
  [[nodiscard]] double samples_per_sec() const {
    return wall_s > 0.0 ? static_cast<double>(samples) / wall_s : 0.0;
  }
};

FleetRunResult run_fleet(const std::vector<synth::Recording>& workload,
                         std::size_t sessions, std::size_t workers) {
  FleetConfig cfg;
  cfg.workers = workers;
  cfg.max_chunk = kChunk;
  const std::size_t n = workload[0].ecg_mv.size();

  SessionManager fleet(workload[0].fs, cfg);
  std::vector<SessionHandle> handles;
  handles.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());

  std::vector<FleetBeat> sink;
  sink.reserve(1 << 16);

  const auto t0 = std::chrono::steady_clock::now();
  fleet.start();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < sessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  fleet.run_to_completion(sink);
  const auto t1 = std::chrono::steady_clock::now();

  FleetRunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.samples = fleet.total_samples();
  r.beats = fleet.total_beats();

  r.streams.resize(sessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) continue;  // terminal quality record, not a beat
    serialize_beat(fb.beat, r.streams[fb.session]);
  }
  return r;
}

} // namespace

int main() {
  using namespace icgkit;

  const std::size_t sessions = env_size("ICGKIT_FLEET_SESSIONS", 1000);
  const std::size_t distinct = env_size("ICGKIT_FLEET_DISTINCT", 8);
  const double duration_s = 10.0;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  report::banner(std::cout, "Fleet throughput: sharded worker pool, " +
                                std::to_string(sessions) + " sessions");
  std::cout << "hardware threads: " << hw << ", recording: " << duration_s
            << " s @ 250 Hz, chunk: " << kChunk << " samples, distinct recordings: "
            << distinct << "\n";

  synth::RecordingConfig rcfg;
  rcfg.duration_s = duration_s;
  rcfg.session_seed = 42;
  const std::vector<synth::Recording> workload = synth::make_fleet_workload(distinct, rcfg);

  const std::size_t worker_counts[] = {1, 2, 4, 8};
  std::vector<FleetRunResult> results;
  report::Table table({"workers", "wall s", "samples/s", "beats"});
  for (const std::size_t w : worker_counts) {
    results.push_back(run_fleet(workload, sessions, w));
    const FleetRunResult& r = results.back();
    table.row()
        .add(static_cast<double>(w), 0)
        .add(r.wall_s, 2)
        .add(r.samples_per_sec(), 0)
        .add(static_cast<double>(r.beats), 0);
  }
  table.print(std::cout);

  // -- determinism: every worker count must reproduce the 1-worker bytes
  bool identical = true;
  for (std::size_t i = 1; i < results.size(); ++i)
    if (results[i].streams != results[0].streams) {
      identical = false;
      std::cout << "FAIL: " << worker_counts[i]
                << "-worker fleet output differs from 1-worker fleet\n";
    }
  if (identical)
    std::cout << "determinism: per-session beat streams byte-identical across 1/2/4/8 "
                 "workers\n";

  const double scaling_1_to_4 = results[0].samples_per_sec() > 0.0
                                    ? results[2].samples_per_sec() /
                                          results[0].samples_per_sec()
                                    : 0.0;
  const bool scaling_enforced = hw >= 4;
  const bool scaling_ok = scaling_1_to_4 >= 3.0;
  std::cout << "scaling 1 -> 4 workers: " << scaling_1_to_4 << "x (acceptance >= 3x, "
            << (scaling_enforced ? "enforced" : "not enforced: < 4 hardware threads")
            << ")\n";

  std::ofstream json("BENCH_fleet.json");
  json << "{\n  \"sessions\": " << sessions << ",\n  \"fs_hz\": 250.0,\n  \"recording_s\": "
       << duration_s << ",\n  \"chunk\": " << kChunk << ",\n  \"hardware_threads\": " << hw
       << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FleetRunResult& r = results[i];
    json << "    {\"workers\": " << worker_counts[i] << ", \"wall_s\": " << r.wall_s
         << ", \"samples_per_sec\": " << r.samples_per_sec() << ", \"beats\": " << r.beats
         << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  const bool pass = identical && (scaling_ok || !scaling_enforced);
  json << "  ],\n  \"scaling_1_to_4\": " << scaling_1_to_4
       << ",\n  \"acceptance_min_scaling_1_to_4\": 3.0,\n  \"scaling_enforced\": "
       << (scaling_enforced ? "true" : "false") << ",\n  \"identical_across_workers\": "
       << (identical ? "true" : "false") << ",\n  \"pass\": " << (pass ? "true" : "false")
       << "\n}\n";
  std::cout << "(written to BENCH_fleet.json)\n";

  return pass ? 0 : 1;
}
