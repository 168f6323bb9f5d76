// SIMD batch backend bench: lockstep multi-session lanes vs the scalar
// per-session pipeline, plus the fleet running in batch mode.
//
// Single-thread leg: the same 8-session workload is pushed through
//   (a) 8 scalar StreamingBeatPipelines fed back-to-back,
//   (b) two SessionBatch<4> groups,
//   (c) one SessionBatch<8> group,
// and the aggregate samples/sec compared. The win comes from SoA lanes
// amortizing every filter coefficient load across W sessions; correctness
// is not assumed — the bench serializes every beat stream and checks the
// batched outputs byte-identical to scalar before reporting speedups.
//
// Fleet leg: the same session count through SessionManager at a fixed
// worker count, scalar (batch_width 1) vs batched (batch_width 8).
//
// Acceptance is ISA-aware: byte identity is gated everywhere; the W=4
// floor and the relative W=8 >= W=4 floor arm on AVX2 or wider (the
// two-half PairLanes64 lowering keeps W=8 register-resident on plain
// AVX2, see dsp/simd.h), the absolute W=8 floor on AVX-512. Floors are
// end-to-end pipeline speedups, Amdahl-limited by the per-lane scalar
// beat tail; per-kernel lane wins are measured in bench_micro_kernels.
// The front-vs-tail wall-time split is reported, not inferred: in a pass
// of its own after the gated runs, the three lockstep W=8 fronts are
// timed standalone on each chunk and the tail is the W=8 push time minus
// theirs (the split the perfbench ladder takes).
#include "core/batch.h"
#include "core/beat_serializer.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "dsp/backend.h"
#include "dsp/denormal.h"
#include "dsp/simd.h"
#include "ecg/pan_tompkins.h"
#include "report/table.h"
#include "synth/recording.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace icgkit;
using core::BeatRecord;
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

struct Leg {
  double wall_s = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t beats = 0;
  std::vector<std::vector<unsigned char>> streams;  ///< per-session bytes
  [[nodiscard]] double sps() const {
    return wall_s > 0.0 ? static_cast<double>(samples) / wall_s : 0.0;
  }
};

// (a) scalar reference: sessions fed back-to-back on one thread.
Leg run_scalar(const std::vector<synth::Recording>& workload, std::size_t sessions) {
  std::vector<core::StreamingBeatPipeline> pipes;
  pipes.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s)
    pipes.emplace_back(workload[0].fs, core::PipelineConfig{});
  std::vector<std::vector<BeatRecord>> beats(sessions);

  Leg leg;
  const std::size_t n = workload[0].ecg_mv.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < sessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      pipes[s].push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                         dsp::SignalView(rec.z_ohm.data() + i, len), beats[s]);
      leg.samples += len;
    }
  }
  for (std::size_t s = 0; s < sessions; ++s) pipes[s].finish_into(beats[s]);
  const auto t1 = std::chrono::steady_clock::now();
  leg.wall_s = std::chrono::duration<double>(t1 - t0).count();

  leg.streams.resize(sessions);
  for (std::size_t s = 0; s < sessions; ++s)
    for (const BeatRecord& b : beats[s]) serialize_beat(b, leg.streams[s]);
  return leg;
}

// (b)/(c) batched: sessions grouped into lockstep SessionBatch<W> lanes.
Leg run_batched(const std::vector<synth::Recording>& workload, std::size_t sessions,
                std::size_t width) {
  const std::size_t groups = sessions / width;
  std::vector<std::unique_ptr<core::SessionBatchBase>> batches;
  for (std::size_t g = 0; g < groups; ++g)
    batches.push_back(core::make_session_batch(width, workload[0].fs, core::PipelineConfig{}));
  std::vector<std::vector<BeatRecord>> beats(sessions);
  std::vector<const double*> ecg_ptrs(width), z_ptrs(width);

  Leg leg;
  const std::size_t n = workload[0].ecg_mv.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t l = 0; l < width; ++l) {
        const std::size_t s = g * width + l;
        const synth::Recording& rec = workload[s % workload.size()];
        ecg_ptrs[l] = rec.ecg_mv.data() + i;
        z_ptrs[l] = rec.z_ohm.data() + i;
      }
      batches[g]->push(ecg_ptrs.data(), z_ptrs.data(), len, beats.data() + g * width);
      leg.samples += len * width;
    }
  }
  for (std::size_t g = 0; g < groups; ++g)
    batches[g]->finish(beats.data() + g * width);
  const auto t1 = std::chrono::steady_clock::now();
  leg.wall_s = std::chrono::duration<double>(t1 - t0).count();

  leg.streams.resize(sessions);
  for (std::size_t s = 0; s < sessions; ++s) {
    leg.beats += beats[s].size();
    for (const BeatRecord& b : beats[s]) serialize_beat(b, leg.streams[s]);
  }
  return leg;
}

// Front-vs-tail split of (c), the way the perfbench ladder takes it:
// the three lockstep fronts a SessionBatch<8> push runs (ICG
// conditioner, ECG cleaner, QRS feature chain) are timed standalone on
// each chunk, and the tail is the push time minus theirs. Both are
// clocked chunk by chunk in one pass, so a host slowdown lands in both
// alike. Chunks are packed into lane vectors for the standalone fronts
// untimed, so SoA staging counts toward the tail, as it does in push().
struct Split {
  double push_s = 0.0, front_s = 0.0;
  std::uint64_t beats = 0;
};

Split run_split_w8(const std::vector<synth::Recording>& workload, std::size_t sessions) {
  constexpr std::size_t W = 8;
  using B = dsp::BatchBackend<W>;
  using Clock = std::chrono::steady_clock;
  const double fs = workload[0].fs;
  const core::PipelineConfig cfg{};
  const std::size_t n = workload[0].ecg_mv.size();
  std::vector<B::sample_t> e, z, icg, ecg, feat;
  std::vector<std::uint32_t> icg_cum, ecg_cum, feat_cum;
  std::array<std::vector<BeatRecord>, W> beats;
  std::array<const double*, W> ecg_ptrs{}, z_ptrs{};
  Split split;
  for (std::size_t g = 0; g < sessions / W; ++g) {
    core::SessionBatch<W> batch(fs, cfg);
    core::BasicIcgConditionerStage<B> icg_stage(fs, cfg.icg_filter);
    core::BasicEcgCleanerStage<B> ecg_stage(fs, cfg.ecg_filter);
    ecg::BasicOnlinePanTompkins<B> qrs(fs, cfg.qrs);
    for (std::size_t i = 0; i < n; i += kChunk) {
      const std::size_t len = std::min(kChunk, n - i);
      e.clear();
      z.clear();
      for (std::size_t l = 0; l < W; ++l) {
        const synth::Recording& rec = workload[(g * W + l) % workload.size()];
        ecg_ptrs[l] = rec.ecg_mv.data() + i;
        z_ptrs[l] = rec.z_ohm.data() + i;
      }
      for (std::size_t k = 0; k < len; ++k) {
        B::sample_t ev{}, zv{};
        for (std::size_t l = 0; l < W; ++l) {
          ev.set_lane(l, ecg_ptrs[l][k]);
          zv.set_lane(l, z_ptrs[l][k]);
        }
        e.push_back(ev);
        z.push_back(zv);
      }
      const auto t0 = Clock::now();
      icg.clear();
      icg_cum.clear();
      icg_stage.process_chunk(z, icg, icg_cum);
      ecg.clear();
      ecg_cum.clear();
      ecg_stage.process_chunk(e, ecg, ecg_cum);
      feat.clear();
      feat_cum.clear();
      qrs.front_chunk(ecg, feat, feat_cum);
      const auto t1 = Clock::now();
      batch.push(ecg_ptrs.data(), z_ptrs.data(), len, beats.data());
      const auto t2 = Clock::now();
      split.front_s += std::chrono::duration<double>(t1 - t0).count();
      split.push_s += std::chrono::duration<double>(t2 - t1).count();
    }
    for (auto& b : beats) {
      split.beats += b.size();
      b.clear();
    }
  }
  return split;
}

// Fleet leg: SessionManager at a fixed worker count, scalar vs batched.
Leg run_fleet(const std::vector<synth::Recording>& workload, std::size_t sessions,
              std::size_t workers, std::size_t batch_width) {
  FleetConfig cfg;
  cfg.workers = workers;
  cfg.max_chunk = kChunk;
  cfg.batch_width = batch_width;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<SessionHandle> handles;
  handles.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());

  std::vector<FleetBeat> sink;
  sink.reserve(1 << 16);
  const std::size_t n = workload[0].ecg_mv.size();
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

  Leg leg;
  leg.wall_s = std::chrono::duration<double>(t1 - t0).count();
  leg.samples = fleet.total_samples();
  leg.streams.resize(sessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) continue;
    serialize_beat(fb.beat, leg.streams[fb.session]);
  }
  return leg;
}

} // namespace

int main() {
  using namespace icgkit;

  const std::size_t sessions = env_size("ICGKIT_BATCH_SESSIONS", 8);  // multiple of 8
  const std::size_t fleet_sessions = env_size("ICGKIT_BATCH_FLEET_SESSIONS", 64);
  const std::size_t fleet_workers = env_size("ICGKIT_BATCH_FLEET_WORKERS", 2);
  const double duration_s =
      static_cast<double>(env_size("ICGKIT_BATCH_DURATION_S", 20));
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  report::banner(std::cout, "SIMD batch backend: lockstep lanes vs scalar sessions");
  std::cout << "lane ISA: " << dsp::lane_isa() << ", sessions: " << sessions
            << ", recording: " << duration_s << " s @ 250 Hz, chunk: " << kChunk
            << " samples\n";

  synth::RecordingConfig rcfg;
  rcfg.duration_s = duration_s;
  rcfg.session_seed = 42;
  const std::vector<synth::Recording> workload = synth::make_fleet_workload(4, rcfg);

  // Same FPU mode as the fleet's worker threads, so the scalar and
  // batched legs are compared under identical denormal handling.
  dsp::DenormalGuard denormal_guard;

  // Warm-up pass (untimed) so page faults and frequency ramp don't land
  // in whichever leg runs first.
  (void)run_scalar(workload, std::min<std::size_t>(sessions, 4));

  const Leg scalar = run_scalar(workload, sessions);
  const Leg w4 = run_batched(workload, sessions, 4);
  const Leg w8 = run_batched(workload, sessions, 8);

  const bool identical = w4.streams == scalar.streams && w8.streams == scalar.streams;
  const double speedup_w4 = scalar.sps() > 0.0 ? w4.sps() / scalar.sps() : 0.0;
  const double speedup_w8 = scalar.sps() > 0.0 ? w8.sps() / scalar.sps() : 0.0;

  report::Table table({"mode", "wall s", "samples/s", "speedup"});
  table.row().add(std::string("scalar")).add(scalar.wall_s, 3).add(scalar.sps(), 0).add(1.0, 2);
  table.row().add("batch W=4").add(w4.wall_s, 3).add(w4.sps(), 0).add(speedup_w4, 2);
  table.row().add("batch W=8").add(w8.wall_s, 3).add(w8.sps(), 0).add(speedup_w8, 2);
  table.print(std::cout);
  std::cout << (identical
                    ? "identity: batched beat streams byte-identical to scalar\n"
                    : "FAIL: batched beat streams differ from scalar\n");

  // Fleet leg: fixed worker count, scalar vs batch_width = 8.
  const Leg fleet_scalar = run_fleet(workload, fleet_sessions, fleet_workers, 1);
  const Leg fleet_batched = run_fleet(workload, fleet_sessions, fleet_workers, 8);
  const bool fleet_identical = fleet_batched.streams == fleet_scalar.streams;
  const double fleet_speedup =
      fleet_scalar.sps() > 0.0 ? fleet_batched.sps() / fleet_scalar.sps() : 0.0;

  report::Table ftable({"fleet mode", "wall s", "samples/s", "speedup"});
  ftable.row()
      .add(std::string("scalar"))
      .add(fleet_scalar.wall_s, 3)
      .add(fleet_scalar.sps(), 0)
      .add(1.0, 2);
  ftable.row()
      .add("batch W=8")
      .add(fleet_batched.wall_s, 3)
      .add(fleet_batched.sps(), 0)
      .add(fleet_speedup, 2);
  ftable.print(std::cout);
  std::cout << (fleet_identical
                    ? "identity: batched fleet byte-identical to scalar fleet\n"
                    : "FAIL: batched fleet output differs from scalar fleet\n");

  // Front-vs-tail split of the W=8 engine: tail = push - fronts.
  const Split split = run_split_w8(workload, sessions);
  const double front_s = split.front_s;
  const double tail_s = std::max(0.0, split.push_s - front_s);
  const double phase_s = front_s + tail_s;
  const double front_fraction = phase_s > 0.0 ? front_s / phase_s : 0.0;
  const double tail_us_per_beat =
      split.beats > 0 ? tail_s * 1e6 / static_cast<double>(split.beats) : 0.0;
  report::Table ptable({"phase (W=8)", "wall s", "fraction"});
  ptable.row().add(std::string("lockstep front")).add(front_s, 3).add(front_fraction, 3);
  ptable.row().add("per-lane tail").add(tail_s, 3).add(1.0 - front_fraction, 3);
  ptable.print(std::cout);
  std::cout << "tail cost: " << tail_us_per_beat << " us/beat over " << split.beats
            << " beats\n";

  // Speedup floors are an ISA property. W=4 is one AVX2 register, so any
  // AVX2+ build is held to its floor. The two-half PairLanes64 lowering
  // keeps W=8 register-resident on plain AVX2 too, so the relative
  // W=8 >= W=4 floor arms on every AVX2+ build; the absolute W=8 floor
  // arms on AVX-512 (one zmm per lane vector). The floors are end-to-end
  // pipeline numbers, Amdahl-limited by the per-lane scalar beat tail;
  // the batched filter front itself measures ~4x (W=4, AVX2) to ~6x
  // (W=8, AVX-512) in bench_micro_kernels.
  // The W=4 floor is tiered: the fused front sped the SCALAR baseline up
  // on plain AVX2 too (the denominator moved), so the ratio floor there
  // is lower than on AVX-512 even though absolute batched throughput is
  // comparable.
  const std::string isa = dsp::lane_isa();
  const bool w4_enforced = isa == "avx2" || isa == "avx512";
  const bool w8_enforced = isa == "avx512";
  const bool w8_rel_enforced = isa == "avx2" || isa == "avx512";
  const double kMinSpeedupW4 = isa == "avx512" ? 3.0 : 2.5;
  constexpr double kMinSpeedupW8 = 3.0, kMinW8OverW4 = 1.0;
  const double w8_over_w4 = speedup_w4 > 0.0 ? speedup_w8 / speedup_w4 : 0.0;
  const bool w4_ok = speedup_w4 >= kMinSpeedupW4;
  const bool w8_ok = speedup_w8 >= kMinSpeedupW8;
  const bool w8_rel_ok = w8_over_w4 >= kMinW8OverW4;
  std::cout << "speedup acceptance: W=4 >= " << kMinSpeedupW4 << "x "
            << (w4_enforced ? (w4_ok ? "met" : "NOT MET") : "not enforced") << ", W=8 >= "
            << kMinSpeedupW8 << "x "
            << (w8_enforced ? (w8_ok ? "met" : "NOT MET")
                            : "not enforced (lane ISA: " + isa + ")")
            << ", W=8/W=4 >= " << kMinW8OverW4 << "x "
            << (w8_rel_enforced ? (w8_rel_ok ? "met" : "NOT MET") : "not enforced")
            << "\n";

  const bool pass = identical && fleet_identical && (w4_ok || !w4_enforced) &&
                    (w8_ok || !w8_enforced) && (w8_rel_ok || !w8_rel_enforced);

  std::ofstream json("BENCH_batch.json");
  json << "{\n  \"simd\": \"" << isa << "\",\n  \"hardware_threads\": " << hw
       << ",\n  \"sessions\": " << sessions << ",\n  \"recording_s\": " << duration_s
       << ",\n  \"chunk\": " << kChunk
       << ",\n  \"scalar_samples_per_sec\": " << scalar.sps()
       << ",\n  \"w4_samples_per_sec\": " << w4.sps()
       << ",\n  \"w8_samples_per_sec\": " << w8.sps()
       << ",\n  \"speedup_w4\": " << speedup_w4
       << ",\n  \"speedup_w8\": " << speedup_w8
       << ",\n  \"w8_over_w4\": " << w8_over_w4
       << ",\n  \"acceptance_min_speedup_w4\": " << kMinSpeedupW4
       << ",\n  \"acceptance_min_speedup_w8\": " << kMinSpeedupW8
       << ",\n  \"acceptance_min_w8_over_w4\": " << kMinW8OverW4
       << ",\n  \"w4_enforced\": " << (w4_enforced ? "true" : "false")
       << ",\n  \"w8_enforced\": " << (w8_enforced ? "true" : "false")
       << ",\n  \"w8_rel_enforced\": " << (w8_rel_enforced ? "true" : "false")
       << ",\n  \"batch_identical\": " << (identical ? "true" : "false")
       << ",\n  \"profile\": {\"width\": 8, \"front_s\": " << front_s
       << ", \"tail_s\": " << tail_s << ", \"front_fraction\": " << front_fraction
       << ", \"tail_fraction\": " << 1.0 - front_fraction
       << ", \"beats\": " << split.beats
       << ", \"tail_us_per_beat\": " << tail_us_per_beat << "}"
       << ",\n  \"fleet\": {\"sessions\": " << fleet_sessions
       << ", \"workers\": " << fleet_workers
       << ", \"scalar_samples_per_sec\": " << fleet_scalar.sps()
       << ", \"batched_samples_per_sec\": " << fleet_batched.sps()
       << ", \"speedup\": " << fleet_speedup
       << ", \"identical\": " << (fleet_identical ? "true" : "false") << "}"
       << ",\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  std::cout << "(written to BENCH_batch.json)\n";

  return pass ? 0 : 1;
}
