// Verifies the fleet memory-pool invariant: once a session's buffers
// have warmed up, pushing chunks does ZERO heap allocation — in the bare
// pipeline and through the whole fleet path (slab copy, SPSC handoff,
// result drain).
//
// This binary replaces the global operator new/delete with counting
// versions that bump core::allocation_counter() (the library-side test
// hook, see common/counting_allocator.h); AllocationProbe reads the
// delta around the measured region.
#include "common/counting_allocator.h"
#include "core/alloc_probe.h"
#include "core/batch.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace {

using namespace icgkit;
using core::AllocationProbe;
using core::FleetBeat;

constexpr std::size_t kChunk = 64;

synth::Recording make_recording(double duration_s) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 11;
  return std::move(synth::make_fleet_workload(1, cfg)[0]);
}

TEST(FleetAllocTest, HookCountsAllocations) {
  AllocationProbe probe;
  auto* p = new int(42);
  EXPECT_GE(probe.delta(), 1u);
  delete p;
}

TEST(FleetAllocTest, WarmPipelinePushesAreAllocationFree) {
  const synth::Recording rec = make_recording(40.0);
  core::StreamingBeatPipeline engine(rec.fs, {});
  std::vector<core::BeatRecord> out;
  out.reserve(256);

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  for (std::size_t i = 0; i < warmup_end; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
  }

  AllocationProbe probe;
  std::size_t beats = 0;
  for (std::size_t i = warmup_end; i + kChunk <= n; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
    beats += out.size();
  }
  EXPECT_GT(beats, 10u) << "measured region should emit beats (delineation exercised)";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up StreamingBeatPipeline::push_into must not allocate";
}

TEST(FleetAllocTest, WarmFixedPipelinePushesAreAllocationFree) {
  // The Q31 engine converts each beat window to double exactly once per
  // R-R (the shared beat-window fill in make_beat); the conversion must
  // land in the warmed scratch arena, not a fresh buffer per beat.
  const synth::Recording rec = make_recording(40.0);
  core::FixedStreamingBeatPipeline engine(rec.fs, {});
  std::vector<core::BeatRecord> out;
  out.reserve(256);

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  for (std::size_t i = 0; i < warmup_end; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
  }

  AllocationProbe probe;
  std::size_t beats = 0;
  for (std::size_t i = warmup_end; i + kChunk <= n; i += kChunk) {
    out.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + i, kChunk), out);
    beats += out.size();
  }
  EXPECT_GT(beats, 10u) << "measured region should emit beats (conversion exercised)";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up FixedStreamingBeatPipeline::push_into must not allocate";
}

TEST(FleetAllocTest, WarmSessionBatchPushesAreAllocationFree) {
  // The deferred beat tail queues per-lane pending ranges in scratch
  // arenas; once those have grown to steady state, a batched push (front
  // phase + per-lane tail drain) must be allocation-free like the scalar
  // engine it mirrors.
  constexpr std::size_t W = 4;
  const synth::Recording rec = make_recording(40.0);
  core::SessionBatch<W> batch(rec.fs);
  std::array<std::vector<core::BeatRecord>, W> out;
  for (auto& o : out) o.reserve(256);
  std::array<const double*, W> ecg{}, z{};

  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;
  const auto feed = [&](std::size_t lo, std::size_t hi) {
    std::size_t beats = 0;
    for (std::size_t i = lo; i + kChunk <= hi; i += kChunk) {
      for (std::size_t l = 0; l < W; ++l) {
        ecg[l] = rec.ecg_mv.data() + i;
        z[l] = rec.z_ohm.data() + i;
        out[l].clear();
      }
      batch.push(ecg.data(), z.data(), kChunk, out.data());
      for (const auto& o : out) beats += o.size();
    }
    return beats;
  };

  feed(0, warmup_end);
  AllocationProbe probe;
  const std::size_t beats = feed(warmup_end, n);
  EXPECT_GT(beats, 40u) << "measured region should emit beats on every lane";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up SessionBatch::push must not allocate";
}

TEST(FleetAllocTest, WarmFleetPathIsAllocationFree) {
  const synth::Recording rec = make_recording(40.0);
  core::FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_chunk = kChunk;
  core::SessionManager fleet(rec.fs, cfg);
  core::SessionHandle a = fleet.open();
  core::SessionHandle b = fleet.open();
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = rec.ecg_mv.size();
  const std::size_t warmup_end = (n / 2 / kChunk) * kChunk;

  auto feed = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i + kChunk <= hi; i += kChunk) {
      for (core::SessionHandle* s : {&a, &b})
        s->push(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                dsp::SignalView(rec.z_ohm.data() + i, kChunk), sink);
    }
    while (!fleet.idle()) fleet.poll(sink);
  };

  feed(0, warmup_end);
  sink.clear();

  AllocationProbe probe;
  feed(warmup_end, n);
  EXPECT_GT(sink.size(), 20u) << "measured region should deliver beats";
  EXPECT_EQ(probe.delta(), 0u)
      << "warmed-up fleet submit/process/poll cycle must not allocate";

  fleet.close();
  fleet.join();
}

} // namespace
