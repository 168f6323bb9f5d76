// SessionHandle façade semantics.
//
// SessionHandle is the session-facing API: move-only RAII over a fleet
// id, destructor-finish so a dropped handle cannot leak un-flushed
// engine state. These tests pin down the
// handle-specific contracts the fleet determinism suite does not touch
// — move/release lifetime, explicit open_on() placement, and
// processed() counting chunks only (control ops, refused ones included,
// must not inflate the network server's CACK stream).
#include "core/fleet.h"

#include "core/flight_recorder.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace {

using namespace icgkit;
using core::BufferRecorderSink;
using core::FleetBeat;
using core::FleetConfig;
using core::SessionHandle;
using core::SessionManager;

constexpr std::size_t kChunk = 64;

std::vector<synth::Recording> test_workload(std::size_t distinct, double duration_s) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 11;
  return synth::make_fleet_workload(distinct, cfg);
}

TEST(SessionHandleTest, MoveAndReleaseSemantics) {
  SessionManager fleet(dsp::SampleRate{250.0}, {});

  SessionHandle none;
  EXPECT_FALSE(none.valid());
  EXPECT_FALSE(static_cast<bool>(none));

  SessionHandle a = fleet.open();
  ASSERT_TRUE(a.valid());
  const std::uint32_t id_a = a.id();

  // Move construction transfers the session; the source goes invalid.
  SessionHandle b(std::move(a));
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): moved-from is the contract under test
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.id(), id_a);

  // Move assignment does the same through an existing handle.
  SessionHandle c = fleet.open();
  const std::uint32_t id_c = c.id();
  EXPECT_NE(id_c, id_a);
  c = std::move(b);
  EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(c.valid());
  EXPECT_EQ(c.id(), id_a);

  // release() detaches without finishing: the id stays registered and
  // the handle can no longer act on it.
  const std::uint32_t released = c.release();
  EXPECT_EQ(released, id_a);
  EXPECT_FALSE(c.valid());
  EXPECT_EQ(fleet.session_count(), 2u);
}

TEST(SessionHandleTest, DroppedHandleFinishesItsSession) {
  const auto workload = test_workload(1, 4.0);
  const synth::Recording& rec = workload[0];

  FleetConfig cfg;
  cfg.max_chunk = kChunk;
  SessionManager fleet(rec.fs, cfg);
  SessionHandle keeper = fleet.open();
  std::uint32_t dropped_id = 0;
  fleet.start();

  std::vector<FleetBeat> sink;
  {
    SessionHandle doomed = fleet.open();
    dropped_id = doomed.id();
    const std::size_t n = rec.ecg_mv.size();
    for (std::size_t i = 0; i + kChunk <= n; i += kChunk) {
      doomed.push(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                  dsp::SignalView(rec.z_ohm.data() + i, kChunk), sink);
    }
  }  // ~SessionHandle: the destructor must finish the streaming session

  // The destructor-enqueued finish surfaces the dropped session's
  // end_of_session record through the fan-in poll — no handle needed.
  bool summary_seen = false;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!summary_seen && std::chrono::steady_clock::now() < deadline) {
    sink.clear();
    if (fleet.poll(sink) == 0) std::this_thread::yield();
    for (const FleetBeat& fb : sink)
      if (fb.end_of_session && fb.session == dropped_id) summary_seen = true;
  }
  EXPECT_TRUE(summary_seen) << "dropped handle did not finish its session";

  sink.clear();
  fleet.run_to_completion(sink);
  std::size_t keeper_summaries = 0;
  for (const FleetBeat& fb : sink) {
    EXPECT_NE(fb.session, dropped_id) << "finished session emitted again";
    if (fb.end_of_session && fb.session == keeper.id()) ++keeper_summaries;
  }
  EXPECT_EQ(keeper_summaries, 1u);
}

TEST(SessionHandleTest, OpenOnPlacesExplicitlyAndOpenBalances) {
  FleetConfig cfg;
  cfg.workers = 4;
  SessionManager fleet(dsp::SampleRate{250.0}, cfg);

  SessionHandle h3 = fleet.open_on(3);
  SessionHandle h1 = fleet.open_on(1);
  EXPECT_EQ(h3.worker(), 3u);
  EXPECT_EQ(h1.worker(), 1u);

  // Load-aware open(): workers 0 and 2 are empty, lowest index wins.
  SessionHandle h0 = fleet.open();
  EXPECT_EQ(h0.worker(), 0u);
  EXPECT_EQ(fleet.least_loaded_worker(), 2u);
  SessionHandle h2 = fleet.open();
  EXPECT_EQ(h2.worker(), 2u);

  EXPECT_THROW((void)fleet.open_on(4), std::out_of_range);
}

TEST(SessionHandleTest, ProcessedCountsChunksNotControlOps) {
  const auto workload = test_workload(1, 6.0);
  const synth::Recording& rec = workload[0];

  FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_chunk = kChunk;
  SessionManager fleet(rec.fs, cfg);
  SessionHandle h = fleet.open_on(0);
  fleet.start();

  std::vector<FleetBeat> sink;
  const std::uint64_t kChunks = 8;
  for (std::uint64_t i = 0; i < kChunks; ++i) {
    h.push(dsp::SignalView(rec.ecg_mv.data() + i * kChunk, kChunk),
           dsp::SignalView(rec.z_ohm.data() + i * kChunk, kChunk), sink);
  }
  while (h.processed() < kChunks) fleet.poll(sink);
  EXPECT_EQ(h.processed(), kChunks);

  // Control ops run through the same work queue and bump the session's
  // internal completion counter — but processed() is the flow-control
  // count the network server's CACKs expose, so a recording start/stop
  // and a full migration must leave it exactly where the chunks put it.
  h.record_start(std::make_unique<BufferRecorderSink>(), sink);
  h.migrate_to(1, sink);
  EXPECT_EQ(h.worker(), 1u);
  EXPECT_THROW(h.migrate_to(9, sink), std::out_of_range);  // no worker 9
  EXPECT_EQ(h.worker(), 1u);
  std::unique_ptr<core::RecorderSink> back = h.record_stop(sink);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(h.processed(), kChunks)
      << "control ops leaked into the chunk flow-control counter";

  h.push(dsp::SignalView(rec.ecg_mv.data() + kChunks * kChunk, kChunk),
         dsp::SignalView(rec.z_ohm.data() + kChunks * kChunk, kChunk), sink);
  while (h.processed() < kChunks + 1) fleet.poll(sink);
  EXPECT_EQ(h.processed(), kChunks + 1);

  fleet.run_to_completion(sink);
}

}  // namespace
