// Fleet determinism and plumbing.
//
// The contract under test: a fleet of K sessions fed identical chunk
// schedules produces byte-identical per-session beat streams whatever
// the worker count (1 vs 8), and each stream equals what a directly-fed
// StreamingBeatPipeline emits. Runs under the Debug ASan/UBSan CI job,
// which is what checks the SPSC handoffs for memory errors.
#include "core/fleet.h"

#include "core/beat_serializer.h"
#include "core/pipeline.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace {

using namespace icgkit;
using core::BeatRecord;
using core::FleetBeat;
using core::FleetConfig;
using core::SessionManager;
using core::serialize_beat;

constexpr std::size_t kChunk = 64;

std::vector<synth::Recording> test_workload(std::size_t distinct, double duration_s) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 7;
  return synth::make_fleet_workload(distinct, cfg);
}

// Feeds `sessions` copies of the workload (session i -> recording
// i % workload.size()) through a fleet with the given worker count and
// returns each session's serialized beat stream.
std::vector<std::vector<unsigned char>> run_fleet(
    const std::vector<synth::Recording>& workload, std::size_t sessions,
    std::size_t workers, std::size_t result_queue_capacity = 8192) {
  FleetConfig cfg;
  cfg.workers = workers;
  cfg.max_chunk = kChunk;
  cfg.result_queue_capacity = result_queue_capacity;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  handles.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(1024);
  const std::size_t n = workload[0].ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::size_t s = 0; s < sessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  fleet.run_to_completion(sink);

  std::vector<std::vector<unsigned char>> streams(sessions);
  std::vector<std::size_t> summaries(sessions, 0);
  std::vector<std::uint64_t> summary_beats(sessions, 0);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) {
      ++summaries[fb.session];
      summary_beats[fb.session] = fb.session_summary.beats;
      continue;  // terminal quality record, not a beat
    }
    serialize_beat(fb.beat, streams[fb.session]);
  }
  // Every finished session emits its QualitySummary exactly once, after
  // its tail beats, and the summary's beat count matches the stream.
  std::vector<unsigned char> one_beat;
  serialize_beat(BeatRecord{}, one_beat);
  for (std::size_t s = 0; s < sessions; ++s) {
    EXPECT_EQ(summaries[s], 1u) << "session " << s << " end-of-session records";
    EXPECT_EQ(summary_beats[s] * one_beat.size(), streams[s].size())
        << "session " << s << " summary beat count vs serialized stream";
  }
  return streams;
}

TEST(FleetTest, MatchesDirectlyFedPipeline) {
  const auto workload = test_workload(2, 8.0);
  const auto streams = run_fleet(workload, 4, 2);

  for (std::size_t s = 0; s < 4; ++s) {
    const synth::Recording& rec = workload[s % workload.size()];
    core::StreamingBeatPipeline direct(rec.fs, {});
    std::vector<BeatRecord> beats;
    const std::size_t n = rec.ecg_mv.size();
    for (std::size_t i = 0; i < n; i += kChunk) {
      const std::size_t len = std::min(kChunk, n - i);
      direct.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                       dsp::SignalView(rec.z_ohm.data() + i, len), beats);
    }
    direct.finish_into(beats);
    ASSERT_FALSE(beats.empty()) << "test recording should contain beats";

    std::vector<unsigned char> reference;
    for (const BeatRecord& b : beats) serialize_beat(b, reference);
    EXPECT_EQ(streams[s], reference) << "session " << s << " diverged from direct feed";
  }
}

TEST(FleetTest, ByteIdenticalAcrossWorkerCounts) {
  const auto workload = test_workload(3, 8.0);
  constexpr std::size_t kSessions = 12;
  const auto one = run_fleet(workload, kSessions, 1);
  const auto eight = run_fleet(workload, kSessions, 8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t s = 0; s < kSessions; ++s) {
    EXPECT_FALSE(one[s].empty()) << "session " << s << " produced no beats";
    EXPECT_EQ(one[s], eight[s]) << "session " << s << ": 1-worker vs 8-worker mismatch";
  }
}

TEST(FleetTest, SurvivesTinyResultQueueBackpressure) {
  const auto workload = test_workload(1, 6.0);
  const auto roomy = run_fleet(workload, 3, 2);
  const auto cramped = run_fleet(workload, 3, 2, /*result_queue_capacity=*/2);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_FALSE(roomy[s].empty());
    EXPECT_EQ(roomy[s], cramped[s]) << "backpressure altered session " << s;
  }
}

TEST(FleetTest, ValidatesSubmissions) {
  FleetConfig cfg;
  cfg.max_chunk = 32;
  SessionManager fleet(250.0, cfg);
  core::SessionHandle h = fleet.open();
  fleet.start();

  const std::vector<double> a(16, 0.0), b(8, 0.0), big(64, 0.0);
  EXPECT_THROW(h.try_push(a, b), std::invalid_argument);
  EXPECT_THROW(h.try_push(big, big), std::invalid_argument);
  // A NaN or an infinity in either channel, through either push.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> tainted = a;
    tainted[5] = bad;
    std::vector<FleetBeat> none;
    EXPECT_THROW(h.try_push(tainted, a), std::invalid_argument);
    EXPECT_THROW(h.try_push(a, tainted), std::invalid_argument);
    EXPECT_THROW(h.push(tainted, a, none), std::invalid_argument);
    EXPECT_THROW(h.push(a, tainted, none), std::invalid_argument);
  }
  EXPECT_EQ(h.processed(), 0u);  // nothing was submitted

  std::vector<FleetBeat> sink;
  h.finish(sink);
  EXPECT_THROW(h.try_push(a, a), std::logic_error);
  EXPECT_THROW(h.try_finish(), std::logic_error);

  // Work enqueued behind the shutdown sentinel would never be processed
  // (idle() would hang), so submission after close() must throw.
  core::SessionHandle open_h = fleet.open();
  fleet.close();
  EXPECT_THROW(open_h.try_push(a, a), std::logic_error);
  EXPECT_THROW(open_h.try_finish(), std::logic_error);
  fleet.join();
  // open_h's destructor sees the closed fleet and stands down.
}

TEST(FleetTest, DestructorShutsDownCleanly) {
  const auto workload = test_workload(1, 4.0);
  FleetConfig cfg;
  cfg.workers = 2;
  cfg.max_chunk = kChunk;
  cfg.result_queue_capacity = 2;  // force backpressure at teardown
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  for (int s = 0; s < 3; ++s) handles.push_back(fleet.open());
  fleet.start();
  std::vector<FleetBeat> sink;
  const synth::Recording& rec = workload[0];
  for (std::size_t i = 0; i + kChunk <= rec.ecg_mv.size(); i += kChunk)
    for (std::uint32_t s = 0; s < 3; ++s)
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, kChunk),
                      dsp::SignalView(rec.z_ohm.data() + i, kChunk), sink);
  // Detach the handles so the sessions are still live at teardown: the
  // manager destructor itself (no close/join) must drain and stop the
  // pool.
  for (auto& h : handles) h.release();
}

} // namespace
