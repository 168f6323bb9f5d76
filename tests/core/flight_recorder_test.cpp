// core::FlightRecorder + replay: the deterministic flight-record /
// time-travel-replay subsystem.
//
// The contract under test:
//
//  - Recording is *observational*: a recorded pipeline emits byte-
//    identical beats and a bit-identical QualitySummary to an
//    unrecorded twin fed the same stream (double and Q31, under the
//    severe corruption tier).
//  - A recording replays byte-for-byte at every chunk size in
//    {1, 7, 64, 1024}: every beat, every periodic checkpoint, the
//    finish() tail and the terminal summary (flight_verify).
//  - Time travel: restoring the latest checkpoint before any target
//    and re-running only the suffix reproduces the recording exactly
//    (flight_seek) — checkpoint-resume equals straight-through.
//  - Recording can begin mid-stream (the initial checkpoint makes the
//    file self-contained; cut out, the file is refused) and can stop
//    mid-stream (FINI finished=0).
//  - Fleet integration: start_recording/stop_recording tap a live
//    SessionManager session without perturbing any session's output,
//    the recorder rides the session across a mid-recording migrate(),
//    and subnormal input replays byte-identically.
//  - Hostility: every flipped byte and every truncation of a flight
//    record is refused with CheckpointError or surfaces as a clean
//    frame-boundary end (the legal power-loss shape) — never UB.
#include "core/beat_serializer.h"
#include "core/checkpoint.h"
#include "core/fleet.h"
#include "core/flight_recorder.h"
#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace {

using namespace icgkit;
using core::BeatRecord;
using core::BufferRecorderSink;
using core::CheckpointError;
using core::FixedStreamingBeatPipeline;
using core::FleetBeat;
using core::FleetConfig;
using core::FlightRecorder;
using core::FlightRecorderConfig;
using core::FlightVerifyReport;
using core::QualitySummary;
using core::SessionManager;
using core::StreamingBeatPipeline;
using core::serialize_beat;
using core::summaries_identical;

constexpr double kFs = 250.0;

/// A severe-tier recording — the hardest stream the recorder must
/// reproduce (gaps, saturation, motion bursts).
synth::Recording severe_recording(std::uint64_t seed = 7, double duration_s = 20.0) {
  return synth::make_scenario_stream(/*subject=*/seed, /*tier=*/3, seed, duration_s);
}

/// Runs `rec` through a fresh pipeline with a FlightRecorder attached,
/// returning the .icgr bytes. Optionally collects the live outputs and
/// stops the recording (instead of finishing) once `stop_at_sample` is
/// reached.
template <typename Pipeline>
std::vector<std::uint8_t> record_run(const synth::Recording& rec, std::size_t chunk,
                                     std::uint64_t interval,
                                     std::vector<unsigned char>* beats_out = nullptr,
                                     QualitySummary* summary_out = nullptr,
                                     std::uint64_t stop_at_sample = 0) {
  Pipeline p(rec.fs);
  BufferRecorderSink sink;
  FlightRecorderConfig rcfg;
  rcfg.checkpoint_interval = interval;
  FlightRecorder recorder(sink, p, rcfg);
  std::vector<BeatRecord> emitted;
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    emitted.clear();
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
    recorder.on_chunk(p, dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
    if (beats_out != nullptr)
      for (const BeatRecord& b : emitted) serialize_beat(b, *beats_out);
    if (stop_at_sample != 0 && p.samples_consumed() >= stop_at_sample) {
      recorder.on_stop(p);
      return sink.take();
    }
  }
  emitted.clear();
  p.finish_into(emitted);
  recorder.on_finish(p, emitted);
  if (beats_out != nullptr)
    for (const BeatRecord& b : emitted) serialize_beat(b, *beats_out);
  if (summary_out != nullptr) *summary_out = p.quality_summary();
  return sink.take();
}

/// The unrecorded twin: same stream, no recorder.
template <typename Pipeline>
std::vector<unsigned char> plain_run(const synth::Recording& rec, std::size_t chunk,
                                     QualitySummary& summary) {
  Pipeline p(rec.fs);
  std::vector<BeatRecord> beats;
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), beats);
  }
  p.finish_into(beats);
  summary = p.quality_summary();
  std::vector<unsigned char> bytes;
  for (const BeatRecord& b : beats) serialize_beat(b, bytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Replay invariance: every chunk size, both backends
// ---------------------------------------------------------------------------

template <typename Pipeline>
void expect_chunk_invariance() {
  const synth::Recording rec = severe_recording();
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1024}}) {
    const std::vector<std::uint8_t> file =
        record_run<Pipeline>(rec, chunk, /*interval=*/2000);
    const FlightVerifyReport rep = core::flight_verify(file);
    EXPECT_TRUE(rep.ok) << "chunk " << chunk << ": first divergent chunk "
                        << rep.first_divergent_chunk << ", checkpoint "
                        << rep.first_divergent_checkpoint;
    EXPECT_TRUE(rep.has_end) << "chunk " << chunk;
    EXPECT_TRUE(rep.finished) << "chunk " << chunk;
    EXPECT_TRUE(rep.summary_match) << "chunk " << chunk;
    EXPECT_TRUE(rep.tail_match) << "chunk " << chunk;
    EXPECT_GT(rep.beats_recorded, 0u) << "chunk " << chunk;
    EXPECT_EQ(rep.beats_recorded, rep.beats_replayed) << "chunk " << chunk;
    EXPECT_EQ(rep.chunks, (rec.ecg_mv.size() + chunk - 1) / chunk)
        << "chunk " << chunk;
  }
}

TEST(FlightRecorderInvarianceTest, EveryChunkSizeReplaysByteIdenticalDouble) {
  expect_chunk_invariance<StreamingBeatPipeline>();
}

TEST(FlightRecorderInvarianceTest, EveryChunkSizeReplaysByteIdenticalQ31) {
  expect_chunk_invariance<FixedStreamingBeatPipeline>();
}

// ---------------------------------------------------------------------------
// Recording is observational: the recorded run equals the unrecorded twin
// ---------------------------------------------------------------------------

template <typename Pipeline>
void expect_recording_is_observational() {
  const synth::Recording rec = severe_recording(11);
  std::vector<unsigned char> recorded_beats;
  QualitySummary recorded_summary{};
  (void)record_run<Pipeline>(rec, 64, /*interval=*/1500, &recorded_beats,
                             &recorded_summary);
  QualitySummary plain_summary{};
  const std::vector<unsigned char> plain_beats =
      plain_run<Pipeline>(rec, 64, plain_summary);
  EXPECT_EQ(recorded_beats, plain_beats);
  EXPECT_TRUE(summaries_identical(recorded_summary, plain_summary));
}

TEST(FlightRecorderInvarianceTest, RecordingDoesNotPerturbOutputDouble) {
  expect_recording_is_observational<StreamingBeatPipeline>();
}

TEST(FlightRecorderInvarianceTest, RecordingDoesNotPerturbOutputQ31) {
  expect_recording_is_observational<FixedStreamingBeatPipeline>();
}

// ---------------------------------------------------------------------------
// Time travel: seek-to-checkpoint + suffix replay equals straight-through
// ---------------------------------------------------------------------------

TEST(FlightSeekTest, SeekEqualsStraightThroughAtEveryTarget) {
  const synth::Recording rec = severe_recording(5);
  const std::vector<std::uint8_t> file =
      record_run<FixedStreamingBeatPipeline>(rec, 64, /*interval=*/1000);
  const std::uint64_t n = rec.ecg_mv.size();
  for (const std::uint64_t target :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{999}, std::uint64_t{1000},
        std::uint64_t{1001}, std::uint64_t{2500}, n / 2, n - 1, n + 1000}) {
    const core::FlightSeekReport rep = core::flight_seek(file, target);
    EXPECT_TRUE(rep.ok) << "target " << target << ": first divergent chunk "
                        << rep.first_divergent_chunk;
    if (target > 0) {
      EXPECT_LE(rep.restored_at, target) << "target " << target;
    }
    EXPECT_TRUE(rep.summary_match) << "target " << target;
    EXPECT_TRUE(rep.tail_match) << "target " << target;
  }
}

TEST(FlightSeekTest, LateSeekRestoresFromLatestCheckpointNotStart) {
  const synth::Recording rec = severe_recording(5);
  const std::vector<std::uint8_t> file =
      record_run<StreamingBeatPipeline>(rec, 64, /*interval=*/1000);
  const core::FlightSeekReport rep =
      core::flight_seek(file, rec.ecg_mv.size() - 1);
  EXPECT_TRUE(rep.ok);
  EXPECT_GE(rep.restored_at, 1000u);  // a periodic checkpoint, not sample 0
}

TEST(FlightStateTest, ReconstructedStateRestoresIntoAFreshPipeline) {
  const synth::Recording rec = severe_recording(5);
  const std::vector<std::uint8_t> file =
      record_run<StreamingBeatPipeline>(rec, 64, /*interval=*/1000);
  std::vector<std::uint8_t> state;
  const core::FlightStateReport rep =
      core::flight_state_at(file, rec.ecg_mv.size() / 2, state);
  EXPECT_GE(rep.samples, rec.ecg_mv.size() / 2);
  StreamingBeatPipeline p(rec.fs);
  ASSERT_TRUE(p.restore_compatible(state));
  p.restore(state);
  EXPECT_EQ(p.samples_consumed(), rep.samples);
}

TEST(FlightStateTest, TargetPastTheEndStopsBeforeFinish) {
  // A target past the last chunk reconstructs the engine after every
  // recorded chunk: the recording's finish() is never replayed.
  const synth::Recording rec = severe_recording(5);
  const std::vector<std::uint8_t> file =
      record_run<StreamingBeatPipeline>(rec, 64, /*interval=*/1000);
  const std::size_t n = rec.ecg_mv.size();
  std::vector<std::uint8_t> state;
  const core::FlightStateReport rep = core::flight_state_at(file, n + 1000, state);

  StreamingBeatPipeline fed(rec.fs);
  std::vector<BeatRecord> beats;
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - i);
    fed.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                  dsp::SignalView(rec.z_ohm.data() + i, len), beats);
  }
  EXPECT_EQ(rep.samples, n);
  EXPECT_EQ(state, fed.checkpoint());
}

// ---------------------------------------------------------------------------
// Mid-stream start and mid-stream stop
// ---------------------------------------------------------------------------

/// Records the second half of `rec` from an engine that was already fed
/// the first half, through to finish().
std::vector<std::uint8_t> mid_session_recording(const synth::Recording& rec,
                                                std::size_t attach_at) {
  const std::size_t n = rec.ecg_mv.size();
  FixedStreamingBeatPipeline p(rec.fs);
  std::vector<BeatRecord> emitted;
  for (std::size_t i = 0; i < attach_at; i += 64) {
    const std::size_t len = std::min<std::size_t>(64, attach_at - i);
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
  }
  // Attach mid-session: the initial checkpoint captures everything the
  // engine has already consumed, so the file replays without the prefix.
  BufferRecorderSink sink;
  FlightRecorder recorder(sink, p);
  for (std::size_t i = attach_at; i < n; i += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - i);
    emitted.clear();
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
    recorder.on_chunk(p, dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), emitted);
  }
  emitted.clear();
  p.finish_into(emitted);
  recorder.on_finish(p, emitted);
  return sink.take();
}

TEST(FlightRecorderLifecycleTest, MidStreamStartIsSelfContained) {
  const synth::Recording rec = severe_recording(9);
  const std::size_t attach_at = rec.ecg_mv.size() / 2;
  const std::vector<std::uint8_t> file = mid_session_recording(rec, attach_at);
  const core::FlightProbe probe = core::probe_flight(file);
  ASSERT_TRUE(probe.valid);
  EXPECT_EQ(probe.header.start_samples, attach_at);
  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk;
  EXPECT_TRUE(rep.finished);
}

TEST(FlightRecorderLifecycleTest, MidStreamRecordingWithoutItsInitialCheckpointIsRefused) {
  const synth::Recording rec = severe_recording(9);
  const std::vector<std::uint8_t> file =
      mid_session_recording(rec, rec.ecg_mv.size() / 2);
  // Cut the initial CKPT section out. Past the 8-byte container header,
  // every section is framed as tag, u32 payload length, payload, CRC-32;
  // RHDR comes first and the initial CKPT right after it.
  const auto section_end = [&file](std::size_t at) {
    std::uint32_t len = 0;
    std::memcpy(&len, file.data() + at + 4, sizeof len);
    return at + 12 + len;
  };
  const std::size_t ckpt_at = section_end(8);
  ASSERT_EQ(std::memcmp(file.data() + ckpt_at, "CKPT", 4), 0);
  std::vector<std::uint8_t> cut(file.begin(),
                                file.begin() + static_cast<std::ptrdiff_t>(ckpt_at));
  cut.insert(cut.end(), file.begin() + static_cast<std::ptrdiff_t>(section_end(ckpt_at)),
             file.end());
  // Frame by frame the file is intact; only a fresh engine could stand
  // in for the missing state, and a mid-session start rules that out.
  ASSERT_TRUE(core::probe_flight(cut).valid);
  EXPECT_THROW((void)core::flight_verify(cut), CheckpointError);
}

TEST(FlightRecorderLifecycleTest, DefaultConfigRecordsTheEnginesOwnWindow) {
  // The recorder takes the window from the engine it taps, so a default
  // config records an engine built with a 16 s window.
  const synth::Recording rec = severe_recording(4);
  StreamingBeatPipeline p(rec.fs, {}, 16.0);
  BufferRecorderSink sink;
  FlightRecorder recorder(sink, p);
  std::vector<BeatRecord> emitted;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += 64) {
    const std::size_t len = std::min<std::size_t>(64, rec.ecg_mv.size() - i);
    const dsp::SignalView ecg(rec.ecg_mv.data() + i, len), z(rec.z_ohm.data() + i, len);
    emitted.clear();
    p.push_into(ecg, z, emitted);
    recorder.on_chunk(p, ecg, z, emitted);
  }
  emitted.clear();
  p.finish_into(emitted);
  recorder.on_finish(p, emitted);
  EXPECT_EQ(core::FlightReader(sink.bytes()).header().window_s, 16.0);
  const FlightVerifyReport rep = core::flight_verify(sink.bytes());
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk;
  EXPECT_TRUE(rep.finished);
}

TEST(FlightRecorderLifecycleTest, MidStreamStopVerifiesWithoutTail) {
  const synth::Recording rec = severe_recording(9);
  const std::vector<std::uint8_t> file = record_run<StreamingBeatPipeline>(
      rec, 64, /*interval=*/1000, nullptr, nullptr,
      /*stop_at_sample=*/rec.ecg_mv.size() / 2);
  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.has_end);
  EXPECT_FALSE(rep.finished);
  EXPECT_TRUE(core::flight_seek(file, rec.ecg_mv.size() / 4).ok);
}

// ---------------------------------------------------------------------------
// Fleet integration: start_recording / stop_recording on a live session
// ---------------------------------------------------------------------------

struct FleetOutputs {
  std::vector<unsigned char> beats;
  QualitySummary summary{};
};

/// Runs `sessions` copies of the workload through a fleet; optionally
/// records session 0 (into `record_file`), optionally migrating it
/// mid-recording.
std::vector<FleetOutputs> run_fleet(const std::vector<synth::Recording>& workload,
                                    std::size_t sessions, std::size_t workers,
                                    std::vector<std::uint8_t>* record_file,
                                    bool migrate_mid_recording) {
  FleetConfig cfg;
  cfg.workers = workers;
  cfg.max_chunk = 64;
  SessionManager fleet(workload[0].fs, cfg);
  std::vector<core::SessionHandle> handles;
  handles.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) handles.push_back(fleet.open());
  fleet.start();

  std::vector<FleetBeat> sink;
  sink.reserve(4096);
  BufferRecorderSink* buffer = nullptr;
  if (record_file != nullptr) {
    auto owned = std::make_unique<BufferRecorderSink>();
    buffer = owned.get();
    FlightRecorderConfig rcfg;
    rcfg.checkpoint_interval = 1000;
    handles[0].record_start(std::move(owned), sink, rcfg);
  }
  const std::size_t n = workload[0].ecg_mv.size();
  std::size_t chunk_index = 0;
  for (std::size_t i = 0; i < n; i += 64, ++chunk_index) {
    if (migrate_mid_recording && chunk_index == 20)
      handles[0].migrate_to(1, sink);
    const std::size_t len = std::min<std::size_t>(64, n - i);
    for (std::size_t s = 0; s < sessions; ++s) {
      const synth::Recording& rec = workload[s % workload.size()];
      handles[s].push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                      dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    }
  }
  fleet.run_to_completion(sink);  // finish_session finalizes the recording

  std::vector<FleetOutputs> out(sessions);
  for (const FleetBeat& fb : sink) {
    if (fb.end_of_session) {
      out[fb.session].summary = fb.session_summary;
      continue;
    }
    serialize_beat(fb.beat, out[fb.session].beats);
  }
  if (record_file != nullptr) *record_file = buffer->take();
  return out;
}

TEST(FleetRecordingTest, RecordingDoesNotPerturbAnySessionAndReplays) {
  synth::RecordingConfig cfg;
  cfg.duration_s = 15.0;
  cfg.session_seed = 23;
  const auto workload = synth::make_fleet_workload(2, cfg);

  const auto plain = run_fleet(workload, 2, 2, nullptr, false);
  std::vector<std::uint8_t> file;
  const auto recorded = run_fleet(workload, 2, 2, &file, false);

  ASSERT_EQ(plain.size(), recorded.size());
  for (std::size_t s = 0; s < plain.size(); ++s) {
    EXPECT_EQ(plain[s].beats, recorded[s].beats) << "session " << s;
    EXPECT_TRUE(summaries_identical(plain[s].summary, recorded[s].summary))
        << "session " << s;
  }
  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk;
  EXPECT_TRUE(rep.finished);  // finish_session wrote the FINI marker
  EXPECT_GT(rep.beats_recorded, 0u);
}

TEST(FleetRecordingTest, RecorderRidesTheSessionAcrossMigration) {
  synth::RecordingConfig cfg;
  cfg.duration_s = 15.0;
  cfg.session_seed = 29;
  const auto workload = synth::make_fleet_workload(2, cfg);

  const auto plain = run_fleet(workload, 2, 2, nullptr, false);
  std::vector<std::uint8_t> file;
  const auto recorded = run_fleet(workload, 2, 2, &file, true);

  EXPECT_EQ(plain[0].beats, recorded[0].beats);
  EXPECT_TRUE(summaries_identical(plain[0].summary, recorded[0].summary));
  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk;
  EXPECT_TRUE(rep.finished);
}

TEST(FleetRecordingTest, StopRecordingLeavesAVerifiableFileAndSessionRuns) {
  synth::RecordingConfig cfg;
  cfg.duration_s = 10.0;
  cfg.session_seed = 31;
  const auto workload = synth::make_fleet_workload(1, cfg);

  FleetConfig fcfg;
  fcfg.workers = 1;
  fcfg.max_chunk = 64;
  SessionManager fleet(workload[0].fs, fcfg);
  core::SessionHandle h = fleet.open();
  fleet.start();
  std::vector<FleetBeat> sink;

  FlightRecorderConfig rcfg;
  rcfg.checkpoint_interval = 500;
  h.record_start(std::make_unique<BufferRecorderSink>(), sink, rcfg);
  EXPECT_TRUE(h.recording());

  const synth::Recording& rec = workload[0];
  const std::size_t n = rec.ecg_mv.size();
  std::vector<std::uint8_t> file;
  for (std::size_t i = 0; i < n; i += 64) {
    const std::size_t len = std::min<std::size_t>(64, n - i);
    h.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
           dsp::SignalView(rec.z_ohm.data() + i, len), sink);
    if (file.empty() && i >= n / 2) {
      // stop_recording hands the sink back to the pilot.
      std::unique_ptr<core::RecorderSink> returned = h.record_stop(sink);
      file = static_cast<BufferRecorderSink&>(*returned).take();
      EXPECT_FALSE(h.recording());
    }
  }
  fleet.run_to_completion(sink);

  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.has_end);
  EXPECT_FALSE(rep.finished);  // stopped mid-stream, not finished
}

TEST(FleetRecordingTest, SubnormalInputReplaysByteIdentical) {
  synth::RecordingConfig cfg;
  cfg.duration_s = 60.0;
  cfg.session_seed = 37;
  std::vector<synth::Recording> workload = synth::make_fleet_workload(1, cfg);
  // 1,000 subnormal samples per channel: the fleet's workers and a
  // replaying engine must treat them in one floating-point mode, or the
  // filter state they leave behind differs between the two.
  synth::Recording& rec = workload[0];
  for (std::size_t i = 0; i < 1000; ++i) {
    const double tiny =
        std::numeric_limits<double>::min() / (2.0 + static_cast<double>(i % 8));
    rec.ecg_mv[6000 + i] = tiny;
    rec.z_ohm[6000 + i] = -tiny;
  }
  std::vector<std::uint8_t> file;
  (void)run_fleet(workload, 1, 1, &file, false);
  const FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk
                      << ", checkpoint " << rep.first_divergent_checkpoint;
  EXPECT_TRUE(rep.finished);
}

// ---------------------------------------------------------------------------
// Hostility: flipped bytes, truncations, trailing sections — refused, not UB
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> small_flight_file() {
  static const std::vector<std::uint8_t> file = [] {
    const synth::Recording rec = severe_recording(3, 10.0);
    return record_run<StreamingBeatPipeline>(rec, 64, /*interval=*/1000);
  }();
  return file;
}

TEST(FlightRejectionTest, EveryFlippedByteIsRefusedNotUB) {
  const std::vector<std::uint8_t> file = small_flight_file();
  // ~150 flip positions spread across the file hit every field class:
  // container magic, RHDR, chunk payloads, nested checkpoint blobs,
  // beat bytes, section tags, lengths and CRCs.
  const std::size_t stride = std::max<std::size_t>(1, file.size() / 149);
  for (std::size_t pos = 0; pos < file.size(); pos += stride) {
    std::vector<std::uint8_t> bad = file;
    bad[pos] ^= 0xA5u;
    EXPECT_THROW((void)core::flight_verify(bad), CheckpointError)
        << "flipped byte " << pos;
    EXPECT_FALSE(core::probe_flight(bad).valid) << "flipped byte " << pos;
  }
}

TEST(FlightRejectionTest, EveryTruncationIsRefusedOrEndsAtAFrameBoundary) {
  const std::vector<std::uint8_t> file = small_flight_file();
  std::vector<std::size_t> lengths = {0, 1, 3, 4, 7, 8, 11, 12, 15, 16};
  const std::size_t stride = std::max<std::size_t>(1, file.size() / 131);
  for (std::size_t len = 17; len < file.size(); len += stride)
    lengths.push_back(len);
  std::size_t refused = 0;
  for (const std::size_t len : lengths) {
    const std::span<const std::uint8_t> head(file.data(), len);
    // A cut exactly between sections is the legal power-loss shape: the
    // reader replays what survived and reports has_end == false. Any
    // other cut must be refused with CheckpointError. Either way: no UB.
    try {
      const FlightVerifyReport rep = core::flight_verify(head);
      EXPECT_FALSE(rep.has_end) << "truncated to " << len;
    } catch (const CheckpointError&) {
      ++refused;
      EXPECT_FALSE(core::probe_flight(head).valid) << "truncated to " << len;
    }
  }
  // The overwhelming majority of cuts land mid-section and are refused.
  EXPECT_GT(refused, lengths.size() / 2);
}

TEST(FlightRejectionTest, SectionsAfterTheEndMarkerAreRefused) {
  std::vector<std::uint8_t> bad = small_flight_file();
  const std::vector<std::uint8_t> extra(bad.begin(), bad.begin() + 12);
  bad.insert(bad.end(), extra.begin(), extra.end());
  EXPECT_THROW((void)core::flight_verify(bad), CheckpointError);
  EXPECT_FALSE(core::probe_flight(bad).valid);
}

TEST(FlightRejectionTest, APipelineCheckpointIsNotAFlightRecord) {
  StreamingBeatPipeline p(kFs);
  const std::vector<std::uint8_t> blob = p.checkpoint();
  EXPECT_THROW((void)core::flight_verify(blob), CheckpointError);
  EXPECT_FALSE(core::probe_flight(blob).valid);
  // And the converse: an .icgr file is not restorable as a checkpoint.
  const std::vector<std::uint8_t> file = small_flight_file();
  StreamingBeatPipeline q(kFs);
  EXPECT_THROW(q.restore(file), CheckpointError);
}

TEST(FlightRejectionTest, RecorderRefusesTapsAfterClose) {
  StreamingBeatPipeline p(kFs);
  BufferRecorderSink sink;
  FlightRecorder recorder(sink, p);
  std::vector<BeatRecord> none;
  p.finish_into(none);
  recorder.on_finish(p, none);
  EXPECT_TRUE(recorder.closed());
  EXPECT_THROW(recorder.on_chunk(p, dsp::SignalView(), dsp::SignalView(), none),
               CheckpointError);
  EXPECT_THROW(recorder.on_stop(p), CheckpointError);
}

}  // namespace
