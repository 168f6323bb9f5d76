// The C ABI boundary (capi/icgkit.h).
//
// Two contracts under test:
//
//  1. Abuse safety: every misuse — NULL arguments, stale or forged
//     handles, double destroy, ABI version mismatch, oversized chunks,
//     wrong-backend checkpoint blobs, undersized buffers — returns a
//     negative status code. Never UB: the ASan/UBSan CI entry runs this
//     binary, so a pointer slip here fails loudly.
//
//  2. Parity: a session streamed through the C ABI emits beats
//     byte-for-byte identical (in the serialize_beat canonical form) to
//     the C++ pipeline fed the same samples, on both backends, and its
//     checkpoint blobs interchange with the C++ API in both directions.
#include "capi/icgkit.h"

#include "common/restamp.h"
#include "core/beat_serializer.h"
#include "core/flight_recorder.h"
#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace icgkit;
using core::BeatRecord;
using core::serialize_beat;

constexpr std::uint32_t kChunk = 256;

synth::Recording test_recording(double duration_s = 30.0) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.session_seed = 7;
  const synth::SourceActivity source = generate_source(roster[0], cfg);
  return measure_device(roster[0], source, 50e3, synth::Position::HoldToChest);
}

icg_config test_config(std::uint32_t backend) {
  icg_config cfg;
  EXPECT_EQ(icg_config_init(&cfg), ICG_OK);
  cfg.backend = backend;
  cfg.sample_rate_hz = 250.0;
  return cfg;
}

// Reconstructs the serialize_beat-relevant fields of a BeatRecord from
// its flat C mirror, so the two streams can be compared in the one
// canonical byte form the whole project uses for beat identity.
BeatRecord from_c_beat(const icg_beat& b) {
  BeatRecord rec;
  rec.points.r = b.r;
  rec.points.b = b.b;
  rec.points.c = b.c;
  rec.points.x = b.x;
  rec.points.b0 = b.b0;
  rec.points.b_method = static_cast<core::BPointMethod>(b.b_method);
  rec.points.c_amplitude = b.c_amplitude;
  rec.points.valid = b.valid != 0;
  rec.hemo.pep_s = b.pep_s;
  rec.hemo.lvet_s = b.lvet_s;
  rec.hemo.hr_bpm = b.hr_bpm;
  rec.hemo.dzdt_max = b.dzdt_max;
  rec.hemo.sv_kubicek_ml = b.sv_kubicek_ml;
  rec.hemo.sv_sramek_ml = b.sv_sramek_ml;
  rec.hemo.co_kubicek_l_min = b.co_kubicek_l_min;
  rec.hemo.tfc_per_kohm = b.tfc_per_kohm;
  rec.flaws = static_cast<core::BeatFlaw>(b.flaws);
  rec.rr_s = b.rr_s;
  return rec;
}

// Streams a recording through a C ABI session in fixed chunks and
// returns the canonical bytes of every emitted beat.
std::vector<unsigned char> run_c_session(const synth::Recording& rec,
                                         std::uint32_t backend) {
  const icg_config cfg = test_config(backend);
  icg_session* s = icg_session_create(&cfg);
  EXPECT_NE(s, nullptr) << icg_last_error();
  std::vector<unsigned char> bytes;
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    EXPECT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len), 0)
        << icg_last_error();
    while (icg_session_poll_beat(s, &beat) == 1)
      serialize_beat(from_c_beat(beat), bytes);
  }
  EXPECT_GE(icg_session_finish(s), 0) << icg_last_error();
  while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), bytes);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  return bytes;
}

// The same stream through the C++ API, same chunking.
template <typename Pipeline>
std::vector<unsigned char> run_cpp_session(const synth::Recording& rec) {
  Pipeline engine(rec.fs);
  std::vector<unsigned char> bytes;
  std::vector<BeatRecord> emitted;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const std::size_t len = std::min<std::size_t>(kChunk, total - off);
    emitted.clear();
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + off, len),
                     dsp::SignalView(rec.z_ohm.data() + off, len), emitted);
    for (const BeatRecord& b : emitted) serialize_beat(b, bytes);
  }
  emitted.clear();
  engine.finish_into(emitted);
  for (const BeatRecord& b : emitted) serialize_beat(b, bytes);
  return bytes;
}

// ---------------------------------------------------------------------------
// Parity
// ---------------------------------------------------------------------------

TEST(CApiParityTest, DoubleBackendMatchesCppByteForByte) {
  const auto rec = test_recording();
  const auto c_bytes = run_c_session(rec, ICG_BACKEND_DOUBLE);
  const auto cpp_bytes = run_cpp_session<core::StreamingBeatPipeline>(rec);
  ASSERT_FALSE(cpp_bytes.empty());
  EXPECT_EQ(c_bytes, cpp_bytes);
}

TEST(CApiParityTest, Q31BackendMatchesCppByteForByte) {
  const auto rec = test_recording();
  const auto c_bytes = run_c_session(rec, ICG_BACKEND_Q31);
  const auto cpp_bytes = run_cpp_session<core::FixedStreamingBeatPipeline>(rec);
  ASSERT_FALSE(cpp_bytes.empty());
  EXPECT_EQ(c_bytes, cpp_bytes);
}

TEST(CApiParityTest, QualitySummaryMatchesCpp) {
  const auto rec = test_recording();
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  core::StreamingBeatPipeline engine(rec.fs);
  std::vector<BeatRecord> emitted;
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len), 0);
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + off, len),
                     dsp::SignalView(rec.z_ohm.data() + off, len), emitted);
  }
  ASSERT_GE(icg_session_finish(s), 0);
  engine.finish_into(emitted);

  icg_quality_summary q;
  ASSERT_EQ(icg_session_quality(s, &q), ICG_OK);
  const core::QualitySummary& ref = engine.quality_summary();
  EXPECT_EQ(q.beats, ref.beats);
  EXPECT_EQ(q.usable, ref.usable);
  for (std::size_t i = 0; i < core::kBeatFlawCount; ++i)
    EXPECT_EQ(q.flaw_counts[i], ref.flaw_counts[i]) << "flaw bit " << i;
  EXPECT_EQ(q.ecg_dropouts, ref.ecg_dropouts);
  EXPECT_EQ(q.z_dropouts, ref.z_dropouts);
  EXPECT_EQ(q.detector_resets, ref.detector_resets);
  EXPECT_EQ(q.snr_beats, ref.snr_beats);
  EXPECT_DOUBLE_EQ(q.sum_snr_db, ref.sum_snr_db);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

// ---------------------------------------------------------------------------
// Checkpoint interchange with the C++ API
// ---------------------------------------------------------------------------

TEST(CApiCheckpointTest, BlobInterchangesWithCppBothDirections) {
  const auto rec = test_recording(24.0);
  const std::size_t half = (rec.ecg_mv.size() / 2 / kChunk) * kChunk;

  // C session streams the first half, checkpoints; a C++ pipeline
  // restores that blob and finishes the stream. Reference: an
  // uninterrupted C++ pipeline over the full stream.
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  icg_beat beat;
  std::vector<unsigned char> c_head;
  for (std::size_t off = 0; off < half; off += kChunk) {
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, kChunk), 0);
    while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), c_head);
  }
  const std::uint32_t need = icg_session_checkpoint_size(s);
  ASSERT_GT(need, 0u);
  std::vector<std::uint8_t> blob(need);
  std::uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(s, blob.data(), need, &written), ICG_OK);
  ASSERT_EQ(written, need);

  core::StreamingBeatPipeline resumed(rec.fs);
  resumed.restore(blob);
  std::vector<unsigned char> tail_bytes = c_head;
  std::vector<BeatRecord> emitted;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = half; off < total; off += kChunk) {
    const std::size_t len = std::min<std::size_t>(kChunk, total - off);
    emitted.clear();
    resumed.push_into(dsp::SignalView(rec.ecg_mv.data() + off, len),
                      dsp::SignalView(rec.z_ohm.data() + off, len), emitted);
    for (const BeatRecord& b : emitted) serialize_beat(b, tail_bytes);
  }
  emitted.clear();
  resumed.finish_into(emitted);
  for (const BeatRecord& b : emitted) serialize_beat(b, tail_bytes);

  EXPECT_EQ(tail_bytes, run_cpp_session<core::StreamingBeatPipeline>(rec));

  // Opposite direction: the C session restores the *C++* pipeline's
  // mid-stream blob (taken at the same split) and must finish the
  // stream to the same bytes.
  core::StreamingBeatPipeline source(rec.fs);
  std::vector<unsigned char> cpp_head;
  for (std::size_t off = 0; off < half; off += kChunk) {
    emitted.clear();
    source.push_into(dsp::SignalView(rec.ecg_mv.data() + off, kChunk),
                     dsp::SignalView(rec.z_ohm.data() + off, kChunk), emitted);
    for (const BeatRecord& b : emitted) serialize_beat(b, cpp_head);
  }
  EXPECT_EQ(cpp_head, c_head);
  const auto cpp_blob = source.checkpoint();
  ASSERT_EQ(icg_session_restore(s, cpp_blob.data(),
                                static_cast<std::uint32_t>(cpp_blob.size())),
            ICG_OK)
      << icg_last_error();
  std::vector<unsigned char> c_tail = cpp_head;
  for (std::size_t off = half; off < total; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len), 0);
    while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), c_tail);
  }
  ASSERT_GE(icg_session_finish(s), 0);
  while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), c_tail);
  EXPECT_EQ(c_tail, tail_bytes);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiCheckpointTest, WrongBackendBlobIsRefused) {
  const icg_config q31_cfg = test_config(ICG_BACKEND_Q31);
  icg_session* q31 = icg_session_create(&q31_cfg);
  ASSERT_NE(q31, nullptr);
  const std::uint32_t need = icg_session_checkpoint_size(q31);
  ASSERT_GT(need, 0u);
  std::vector<std::uint8_t> blob(need);
  std::uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(q31, blob.data(), need, &written), ICG_OK);

  const icg_config dbl_cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* dbl = icg_session_create(&dbl_cfg);
  ASSERT_NE(dbl, nullptr);
  EXPECT_EQ(icg_session_restore(dbl, blob.data(), written), ICG_ERR_BAD_CHECKPOINT);
  EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_BAD_CHECKPOINT"), nullptr);
  // The refused session must remain fully usable.
  const double zeros[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_GE(icg_session_push(dbl, zeros, zeros, 8), 0);
  EXPECT_EQ(icg_session_destroy(dbl), ICG_OK);
  EXPECT_EQ(icg_session_destroy(q31), ICG_OK);
}

TEST(CApiCheckpointTest, CorruptAndTruncatedBlobsAreRefused) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  const std::uint32_t need = icg_session_checkpoint_size(s);
  std::vector<std::uint8_t> blob(need);
  std::uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(s, blob.data(), need, &written), ICG_OK);

  auto corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0xFF;  // payload bit flip -> CRC mismatch
  EXPECT_EQ(icg_session_restore(s, corrupt.data(), written), ICG_ERR_BAD_CHECKPOINT);
  EXPECT_EQ(icg_session_restore(s, blob.data(), written / 2), ICG_ERR_BAD_CHECKPOINT);
  EXPECT_EQ(icg_session_restore(s, blob.data(), 3), ICG_ERR_BAD_CHECKPOINT);
  // Intact blob still restores after all those refusals.
  EXPECT_EQ(icg_session_restore(s, blob.data(), written), ICG_OK);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiCheckpointTest, ConfigMismatchedAndGarbageBlobsAreRefused) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  const std::uint32_t need = icg_session_checkpoint_size(s);
  std::vector<std::uint8_t> blob(need);
  std::uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(s, blob.data(), need, &written), ICG_OK);

  // Same backend, different window: the blob's recorded configuration
  // must be refused by the boundary's pre-restore validation.
  icg_config other = test_config(ICG_BACKEND_DOUBLE);
  other.window_s = 16.0;
  icg_session* t = icg_session_create(&other);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(icg_session_restore(t, blob.data(), written), ICG_ERR_BAD_CHECKPOINT);

  // Bytes that are not a checkpoint at all.
  const std::uint8_t junk[32] = {0x13, 0x37, 0xBE, 0xEF};
  EXPECT_EQ(icg_session_restore(t, junk, sizeof junk), ICG_ERR_BAD_CHECKPOINT);

  EXPECT_EQ(icg_session_destroy(t), ICG_OK);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiCheckpointTest, BufferTooSmallReportsRequiredSize) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  std::uint8_t tiny[16];
  std::uint32_t written = 0;
  EXPECT_EQ(icg_session_checkpoint(s, tiny, sizeof tiny, &written),
            ICG_ERR_BUFFER_TOO_SMALL);
  EXPECT_EQ(written, icg_session_checkpoint_size(s));
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

// Pushes rec[from, to) in kChunk pieces, draining the beat queue.
void push_range(icg_session* s, const synth::Recording& rec, std::size_t from,
                std::size_t to) {
  icg_beat beat;
  for (std::size_t off = from; off < to; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, to - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len), 0)
        << icg_last_error();
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
  }
}

std::vector<std::uint8_t> checkpoint_of(icg_session* s) {
  std::vector<std::uint8_t> blob(icg_session_checkpoint_size(s));
  std::uint32_t written = 0;
  EXPECT_EQ(icg_session_checkpoint(s, blob.data(), static_cast<std::uint32_t>(blob.size()),
                                   &written),
            ICG_OK)
      << icg_last_error();
  blob.resize(written);
  return blob;
}

int restore(icg_session* s, const std::vector<std::uint8_t>& blob) {
  return icg_session_restore(s, blob.data(), static_cast<std::uint32_t>(blob.size()));
}

// A blob whose frame and CFG are intact but whose payload a loader
// refuses (re-stamped CRC) has already replaced part of the session's
// state when the refusal comes, so the session refuses push, finish and
// checkpoint until a good restore brings it back.
TEST(CApiCheckpointTest, RefusedPayloadLosesTheSessionUntilAGoodRestore) {
  const auto rec = test_recording(20.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    SCOPED_TRACE(backend == ICG_BACKEND_DOUBLE ? "double" : "q31");
    const icg_config cfg = test_config(backend);
    icg_session* s = icg_session_create(&cfg);
    ASSERT_NE(s, nullptr) << icg_last_error();
    push_range(s, rec, 0, 1500);
    const std::vector<std::uint8_t> blob = checkpoint_of(s);
    // The first ECGC presence byte cleared; the low byte of RING's first
    // ring capacity flipped.
    for (const auto& [tag, why] : {std::pair{"ECGC", "sub-stage missing"},
                                   std::pair{"RING", "ring capacity mismatch"}}) {
      SCOPED_TRACE(tag);
      EXPECT_EQ(restore(s, test::restamped(blob, tag, 0, 0x01)), ICG_ERR_BAD_CHECKPOINT);
      EXPECT_NE(std::strstr(icg_last_error(), why), nullptr) << icg_last_error();
      EXPECT_EQ(icg_session_push(s, rec.ecg_mv.data(), rec.z_ohm.data(), 8), ICG_ERR_BAD_STATE);
      EXPECT_EQ(icg_session_finish(s), ICG_ERR_BAD_STATE);
      // Nor can the half-loaded state be saved and carried on elsewhere.
      EXPECT_EQ(icg_session_checkpoint_size(s), 0u);
      std::uint32_t written = 0;
      std::vector<std::uint8_t> buf(blob.size());
      EXPECT_EQ(icg_session_checkpoint(s, buf.data(), static_cast<std::uint32_t>(buf.size()),
                                       &written),
                ICG_ERR_BAD_STATE);
      ASSERT_EQ(restore(s, blob), ICG_OK) << icg_last_error();
      push_range(s, rec, 1500, 2000);
    }
    EXPECT_GE(icg_session_finish(s), 0) << icg_last_error();
    EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  }
}

// A blob refused on its frame or its recorded configuration touches
// nothing: the session's state and its recording carry on.
TEST(CApiCheckpointTest, FrameAndConfigRefusalsLeaveTheSessionAndItsRecordingRunning) {
  const auto rec = test_recording(20.0);
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(icg_session_record_start_mem(s, 0), ICG_OK) << icg_last_error();
  const std::size_t half = 6 * kChunk;
  push_range(s, rec, 0, half);
  const std::vector<std::uint8_t> blob = checkpoint_of(s);

  std::vector<std::uint8_t> crc_broken = blob;
  crc_broken[crc_broken.size() / 2] ^= 0xFFu;
  const std::vector<std::uint8_t> truncated(
      blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(blob.size() / 2));
  // CFG's window-length field (after the backend byte and the sample
  // rate) under a re-stamped CRC: a window this session was not built with.
  const std::vector<std::uint8_t> other_window = test::restamped(blob, "CFG ", 9, 0x01);
  for (const std::vector<std::uint8_t>& bad : {crc_broken, truncated, other_window}) {
    EXPECT_EQ(restore(s, bad), ICG_ERR_BAD_CHECKPOINT);
    EXPECT_EQ(checkpoint_of(s), blob);
  }

  const std::size_t total = rec.ecg_mv.size();
  push_range(s, rec, half, total);
  uint32_t written = 0;
  ASSERT_EQ(icg_session_record_stop_mem(s, nullptr, 0, &written), ICG_ERR_BUFFER_TOO_SMALL);
  std::vector<std::uint8_t> file(written);
  ASSERT_EQ(icg_session_record_stop_mem(s, file.data(), written, &written), ICG_OK)
      << icg_last_error();
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  uint64_t chunks = 0;
  ASSERT_EQ(icg_flight_probe(file.data(), written, nullptr, nullptr, &chunks, nullptr, nullptr,
                             nullptr),
            ICG_OK);
  EXPECT_EQ(chunks, (total + kChunk - 1) / kChunk);  // every push, before and after
  EXPECT_TRUE(core::flight_verify(file).ok);
}

// Streams rec[from, end) through `s` and its twin in kChunk pushes,
// then finishes and destroys both: every push must succeed with the
// twin's beat count, and both must emit the same beat bytes.
void expect_twins_agree(icg_session* s, icg_session* twin, const synth::Recording& rec,
                        std::size_t from) {
  std::vector<unsigned char> got, want;
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = from; off < total; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    const int rc = icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len);
    ASSERT_GE(rc, ICG_OK) << "push at " << off << ": " << icg_last_error();
    ASSERT_EQ(rc, icg_session_push(twin, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len));
    while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), got);
    while (icg_session_poll_beat(twin, &beat) == 1) serialize_beat(from_c_beat(beat), want);
  }
  ASSERT_GE(icg_session_finish(s), ICG_OK) << icg_last_error();
  ASSERT_GE(icg_session_finish(twin), ICG_OK) << icg_last_error();
  while (icg_session_poll_beat(s, &beat) == 1) serialize_beat(from_c_beat(beat), got);
  while (icg_session_poll_beat(twin, &beat) == 1) serialize_beat(from_c_beat(beat), want);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(got, want);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  EXPECT_EQ(icg_session_destroy(twin), ICG_OK);
}

// A section's tag sits outside its CRC, so a blob whose ECGC tag byte is
// flipped has intact frames. Held to the saver's section list it is
// refused before anything loads, and the session streams on exactly
// like an untouched twin.
TEST(CApiCheckpointTest, RenamedSectionIsRefusedBeforeAnythingLoads) {
  const auto rec = test_recording(20.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    SCOPED_TRACE(backend == ICG_BACKEND_DOUBLE ? "double" : "q31");
    const icg_config cfg = test_config(backend);
    icg_session* s = icg_session_create(&cfg);
    icg_session* twin = icg_session_create(&cfg);
    ASSERT_NE(s, nullptr) << icg_last_error();
    ASSERT_NE(twin, nullptr) << icg_last_error();
    push_range(s, rec, 0, 1500);
    push_range(twin, rec, 0, 1500);
    std::vector<std::uint8_t> blob = checkpoint_of(s);
    ASSERT_GT(blob.size(), 42u);
    ASSERT_EQ(std::memcmp(blob.data() + 38, "ECGC", 4), 0);  // after header and CFG
    blob[39] ^= 0x01u;  // "EBGC"
    EXPECT_EQ(restore(s, blob), ICG_ERR_BAD_CHECKPOINT);
    EXPECT_EQ(icg_session_push(s, rec.ecg_mv.data() + 1500, rec.z_ohm.data() + 1500, 8),
              icg_session_push(twin, rec.ecg_mv.data() + 1500, rec.z_ohm.data() + 1500, 8))
        << icg_last_error();
    expect_twins_agree(s, twin, rec, 1508);
  }
}

// A stream shorter than the filters' group delay, finished, checkpointed
// and restored into a fresh session that is finished again: only valid
// calls, so every one of them must succeed.
TEST(CapiTest, FinishAfterRestoringAFinishedShortSession) {
  const auto rec = test_recording(1.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    SCOPED_TRACE(backend == ICG_BACKEND_DOUBLE ? "double" : "q31");
    const icg_config cfg = test_config(backend);
    icg_session* s = icg_session_create(&cfg);
    ASSERT_NE(s, nullptr) << icg_last_error();
    EXPECT_GE(icg_session_push(s, rec.ecg_mv.data(), rec.z_ohm.data(), 10), 0)
        << icg_last_error();
    EXPECT_GE(icg_session_finish(s), 0) << icg_last_error();
    const std::uint32_t need = icg_session_checkpoint_size(s);
    ASSERT_GT(need, 0u) << icg_last_error();
    std::vector<std::uint8_t> blob(need);
    std::uint32_t written = 0;
    EXPECT_GE(icg_session_checkpoint(s, blob.data(), need, &written), 0) << icg_last_error();

    icg_session* fresh = icg_session_create(&cfg);
    ASSERT_NE(fresh, nullptr) << icg_last_error();
    EXPECT_GE(icg_session_restore(fresh, blob.data(), written), 0) << icg_last_error();
    EXPECT_GE(icg_session_finish(fresh), 0) << icg_last_error();
    EXPECT_EQ(icg_session_destroy(fresh), ICG_OK);
    EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  }
}

// ---------------------------------------------------------------------------
// Abuse: config and handle lifecycle
// ---------------------------------------------------------------------------

TEST(CApiAbuseTest, NullArgumentsAreRejected) {
  EXPECT_EQ(icg_config_init(nullptr), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_create(nullptr), nullptr);

  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  const double samples[4] = {0, 0, 0, 0};
  EXPECT_EQ(icg_session_push(s, nullptr, samples, 4), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_push(s, samples, nullptr, 4), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_poll_beat(s, nullptr), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_quality(s, nullptr), ICG_ERR_NULL_ARG);
  std::uint32_t written = 0;
  EXPECT_EQ(icg_session_checkpoint(s, nullptr, 0, &written), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_restore(s, nullptr, 0), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiAbuseTest, AbiVersionMismatchIsRefused) {
  icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.abi_version = ICG_ABI_VERSION + 1;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
  EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_ABI_MISMATCH"), nullptr);
  cfg.abi_version = 0;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
}

TEST(CApiAbuseTest, BadConfigValuesAreRefused) {
  icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.backend = 42;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
  cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.sample_rate_hz = -250.0;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
  cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.window_s = 0.0;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
  cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.max_chunk = 0;
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
  cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.reserved[2] = 1;  // reserved fields are part of the v1 contract
  EXPECT_EQ(icg_session_create(&cfg), nullptr);
}

TEST(CApiAbuseTest, UnsupportedSampleRatesAreRefused) {
  // The engine's filters are designed for 125-1000 Hz. Outside that range
  // create must report ICG_ERR_BAD_CONFIG on both backends before any
  // filter is designed: at 50 Hz the ECG band-pass design itself fails
  // (an abort in the no-exceptions build), and at 2 kHz Q31 coefficients
  // leave the Q2.30 range.
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    for (const double fs : {50.0, 124.0, 1001.0, 2000.0}) {
      icg_config cfg = test_config(backend);
      cfg.sample_rate_hz = fs;
      EXPECT_EQ(icg_session_create(&cfg), nullptr) << backend << " at " << fs << " Hz";
      EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_BAD_CONFIG"), nullptr)
          << backend << " at " << fs << " Hz: " << icg_last_error();
    }
    for (const double fs : {125.0, 1000.0}) {
      icg_config cfg = test_config(backend);
      cfg.sample_rate_hz = fs;
      icg_session* s = icg_session_create(&cfg);
      ASSERT_NE(s, nullptr) << backend << " at " << fs << " Hz: " << icg_last_error();
      EXPECT_EQ(icg_session_destroy(s), ICG_OK);
    }
  }
}

TEST(CApiAbuseTest, BadHandlesNeverDereference) {
  icg_beat beat;
  const double samples[4] = {0, 0, 0, 0};
  // NULL, forged, and misaligned-garbage handles.
  EXPECT_EQ(icg_session_push(nullptr, samples, samples, 4), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_poll_beat(nullptr, &beat), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_finish(nullptr), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_destroy(nullptr), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_checkpoint_size(nullptr), 0u);
  auto* forged = reinterpret_cast<icg_session*>(static_cast<std::uintptr_t>(0xDEADBEEF));
  EXPECT_EQ(icg_session_push(forged, samples, samples, 4), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_destroy(forged), ICG_ERR_BAD_HANDLE);
}

TEST(CApiAbuseTest, DoubleDestroyAndStaleUseAreErrors) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  EXPECT_EQ(icg_session_destroy(s), ICG_ERR_BAD_HANDLE);
  const double samples[4] = {0, 0, 0, 0};
  EXPECT_EQ(icg_session_push(s, samples, samples, 4), ICG_ERR_BAD_HANDLE);
  icg_beat beat;
  EXPECT_EQ(icg_session_poll_beat(s, &beat), ICG_ERR_BAD_HANDLE);

  // A new session may reuse the slot; the old handle must stay dead.
  icg_session* fresh = icg_session_create(&cfg);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(icg_session_push(s, samples, samples, 4), ICG_ERR_BAD_HANDLE);
  EXPECT_NE(s, fresh);
  EXPECT_EQ(icg_session_destroy(fresh), ICG_OK);
}

TEST(CApiAbuseTest, OversizedChunkAndBadStateAreErrors) {
  icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.max_chunk = 64;
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  std::vector<double> samples(65, 0.0);
  EXPECT_EQ(icg_session_push(s, samples.data(), samples.data(), 65),
            ICG_ERR_CHUNK_TOO_LARGE);
  EXPECT_GE(icg_session_push(s, samples.data(), samples.data(), 64), 0);
  EXPECT_GE(icg_session_finish(s), 0);
  EXPECT_EQ(icg_session_push(s, samples.data(), samples.data(), 8), ICG_ERR_BAD_STATE);
  EXPECT_EQ(icg_session_finish(s), ICG_ERR_BAD_STATE);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

// NaN or an infinity in either channel refuses the whole push and
// applies none of it: the session's state is unchanged and it streams on
// exactly like a twin that never saw the chunk.
TEST(CApiAbuseTest, NonFiniteSamplesAreRefusedAndApplyNothing) {
  const auto rec = test_recording(20.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    SCOPED_TRACE(backend == ICG_BACKEND_DOUBLE ? "double" : "q31");
    const icg_config cfg = test_config(backend);
    icg_session* s = icg_session_create(&cfg);
    icg_session* twin = icg_session_create(&cfg);
    ASSERT_NE(s, nullptr) << icg_last_error();
    ASSERT_NE(twin, nullptr) << icg_last_error();
    push_range(s, rec, 0, 1500);
    push_range(twin, rec, 0, 1500);
    const std::vector<std::uint8_t> before = checkpoint_of(s);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      for (const bool in_ecg : {true, false}) {
        std::vector<double> ecg(rec.ecg_mv.begin() + 1500, rec.ecg_mv.begin() + 1500 + kChunk);
        std::vector<double> z(rec.z_ohm.begin() + 1500, rec.z_ohm.begin() + 1500 + kChunk);
        (in_ecg ? ecg : z)[kChunk - 1] = bad;
        EXPECT_EQ(icg_session_push(s, ecg.data(), z.data(), kChunk), ICG_ERR_BAD_SAMPLE);
        EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_BAD_SAMPLE"), nullptr);
      }
    }
    EXPECT_EQ(checkpoint_of(s), before);
    expect_twins_agree(s, twin, rec, 1500);
  }
  EXPECT_STREQ(icg_status_name(ICG_ERR_BAD_SAMPLE), "ICG_ERR_BAD_SAMPLE");
}

TEST(CApiAbuseTest, BeatBacklogPoisonsSession) {
  const auto rec = test_recording();
  icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  cfg.beat_queue_capacity = 2;  // absurdly small on purpose
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  int rc = 0;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off + kChunk <= total && rc >= 0; off += kChunk)
    rc = icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, kChunk);
  ASSERT_EQ(rc, ICG_ERR_BEAT_BACKLOG) << "never polling must overflow a 2-beat queue";
  // Poisoned: further pushes and finish keep reporting the overflow.
  EXPECT_EQ(icg_session_push(s, rec.ecg_mv.data(), rec.z_ohm.data(), kChunk),
            ICG_ERR_BEAT_BACKLOG);
  EXPECT_EQ(icg_session_finish(s), ICG_ERR_BEAT_BACKLOG);
  // Already-queued beats stay drainable, and destroy still works.
  icg_beat beat;
  EXPECT_EQ(icg_session_poll_beat(s, &beat), 1);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiAbuseTest, LastErrorAndStatusNamesAreStable) {
  EXPECT_EQ(icg_abi_version(), ICG_ABI_VERSION);
  EXPECT_STREQ(icg_status_name(ICG_OK), "ICG_OK");
  EXPECT_STREQ(icg_status_name(ICG_ERR_BAD_HANDLE), "ICG_ERR_BAD_HANDLE");
  EXPECT_STREQ(icg_status_name(-9999), "ICG_ERR_?");
  icg_session_destroy(nullptr);
  EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_BAD_HANDLE"), nullptr);
}

TEST(CApiAbuseTest, SessionTableExhaustionIsAnError) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  std::vector<icg_session*> sessions;
  for (;;) {
    icg_session* s = icg_session_create(&cfg);
    if (s == nullptr) break;
    sessions.push_back(s);
    ASSERT_LE(sessions.size(), 256u) << "table should be bounded";
  }
  EXPECT_NE(std::strstr(icg_last_error(), "ICG_ERR_NO_RESOURCES"), nullptr);
  for (icg_session* s : sessions) EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  // The table is fully reusable after the mass destroy.
  icg_session* again = icg_session_create(&cfg);
  EXPECT_NE(again, nullptr);
  EXPECT_EQ(icg_session_destroy(again), ICG_OK);
}

// ---------------------------------------------------------------------------
// Flight recording through the C ABI
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Streams a recording through a C session with flight recording on and
/// returns the .icgr bytes. `stop_mid_stream` exercises record_stop
/// instead of the finish-finalized path.
std::vector<std::uint8_t> record_c_session(const synth::Recording& rec,
                                           std::uint32_t backend,
                                           bool stop_mid_stream) {
  // Named after the calling test too: ctest runs tests as parallel
  // processes, and two tests recording the same backend must not share
  // a file.
  const std::string path = ::testing::TempDir() + "capi_flight_" +
                           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                           "_" + std::to_string(backend) +
                           (stop_mid_stream ? "_stopped" : "_finished") + ".icgr";
  const icg_config cfg = test_config(backend);
  icg_session* s = icg_session_create(&cfg);
  EXPECT_NE(s, nullptr) << icg_last_error();
  EXPECT_EQ(icg_session_record_start(s, path.c_str(), 1500), ICG_OK)
      << icg_last_error();
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    EXPECT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len),
              0)
        << icg_last_error();
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
    if (stop_mid_stream && off >= total / 2) {
      EXPECT_EQ(icg_session_record_stop(s), ICG_OK) << icg_last_error();
      stop_mid_stream = false;  // keep streaming, unrecorded
    }
  }
  EXPECT_GE(icg_session_finish(s), 0) << icg_last_error();
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  return read_file_bytes(path);
}

TEST(CApiFlightRecordTest, FinishFinalizedRecordingVerifiesOnBothBackends) {
  const auto rec = test_recording(20.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    const std::vector<std::uint8_t> file = record_c_session(rec, backend, false);
    uint32_t probed_backend = 99, finished = 0;
    double fs = 0.0;
    uint64_t chunks = 0, checkpoints = 0, beats = 0;
    ASSERT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()),
                               &probed_backend, &fs, &chunks, &checkpoints, &beats,
                               &finished),
              ICG_OK)
        << icg_last_error();
    EXPECT_EQ(probed_backend, backend);
    EXPECT_EQ(fs, 250.0);
    EXPECT_GT(chunks, 0u);
    EXPECT_GT(beats, 0u);
    EXPECT_EQ(finished, 1u);
    // The file replays byte-identically through the C++ replay engine —
    // the recording taps the exact samples the C caller pushed.
    const core::FlightVerifyReport rep = core::flight_verify(file);
    EXPECT_TRUE(rep.ok) << "backend " << backend << ": first divergent chunk "
                        << rep.first_divergent_chunk;
    EXPECT_TRUE(rep.finished);
  }
}

TEST(CApiFlightRecordTest, RecordStopWritesAStoppedButReplayableFile) {
  const auto rec = test_recording(20.0);
  const std::vector<std::uint8_t> file =
      record_c_session(rec, ICG_BACKEND_DOUBLE, true);
  uint32_t finished = 99;
  ASSERT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()),
                             nullptr, nullptr, nullptr, nullptr, nullptr, &finished),
            ICG_OK);
  EXPECT_EQ(finished, 0u);
  EXPECT_TRUE(core::flight_verify(file).ok);
}

TEST(CApiFlightRecordTest, RestoreStopsAnActiveRecording) {
  const auto rec = test_recording(20.0);
  const std::string path = ::testing::TempDir() + "capi_flight_restore.icgr";
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(icg_session_record_start(s, path.c_str(), 0), ICG_OK);
  icg_beat beat;
  ASSERT_GE(icg_session_push(s, rec.ecg_mv.data(), rec.z_ohm.data(), kChunk), 0);
  while (icg_session_poll_beat(s, &beat) == 1) {
  }
  std::vector<std::uint8_t> blob(icg_session_checkpoint_size(s));
  uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(s, blob.data(),
                                   static_cast<uint32_t>(blob.size()), &written),
            ICG_OK);
  // Restoring rewinds the stream, so the active recording is finalized
  // (as stopped) before the jump; a second stop is then a state error.
  ASSERT_EQ(icg_session_restore(s, blob.data(), written), ICG_OK);
  EXPECT_EQ(icg_session_record_stop(s), ICG_ERR_BAD_STATE);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  const std::vector<std::uint8_t> file = read_file_bytes(path);
  uint32_t finished = 99;
  EXPECT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()), nullptr,
                             nullptr, nullptr, nullptr, nullptr, &finished),
            ICG_OK);
  EXPECT_EQ(finished, 0u);
}

TEST(CApiFlightRecordTest, RecordMisuseIsRejected) {
  const std::string path = ::testing::TempDir() + "capi_flight_misuse.icgr";
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(icg_session_record_start(nullptr, path.c_str(), 0), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_record_stop(nullptr), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_record_start(s, nullptr, 0), ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_record_stop(s), ICG_ERR_BAD_STATE);  // not recording
  EXPECT_EQ(icg_session_record_start(s, "/nonexistent-dir/x.icgr", 0),
            ICG_ERR_BAD_CHECKPOINT);  // unopenable sink
  ASSERT_EQ(icg_session_record_start(s, path.c_str(), 0), ICG_OK);
  EXPECT_EQ(icg_session_record_start(s, path.c_str(), 0),
            ICG_ERR_BAD_STATE);  // already recording
  ASSERT_GE(icg_session_finish(s), 0);
  EXPECT_EQ(icg_session_record_stop(s), ICG_ERR_BAD_STATE);  // finish finalized it
  EXPECT_EQ(icg_session_record_start(s, path.c_str(), 0),
            ICG_ERR_BAD_STATE);  // after finish
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiFlightRecordTest, InMemoryRecordingRoundTripsThroughStopMem) {
  const auto rec = test_recording(20.0);
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(icg_session_record_start_mem(s, 1500), ICG_OK) << icg_last_error();
  EXPECT_EQ(icg_session_record_start_mem(s, 0), ICG_ERR_BAD_STATE);  // already on
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len),
              0);
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
  }
  // Size probe first: an undersized buffer reports the requirement and
  // keeps the recording retrievable.
  uint32_t written = 0;
  std::uint8_t tiny = 0;
  ASSERT_EQ(icg_session_record_stop_mem(s, &tiny, 1, &written),
            ICG_ERR_BUFFER_TOO_SMALL);
  ASSERT_GT(written, 1u);
  std::vector<std::uint8_t> file(written);
  ASSERT_EQ(icg_session_record_stop_mem(s, file.data(),
                                        static_cast<uint32_t>(file.size()), &written),
            ICG_OK)
      << icg_last_error();
  file.resize(written);
  // Taken exactly once: a second take is a state error.
  EXPECT_EQ(icg_session_record_stop_mem(s, file.data(),
                                        static_cast<uint32_t>(file.size()), &written),
            ICG_ERR_BAD_STATE);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);

  uint32_t finished = 99;
  uint64_t beats = 0;
  ASSERT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()), nullptr,
                             nullptr, nullptr, nullptr, &beats, &finished),
            ICG_OK);
  EXPECT_EQ(finished, 0u);  // stopped mid-stream, not finish-finalized
  EXPECT_GT(beats, 0u);
  // Replay-verified round trip: the in-memory .icgr bytes re-run
  // byte-identically through the C++ replay engine.
  EXPECT_TRUE(core::flight_verify(file).ok);
}

TEST(CApiFlightRecordTest, FinishFinalizedMemRecordingStaysRetrievable) {
  const auto rec = test_recording(15.0);
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(icg_session_record_start_mem(s, 0), ICG_OK);
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len =
        static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len),
              0);
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
  }
  ASSERT_GE(icg_session_finish(s), 0);  // finalizes the recording (FINI)
  while (icg_session_poll_beat(s, &beat) == 1) {
  }
  uint32_t written = 0;
  ASSERT_EQ(icg_session_record_stop_mem(s, nullptr, 0, &written),
            ICG_ERR_BUFFER_TOO_SMALL);
  std::vector<std::uint8_t> file(written);
  ASSERT_EQ(icg_session_record_stop_mem(s, file.data(),
                                        static_cast<uint32_t>(file.size()), &written),
            ICG_OK)
      << icg_last_error();
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  uint32_t finished = 0;
  ASSERT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()), nullptr,
                             nullptr, nullptr, nullptr, nullptr, &finished),
            ICG_OK);
  EXPECT_EQ(finished, 1u);
  const core::FlightVerifyReport rep = core::flight_verify(file);
  EXPECT_TRUE(rep.ok);
  EXPECT_TRUE(rep.finished);
}

TEST(CApiFlightRecordTest, RestoreFinalizesAnInMemoryRecordingAsStopped) {
  const auto rec = test_recording(20.0);
  for (const std::uint32_t backend : {ICG_BACKEND_DOUBLE, ICG_BACKEND_Q31}) {
    SCOPED_TRACE(backend == ICG_BACKEND_DOUBLE ? "double" : "q31");
    const icg_config cfg = test_config(backend);
    icg_session* s = icg_session_create(&cfg);
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(icg_session_record_start_mem(s, 0), ICG_OK) << icg_last_error();
    push_range(s, rec, 0, 2000);
    ASSERT_EQ(restore(s, checkpoint_of(s)), ICG_OK) << icg_last_error();
    // The restore ended the recording the way finish does, marked
    // stopped; the record stays retrievable exactly once.
    uint32_t written = 0;
    ASSERT_EQ(icg_session_record_stop_mem(s, nullptr, 0, &written), ICG_ERR_BUFFER_TOO_SMALL)
        << icg_last_error();
    std::vector<std::uint8_t> file(written);
    ASSERT_EQ(icg_session_record_stop_mem(s, file.data(), written, &written), ICG_OK)
        << icg_last_error();
    EXPECT_EQ(icg_session_record_stop_mem(s, file.data(), written, &written),
              ICG_ERR_BAD_STATE);
    EXPECT_EQ(icg_session_destroy(s), ICG_OK);
    uint32_t finished = 99;
    ASSERT_EQ(icg_flight_probe(file.data(), written, nullptr, nullptr, nullptr, nullptr,
                               nullptr, &finished),
              ICG_OK);
    EXPECT_EQ(finished, 0u);
    const core::FlightVerifyReport rep = core::flight_verify(file);
    EXPECT_TRUE(rep.ok);
    EXPECT_TRUE(rep.has_end);
    EXPECT_FALSE(rep.finished);
  }
}

TEST(CApiFlightRecordTest, LargestIntervalMidSessionWritesNoPeriodicCheckpoint) {
  // The cadence is the start position plus the interval: with the
  // largest interval, started after 2,500 samples, that sum must
  // saturate rather than wrap to a position already passed.
  const auto rec = test_recording(60.0);
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  constexpr std::uint32_t kSmall = 50;
  icg_beat beat;
  const std::size_t total = rec.ecg_mv.size();
  for (std::size_t off = 0; off < total; off += kSmall) {
    if (off == 2500) {
      ASSERT_EQ(icg_session_record_start_mem(s, UINT64_MAX), ICG_OK) << icg_last_error();
    }
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, kSmall),
              0);
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
  }
  uint32_t written = 0;
  ASSERT_EQ(icg_session_record_stop_mem(s, nullptr, 0, &written),
            ICG_ERR_BUFFER_TOO_SMALL);
  std::vector<std::uint8_t> file(written);
  ASSERT_EQ(icg_session_record_stop_mem(s, file.data(),
                                        static_cast<uint32_t>(file.size()), &written),
            ICG_OK);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
  uint64_t chunks = 0, checkpoints = 99;
  ASSERT_EQ(icg_flight_probe(file.data(), written, nullptr, nullptr, &chunks,
                             &checkpoints, nullptr, nullptr),
            ICG_OK);
  EXPECT_EQ(chunks, (total - 2500) / kSmall);
  EXPECT_EQ(checkpoints, 0u);
}

TEST(CApiFlightRecordTest, StopMemMisuseIsRejected) {
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  uint32_t written = 0;
  std::uint8_t buf[16];
  EXPECT_EQ(icg_session_record_start_mem(nullptr, 0), ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_record_stop_mem(nullptr, buf, sizeof buf, &written),
            ICG_ERR_BAD_HANDLE);
  EXPECT_EQ(icg_session_record_stop_mem(s, buf, sizeof buf, nullptr),
            ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_record_stop_mem(s, nullptr, 16, &written),
            ICG_ERR_NULL_ARG);
  EXPECT_EQ(icg_session_record_stop_mem(s, buf, sizeof buf, &written),
            ICG_ERR_BAD_STATE);  // nothing recording
  // A file recording is not retrievable through the memory verb.
  const std::string path = ::testing::TempDir() + "capi_flight_mem_misuse.icgr";
  ASSERT_EQ(icg_session_record_start(s, path.c_str(), 0), ICG_OK);
  EXPECT_EQ(icg_session_record_stop_mem(s, buf, sizeof buf, &written),
            ICG_ERR_BAD_STATE);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiFlightRecordTest, CorruptFlightRecordsProbeAsBadCheckpoint) {
  const auto rec = test_recording(15.0);
  const std::vector<std::uint8_t> file =
      record_c_session(rec, ICG_BACKEND_Q31, false);
  ASSERT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(file.size()), nullptr,
                             nullptr, nullptr, nullptr, nullptr, nullptr),
            ICG_OK);
  // Flip sweep: every corrupted variant is refused, never UB (this
  // binary runs under the ASan/UBSan CI entry).
  const std::size_t stride = std::max<std::size_t>(1, file.size() / 53);
  for (std::size_t pos = 0; pos < file.size(); pos += stride) {
    std::vector<std::uint8_t> bad = file;
    bad[pos] ^= 0xA5u;
    EXPECT_EQ(icg_flight_probe(bad.data(), static_cast<uint32_t>(bad.size()), nullptr,
                               nullptr, nullptr, nullptr, nullptr, nullptr),
              ICG_ERR_BAD_CHECKPOINT)
        << "flipped byte " << pos;
  }
  // Hard-truncation sweep (cut below the header: always refused).
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                std::size_t{8}, std::size_t{12}, std::size_t{16}}) {
    EXPECT_EQ(icg_flight_probe(file.data(), static_cast<uint32_t>(len), nullptr,
                               nullptr, nullptr, nullptr, nullptr, nullptr),
              ICG_ERR_BAD_CHECKPOINT)
        << "truncated to " << len;
  }
  EXPECT_EQ(icg_flight_probe(nullptr, 5, nullptr, nullptr, nullptr, nullptr, nullptr,
                             nullptr),
            ICG_ERR_NULL_ARG);
  // A plain checkpoint blob is not a flight record.
  const icg_config cfg = test_config(ICG_BACKEND_DOUBLE);
  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr);
  std::vector<std::uint8_t> blob(icg_session_checkpoint_size(s));
  uint32_t written = 0;
  ASSERT_EQ(icg_session_checkpoint(s, blob.data(),
                                   static_cast<uint32_t>(blob.size()), &written),
            ICG_OK);
  EXPECT_EQ(icg_flight_probe(blob.data(), written, nullptr, nullptr, nullptr, nullptr,
                             nullptr, nullptr),
            ICG_ERR_BAD_CHECKPOINT);
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

} // namespace
