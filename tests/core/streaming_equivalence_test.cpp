// The contract of the incremental engine: BeatPipeline::process is a thin
// one-big-chunk wrapper over StreamingBeatPipeline, and the streaming
// engine is chunk-size invariant -- so batch and streaming BeatRecords
// must be *byte-identical* (indices, flaws, hemodynamics) at every chunk
// size, not merely close. Plus the window-edge regression: beats emitted
// after their samples left the bounded look-back window must come out
// flagged, never referencing trimmed indices.
#include "core/pipeline.h"

#include "ecg/pan_tompkins.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

namespace icgkit::core {
namespace {

constexpr double kFs = 250.0;
constexpr std::size_t kChunkSizes[] = {1, 7, 64, 1024};

synth::Recording make_recording(double duration_s, std::size_t subject_idx = 2,
                                synth::Position pos = synth::Position::ArmsOutstretched) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  const synth::SourceActivity src = generate_source(roster[subject_idx], cfg);
  return measure_device(roster[subject_idx], src, 50e3, pos);
}

std::vector<BeatRecord> stream_in_chunks(const synth::Recording& rec, std::size_t chunk,
                                         const PipelineConfig& cfg = {},
                                         double window_s = 12.0) {
  StreamingBeatPipeline streaming(kFs, cfg, window_s);
  std::vector<BeatRecord> beats;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk) {
    const std::size_t len = std::min(chunk, rec.ecg_mv.size() - i);
    const auto got = streaming.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                                    dsp::SignalView(rec.z_ohm.data() + i, len));
    beats.insert(beats.end(), got.begin(), got.end());
  }
  const auto tail = streaming.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());
  return beats;
}

void expect_identical(const BeatRecord& a, const BeatRecord& b, std::size_t i,
                      std::size_t chunk) {
  const auto tag = [&] {
    return ::testing::Message() << "beat " << i << " chunk " << chunk;
  };
  EXPECT_EQ(a.points.r, b.points.r) << tag();
  EXPECT_EQ(a.points.b, b.points.b) << tag();
  EXPECT_EQ(a.points.b0, b.points.b0) << tag();
  EXPECT_EQ(a.points.c, b.points.c) << tag();
  EXPECT_EQ(a.points.x, b.points.x) << tag();
  EXPECT_EQ(a.points.valid, b.points.valid) << tag();
  EXPECT_EQ(a.points.b_method, b.points.b_method) << tag();
  EXPECT_EQ(a.points.c_amplitude, b.points.c_amplitude) << tag();
  EXPECT_EQ(a.flaws, b.flaws) << tag();
  EXPECT_EQ(a.rr_s, b.rr_s) << tag();
  EXPECT_EQ(a.hemo.pep_s, b.hemo.pep_s) << tag();
  EXPECT_EQ(a.hemo.lvet_s, b.hemo.lvet_s) << tag();
  EXPECT_EQ(a.hemo.hr_bpm, b.hemo.hr_bpm) << tag();
  EXPECT_EQ(a.hemo.dzdt_max, b.hemo.dzdt_max) << tag();
  EXPECT_EQ(a.hemo.sv_kubicek_ml, b.hemo.sv_kubicek_ml) << tag();
  EXPECT_EQ(a.hemo.sv_sramek_ml, b.hemo.sv_sramek_ml) << tag();
  EXPECT_EQ(a.hemo.co_kubicek_l_min, b.hemo.co_kubicek_l_min) << tag();
  EXPECT_EQ(a.hemo.tfc_per_kohm, b.hemo.tfc_per_kohm) << tag();
}

TEST(StreamingEquivalenceTest, BatchAndStreamingAreByteIdenticalAtEveryChunkSize) {
  const synth::Recording rec = make_recording(25.0);
  const BeatPipeline batch(kFs);
  const PipelineResult batch_res = batch.process(rec.ecg_mv, rec.z_ohm);
  ASSERT_GT(batch_res.beats.size(), 15u);

  for (const std::size_t chunk : kChunkSizes) {
    const std::vector<BeatRecord> streamed = stream_in_chunks(rec, chunk);
    ASSERT_EQ(streamed.size(), batch_res.beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i)
      expect_identical(streamed[i], batch_res.beats[i], i, chunk);
  }
}

TEST(StreamingEquivalenceTest, HoldsUnderNonDefaultConfig) {
  const synth::Recording rec = make_recording(15.0, 0, synth::Position::HoldToChest);
  PipelineConfig cfg;
  cfg.ecg_filter.f2_hz = 35.0;       // other ECG band-pass kernel
  cfg.icg_filter.highpass_hz = 0.5;  // other baseline decimation and kernel
  const BeatPipeline batch(kFs, cfg);
  const PipelineResult batch_res = batch.process(rec.ecg_mv, rec.z_ohm);
  ASSERT_GT(batch_res.beats.size(), 8u);

  for (const std::size_t chunk : kChunkSizes) {
    const std::vector<BeatRecord> streamed = stream_in_chunks(rec, chunk, cfg);
    ASSERT_EQ(streamed.size(), batch_res.beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < streamed.size(); ++i)
      expect_identical(streamed[i], batch_res.beats[i], i, chunk);
  }
}

TEST(StreamingEquivalenceTest, EveryRrPairIsEmittedExactlyOnce) {
  const synth::Recording rec = make_recording(20.0);
  StreamingBeatPipeline streaming(kFs);
  std::vector<BeatRecord> beats;
  const std::size_t chunk = 64;
  for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk) {
    const std::size_t len = std::min(chunk, rec.ecg_mv.size() - i);
    const auto got = streaming.push(dsp::SignalView(rec.ecg_mv.data() + i, len),
                                    dsp::SignalView(rec.z_ohm.data() + i, len));
    beats.insert(beats.end(), got.begin(), got.end());
  }
  const auto tail = streaming.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());

  // One beat per consecutive R pair, in strictly increasing order.
  ASSERT_GT(streaming.r_peak_count(), 10u);
  EXPECT_EQ(beats.size() + 1, streaming.r_peak_count());
  for (std::size_t i = 1; i < beats.size(); ++i)
    EXPECT_GT(beats[i].points.r, beats[i - 1].points.r);
}

// Regression (window-edge): with a look-back window smaller than the
// recording, late-flushed beats must be clamped/flagged rather than
// referencing samples that have left the window.
TEST(StreamingEquivalenceTest, SmallWindowNeverReferencesTrimmedSamples) {
  const synth::Recording rec = make_recording(20.0);
  for (const double window_s : {5.0, 8.0}) {
    const std::vector<BeatRecord> beats = stream_in_chunks(rec, 64, {}, window_s);
    ASSERT_GT(beats.size(), 10u) << "window " << window_s;
    const std::size_t n = rec.ecg_mv.size();
    for (const BeatRecord& rec_b : beats) {
      EXPECT_LT(rec_b.points.r, n);
      EXPECT_LT(rec_b.points.x, n);
      EXPECT_GE(rec_b.points.b, rec_b.points.r);
      EXPECT_GE(rec_b.points.c, rec_b.points.r);
      EXPECT_GE(rec_b.points.x, rec_b.points.r);
      // Points stay inside this beat's R-R interval.
      const auto span = static_cast<std::size_t>(rec_b.rr_s * kFs + 1.5);
      EXPECT_LE(rec_b.points.x, rec_b.points.r + span);
    }
    // And chunk invariance must hold for small windows too.
    const std::vector<BeatRecord> replay = stream_in_chunks(rec, 7, {}, window_s);
    ASSERT_EQ(replay.size(), beats.size());
    for (std::size_t i = 0; i < beats.size(); ++i)
      expect_identical(replay[i], beats[i], i, 7);
  }
}

// The online QRS detector itself must be chunk-invariant and equal to the
// batch wrapper (which feeds it one big chunk).
TEST(OnlinePanTompkinsTest, ChunkInvariantAndEqualToBatchDetect) {
  const synth::Recording rec = make_recording(20.0, 1, synth::Position::ArmsDown);
  const ecg::PanTompkins pt(kFs);
  // detect() runs on the cleaned ECG in the pipeline; raw is fine here.
  const ecg::QrsDetection batch = pt.detect(rec.ecg_mv);
  ASSERT_GT(batch.r_samples.size(), 15u);

  for (const std::size_t chunk : kChunkSizes) {
    ecg::OnlinePanTompkins online(kFs);
    std::vector<std::size_t> peaks;
    for (std::size_t i = 0; i < rec.ecg_mv.size(); i += chunk)
      online.push_chunk(dsp::SignalView(rec.ecg_mv.data() + i,
                                        std::min(chunk, rec.ecg_mv.size() - i)),
                        peaks);
    online.finish(peaks);
    ASSERT_EQ(peaks.size(), batch.r_samples.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < peaks.size(); ++i)
      EXPECT_EQ(peaks[i], batch.r_samples[i]) << "chunk " << chunk << " peak " << i;
  }
}

} // namespace
} // namespace icgkit::core
