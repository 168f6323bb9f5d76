// The deferred beat tail's identity contract. PR 8 restructured every
// engine from "tick the tail inline after each front sample" to a
// two-phase chunk: the fused filter front runs over the whole chunk
// first, then the per-lane tail replays the queued per-sample emissions
// in the exact order the inline code used. These tests pin the claim
// that the restructuring is invisible: byte-identical BeatRecords and
// QualitySummarys at every chunking (chunk=1 degenerates to the old
// inline interleaving and serves as the reference), for the double and
// Q31 scalar engines and the lockstep batch engine, under severe
// corruption, and across a dissolve that lands exactly on a beat
// emission while the next beat's window is still pending in the rings.
#include "core/batch.h"
#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/scenario.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

namespace icgkit::core {
namespace {

constexpr double kFs = 250.0;
constexpr std::size_t kChunkSizes[] = {1, 7, 64, 1024};

synth::Recording make_recording(std::size_t subject_idx, double duration_s) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  const synth::SourceActivity src =
      generate_source(roster[subject_idx % roster.size()], cfg);
  return measure_device(roster[subject_idx % roster.size()], src, 50e3,
                        synth::Position::ArmsOutstretched);
}

void expect_identical_beat(const BeatRecord& a, const BeatRecord& b, std::size_t i,
                           std::size_t chunk) {
  const auto tag = [&] { return ::testing::Message() << "beat " << i << " chunk " << chunk; };
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
  EXPECT_EQ(a.signal.snr_db, b.signal.snr_db) << tag();
  EXPECT_EQ(a.signal.flatline_fraction, b.signal.flatline_fraction) << tag();
  EXPECT_EQ(a.signal.saturation_fraction, b.signal.saturation_fraction) << tag();
  EXPECT_EQ(a.hemo.pep_s, b.hemo.pep_s) << tag();
  EXPECT_EQ(a.hemo.lvet_s, b.hemo.lvet_s) << tag();
  EXPECT_EQ(a.hemo.hr_bpm, b.hemo.hr_bpm) << tag();
  EXPECT_EQ(a.hemo.dzdt_max, b.hemo.dzdt_max) << tag();
  EXPECT_EQ(a.hemo.sv_kubicek_ml, b.hemo.sv_kubicek_ml) << tag();
  EXPECT_EQ(a.hemo.sv_sramek_ml, b.hemo.sv_sramek_ml) << tag();
  EXPECT_EQ(a.hemo.co_kubicek_l_min, b.hemo.co_kubicek_l_min) << tag();
  EXPECT_EQ(a.hemo.tfc_per_kohm, b.hemo.tfc_per_kohm) << tag();
  ASSERT_EQ(a.ensemble_points.has_value(), b.ensemble_points.has_value()) << tag();
  if (a.ensemble_points.has_value()) {
    EXPECT_EQ(a.ensemble_points->r, b.ensemble_points->r) << tag();
    EXPECT_EQ(a.ensemble_points->c, b.ensemble_points->c) << tag();
    EXPECT_EQ(a.ensemble_points->b, b.ensemble_points->b) << tag();
    EXPECT_EQ(a.ensemble_points->x, b.ensemble_points->x) << tag();
  }
}

void expect_identical_summary(const QualitySummary& a, const QualitySummary& b,
                              std::size_t chunk) {
  const auto tag = [&] { return ::testing::Message() << "chunk " << chunk; };
  EXPECT_EQ(a.beats, b.beats) << tag();
  EXPECT_EQ(a.usable, b.usable) << tag();
  for (std::size_t f = 0; f < std::size(a.flaw_counts); ++f)
    EXPECT_EQ(a.flaw_counts[f], b.flaw_counts[f]) << tag() << " flaw " << f;
  EXPECT_EQ(a.ecg_dropouts, b.ecg_dropouts) << tag();
  EXPECT_EQ(a.z_dropouts, b.z_dropouts) << tag();
  EXPECT_EQ(a.detector_resets, b.detector_resets) << tag();
  EXPECT_EQ(a.ensemble_folds_skipped, b.ensemble_folds_skipped) << tag();
  EXPECT_EQ(a.snr_beats, b.snr_beats) << tag();
  EXPECT_EQ(a.sum_snr_db, b.sum_snr_db) << tag();
  EXPECT_EQ(a.min_snr_db, b.min_snr_db) << tag();
}

/// Runs one scalar engine over the recording at the given chunking and
/// returns (beats, final quality summary).
template <typename Engine>
std::pair<std::vector<BeatRecord>, QualitySummary> run_chunked(
    const synth::Recording& rec, std::size_t chunk, const PipelineConfig& cfg = {}) {
  Engine engine(kFs, cfg);
  std::vector<BeatRecord> beats;
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += chunk) {
    const std::size_t len = std::min(chunk, n - i);
    engine.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                     dsp::SignalView(rec.z_ohm.data() + i, len), beats);
  }
  engine.finish_into(beats);
  return {std::move(beats), engine.quality_summary()};
}

// chunk=1 interleaves front and tail exactly like the pre-refactor
// inline code (every queued range is a single sample, drained
// immediately), so it is the inline-tail reference the larger chunks
// must match byte-for-byte.
TEST(BatchTailTest, ScalarDeferredTailIsChunkInvariant) {
  PipelineConfig cfg;
  cfg.enable_ensemble = true;  // ensemble fold is part of the deferred tail
  const synth::Recording rec = make_recording(0, 30.0);
  const auto [ref_beats, ref_summary] =
      run_chunked<StreamingBeatPipeline>(rec, 1, cfg);
  ASSERT_GT(ref_beats.size(), 10u);

  for (const std::size_t chunk : kChunkSizes) {
    if (chunk == 1) continue;
    const auto [beats, summary] = run_chunked<StreamingBeatPipeline>(rec, chunk, cfg);
    ASSERT_EQ(beats.size(), ref_beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < beats.size(); ++i)
      expect_identical_beat(beats[i], ref_beats[i], i, chunk);
    expect_identical_summary(summary, ref_summary, chunk);
  }
}

TEST(BatchTailTest, FixedDeferredTailIsChunkInvariant) {
  const synth::Recording rec = make_recording(1, 30.0);
  const auto [ref_beats, ref_summary] = run_chunked<FixedStreamingBeatPipeline>(rec, 1);
  ASSERT_GT(ref_beats.size(), 10u);

  for (const std::size_t chunk : kChunkSizes) {
    if (chunk == 1) continue;
    const auto [beats, summary] = run_chunked<FixedStreamingBeatPipeline>(rec, chunk);
    ASSERT_EQ(beats.size(), ref_beats.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < beats.size(); ++i)
      expect_identical_beat(beats[i], ref_beats[i], i, chunk);
    expect_identical_summary(summary, ref_summary, chunk);
  }
}

TEST(BatchTailTest, BatchDeferredTailMatchesScalarUnderSevereCorruption) {
  // Severe per-lane corruption drives the tail's divergent control flow
  // (dropout gaps, soft resets, rejected beats) while the lockstep front
  // stays uniform; every chunking must still reproduce the scalar run.
  constexpr std::size_t W = 4;
  std::vector<synth::Recording> recs;
  std::vector<std::vector<BeatRecord>> expected;
  std::vector<QualitySummary> expected_q;
  for (std::size_t l = 0; l < W; ++l) {
    synth::Recording rec = make_recording(l, 25.0);
    apply_scenario(rec, synth::ScenarioSpec::severe(), /*seed=*/211 + l);
    recs.push_back(std::move(rec));
    auto [beats, summary] = run_chunked<StreamingBeatPipeline>(recs.back(), 1);
    expected.push_back(std::move(beats));
    expected_q.push_back(summary);
  }

  for (const std::size_t chunk : kChunkSizes) {
    SessionBatch<W> batch(kFs);
    std::array<std::vector<BeatRecord>, W> beats;
    std::array<const double*, W> ecg{}, z{};
    const std::size_t n = recs[0].ecg_mv.size();
    for (std::size_t i = 0; i < n; i += chunk) {
      const std::size_t len = std::min(chunk, n - i);
      for (std::size_t l = 0; l < W; ++l) {
        ecg[l] = recs[l].ecg_mv.data() + i;
        z[l] = recs[l].z_ohm.data() + i;
      }
      batch.push(ecg.data(), z.data(), len, beats.data());
    }
    batch.finish(beats.data());
    for (std::size_t l = 0; l < W; ++l) {
      ASSERT_EQ(beats[l].size(), expected[l].size()) << "lane " << l << " chunk " << chunk;
      for (std::size_t i = 0; i < beats[l].size(); ++i)
        expect_identical_beat(beats[l][i], expected[l][i], i, chunk);
      expect_identical_summary(batch.lane_quality(l), expected_q[l], chunk);
    }
  }
}

TEST(BatchTailTest, DissolveOnBeatEmissionBoundaryStaysIdentical) {
  // Worst-case checkpoint cut for the deferred tail: dissolve the batch
  // at exactly the sample where a lane emits a beat, i.e. while the
  // NEXT beat's window is already partially buffered in the rings and
  // the just-emitted beat left the pending queue this very sample. The
  // unpacked blob must let a fresh scalar engine resume byte-identically.
  constexpr std::size_t W = 4;
  PipelineConfig cfg;
  cfg.enable_ensemble = true;
  std::vector<synth::Recording> recs;
  std::vector<std::vector<BeatRecord>> expected;
  std::vector<QualitySummary> expected_q;
  for (std::size_t l = 0; l < W; ++l) {
    recs.push_back(make_recording(l, 20.0));
    auto [beats, summary] = run_chunked<StreamingBeatPipeline>(recs[l], 1, cfg);
    ASSERT_GT(beats.size(), 6u) << "lane " << l;
    expected.push_back(std::move(beats));
    expected_q.push_back(summary);
  }

  // Single-sample pushes until lane 0 has emitted its fourth beat: the
  // dissolve boundary then coincides with a beat emission on lane 0
  // while the other lanes sit mid-window at unrelated phases.
  SessionBatch<W> batch(kFs, cfg);

  std::array<std::vector<BeatRecord>, W> beats;
  std::array<const double*, W> ecg{}, z{};
  const std::size_t n = recs[0].ecg_mv.size();
  std::size_t cut = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      ecg[l] = recs[l].ecg_mv.data() + i;
      z[l] = recs[l].z_ohm.data() + i;
    }
    batch.push(ecg.data(), z.data(), 1, beats.data());
    if (beats[0].size() >= 4) {
      cut = i + 1;
      break;
    }
  }
  ASSERT_GT(cut, 0u) << "lane 0 never emitted four beats";
  ASSERT_LT(cut, n);

  std::vector<std::vector<std::uint8_t>> blobs;
  batch.unpack(blobs);
  for (std::size_t l = 0; l < W; ++l) {
    auto resumed = std::make_unique<StreamingBeatPipeline>(kFs, cfg);
    resumed->restore(blobs[l]);
    resumed->push_into(dsp::SignalView(recs[l].ecg_mv.data() + cut, n - cut),
                       dsp::SignalView(recs[l].z_ohm.data() + cut, n - cut), beats[l]);
    resumed->finish_into(beats[l]);
    ASSERT_EQ(beats[l].size(), expected[l].size()) << "lane " << l;
    for (std::size_t i = 0; i < beats[l].size(); ++i)
      expect_identical_beat(beats[l][i], expected[l][i], i, /*chunk=*/1);
    expect_identical_summary(resumed->quality_summary(), expected_q[l], 1);
  }
}

} // namespace
} // namespace icgkit::core
