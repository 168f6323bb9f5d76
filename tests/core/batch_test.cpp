// The SIMD batch engine's identity contract: every lane of a
// SessionBatch<W> emits BeatRecords byte-identical to a scalar
// StreamingBeatPipeline fed the same per-lane stream — at any chunking,
// under divergent per-lane corruption (dropout gaps opening and closing
// at different times per lane), and across the checkpoint boundary
// (unpack -> scalar engines resume), including at stream position 0,
// where a freshly built batch must equal W fresh scalar sessions.
// "Byte-identical" is meant literally: EXPECT_EQ on every double, not a
// tolerance.
#include "core/batch.h"
#include "core/pipeline.h"
#include "synth/recording.h"
#include "synth/scenario.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
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

std::vector<BeatRecord> run_scalar(const synth::Recording& rec,
                                   const PipelineConfig& cfg = {}) {
  StreamingBeatPipeline engine(kFs, cfg);
  std::vector<BeatRecord> beats = engine.push(rec.ecg_mv, rec.z_ohm);
  const auto tail = engine.finish();
  beats.insert(beats.end(), tail.begin(), tail.end());
  return beats;
}

void expect_identical_beat(const BeatRecord& a, const BeatRecord& b, std::size_t lane,
                           std::size_t i) {
  const auto tag = [&] { return ::testing::Message() << "lane " << lane << " beat " << i; };
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
                              std::size_t lane) {
  const auto tag = [&] { return ::testing::Message() << "lane " << lane; };
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

template <std::size_t W>
std::array<std::vector<BeatRecord>, W> run_batch(
    SessionBatch<W>& batch, const std::vector<synth::Recording>& recs,
    std::size_t chunk) {
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
  return beats;
}

TEST(SessionBatchTest, LanesAreByteIdenticalToScalarAcrossChunkSizes) {
  constexpr std::size_t W = 4;
  std::vector<synth::Recording> recs;
  std::vector<std::vector<BeatRecord>> expected;
  for (std::size_t l = 0; l < W; ++l) {
    recs.push_back(make_recording(l, 25.0));
    expected.push_back(run_scalar(recs.back()));
    ASSERT_GT(expected.back().size(), 10u) << "lane " << l;
  }

  for (const std::size_t chunk : kChunkSizes) {
    SessionBatch<W> batch(kFs);
    const auto got = run_batch(batch, recs, chunk);
    for (std::size_t l = 0; l < W; ++l) {
      ASSERT_EQ(got[l].size(), expected[l].size()) << "lane " << l << " chunk " << chunk;
      for (std::size_t i = 0; i < got[l].size(); ++i)
        expect_identical_beat(got[l][i], expected[l][i], l, i);
    }
  }
}

TEST(SessionBatchTest, WidthEightLanesMatchScalar) {
  constexpr std::size_t W = 8;
  std::vector<synth::Recording> recs;
  for (std::size_t l = 0; l < W; ++l) recs.push_back(make_recording(l, 20.0));

  SessionBatch<W> batch(kFs);
  const auto got = run_batch(batch, recs, 64);
  for (std::size_t l = 0; l < W; ++l) {
    const auto expected = run_scalar(recs[l]);
    ASSERT_GT(expected.size(), 10u) << "lane " << l;
    ASSERT_EQ(got[l].size(), expected.size()) << "lane " << l;
    for (std::size_t i = 0; i < got[l].size(); ++i)
      expect_identical_beat(got[l][i], expected[i], l, i);
    expect_identical_summary(batch.lane_quality(l),
                             [&] {
                               StreamingBeatPipeline e(kFs);
                               std::vector<BeatRecord> sink = e.push(recs[l].ecg_mv, recs[l].z_ohm);
                               e.finish();
                               return e.quality_summary();
                             }(),
                             l);
  }
}

TEST(SessionBatchTest, DivergentDropoutGapsPerLaneStayIdentical) {
  // Severe-tier corruption with a different seed per lane: dropout gaps
  // (and the detector soft-resets they trigger) open and close at
  // different samples in every lane, so per-lane control flow diverges
  // hard while the shared filter front stays lockstep.
  constexpr std::size_t W = 4;
  std::vector<synth::Recording> recs;
  std::vector<std::vector<BeatRecord>> expected;
  bool any_dropout = false;
  for (std::size_t l = 0; l < W; ++l) {
    synth::Recording rec = make_recording(l, 30.0);
    apply_scenario(rec, synth::ScenarioSpec::severe(), /*seed=*/101 + l);
    recs.push_back(std::move(rec));
    expected.push_back(run_scalar(recs.back()));
  }

  SessionBatch<W> batch(kFs);
  const auto got = run_batch(batch, recs, 64);
  for (std::size_t l = 0; l < W; ++l) {
    ASSERT_EQ(got[l].size(), expected[l].size()) << "lane " << l;
    for (std::size_t i = 0; i < got[l].size(); ++i)
      expect_identical_beat(got[l][i], expected[l][i], l, i);
    const QualitySummary& q = batch.lane_quality(l);
    if (q.ecg_dropouts + q.z_dropouts > 0) any_dropout = true;
  }
  EXPECT_TRUE(any_dropout) << "severe scenario produced no dropout gap; "
                              "the divergence this test exists for never happened";
}

// The checkpoint half of the identity contract, checked on the bytes
// themselves: unpack() equals, blob for blob, checkpoint() of scalar
// sessions fed the same samples. The cuts are stream position 0 (a
// freshly built batch is W fresh sessions, the state the fleet groups
// sessions in) and mid-stream, where severe corruption with a per-lane
// seed puts every lane's gap machine, decision tail and ensemble queue
// in a different state.
template <std::size_t W>
void expect_unpacked_blobs_match_scalar() {
  PipelineConfig cfg;
  cfg.enable_ensemble = true;
  std::vector<synth::Recording> recs;
  for (std::size_t l = 0; l < W; ++l) {
    synth::Recording rec = make_recording(l, 20.0);
    apply_scenario(rec, synth::ScenarioSpec::severe(), /*seed=*/307 + l);
    recs.push_back(std::move(rec));
  }
  // Position 0, then mid-stream off a chunk edge.
  const std::size_t cuts[] = {0, recs[0].ecg_mv.size() / 2 + 37};

  SessionBatch<W> batch(kFs, cfg);
  std::vector<StreamingBeatPipeline> scalar;
  scalar.reserve(W);
  for (std::size_t l = 0; l < W; ++l) scalar.emplace_back(kFs, cfg);
  std::array<std::vector<BeatRecord>, W> beats;
  std::vector<BeatRecord> sink;
  std::array<const double*, W> ecg{}, z{};
  std::vector<std::vector<std::uint8_t>> unpacked;
  std::size_t i = 0;
  for (const std::size_t cut : cuts) {
    while (i < cut) {
      const std::size_t len = std::min<std::size_t>(64, cut - i);
      for (std::size_t l = 0; l < W; ++l) {
        ecg[l] = recs[l].ecg_mv.data() + i;
        z[l] = recs[l].z_ohm.data() + i;
        scalar[l].push_into(dsp::SignalView(ecg[l], len), dsp::SignalView(z[l], len), sink);
      }
      batch.push(ecg.data(), z.data(), len, beats.data());
      i += len;
    }

    batch.unpack(unpacked);
    ASSERT_EQ(unpacked.size(), W);
    for (std::size_t l = 0; l < W; ++l)
      EXPECT_EQ(unpacked[l], scalar[l].checkpoint())
          << "W " << W << " cut " << cut << " lane " << l;
  }
}

TEST(SessionBatchTest, UnpackedBlobsMatchScalarCheckpoints) {
  expect_unpacked_blobs_match_scalar<4>();
  expect_unpacked_blobs_match_scalar<8>();
}

TEST(SessionBatchTest, FactoryValidatesWidth) {
  EXPECT_TRUE(session_batch_width_supported(4));
  EXPECT_TRUE(session_batch_width_supported(8));
  EXPECT_FALSE(session_batch_width_supported(3));
  EXPECT_NE(make_session_batch(4, kFs), nullptr);
  EXPECT_EQ(make_session_batch(8, kFs)->width(), 8u);
  EXPECT_THROW(make_session_batch(0, kFs), std::invalid_argument);
  EXPECT_THROW(make_session_batch(16, kFs), std::invalid_argument);
}

} // namespace
} // namespace icgkit::core
