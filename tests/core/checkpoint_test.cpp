// core::Checkpoint: versioned, CRC-framed session state capture.
//
// The contract under test (the substrate of the fleet's elastic
// rebalancing): checkpoint() -> restore() into a freshly constructed
// pipeline -> resume produces byte-identical BeatRecords to the
// uninterrupted stream, for both numeric backends, at any chunk size in
// {1, 7, 64, 1024} and any cut point — including mid-QRS and inside a
// contact-gap dropout. A version-1 reader must also reject corrupted,
// truncated, or mismatched blobs with CheckpointError (never UB), and
// read the committed version-1 golden fixtures bit-exactly.
#include "common/restamp.h"
#include "core/beat_serializer.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "dsp/filtfilt.h"
#include "dsp/morphology.h"
#include "dsp/zero_phase_highpass.h"
#include "synth/recording.h"
#include "synth/rng.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using namespace icgkit;
using core::BeatRecord;
using core::CheckpointError;
using core::FixedStreamingBeatPipeline;
using core::PipelineConfig;
using core::QualitySummary;
using core::StateReader;
using core::StateWriter;
using core::StreamingBeatPipeline;
using core::serialize_beat;

constexpr double kFs = 250.0;

synth::Recording test_recording(std::uint64_t session_seed = 3,
                                double duration_s = 25.0) {
  synth::RecordingConfig cfg;
  cfg.duration_s = duration_s;
  cfg.fs = kFs;
  cfg.session_seed = session_seed;
  const auto roster = synth::paper_roster();
  const synth::SourceActivity src = generate_source(roster[0], cfg);
  return measure_thoracic(roster[0], src, 50e3);
}

/// Sample-and-hold both channels over [begin, end) — a contact gap.
void hold_both(synth::Recording& rec, std::size_t begin, std::size_t end) {
  const double ecg_held = begin > 0 ? rec.ecg_mv[begin - 1] : 0.0;
  const double z_held = begin > 0 ? rec.z_ohm[begin - 1] : 0.0;
  for (std::size_t i = begin; i < std::min(end, rec.ecg_mv.size()); ++i) {
    rec.ecg_mv[i] = ecg_held;
    rec.z_ohm[i] = z_held;
  }
}

/// Feeds rec[from, to) in `chunk`-sized pushes.
template <typename Pipeline>
void feed(Pipeline& p, const synth::Recording& rec, std::size_t from, std::size_t to,
          std::size_t chunk, std::vector<BeatRecord>& out) {
  for (std::size_t i = from; i < to; i += chunk) {
    const std::size_t len = std::min(chunk, to - i);
    p.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                dsp::SignalView(rec.z_ohm.data() + i, len), out);
  }
}

/// The uninterrupted reference run.
template <typename Pipeline>
std::vector<BeatRecord> run_reference(const synth::Recording& rec, std::size_t chunk,
                                      QualitySummary& summary,
                                      const PipelineConfig& cfg = {}) {
  Pipeline p(rec.fs, cfg);
  std::vector<BeatRecord> beats;
  feed(p, rec, 0, rec.ecg_mv.size(), chunk, beats);
  p.finish_into(beats);
  summary = p.quality_summary();
  return beats;
}

/// Runs to `cut`, checkpoints, restores into a FRESH pipeline, resumes.
template <typename Pipeline>
std::vector<BeatRecord> run_with_cut(const synth::Recording& rec, std::size_t chunk,
                                     std::size_t cut, QualitySummary& summary,
                                     const PipelineConfig& cfg = {}) {
  std::vector<BeatRecord> beats;
  std::vector<std::uint8_t> blob;
  {
    Pipeline first(rec.fs, cfg);
    feed(first, rec, 0, cut, chunk, beats);
    blob = first.checkpoint();
  }  // the source engine is gone; only the blob survives the cut
  Pipeline second(rec.fs, cfg);
  second.restore(blob);
  feed(second, rec, cut, rec.ecg_mv.size(), chunk, beats);
  second.finish_into(beats);
  summary = second.quality_summary();
  return beats;
}

std::vector<unsigned char> serialize_all(const std::vector<BeatRecord>& beats) {
  std::vector<unsigned char> bytes;
  for (const BeatRecord& b : beats) serialize_beat(b, bytes);
  return bytes;
}

void expect_summary_eq(const QualitySummary& a, const QualitySummary& b,
                       const std::string& tag) {
  EXPECT_EQ(a.beats, b.beats) << tag;
  EXPECT_EQ(a.usable, b.usable) << tag;
  for (std::size_t i = 0; i < core::kBeatFlawCount; ++i)
    EXPECT_EQ(a.flaw_counts[i], b.flaw_counts[i]) << tag << " flaw bit " << i;
  EXPECT_EQ(a.ecg_dropouts, b.ecg_dropouts) << tag;
  EXPECT_EQ(a.z_dropouts, b.z_dropouts) << tag;
  EXPECT_EQ(a.detector_resets, b.detector_resets) << tag;
  EXPECT_EQ(a.ensemble_folds_skipped, b.ensemble_folds_skipped) << tag;
  EXPECT_EQ(a.snr_beats, b.snr_beats) << tag;
  EXPECT_EQ(a.sum_snr_db, b.sum_snr_db) << tag;
  EXPECT_EQ(a.min_snr_db, b.min_snr_db) << tag;
}

template <typename Pipeline>
void expect_roundtrip_identity(const synth::Recording& rec, std::size_t chunk,
                               std::size_t cut, const PipelineConfig& cfg,
                               const std::string& tag) {
  QualitySummary ref_summary, cut_summary;
  const auto ref = run_reference<Pipeline>(rec, chunk, ref_summary, cfg);
  const auto resumed = run_with_cut<Pipeline>(rec, chunk, cut, cut_summary, cfg);
  ASSERT_EQ(ref.size(), resumed.size()) << tag;
  EXPECT_EQ(serialize_all(ref), serialize_all(resumed)) << tag;
  expect_summary_eq(ref_summary, cut_summary, tag);
}

// ---------------------------------------------------------------------------
// CRC-32 implementation parity
// ---------------------------------------------------------------------------

// checkpoint_crc32 dispatches between a carry-less-multiply kernel
// (long 16-byte-aligned spans) and a plain table walk for tails and
// short input. Both must agree with the textbook bit-at-a-time IEEE
// CRC-32 on every length, or old blobs stop validating — so sweep
// lengths across all dispatch boundaries against an independent
// bitwise reference.
TEST(CheckpointCrcTest, AllDispatchPathsMatchTheBitwiseReference) {
  const auto bitwise = [](const std::uint8_t* data, std::size_t n) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= data[i];
      for (int k = 0; k < 8; ++k)
        crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xFFFFFFFFu;
  };
  synth::Rng rng(4242);
  std::vector<std::uint8_t> buf(513);
  for (auto& b : buf)
    b = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
  for (std::size_t len = 0; len <= buf.size(); ++len)
    ASSERT_EQ(core::checkpoint_crc32(buf.data(), len), bitwise(buf.data(), len))
        << "length " << len;
}

// ---------------------------------------------------------------------------
// Kernel-level round trips
// ---------------------------------------------------------------------------

TEST(CheckpointKernelTest, ZeroPhaseFirResumesBitIdentically) {
  const dsp::FirCoefficients kernel =
      dsp::zero_phase_fir_kernel(dsp::design_lowpass(40, 30.0, kFs));
  synth::Rng rng(9);
  std::vector<double> x(600);
  for (double& v : x) v = rng.normal();

  for (const std::size_t cut : {1UL, 20UL, 100UL, 599UL}) {
    dsp::StreamingZeroPhaseFir ref(kernel);
    std::vector<double> ref_out;
    for (const double v : x) ref.push(v, ref_out);
    ref.finish(ref_out);

    dsp::StreamingZeroPhaseFir a(kernel);
    std::vector<double> out;
    for (std::size_t i = 0; i < cut; ++i) a.push(x[i], out);
    StateWriter w;
    w.begin_section("TEST");
    a.save_state(w);
    w.end_section();
    const auto blob = w.take();

    dsp::StreamingZeroPhaseFir b(kernel);
    StateReader r(blob);
    r.begin_section("TEST");
    b.load_state(r);
    r.end_section();
    for (std::size_t i = cut; i < x.size(); ++i) b.push(x[i], out);
    b.finish(out);
    EXPECT_EQ(ref_out, out) << "cut " << cut;
  }
}

TEST(CheckpointKernelTest, BaselineRemoverResumesBitIdentically) {
  synth::Rng rng(21);
  std::vector<double> x(1500);
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = rng.normal() + 0.5 * static_cast<double>(i) / 250.0;

  dsp::StreamingBaselineRemover ref(kFs);
  std::vector<double> ref_out;
  for (const double v : x) ref.push(v, ref_out);
  ref.finish(ref_out);

  const std::size_t cut = 700;
  dsp::StreamingBaselineRemover a(kFs);
  std::vector<double> out;
  for (std::size_t i = 0; i < cut; ++i) a.push(x[i], out);
  StateWriter w;
  w.begin_section("TEST");
  a.save_state(w);
  w.end_section();
  const auto blob = w.take();

  dsp::StreamingBaselineRemover b(kFs);
  StateReader r(blob);
  r.begin_section("TEST");
  b.load_state(r);
  r.end_section();
  for (std::size_t i = cut; i < x.size(); ++i) b.push(x[i], out);
  b.finish(out);
  EXPECT_EQ(ref_out, out);
}

// Loads what `write` puts in one section into `stage`; raises the
// reader's refusal as CheckpointError.
template <typename Stage, typename Write>
void load_section(Stage& stage, Write write) {
  StateWriter w;
  w.begin_section("TEST");
  write(w);
  w.end_section();
  const auto blob = w.take();
  StateReader r(blob);
  r.begin_section("TEST");
  stage.load_state(r);
  r.end_section();
  if (!r.ok()) throw CheckpointError(r.error());
}

TEST(CheckpointKernelTest, ClearedStagePresenceByteIsRefused) {
  // The v1 layouts keep a presence byte per conditioning sub-stage. Every
  // sub-stage always runs, so a blob with a cleared byte is refused.
  const dsp::StreamingBaselineRemover morph(kFs);
  const dsp::StreamingZeroPhaseFir band(core::ecg_cleaner_fir_kernel(kFs, {}));
  for (const auto& [has_morph, has_fir] : {std::pair{true, true}, std::pair{false, true},
                                           std::pair{true, false}}) {
    core::EcgCleanerStage ecg(kFs);
    const auto write = [&](StateWriter& w) {
      w.boolean(has_morph);
      w.boolean(has_fir);
      morph.save_state(w);
      band.save_state(w);
    };
    if (has_morph && has_fir)
      EXPECT_NO_THROW(load_section(ecg, write));
    else
      EXPECT_THROW(load_section(ecg, write), CheckpointError);
  }

  const dsp::StreamingZeroPhaseFir lowpass(core::icg_conditioner_lowpass_kernel(kFs, {}));
  const dsp::StreamingZeroPhaseHighpass highpass(kFs);
  for (const bool has_highpass : {true, false}) {
    core::IcgConditionerStage icg(kFs);
    const auto write = [&](StateWriter& w) {
      lowpass.save_state(w);
      w.boolean(has_highpass);
      highpass.save_state(w);
      w.f64(0.0);
      w.f64(0.0);
      w.u64(0);
    };
    if (has_highpass)
      EXPECT_NO_THROW(load_section(icg, write));
    else
      EXPECT_THROW(load_section(icg, write), CheckpointError);
  }
}

TEST(CheckpointKernelTest, RngResumesItsSubstreamExactly) {
  synth::Rng ref(1234);
  for (int i = 0; i < 101; ++i) ref.normal();  // odd count: cache a deviate

  synth::Rng a(1234);
  for (int i = 0; i < 101; ++i) a.normal();
  StateWriter w;
  w.begin_section("TEST");
  a.save_state(w);
  w.end_section();
  const auto blob = w.take();

  synth::Rng b(999);  // wrong seed: restore must overwrite it
  StateReader r(blob);
  r.begin_section("TEST");
  b.load_state(r);
  r.end_section();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(ref.next_u64(), b.next_u64());
    EXPECT_EQ(ref.normal(), b.normal());
  }
}

// ---------------------------------------------------------------------------
// Full-pipeline round trips: the byte-identity guarantee
// ---------------------------------------------------------------------------

TEST(CheckpointPipelineTest, ResumeIsByteIdenticalAcrossChunkSizesDouble) {
  const synth::Recording rec = test_recording();
  const std::size_t cut = rec.ecg_mv.size() / 2;
  for (const std::size_t chunk : {1UL, 7UL, 64UL, 1024UL})
    expect_roundtrip_identity<StreamingBeatPipeline>(
        rec, chunk, cut, {}, "double chunk " + std::to_string(chunk));
}

TEST(CheckpointPipelineTest, ResumeIsByteIdenticalAcrossChunkSizesQ31) {
  const synth::Recording rec = test_recording();
  const std::size_t cut = rec.ecg_mv.size() / 2;
  for (const std::size_t chunk : {1UL, 7UL, 64UL, 1024UL})
    expect_roundtrip_identity<FixedStreamingBeatPipeline>(
        rec, chunk, cut, {}, "q31 chunk " + std::to_string(chunk));
}

TEST(CheckpointPipelineTest, ResumeIsByteIdenticalAtAwkwardCutPoints) {
  const synth::Recording rec = test_recording();
  const std::size_t n = rec.ecg_mv.size();
  // Mid-QRS: cut exactly at a ground-truth R peak, when every stage is
  // mid-transient and the detector holds an unconfirmed candidate.
  const std::size_t mid_qrs =
      static_cast<std::size_t>(rec.beats[rec.beats.size() / 2].r_time_s * kFs);
  ASSERT_GT(mid_qrs, 0u);
  ASSERT_LT(mid_qrs, n);
  for (const std::size_t cut : {1UL, 7UL, mid_qrs, n - 1}) {
    expect_roundtrip_identity<StreamingBeatPipeline>(
        rec, 64, cut, {}, "double cut " + std::to_string(cut));
    expect_roundtrip_identity<FixedStreamingBeatPipeline>(
        rec, 64, cut, {}, "q31 cut " + std::to_string(cut));
  }
}

TEST(CheckpointPipelineTest, ResumeInsideDropoutGapPreservesRecoveryState) {
  synth::Recording rec = test_recording(17);
  // A 1.5 s dual-channel contact gap starting at 10 s; cut in the middle
  // of it, while the contact-gap state machine holds an open gap and the
  // flat-run counters are mid-flight.
  const std::size_t gap_begin = static_cast<std::size_t>(10.0 * kFs);
  const std::size_t gap_len = static_cast<std::size_t>(1.5 * kFs);
  hold_both(rec, gap_begin, gap_begin + gap_len);
  const std::size_t cut = gap_begin + gap_len / 2;
  for (const std::size_t chunk : {7UL, 64UL}) {
    expect_roundtrip_identity<StreamingBeatPipeline>(
        rec, chunk, cut, {}, "double dropout chunk " + std::to_string(chunk));
    expect_roundtrip_identity<FixedStreamingBeatPipeline>(
        rec, chunk, cut, {}, "q31 dropout chunk " + std::to_string(chunk));
  }
}

TEST(CheckpointPipelineTest, ResumeWithEnsembleTemplateIsByteIdentical) {
  const synth::Recording rec = test_recording(5);
  PipelineConfig cfg;
  cfg.enable_ensemble = true;
  // Cut once the template holds beats and again right at the start,
  // before it exists.
  for (const std::size_t cut : {static_cast<std::size_t>(2.0 * kFs),
                                rec.ecg_mv.size() * 2 / 3}) {
    expect_roundtrip_identity<StreamingBeatPipeline>(
        rec, 64, cut, cfg, "double ensemble cut " + std::to_string(cut));
    expect_roundtrip_identity<FixedStreamingBeatPipeline>(
        rec, 64, cut, cfg, "q31 ensemble cut " + std::to_string(cut));
  }
}

TEST(CheckpointPipelineTest, DoubleChainOfMigrationsStaysIdentical) {
  // Checkpoint -> restore -> checkpoint -> restore ... at several cut
  // points in sequence, the way a session bouncing between fleet workers
  // experiences it.
  const synth::Recording rec = test_recording(8);
  const std::size_t n = rec.ecg_mv.size();
  QualitySummary ref_summary;
  const auto ref = run_reference<StreamingBeatPipeline>(rec, 64, ref_summary);

  std::vector<BeatRecord> beats;
  auto engine = std::make_unique<StreamingBeatPipeline>(rec.fs, PipelineConfig{});
  std::size_t pos = 0;
  for (const double frac : {0.2, 0.4, 0.6, 0.8}) {
    const std::size_t cut = static_cast<std::size_t>(frac * static_cast<double>(n));
    feed(*engine, rec, pos, cut, 64, beats);
    const auto blob = engine->checkpoint();
    engine = std::make_unique<StreamingBeatPipeline>(rec.fs, PipelineConfig{});
    engine->restore(blob);
    pos = cut;
  }
  feed(*engine, rec, pos, n, 64, beats);
  engine->finish_into(beats);
  EXPECT_EQ(serialize_all(ref), serialize_all(beats));
  expect_summary_eq(ref_summary, engine->quality_summary(), "chained");
}

// ---------------------------------------------------------------------------
// Rejection: corrupted, truncated and mismatched blobs fail cleanly
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> half_stream_blob() {
  const synth::Recording rec = test_recording();
  StreamingBeatPipeline p(rec.fs);
  std::vector<BeatRecord> beats;
  feed(p, rec, 0, rec.ecg_mv.size() / 2, 64, beats);
  return p.checkpoint();
}

TEST(CheckpointRejectionTest, EveryFlippedByteIsRejectedNotUB) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  // Flip one byte at ~199 positions spread over the blob (every frame
  // field class gets hit: magic, version, tags, lengths, payloads, CRCs).
  const std::size_t stride = std::max<std::size_t>(1, blob.size() / 199);
  for (std::size_t pos = 0; pos < blob.size(); pos += stride) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0xA5u;
    StreamingBeatPipeline p(kFs);
    EXPECT_THROW(p.restore(bad), CheckpointError) << "flipped byte " << pos;
  }
}

TEST(CheckpointRejectionTest, EveryTruncationIsRejectedNotUB) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  std::vector<std::size_t> lengths = {0, 1, 3, 4, 7, 8, 11, 12, 15, 16};
  const std::size_t stride = std::max<std::size_t>(1, blob.size() / 97);
  for (std::size_t len = 17; len < blob.size(); len += stride) lengths.push_back(len);
  for (const std::size_t len : lengths) {
    const std::vector<std::uint8_t> bad(blob.begin(),
                                        blob.begin() + static_cast<std::ptrdiff_t>(len));
    StreamingBeatPipeline p(kFs);
    EXPECT_THROW(p.restore(bad), CheckpointError) << "truncated to " << len;
  }
}

TEST(CheckpointRejectionTest, TrailingGarbageIsRejected) {
  std::vector<std::uint8_t> blob = half_stream_blob();
  blob.push_back(0x00);
  StreamingBeatPipeline p(kFs);
  EXPECT_THROW(p.restore(blob), CheckpointError);
}

TEST(CheckpointRejectionTest, FutureVersionIsRefused) {
  std::vector<std::uint8_t> blob = half_stream_blob();
  blob[4] = static_cast<std::uint8_t>(core::kCheckpointVersion + 1);  // version LSB
  StreamingBeatPipeline p(kFs);
  EXPECT_THROW(p.restore(blob), CheckpointError);
}

TEST(CheckpointRejectionTest, MismatchedTargetIsRefused) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  {
    FixedStreamingBeatPipeline wrong_backend(kFs);
    EXPECT_THROW(wrong_backend.restore(blob), CheckpointError);
  }
  {
    StreamingBeatPipeline wrong_fs(500.0);
    EXPECT_THROW(wrong_fs.restore(blob), CheckpointError);
  }
  {
    StreamingBeatPipeline wrong_window(kFs, {}, 8.0);
    EXPECT_THROW(wrong_window.restore(blob), CheckpointError);
  }
  {
    PipelineConfig ens_cfg;
    ens_cfg.enable_ensemble = true;
    StreamingBeatPipeline wrong_stages(kFs, ens_cfg);
    EXPECT_THROW(wrong_stages.restore(blob), CheckpointError);
  }
}

// ---------------------------------------------------------------------------
// Re-stamped payloads: a one-bit payload edit under a recomputed CRC
// passes every frame check, so each case reaches the loaders' own checks.
// ---------------------------------------------------------------------------

template <typename Pipeline>
void expect_restamped_blobs_restore_or_are_refused() {
  const synth::Recording rec = test_recording();
  Pipeline source(rec.fs);
  std::vector<BeatRecord> beats;
  feed(source, rec, 0, rec.ecg_mv.size() / 2, 64, beats);
  const std::vector<std::uint8_t> blob = source.checkpoint();
  // One target serves every case: a restore that succeeds overwrites the
  // whole carried state, whatever a refused one left behind.
  Pipeline target(rec.fs);
  std::size_t restored = 0, refused = 0;
  for (const test::BlobSection& sec : test::blob_sections(blob)) {
    // Every byte of the first 64, then about 64 more across the rest.
    const std::size_t stride = std::max<std::size_t>(1, sec.len / 64);
    for (std::size_t off = 0; off < sec.len; off += off < 64 ? 1 : stride) {
      // One bit per case, cycling through the bit positions.
      const auto mask = static_cast<std::uint8_t>(1u << (off % 8));
      try {
        target.restore(test::restamped(blob, sec.tag, off, mask));
        ++restored;
      } catch (const CheckpointError&) {
        ++refused;
      }
    }
  }
  EXPECT_GT(restored, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(CheckpointRestampTest, EveryRestampedByteRestoresOrIsRefusedDouble) {
  expect_restamped_blobs_restore_or_are_refused<StreamingBeatPipeline>();
}

TEST(CheckpointRestampTest, EveryRestampedByteRestoresOrIsRefusedQ31) {
  expect_restamped_blobs_restore_or_are_refused<FixedStreamingBeatPipeline>();
}

TEST(CheckpointRestampTest, LoaderRefusalsPassTheFrameCheckAndReachRestore) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  StreamingBeatPipeline p(kFs);
  const auto refusal = [&](const std::vector<std::uint8_t>& bad) -> std::string {
    EXPECT_TRUE(p.restore_compatible(bad));
    try {
      p.restore(bad);
    } catch (const CheckpointError& e) {
      return e.what();
    }
    return "restored";
  };
  // The first ECGC presence byte cleared, and the low byte of RING's
  // first ring capacity flipped.
  EXPECT_EQ(refusal(test::restamped(blob, "ECGC", 0, 0x01)),
            "checkpoint: EcgCleanerStage: sub-stage missing");
  EXPECT_EQ(refusal(test::restamped(blob, "RING", 0, 0x01)),
            "checkpoint: StreamingBeatPipeline: ring capacity mismatch");
}

// ---------------------------------------------------------------------------
// restore_compatible: the check the C ABI runs before a restore touches
// any state must agree with restore() on every frame and CFG rejection.
// ---------------------------------------------------------------------------

TEST(CheckpointProbeTest, IntactBlobProbesValidWithItsConfig) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  StreamingBeatPipeline match(kFs);
  const std::vector<std::uint8_t> before = match.checkpoint();
  EXPECT_TRUE(match.restore_compatible(blob));
  EXPECT_EQ(match.checkpoint(), before);  // a check, not a restore
}

TEST(CheckpointProbeTest, CorruptionAndTruncationProbeInvalid) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  const StreamingBeatPipeline p(kFs);
  const std::size_t stride = std::max<std::size_t>(1, blob.size() / 97);
  for (std::size_t pos = 0; pos < blob.size(); pos += stride) {
    std::vector<std::uint8_t> bad = blob;
    bad[pos] ^= 0xA5u;
    EXPECT_FALSE(p.restore_compatible(bad)) << "flipped byte " << pos;
  }
  for (std::size_t len = 0; len < blob.size(); len += stride) {
    const std::span<const std::uint8_t> head(blob.data(), len);
    EXPECT_FALSE(p.restore_compatible(head)) << "truncated to " << len;
  }
}

TEST(CheckpointProbeTest, MismatchedTargetIsIncompatible) {
  const std::vector<std::uint8_t> blob = half_stream_blob();
  EXPECT_FALSE(FixedStreamingBeatPipeline(kFs).restore_compatible(blob));
  EXPECT_FALSE(StreamingBeatPipeline(500.0).restore_compatible(blob));
  EXPECT_FALSE(StreamingBeatPipeline(kFs, {}, 8.0).restore_compatible(blob));
  PipelineConfig ens_cfg;
  ens_cfg.enable_ensemble = true;
  EXPECT_FALSE(StreamingBeatPipeline(kFs, ens_cfg).restore_compatible(blob));
}

// ---------------------------------------------------------------------------
// Golden fixtures: a version-1 reader reads committed version-1 blobs
// ---------------------------------------------------------------------------
//
// The fixtures under tests/data were written by tools/make_checkpoint_fixture
// (same deterministic recording, cut at 60 % with 64-sample chunks). The
// test restores the committed blob and resumes the stream; the blob's
// counters and every resumed beat's integer fields (sample indices, flaw
// bits, method) must match the committed expectations exactly. Keeping
// the expectations integer-valued makes the fixture robust to
// compiler-level floating-point summation differences while still
// pinning the wire format bit for bit.

struct FixtureExpectation {
  std::size_t consumed = 0;
  std::size_t r_peaks = 0;
  struct Beat {
    std::size_t r, b, c, x, b0;
    std::uint32_t flaws;
  };
  std::vector<Beat> beats;
};

bool load_fixture_expectations(const std::string& path,
                               FixtureExpectation& dbl, FixtureExpectation& q31) {
  std::ifstream in(path);
  if (!in) return false;
  FixtureExpectation* cur = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "backend") {
      std::string which;
      ls >> which;
      cur = which == "double" ? &dbl : &q31;
    } else if (key == "consumed" && cur != nullptr) {
      ls >> cur->consumed;
    } else if (key == "r_peaks" && cur != nullptr) {
      ls >> cur->r_peaks;
    } else if (key == "beat" && cur != nullptr) {
      FixtureExpectation::Beat b{};
      ls >> b.r >> b.b >> b.c >> b.x >> b.b0 >> b.flaws;
      cur->beats.push_back(b);
    }
  }
  return cur != nullptr;
}

synth::Recording fixture_recording() { return test_recording(20260729, 20.0); }

std::vector<std::uint8_t> read_blob(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

template <typename Pipeline>
void check_fixture(const std::string& bin_path, const FixtureExpectation& want,
                   const std::string& tag) {
  const std::vector<std::uint8_t> blob = read_blob(bin_path);
  ASSERT_FALSE(blob.empty()) << "missing fixture " << bin_path
                             << " (regenerate with tools/make_checkpoint_fixture)";
  const synth::Recording rec = fixture_recording();
  Pipeline p(rec.fs);
  p.restore(blob);
  EXPECT_EQ(p.samples_consumed(), want.consumed) << tag;
  EXPECT_EQ(p.r_peak_count(), want.r_peaks) << tag;

  std::vector<BeatRecord> beats;
  feed(p, rec, want.consumed, rec.ecg_mv.size(), 64, beats);
  p.finish_into(beats);
  ASSERT_EQ(beats.size(), want.beats.size()) << tag;
  for (std::size_t i = 0; i < beats.size(); ++i) {
    EXPECT_EQ(beats[i].points.r, want.beats[i].r) << tag << " beat " << i;
    EXPECT_EQ(beats[i].points.b, want.beats[i].b) << tag << " beat " << i;
    EXPECT_EQ(beats[i].points.c, want.beats[i].c) << tag << " beat " << i;
    EXPECT_EQ(beats[i].points.x, want.beats[i].x) << tag << " beat " << i;
    EXPECT_EQ(beats[i].points.b0, want.beats[i].b0) << tag << " beat " << i;
    EXPECT_EQ(static_cast<std::uint32_t>(beats[i].flaws), want.beats[i].flaws)
        << tag << " beat " << i;
  }
}

TEST(CheckpointFixtureTest, Version1GoldenBlobsReadBitExactly) {
  const std::string dir = ICGKIT_TEST_DATA_DIR;
  FixtureExpectation dbl, q31;
  ASSERT_TRUE(load_fixture_expectations(dir + "/checkpoint_v1_expected.txt", dbl, q31))
      << "missing fixture expectations (regenerate with tools/make_checkpoint_fixture)";
  check_fixture<StreamingBeatPipeline>(dir + "/checkpoint_v1_double.bin", dbl, "double");
  check_fixture<FixedStreamingBeatPipeline>(dir + "/checkpoint_v1_q31.bin", q31, "q31");
}

TEST(CheckpointFixtureTest, CorruptedGoldenBlobIsRejected) {
  const std::string dir = ICGKIT_TEST_DATA_DIR;
  std::vector<std::uint8_t> blob = read_blob(dir + "/checkpoint_v1_double.bin");
  ASSERT_FALSE(blob.empty());
  blob[blob.size() / 2] ^= 0xFFu;
  StreamingBeatPipeline p(kFs);
  EXPECT_THROW(p.restore(blob), CheckpointError);
}

} // namespace
