// Deterministic per-session flight recorder + time-travel replay.
//
// A flight record (`.icgr` file) composes the two properties the engine
// already guarantees — bit-determinism (PR 1) and CRC-framed
// checkpointability (PR 5) — into an ops-grade capture: the raw input
// chunks of one session interleaved with periodic full-pipeline
// checkpoints, in one stream that reuses the Checkpoint wire format
// (magic/version header, `[tag][len u32][payload][CRC-32]` sections,
// little-endian, doubles as IEEE-754 u64 bit patterns). Any recorded
// session can be reconstructed offline, byte-for-byte:
//
//   [magic "ICGK"] [version u32]
//   RHDR   flight sub-version, backend, fs, window, ensemble flag,
//          checkpoint cadence, start position, seed provenance
//   CKPT   initial full-pipeline checkpoint (always present, so a
//          recording started mid-session is self-contained)
//   CHNK*  one section per push: raw ECG/Z samples + the beats that
//          push emitted (canonical serialize_beat bytes)
//   CKPT*  periodic checkpoints every `checkpoint_interval` samples —
//          the seek index for time-travel replay
//   FINI   terminal summary: finish() tail beats, QualitySummary,
//          totals (absent when the recording was cut mid-stream; the
//          file stays replayable up to its last intact section)
//
// The recorder taps a live pipeline *observationally*: it serializes
// what the engine consumed and emitted but never feeds it, so recording
// cannot perturb byte-identity (pinned by test). Steady-state recording
// is allocation-free once scratch buffers are warmed: sections are
// framed into a reused buffer (StateWriter::continuation) and periodic
// checkpoints reuse the pipeline's checkpoint_into() blob.
//
// Replay reconstructs the engine from the RHDR + initial CKPT and
// re-runs the recorded chunks through a freshly built pipeline,
// comparing emitted beat bytes chunk by chunk and checkpoint states
// section by section — so a divergence (new ISA, new build, backend
// bug) is localized to the exact chunk where it first appears. Replay
// assumes the recording was made with the default PipelineConfig (as
// the fleet, the C ABI, and the tools all do) apart from the ensemble
// flag, which travels in RHDR; a recording made with a bespoke kernel
// configuration restores into a mismatched engine and is *refused* with
// CheckpointError by the nested checkpoint's own structural validation,
// never silently misreplayed.
#pragma once

#include "core/beat_serializer.h"
#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/quality.h"
#include "dsp/types.h"

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace icgkit::core {

/// Sub-version of the flight-record layout (inside the shared checkpoint
/// container version). Bump on any incompatible RHDR/CHNK/FINI change.
inline constexpr std::uint32_t kFlightVersion = 1;

/// Default periodic-checkpoint cadence, in consumed samples. 200 s of
/// signal at the paper's 250 Hz: a full checkpoint costs ~0.4 ms, so the
/// cadence is chosen to keep steady-state recording overhead well under
/// the 5% ceiling BENCH_replay.json gates, while bounding the suffix a
/// seek must re-run.
inline constexpr std::uint64_t kFlightCheckpointInterval = 50'000;

/// Recording parameters + seed provenance carried in the RHDR section.
/// The provenance fields are opaque to replay (they document how the
/// input stream was synthesized, for humans and the fuzz corpus); only
/// `checkpoint_interval` affects the recorder itself. Backend, sample
/// rate, window and ensemble flag come from the recorded engine.
struct FlightRecorderConfig {
  /// Samples between periodic CKPT sections; 0 disables periodic
  /// checkpoints (the initial one is always written).
  std::uint64_t checkpoint_interval = kFlightCheckpointInterval;
  std::uint64_t seed = 0;    ///< provenance: synthesis / scenario seed
  std::int32_t tier = -1;    ///< provenance: scenario tier (-1 = n/a)
  std::uint64_t subject = 0; ///< provenance: roster subject index
  std::string note;          ///< provenance: free-form origin tag
};

/// Parsed RHDR section of a flight record.
struct FlightHeader {
  std::uint32_t flight_version = 0;
  bool backend_fixed = false;        ///< recorded by the Q31 backend
  double fs = 0.0;
  double window_s = 0.0;
  std::uint64_t window_samples = 0;
  bool ensemble = false;
  std::uint64_t checkpoint_interval = 0;
  std::uint64_t start_samples = 0;   ///< engine position at record start
  std::uint64_t seed = 0;
  std::int32_t tier = -1;
  std::uint64_t subject = 0;
  std::string note;
};

/// Byte-stream target a FlightRecorder writes through. Implementations
/// must tolerate arbitrary write sizes (one call per framed section).
class RecorderSink {
 public:
  virtual ~RecorderSink() = default;
  virtual void write(const std::uint8_t* data, std::size_t n) = 0;
  /// Called once when the recording is finalized (FINI written) so file
  /// sinks can push bytes to durable storage before the pilot reads the
  /// file back. Default: no-op.
  virtual void flush() {}
};

/// RecorderSink over a binary file. Construction truncates; any write
/// failure throws CheckpointError (recording is an integrity feature —
/// a silently short file would defeat it).
class FileRecorderSink final : public RecorderSink {
 public:
  explicit FileRecorderSink(const std::string& path);
  ~FileRecorderSink() override;
  FileRecorderSink(const FileRecorderSink&) = delete;
  FileRecorderSink& operator=(const FileRecorderSink&) = delete;
  void write(const std::uint8_t* data, std::size_t n) override;
  void flush() override;

 private:
  struct Impl;
  Impl* impl_;
};

/// RecorderSink into memory — the in-process form tests, the fuzzer and
/// bench_replay record through.
class BufferRecorderSink final : public RecorderSink {
 public:
  /// `reserve_bytes` pre-sizes the buffer so steady-state recording
  /// appends without reallocation spikes (a recording grows to roughly
  /// checkpoint-blob size plus 16 bytes per sample plus beat records).
  explicit BufferRecorderSink(std::size_t reserve_bytes = 0) {
    if (reserve_bytes > 0) buf_.reserve(reserve_bytes);
  }
  void write(const std::uint8_t* data, std::size_t n) override {
    buf_.insert(buf_.end(), data, data + n);
  }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Exact (bit-level) QualitySummary equality — the comparison replay
/// verification uses, so NaN-free but rounding-sensitive fields cannot
/// drift silently.
[[nodiscard]] inline bool summaries_identical(const QualitySummary& a,
                                              const QualitySummary& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (a.beats != b.beats || a.usable != b.usable) return false;
  for (std::size_t i = 0; i < kBeatFlawCount; ++i)
    if (a.flaw_counts[i] != b.flaw_counts[i]) return false;
  return a.ecg_dropouts == b.ecg_dropouts && a.z_dropouts == b.z_dropouts &&
         a.detector_resets == b.detector_resets &&
         a.ensemble_folds_skipped == b.ensemble_folds_skipped &&
         a.snr_beats == b.snr_beats && bits(a.sum_snr_db) == bits(b.sum_snr_db) &&
         bits(a.min_snr_db) == bits(b.min_snr_db);
}

/// Observational tap on one live pipeline: construct against the engine
/// (writes the RHDR and the initial checkpoint), then hand it every
/// push's inputs and emissions. The recorder never mutates the engine
/// beyond calling its const-state checkpoint_into(). Lifetime: the sink
/// must outlive the recorder (owners declare the sink first).
class FlightRecorder {
 public:
  template <typename Pipeline>
  FlightRecorder(RecorderSink& sink, Pipeline& engine,
                 const FlightRecorderConfig& cfg = {})
      : sink_(sink), cfg_(cfg) {
    engine.checkpoint_into(ckpt_blob_);
    begin(Pipeline::kFixed, engine.sample_rate(), engine.window_s(), engine.window_samples(),
          engine.config().enable_ensemble, engine.samples_consumed());
  }

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one push: the raw chunk plus the beats it emitted (the tail
  /// of `emitted` — callers that accumulate into a reused vector pass
  /// only this push's slice). Writes a periodic checkpoint when the
  /// cadence has elapsed.
  template <typename Pipeline>
  void on_chunk(Pipeline& engine, dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                std::span<const BeatRecord> emitted) {
    record_chunk(ecg_mv, z_ohm, emitted);
    if (cfg_.checkpoint_interval > 0 &&
        engine.samples_consumed() >= next_checkpoint_at_) {
      engine.checkpoint_into(ckpt_blob_);
      record_checkpoint(engine.samples_consumed());
    }
  }

  /// Finalizes a recording whose session ran to completion: captures the
  /// finish() tail beats and the terminal QualitySummary. The recorder
  /// is closed afterwards; further taps throw.
  template <typename Pipeline>
  void on_finish(Pipeline& engine, std::span<const BeatRecord> tail) {
    record_end(tail, engine.quality_summary(), engine.samples_consumed(),
               /*finished=*/true);
  }

  /// Finalizes a recording cut mid-stream (stop_recording on a live
  /// session): writes FINI with the summary-so-far and finished=0, so
  /// replay verifies every recorded chunk but does not expect a tail.
  template <typename Pipeline>
  void on_stop(Pipeline& engine) {
    record_end({}, engine.quality_summary(), engine.samples_consumed(),
               /*finished=*/false);
  }

  [[nodiscard]] bool closed() const { return closed_; }
  [[nodiscard]] std::uint64_t chunks_recorded() const { return chunks_; }
  [[nodiscard]] std::uint64_t checkpoints_recorded() const { return checkpoints_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  /// Writes the RHDR from the engine's construction and this recorder's
  /// config, then the initial checkpoint.
  void begin(bool backend_fixed, double fs, double window_s, std::uint64_t window_samples,
             bool ensemble, std::uint64_t start_samples);
  void record_chunk(dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                    std::span<const BeatRecord> emitted);
  void record_checkpoint(std::uint64_t samples);
  void record_end(std::span<const BeatRecord> tail, const QualitySummary& summary,
                  std::uint64_t samples, bool finished);
  void flush_scratch(StateWriter&& w);

  RecorderSink& sink_;
  FlightRecorderConfig cfg_;
  std::vector<std::uint8_t> scratch_;      ///< reused section framing buffer
  std::vector<std::uint8_t> ckpt_blob_;    ///< reused checkpoint_into target
  std::vector<unsigned char> beat_bytes_;  ///< reused serialize_beat target
  std::uint64_t next_checkpoint_at_ = 0;
  std::uint64_t chunks_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Pull-based reader over a flight record. Construction parses and
/// validates the container header + RHDR; next() yields one event per
/// section, validating each frame/CRC before any payload is surfaced.
/// Every violation — bad magic, truncation, CRC mismatch, out-of-order
/// chunks, trailing sections after FINI — throws CheckpointError; a
/// hostile file can be refused but never cause UB.
class FlightReader {
 public:
  enum class EventKind : std::uint8_t { Checkpoint, Chunk, End };

  struct Event {
    EventKind kind = EventKind::Chunk;
    // Checkpoint / End
    std::uint64_t samples = 0;            ///< engine position of the capture
    std::span<const std::uint8_t> state;  ///< Checkpoint: nested pipeline blob
    // Chunk
    std::uint64_t chunk_index = 0;
    std::vector<double> ecg, z;           ///< buffers reused across next() calls
    std::span<const std::uint8_t> beat_bytes;  ///< Chunk: this push's beats; End: tail
    // End
    bool finished = false;
    QualitySummary summary{};
    std::uint64_t total_chunks = 0;
  };

  /// `file` must stay alive as long as the reader and any Event spans.
  explicit FlightReader(std::span<const std::uint8_t> file);

  [[nodiscard]] const FlightHeader& header() const { return header_; }

  /// Parses the next section into `ev` (reusing its buffers). Returns
  /// false at a clean end of file; a file may legally end without FINI
  /// (recording cut by a crash — the libretro-style "power loss" case),
  /// in which case no End event is ever yielded.
  bool next(Event& ev);

 private:
  // Parse one section each, refusing through r_.fail(); the public
  // members raise the reader's first refusal as CheckpointError.
  void read_header();
  void read_section(const char (&tag)[5], Event& ev);
  void raise_if_refused() const;

  StateReader r_;
  FlightHeader header_;
  std::uint64_t expect_chunk_ = 0;
  bool saw_end_ = false;
};

/// flight_verify(): full end-to-end determinism check of one recording.
struct FlightVerifyReport {
  bool ok = false;  ///< every comparison below passed
  std::uint64_t chunks = 0;
  std::uint64_t samples = 0;           ///< samples replayed (incl. start offset)
  std::uint64_t beats_recorded = 0;    ///< beats in the file (incl. tail)
  std::uint64_t beats_replayed = 0;
  std::int64_t first_divergent_chunk = -1;       ///< -1 = all chunks matched
  std::int64_t first_divergent_checkpoint = -1;  ///< periodic CKPT ordinal, -1 = none
  bool summary_match = true;  ///< QualitySummary bit-identical (when FINI present)
  bool tail_match = true;     ///< finish() tail beats byte-identical
  bool has_end = false;       ///< file carries FINI
  bool finished = false;      ///< FINI says the session ran finish()
};

/// Re-runs the recording end-to-end through a freshly constructed
/// pipeline (backend/fs/window/ensemble from RHDR, state from the
/// initial CKPT) and byte-compares every emitted beat, every periodic
/// checkpoint (unless `check_checkpoints` is false), and — when the
/// recording is finished — the finish() tail and QualitySummary.
/// Structural corruption of the file throws CheckpointError; a
/// *divergence* is a report with ok == false, localized to the first
/// offending chunk/checkpoint.
[[nodiscard]] FlightVerifyReport flight_verify(std::span<const std::uint8_t> file,
                                               bool check_checkpoints = true);

/// flight_seek(): time-travel replay from the latest checkpoint at or
/// before `target_sample` (absolute consumed-samples position).
struct FlightSeekReport {
  bool ok = false;                 ///< suffix replay matched the recording
  std::uint64_t target_sample = 0;
  std::uint64_t restored_at = 0;   ///< position of the checkpoint restored from
  std::uint64_t suffix_chunks = 0; ///< chunks re-run after the restore point
  std::uint64_t suffix_beats = 0;
  std::int64_t first_divergent_chunk = -1;
  bool summary_match = true;
  bool tail_match = true;
};

/// Restores the latest CKPT with samples <= target_sample (the initial
/// checkpoint backstops every target) and re-runs only the recorded
/// suffix, byte-comparing it against the recording — the "seek to the
/// anomalous beat" debugging move, and the proof that checkpoint-resume
/// equals straight-through replay.
[[nodiscard]] FlightSeekReport flight_seek(std::span<const std::uint8_t> file,
                                           std::uint64_t target_sample);

/// Reconstructs the full kernel state at the first chunk boundary at or
/// past `target_sample` (after the last chunk when the target lies
/// beyond it; finish() is never replayed): seeks to the nearest earlier
/// checkpoint, re-runs the gap, and serializes the reconstructed engine
/// into `state_out` (a standard pipeline checkpoint blob). Returns the
/// exact position reached and the beats emitted while getting there.
struct FlightStateReport {
  std::uint64_t samples = 0;
  std::uint64_t beats = 0;
};
[[nodiscard]] FlightStateReport flight_state_at(std::span<const std::uint8_t> file,
                                                std::uint64_t target_sample,
                                                std::vector<std::uint8_t>& state_out);

/// flight_compare(): divergence bisection between two recordings of the
/// *same input stream* (two builds, two ISAs, or two backends). Inputs
/// are compared raw; outputs (beat bytes, co-positioned checkpoints,
/// tail, summary) are compared byte-wise, and the first divergent chunk
/// is reported — the exact-chunk localization the fuzz corpus and CI
/// bisection use.
struct FlightCompareReport {
  bool inputs_identical = false;   ///< raw chunk streams byte-match
  bool outputs_identical = false;  ///< beats + checkpoints + tail + summary match
  std::uint64_t chunks_compared = 0;
  std::int64_t first_input_mismatch = -1;
  std::int64_t first_divergent_chunk = -1;       ///< first beat-byte divergence
  std::int64_t first_divergent_checkpoint = -1;  ///< ordinal among co-positioned CKPTs
  bool summary_match = true;
  bool tail_match = true;
};
[[nodiscard]] FlightCompareReport flight_compare(std::span<const std::uint8_t> a,
                                                 std::span<const std::uint8_t> b);

/// Non-throwing structural probe of a flight record (the C ABI's
/// icg_flight_probe): walks every frame, the RHDR, and each section's
/// internal layout through FlightReader; any violation yields
/// valid == false.
struct FlightProbe {
  bool valid = false;
  FlightHeader header{};
  std::uint64_t chunks = 0;
  std::uint64_t checkpoints = 0;  ///< periodic checkpoints (excl. initial)
  std::uint64_t samples = 0;      ///< final recorded position
  std::uint64_t beats = 0;        ///< beats recorded (incl. tail)
  bool has_end = false;
  bool finished = false;
};
[[nodiscard]] FlightProbe probe_flight(std::span<const std::uint8_t> file) noexcept;

} // namespace icgkit::core
