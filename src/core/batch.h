// SIMD multi-session batching: W co-scheduled sessions advancing in
// lockstep through one data-parallel stage front.
//
// The fleet's hot path is thousands of *identical* per-session filter
// cascades, each loading the same coefficients to process one double.
// SessionBatch<W> runs W same-configuration sessions through the one
// streaming engine body, BasicStreamingBeatPipeline, instantiated over
// dsp::BatchBackend<W>: every streaming kernel of the sample-rate front
// (ECG cleaner, ICG conditioner, the Pan-Tompkins feature front) ticks
// once per sample with LaneVec<W> operands, loading each coefficient
// once for W sessions, and the state whose control flow diverges per
// session — one QrsDecisionTail and one BeatAssembler per lane — runs
// the scalar double code lane by lane. There is no batch-specific engine
// code: this header adds only the runtime-width interface the fleet
// drives.
//
// Identity contract: each lane's emitted BeatRecords are byte-identical
// to a scalar StreamingBeatPipeline fed the same per-lane stream (the
// batch backend evaluates the exact scalar double expression per lane
// and the build disables FMA contraction; see dsp/backend.h). A lane in
// a contact-gap dropout needs no masking: the scalar engine keeps
// filtering through gaps too, so divergence lives entirely in the
// per-lane tails.
//
// Lifecycle: a batch starts fresh — W sessions at stream position 0,
// exactly the state of W newly built scalar engines, which is the only
// state the fleet ever groups sessions in — and leaves through the
// checkpoint format: unpack() produces W blobs any scalar engine
// restores, which is how the fleet dissolves a batch back to
// per-session engines when lanes diverge (finish, migration, chunk
// shape mismatch). unpack() is the engine's own save_state() through
// core::LaneStateWriter, so each blob is exactly StreamingBeatPipeline's
// version-1 format, golden fixtures included.
#pragma once

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "dsp/backend.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace icgkit::core {

/// Runtime-width interface over SessionBatch<4> / SessionBatch<8>, so
/// the fleet can select the lane count from FleetConfig::batch_width
/// without being templated itself. All `out` parameters point at W
/// vectors (one per lane), appended to, never cleared.
class SessionBatchBase {
 public:
  virtual ~SessionBatchBase() = default;

  [[nodiscard]] virtual std::size_t width() const = 0;

  /// Serializes the batch back into W scalar checkpoints, each
  /// restorable by a same-configuration StreamingBeatPipeline (blob l =
  /// lane l). `blobs` is resized to W; element capacity is reused.
  virtual void unpack(std::vector<std::vector<std::uint8_t>>& blobs) const = 0;

  /// Advances all lanes by `len` samples in lockstep. ecg_mv/z_ohm point
  /// at W per-lane arrays of `len` samples; lane l's completed beats are
  /// appended to out[l].
  virtual void push(const double* const* ecg_mv, const double* const* z_ohm,
                    std::size_t len, std::vector<BeatRecord>* out) = 0;

  /// End-of-stream flush for all lanes in lockstep.
  virtual void finish(std::vector<BeatRecord>* out) = 0;

  [[nodiscard]] virtual const QualitySummary& lane_quality(std::size_t lane) const = 0;
  /// Samples consumed per lane (identical across lanes, by lockstep).
  [[nodiscard]] virtual std::size_t samples_consumed() const = 0;
};

/// The batch-backend engine behind the runtime-width interface: W
/// lockstep sessions in one BasicStreamingBeatPipeline<BatchBackend<W>>,
/// with unpack() its save_state() through the lane adaptor. A newly
/// built batch equals W newly built scalar sessions. See the header
/// comment for the identity contract.
template <std::size_t W>
class SessionBatch final : public SessionBatchBase {
 public:
  explicit SessionBatch(dsp::SampleRate fs, const PipelineConfig& cfg = {},
                        double window_s = 12.0)
      : engine_(fs, cfg, window_s) {}

  [[nodiscard]] std::size_t width() const override { return W; }

  void push(const double* const* ecg_mv, const double* const* z_ohm, std::size_t len,
            std::vector<BeatRecord>* out) override {
    engine_.push_lanes(ecg_mv, z_ohm, len, out);
  }

  void finish(std::vector<BeatRecord>* out) override { engine_.finish_lanes(out); }

  void unpack(std::vector<std::vector<std::uint8_t>>& blobs) const override {
    blobs.resize(W);
    std::vector<StateWriter> writers;
    writers.reserve(W);
    for (auto& blob : blobs) writers.emplace_back(std::move(blob));
    LaneStateWriter<W> w(writers.data());
    engine_.save_state(w);
    for (std::size_t l = 0; l < W; ++l) blobs[l] = writers[l].take();
  }

  [[nodiscard]] const QualitySummary& lane_quality(std::size_t lane) const override {
    return engine_.quality_summary(lane);
  }
  [[nodiscard]] std::size_t samples_consumed() const override {
    return engine_.samples_consumed();
  }

 private:
  BasicStreamingBeatPipeline<dsp::BatchBackend<W>> engine_;
};

// Compiled once in batch.cpp (same pattern as the scalar engine).
extern template class BasicStreamingBeatPipeline<dsp::BatchBackend<4>>;
extern template class BasicStreamingBeatPipeline<dsp::BatchBackend<8>>;
extern template class SessionBatch<4>;
extern template class SessionBatch<8>;

/// Supported lane counts for make_session_batch / FleetConfig::batch_width.
[[nodiscard]] bool session_batch_width_supported(std::size_t width);

/// Runtime-width factory: width must be 4 or 8 (throws
/// std::invalid_argument otherwise).
std::unique_ptr<SessionBatchBase> make_session_batch(std::size_t width,
                                                     dsp::SampleRate fs,
                                                     const PipelineConfig& cfg = {},
                                                     double window_s = 12.0);

} // namespace icgkit::core
