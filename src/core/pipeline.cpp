#include "core/pipeline.h"

#include "dsp/stats.h"

#include <stdexcept>

#include "support/contract.h"

namespace icgkit::core {

// The streaming engine is a backend template; these definitions back the
// `extern template` declarations in pipeline.h, so the engine is
// instantiated exactly once.
template class BeatAssembler<dsp::DoubleBackend>;
template class BeatAssembler<dsp::Q31Backend>;
template class BasicStreamingBeatPipeline<dsp::DoubleBackend>;
template class BasicStreamingBeatPipeline<dsp::Q31Backend>;

// ---------------------------------------------------------------------------
// BeatPipeline (thin batch wrapper)
// ---------------------------------------------------------------------------

BeatPipeline::BeatPipeline(dsp::SampleRate fs, const PipelineConfig& cfg)
    : fs_(fs), cfg_(cfg) {
  // Cheap eager checks; anything subtler throws from the stage
  // constructors on the first process() call.
  if (fs <= 0.0) ICGKIT_THROW(std::invalid_argument("BeatPipeline: fs must be positive"));
  if (cfg.qrs.bandpass_low_hz >= cfg.qrs.bandpass_high_hz)
    ICGKIT_THROW(std::invalid_argument("BeatPipeline: QRS band-pass edges inverted"));
}

PipelineResult BeatPipeline::process(dsp::SignalView ecg_mv, dsp::SignalView z_ohm) const {
  if (ecg_mv.size() != z_ohm.size())
    ICGKIT_THROW(std::invalid_argument("BeatPipeline: ECG and Z traces must be equal length"));

  PipelineResult result;
  if (ecg_mv.empty()) return result;

  // One big chunk through the streaming engine (default window), so the
  // records here are byte-identical to any chunked feed.
  StreamingBeatPipeline engine(fs_, cfg_);
  result.beats = engine.push(ecg_mv, z_ohm);
  std::vector<BeatRecord> tail = engine.finish();
  result.beats.insert(result.beats.end(), std::make_move_iterator(tail.begin()),
                      std::make_move_iterator(tail.end()));

  result.z0_mean_ohm = engine.z_mean_ohm();
  result.r_peak_count = engine.r_peak_count();

  std::vector<BeatHemodynamics> usable;
  for (const BeatRecord& rec : result.beats)
    if (rec.usable()) usable.push_back(rec.hemo);
  result.summary = summarize_hemodynamics(usable);
  return result;
}

} // namespace icgkit::core
