#include "core/batch.h"

#include <stdexcept>
#include <string>

namespace icgkit::core {

// The two supported lane counts, compiled once (the header declares the
// matching extern templates). W=4 is one AVX2 register per LaneVec, W=8
// is one AVX-512 register or two AVX2 ops — both lower to SSE2/NEON
// pairs on narrower targets.
template class BasicStreamingBeatPipeline<dsp::BatchBackend<4>>;
template class BasicStreamingBeatPipeline<dsp::BatchBackend<8>>;
template class SessionBatch<4>;
template class SessionBatch<8>;

bool session_batch_width_supported(std::size_t width) {
  return width == 4 || width == 8;
}

std::unique_ptr<SessionBatchBase> make_session_batch(std::size_t width,
                                                     dsp::SampleRate fs,
                                                     const PipelineConfig& cfg,
                                                     double window_s) {
  switch (width) {
    case 4:
      return std::make_unique<SessionBatch<4>>(fs, cfg, window_s);
    case 8:
      return std::make_unique<SessionBatch<8>>(fs, cfg, window_s);
    default:
      throw std::invalid_argument("make_session_batch: width must be 4 or 8 (got " +
                                  std::to_string(width) + ")");
  }
}

} // namespace icgkit::core
