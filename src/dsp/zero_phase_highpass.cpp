#include "dsp/zero_phase_highpass.h"

#include "dsp/butterworth.h"

#include <cmath>
#include <stdexcept>

#include "support/contract.h"

namespace icgkit::dsp {

namespace {
// Truncation tolerance of the baseline kernel (see zero_phase_sos_kernel).
constexpr double kKernelTol = 1e-4;
} // namespace

std::size_t zero_phase_highpass_decimation(SampleRate fs,
                                           const ZeroPhaseHighpassConfig& cfg) {
  if (fs <= 0.0) ICGKIT_THROW(std::invalid_argument("StreamingZeroPhaseHighpass: fs must be positive"));
  if (cfg.cutoff_hz <= 0.0 || cfg.cutoff_hz >= fs / 2.0)
    ICGKIT_THROW(std::invalid_argument("StreamingZeroPhaseHighpass: cutoff must lie in (0, fs/2)"));
  const double want = fs / (16.0 * cfg.cutoff_hz);
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::floor(want)));
}

FirCoefficients zero_phase_highpass_kernel(SampleRate fs, std::size_t m,
                                           const ZeroPhaseHighpassConfig& cfg) {
  const SampleRate decimated_fs = fs / static_cast<double>(m);
  return zero_phase_sos_kernel(
      butterworth_lowpass(cfg.order, cfg.cutoff_hz, decimated_fs), kKernelTol);
}

} // namespace icgkit::dsp
