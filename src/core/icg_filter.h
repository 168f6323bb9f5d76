// Configuration of the ICG conditioning chain (Section IV-A.2 of the
// paper), which core::IcgConditionerStage runs.
//
// The ICG is obtained from the impedance trace as ICG = -dZ/dt, then
// cleaned with a zero-phase low-pass Butterworth at 20 Hz: the paper
// found no significant spectral content above 20 Hz, so everything higher
// is treated as noise. Zero-phase application is mandatory because B/C/X
// are timing features (any group delay would bias PEP/LVET).
#pragma once

#include <cstddef>

namespace icgkit::core {

struct IcgFilterConfig {
  std::size_t order = 4;     ///< poles of the causal prototype (squared by zero-phase use)
  double cutoff_hz = 20.0;   ///< the paper's spectral-analysis-derived cut-off
  /// Cut-off of the zero-phase high-pass for respiratory/motion baseline
  /// suppression; must be positive. The paper's Section II identifies
  /// respiration (0.04-2 Hz) and motion (0.1-10 Hz) as the dominant ICG
  /// artifacts and cites wavelet-based suppression as the established
  /// remedy; a 0.8 Hz zero-phase high-pass is the equivalent linear
  /// stage and markedly reduces the B-point bias on touch recordings.
  double highpass_hz = 0.8;
  std::size_t highpass_order = 2;
};

} // namespace icgkit::core
