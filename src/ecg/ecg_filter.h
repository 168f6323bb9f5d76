// Configuration of the paper's ECG cleaning chain (Section IV-A.1), which
// core::EcgCleanerStage runs:
//   1. baseline-wander removal by morphological filtering (Sun et al.
//      2002: opening then closing with QRS- and wave-sized structuring
//      elements, subtracting the estimate), then
//   2. a zero-phase 32nd-order FIR band-pass designed with cut-offs
//      0.05 Hz and 40 Hz.
//
// The FIR's cut-offs are design values, not the realized band: 33 taps
// cannot place a 0.05 Hz edge. At fs = 250 Hz the zero-phase response is
// 11-34 Hz at -3 dB, with |G| = 0.0002 at 1 Hz and 0.08 at 5 Hz, so the
// FIR alone removes sub-hertz wander too. The order does not scale with
// fs, so the realized band moves with the sample rate.
#pragma once

#include "dsp/morphology.h"

#include <cstddef>

namespace icgkit::ecg {

struct EcgFilterConfig {
  std::size_t fir_order = 32;
  double f1_hz = 0.05;
  double f2_hz = 40.0;
  dsp::BaselineEstimatorConfig baseline{};
};

} // namespace icgkit::ecg
