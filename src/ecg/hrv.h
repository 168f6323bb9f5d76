// Frequency-domain heart-rate variability analysis.
//
// The device streams beat-to-beat RR intervals; LF/HF analysis of that
// series is the standard autonomic-state summary a CHF review would add
// on top of the paper's parameters (sympathetic predominance -- high
// LF/HF -- accompanies decompensation). Implementation: the irregular RR
// tachogram is resampled to a uniform rate (4 Hz, the conventional
// choice), detrended, and fed to the Welch PSD; band powers follow the
// Task Force (1996) conventions:
//   VLF 0.003-0.04 Hz, LF 0.04-0.15 Hz, HF 0.15-0.4 Hz.
#pragma once

#include "dsp/types.h"

#include <vector>

namespace icgkit::ecg {

struct HrvSpectrum {
  double vlf_power_ms2 = 0.0;
  double lf_power_ms2 = 0.0;
  double hf_power_ms2 = 0.0;
  double lf_hf_ratio = 0.0;
  double total_power_ms2 = 0.0;
  dsp::Signal freq_hz;   ///< PSD support (for plotting)
  dsp::Signal psd_ms2_hz;

  [[nodiscard]] bool valid() const { return total_power_ms2 > 0.0; }
};

struct HrvConfig {
  double resample_hz = 4.0;
  double min_rr_s = 0.3;  ///< artifact gate: RR outside [min, max] is dropped
  double max_rr_s = 2.0;
};

/// Computes the LF/HF spectrum from an RR series (seconds). Requires at
/// least ~30 s of data; returns a default (invalid) result otherwise.
HrvSpectrum hrv_spectrum(const std::vector<double>& rr_intervals_s,
                         const HrvConfig& cfg = {});

} // namespace icgkit::ecg
