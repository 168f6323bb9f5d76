#include "ecg/pan_tompkins.h"

#include "dsp/butterworth.h"
#include "dsp/filtfilt.h"

#include <stdexcept>

#include "support/contract.h"

namespace icgkit::ecg {

namespace {
// Truncation tolerance for the band-pass zero-phase kernel: tight enough
// that detection decisions match the batch filtfilt feature signal.
constexpr double kBpKernelTol = 1e-5;
} // namespace

dsp::FirCoefficients pan_tompkins_bandpass_kernel(dsp::SampleRate fs,
                                                  const PanTompkinsConfig& cfg) {
  if (fs <= 0.0) ICGKIT_THROW(std::invalid_argument("PanTompkins: fs must be positive"));
  if (cfg.bandpass_low_hz >= cfg.bandpass_high_hz)
    ICGKIT_THROW(std::invalid_argument("PanTompkins: band-pass edges inverted"));
  return dsp::zero_phase_sos_kernel(
      dsp::butterworth_bandpass(2, cfg.bandpass_low_hz, cfg.bandpass_high_hz, fs),
      kBpKernelTol);
}

// ---------------------------------------------------------------------------
// Batch wrapper
// ---------------------------------------------------------------------------

PanTompkins::PanTompkins(dsp::SampleRate fs, const PanTompkinsConfig& cfg)
    : fs_(fs), cfg_(cfg) {
  if (fs <= 0.0) ICGKIT_THROW(std::invalid_argument("PanTompkins: fs must be positive"));
  if (cfg.bandpass_low_hz >= cfg.bandpass_high_hz)
    ICGKIT_THROW(std::invalid_argument("PanTompkins: band-pass edges inverted"));
}

QrsDetection PanTompkins::detect(dsp::SignalView ecg) const {
  QrsDetection det;
  if (ecg.size() < static_cast<std::size_t>(fs_)) return det; // need >= 1 s

  OnlinePanTompkins online(fs_, cfg_);
  online.push_chunk(ecg, det.r_samples);
  online.finish(det.r_samples);

  for (std::size_t i = 1; i < det.r_samples.size(); ++i)
    det.rr_intervals_s.push_back(
        static_cast<double>(det.r_samples[i] - det.r_samples[i - 1]) / fs_);
  return det;
}

std::vector<double> r_peak_times(const QrsDetection& det, dsp::SampleRate fs) {
  std::vector<double> t;
  t.reserve(det.r_samples.size());
  for (const std::size_t s : det.r_samples) t.push_back(static_cast<double>(s) / fs);
  return t;
}

} // namespace icgkit::ecg
