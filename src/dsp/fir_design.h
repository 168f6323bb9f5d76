// Windowed-sinc FIR filter design.
//
// The paper's ECG chain uses a zero-phase 32nd-order FIR band-pass with
// cut-offs 0.05 Hz and 40 Hz (Section IV-A). `design_bandpass` with
// order = 32 reproduces that filter; `filtfilt_fir` (see filtfilt.h)
// provides the zero-phase application.
#pragma once

#include "dsp/types.h"
#include "dsp/window.h"

#include <cstddef>

namespace icgkit::dsp {

/// Coefficients of a linear-phase FIR filter, h[0..order] (order+1 taps).
struct FirCoefficients {
  Signal taps;

  [[nodiscard]] std::size_t order() const { return taps.empty() ? 0 : taps.size() - 1; }
  /// Group delay in samples (exact for the symmetric designs produced here).
  [[nodiscard]] double group_delay() const { return static_cast<double>(order()) / 2.0; }
};

/// Low-pass windowed-sinc design. `cutoff_hz` in (0, fs/2). Even or odd
/// order accepted; taps = order + 1. DC gain normalized to exactly 1.
FirCoefficients design_lowpass(std::size_t order, double cutoff_hz, SampleRate fs,
                               WindowKind window = WindowKind::Hamming);

/// Band-pass windowed-sinc design (difference of two unity-DC low-pass
/// sincs; DC gain is exactly 0). Requires even order. Passband gain
/// normalized to 1 at the arithmetic center (f1+f2)/2, following the
/// MATLAB fir1 'scale' convention.
FirCoefficients design_bandpass(std::size_t order, double f1_hz, double f2_hz, SampleRate fs,
                                WindowKind window = WindowKind::Hamming);

/// Convolves `x` with the filter and returns a signal of the same length
/// (zero initial state, i.e. the filter's transient is included at the
/// start and the tail is truncated). This is the causal, streaming-
/// equivalent application.
Signal fir_apply(const FirCoefficients& fir, SignalView x);

/// Frequency response magnitude |H(f)| at a single frequency (for tests
/// and design verification).
double fir_magnitude_at(const FirCoefficients& fir, double freq_hz, SampleRate fs);

} // namespace icgkit::dsp
