// Second-order IIR sections (biquads) and cascades of them.
//
// All IIR filters in the toolkit are stored as cascaded biquads (SOS form)
// rather than expanded polynomials: direct high-order polynomials are
// numerically fragile at the low normalized cut-offs this application uses
// (e.g. 0.05 Hz at fs = 250 Hz).
#pragma once

#include "dsp/types.h"

#include <vector>

namespace icgkit::dsp {

/// One second-order section, transfer function
///   H(z) = (b0 + b1 z^-1 + b2 z^-2) / (1 + a1 z^-1 + a2 z^-2)
/// with the a0 = 1 normalization folded in.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// A cascade of biquads plus an overall gain.
struct SosFilter {
  std::vector<Biquad> sections;
  double gain = 1.0;

  [[nodiscard]] std::size_t order() const { return sections.size() * 2; }
};

/// Applies the cascade causally over `x` (zero initial state, transposed
/// direct form II per section).
Signal sos_apply(const SosFilter& filter, SignalView x);

/// Applies the cascade causally with each section's internal state
/// initialized to its steady-state response to a constant input equal to
/// x[0]. This removes the start-up transient for signals that begin at a
/// non-zero level; filtfilt relies on it for clean edges.
Signal sos_apply_steady(const SosFilter& filter, SignalView x);

/// Magnitude response |H(f)| of the cascade at a single frequency.
double sos_magnitude_at(const SosFilter& filter, double freq_hz, SampleRate fs);

} // namespace icgkit::dsp
