// Window functions for FIR design and spectral estimation.
#pragma once

#include "dsp/types.h"

#include <cstddef>

namespace icgkit::dsp {

/// Supported window families (FIR design tapers, Welch PSD segments).
enum class WindowKind {
  Rectangular, ///< all-ones (no taper)
  Hamming,     ///< 0.54 - 0.46 cos — the FIR-design default here
  Hann,        ///< raised cosine, zero at both ends
  Blackman,    ///< three-term, lowest side lobes of the set
};

/// Returns an n-point symmetric window of the given kind.
/// n == 0 returns an empty signal; n == 1 returns {1.0}.
Signal make_window(WindowKind kind, std::size_t n);

} // namespace icgkit::dsp
