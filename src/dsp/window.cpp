#include "dsp/window.h"

#include <cmath>
#include <numbers>

namespace icgkit::dsp {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Generalized cosine window: w[i] = a0 - a1*cos(2*pi*i/(n-1)) + a2*cos(4*pi*i/(n-1)).
Signal cosine_window(std::size_t n, double a0, double a1, double a2) {
  Signal w(n);
  if (n == 1) {
    w[0] = 1.0;
    return w;
  }
  const double denom = static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / denom;
    w[i] = a0 - a1 * std::cos(kTwoPi * t) + a2 * std::cos(2.0 * kTwoPi * t);
  }
  return w;
}
} // namespace

Signal make_window(WindowKind kind, std::size_t n) {
  if (n == 0) return {};
  switch (kind) {
    case WindowKind::Rectangular:
      return Signal(n, 1.0);
    case WindowKind::Hamming:
      return cosine_window(n, 0.54, 0.46, 0.0);
    case WindowKind::Hann:
      return cosine_window(n, 0.5, 0.5, 0.0);
    case WindowKind::Blackman:
      return cosine_window(n, 0.42, 0.5, 0.08);
  }
  return Signal(n, 1.0); // unreachable for valid enum values
}

} // namespace icgkit::dsp
