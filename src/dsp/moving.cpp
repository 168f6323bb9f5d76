#include "dsp/moving.h"

#include <algorithm>
#include <stdexcept>

#include "support/contract.h"

namespace icgkit::dsp {

Signal moving_window_integrate(SignalView x, std::size_t width) {
  if (width == 0) ICGKIT_THROW(std::invalid_argument("moving_window_integrate: width must be >= 1"));
  Signal y(x.size(), 0.0);
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += x[i];
    if (i >= width) sum -= x[i - width];
    const std::size_t effective = std::min(i + 1, width);
    y[i] = sum / static_cast<double>(effective);
  }
  return y;
}

} // namespace icgkit::dsp
