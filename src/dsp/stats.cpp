#include "dsp/stats.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cmath>
#include <stdexcept>

#include "support/contract.h"

namespace icgkit::dsp {

bool all_finite(SignalView x) {
  // A double is finite unless its exponent field is all ones, and adding
  // one at the field's lowest bit carries exactly such a field into bit
  // 63. OR-ing that sum over four independent accumulators is integer
  // lane arithmetic the compiler can vectorize.
  constexpr std::uint64_t kExponent = 0x7FF0000000000000ull;
  constexpr std::uint64_t kUnit = 1ull << 52;
  const auto carry = [](double v) { return (std::bit_cast<std::uint64_t>(v) & kExponent) + kUnit; };
  std::uint64_t acc[4] = {};
  std::size_t i = 0;
  for (; i + 4 <= x.size(); i += 4)
    for (std::size_t k = 0; k < 4; ++k) acc[k] |= carry(x[i + k]);
  std::uint64_t all = acc[0] | acc[1] | acc[2] | acc[3];
  for (; i < x.size(); ++i) all |= carry(x[i]);
  return (all >> 63) == 0;
}

double mean(SignalView x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : x) acc += v;
  return acc / static_cast<double>(x.size());
}

double variance(SignalView x) {
  if (x.size() < 2) return 0.0;
  const double m = mean(x);
  double acc = 0.0;
  for (const double v : x) acc += (v - m) * (v - m);
  return acc / static_cast<double>(x.size() - 1);
}

double stddev(SignalView x) { return std::sqrt(variance(x)); }

double rms(SignalView x) {
  if (x.empty()) return 0.0;
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return std::sqrt(acc / static_cast<double>(x.size()));
}

double pearson(SignalView x, SignalView y) {
  if (x.size() != y.size()) ICGKIT_THROW(std::invalid_argument("pearson: size mismatch"));
  if (x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double median_inplace(std::span<Sample> x) {
  if (x.empty()) return 0.0;
  const std::size_t mid = x.size() / 2;
  std::nth_element(x.begin(), x.begin() + static_cast<Index>(mid), x.end());
  const double hi = x[mid];
  if (x.size() % 2 == 1) return hi;
  std::nth_element(x.begin(), x.begin() + static_cast<Index>(mid - 1),
                   x.begin() + static_cast<Index>(mid));
  return 0.5 * (x[mid - 1] + hi);
}

double median(SignalView x) {
  if (x.empty()) return 0.0;
  Signal tmp(x.begin(), x.end());
  return median_inplace(tmp);
}

double mad(SignalView x) {
  if (x.empty()) return 0.0;
  const double med = median(x);
  Signal dev(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) dev[i] = std::abs(x[i] - med);
  return 1.4826 * median(dev);
}

double percentile(SignalView x, double p) {
  if (x.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) ICGKIT_THROW(std::invalid_argument("percentile: p in [0,100]"));
  Signal tmp(x.begin(), x.end());
  std::sort(tmp.begin(), tmp.end());
  const double pos = p / 100.0 * static_cast<double>(tmp.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, tmp.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return tmp[lo] + frac * (tmp[hi] - tmp[lo]);
}

std::size_t argmax(SignalView x) {
  if (x.empty()) ICGKIT_THROW(std::invalid_argument("argmax: empty input"));
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::max_element(x.begin(), x.end())));
}

std::size_t argmin(SignalView x) {
  if (x.empty()) ICGKIT_THROW(std::invalid_argument("argmin: empty input"));
  return static_cast<std::size_t>(
      std::distance(x.begin(), std::min_element(x.begin(), x.end())));
}

std::optional<double> LineFit::zero_crossing() const {
  if (slope == 0.0) return std::nullopt;
  return -intercept / slope;
}

LineFit fit_line(SignalView x, SignalView y) {
  if (x.size() != y.size()) ICGKIT_THROW(std::invalid_argument("fit_line: size mismatch"));
  if (x.size() < 2) ICGKIT_THROW(std::invalid_argument("fit_line: need >= 2 points"));
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  LineFit fit;
  fit.slope = (sxx > 0.0) ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

double relative_error(double a, double b) {
  if (a == 0.0) return 0.0;
  return (a - b) / a;
}

} // namespace icgkit::dsp
