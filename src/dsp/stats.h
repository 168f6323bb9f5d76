// Descriptive statistics and small regression helpers.
//
// Pearson correlation is the paper's headline metric (Tables II-IV);
// the least-squares line fit is used by the B-point detector (the B0
// estimate intersects a line fit of the ICG rise with the time axis,
// Section IV-C).
#pragma once

#include "dsp/types.h"

#include <cstddef>
#include <optional>

namespace icgkit::dsp {

/// Whether every sample is finite (no NaN, no +-Inf). Each entry point
/// that takes samples from outside (the C ABI push, the fleet's push,
/// the server's CHNK) refuses a chunk this rejects: the engine's
/// arithmetic is only reproducible on finite input.
bool all_finite(SignalView x);

/// Arithmetic mean; 0 for an empty signal.
double mean(SignalView x);
/// Unbiased sample variance (n-1 denominator); 0 for n < 2.
double variance(SignalView x);
/// Square root of variance().
double stddev(SignalView x);
/// Root-mean-square value; 0 for an empty signal.
double rms(SignalView x);

/// Pearson correlation coefficient. Returns 0 when either input is
/// constant (correlation undefined). Sizes must match.
double pearson(SignalView x, SignalView y);

/// Median (copies and partially sorts). NaN-free input assumed.
double median(SignalView x);

/// Same estimator as median(), but partially sorts the given buffer in
/// place instead of copying — the allocation-free form for streaming hot
/// paths that already hold the samples in a reusable scratch buffer.
double median_inplace(std::span<Sample> x);

/// Median absolute deviation, scaled by 1.4826 so it estimates sigma for
/// Gaussian data.
double mad(SignalView x);

/// Linear percentile interpolation, p in [0, 100].
double percentile(SignalView x, double p);

/// Index of the maximum element (first occurrence; x must be non-empty).
std::size_t argmax(SignalView x);
/// Index of the minimum element (first occurrence; x must be non-empty).
std::size_t argmin(SignalView x);

/// A least-squares line y = slope * t + intercept.
struct LineFit {
  double slope = 0.0;
  double intercept = 0.0;

  [[nodiscard]] double at(double t) const { return slope * t + intercept; }
  /// The abscissa where the line crosses zero; nullopt if the line is flat.
  [[nodiscard]] std::optional<double> zero_crossing() const;
};

/// Least-squares fit of y over x (sizes must match, >= 2 points).
LineFit fit_line(SignalView x, SignalView y);

/// Relative error (a - b)/a as used in the paper's equations (1)-(3).
/// Returns 0 when a == 0.
double relative_error(double a, double b);

} // namespace icgkit::dsp
