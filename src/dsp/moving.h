// Moving-window integration (Pan-Tompkins MWI): the batch reference and
// its streaming form.
#pragma once

#include "dsp/backend.h"
#include "dsp/ring_buffer.h"
#include "dsp/types.h"

#include <cstddef>
#include <stdexcept>

#include "support/contract.h"

namespace icgkit::dsp {

/// Causal moving-window integration as used by Pan-Tompkins:
/// y[n] = mean(x[n-width+1 .. n]) with a growing window at the start.
Signal moving_window_integrate(SignalView x, std::size_t width);

/// Streaming causal moving average (used by the embedded-style pipeline),
/// generic over the numeric backend (dsp/backend.h). Matches
/// moving_window_integrate sample for sample: y[n] =
/// mean(x[max(0, n-width+1) .. n]), growing window at the start. State
/// lives in a fixed-capacity RingBuffer, so tick() never allocates.
/// Under Q31Backend the running sum is a 64-bit integer and the mean an
/// integer division (the firmware form).
template <typename B>
class BasicStreamingMovingAverage {
 public:
  using sample_t = typename B::sample_t;

  explicit BasicStreamingMovingAverage(std::size_t width) : buf_(width == 0 ? 1 : width) {
    if (width == 0) ICGKIT_THROW(std::invalid_argument("StreamingMovingAverage: width must be >= 1"));
  }

  /// One sample in, one averaged sample out.
  sample_t tick(sample_t x) {
    // Same accumulation order as moving_window_integrate (add the incoming
    // sample, then retire the outgoing one) so chunked streaming stays
    // bit-identical to the batch kernel.
    const bool was_full = buf_.full();
    const sample_t oldest = was_full ? buf_.front() : sample_t{};
    buf_.push(x);
    sum_ = B::acc_add(sum_, x);
    if (was_full) sum_ = B::acc_sub(sum_, oldest);
    return B::mean(sum_, buf_.size());
  }

  /// Serializes the window contents and running sum for core::Checkpoint
  /// round trips; load_state() rejects blobs with a different window
  /// capacity.
  template <typename W>
  void save_state(W& w) const {
    buf_.save_state(w);
    w.value(sum_);
  }

  template <typename R>
  void load_state(R& r) {
    buf_.load_state(r, "StreamingMovingAverage");
    sum_ = r.template value<typename B::acc_t>();
  }

 private:
  RingBuffer<sample_t> buf_;
  typename B::acc_t sum_ = B::acc_zero();
};

using StreamingMovingAverage = BasicStreamingMovingAverage<DoubleBackend>;

} // namespace icgkit::dsp
