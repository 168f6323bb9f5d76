// 1-D grayscale morphology with flat structuring elements, and the
// morphological ECG baseline-wander estimator of Sun, Chan & Krishnan
// ("ECG signal conditioning by morphological filtering", Comput. Biol.
// Med. 2002) that the paper adopts in Section IV-A.
//
// The estimator applies an opening (erosion then dilation, removes peaks)
// followed by a closing (dilation then erosion, removes pits) with two
// structuring elements sized relative to the cardiac cycle; the result
// tracks the baseline drift, which is then subtracted from the signal.
#pragma once

#include "dsp/backend.h"
#include "dsp/ring_buffer.h"
#include "dsp/types.h"

#include <cstddef>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

/// Erosion with a flat structuring element of `width` samples (centered,
/// width must be odd and >= 1). Edges use shrinking windows.
Signal erode(SignalView x, std::size_t width);

/// Dilation with a flat structuring element of `width` samples.
Signal dilate(SignalView x, std::size_t width);

/// Opening = erosion followed by dilation. Removes positive peaks narrower
/// than the structuring element.
Signal morph_open(SignalView x, std::size_t width);

/// Closing = dilation followed by erosion. Removes negative pits narrower
/// than the structuring element.
Signal morph_close(SignalView x, std::size_t width);

/// Parameters of the Sun et al. baseline estimator. The widths are derived
/// from the sampling rate: the first structuring element must exceed the
/// QRS width (default 0.2 s), the second must exceed the T-wave width
/// (default 1.5x the first).
struct BaselineEstimatorConfig {
  double qrs_window_s = 0.2;
  double wave_window_factor = 1.5;
};

/// Estimates the baseline wander of an ECG-like signal:
/// open with w1 = odd(qrs_window_s * fs), then close with w2 = odd(1.5*w1).
Signal estimate_baseline(SignalView x, SampleRate fs, const BaselineEstimatorConfig& cfg = {});

/// Convenience: x - estimate_baseline(x).
Signal remove_baseline(SignalView x, SampleRate fs, const BaselineEstimatorConfig& cfg = {});

/// Streaming erosion/dilation with a centered flat structuring element,
/// generic over the numeric backend (dsp/backend.h; pure order
/// statistics, so the Q31 instantiation is exact).
///
/// Bit-identical to erode()/dilate() on the concatenated input (same
/// monotonic-deque arithmetic, same shrinking edge windows), but fed one
/// sample at a time: out[c] is emitted once input sample c + width/2 has
/// arrived, i.e. the stage has a fixed group delay of width/2 samples.
/// The deque lives in a fixed-capacity RingBuffer, so push() never
/// allocates after construction. finish() emits the trailing width/2
/// outputs with the batch right-edge shrinking windows.
template <typename B>
class BasicStreamingExtremum {
 public:
  using sample_t = typename B::sample_t;
  enum class Kind { Min, Max };

  BasicStreamingExtremum(std::size_t width, Kind kind)
      : half_(width / 2), kind_(kind), dq_(width + 1) {
    if (width % 2 == 0 || width == 0)
      ICGKIT_THROW(std::invalid_argument("StreamingExtremum: width must be odd"));
  }

  /// Feeds one sample; appends 0 or 1 newly completed outputs to `out`.
  void push(sample_t x, std::vector<sample_t>& out) {
    const std::size_t idx = pushed_++;
    if (kind_ == Kind::Min) {
      while (!dq_.empty() && x <= dq_.back().v) dq_.pop_back();
    } else {
      while (!dq_.empty() && x >= dq_.back().v) dq_.pop_back();
    }
    dq_.push(Entry{idx, x});
    if (pushed_ > half_) emit_center(pushed_ - 1 - half_, out);
  }

  /// Emits the remaining delayed outputs (right edge of the signal).
  void finish(std::vector<sample_t>& out) {
    while (emitted_ < pushed_) emit_center(emitted_, out);
  }

  /// Serializes the monotonic deque and the input/output counters for
  /// core::Checkpoint round trips; load_state() rejects blobs whose
  /// structuring-element width differs.
  template <typename W>
  void save_state(W& w) const {
    w.u64(dq_.capacity());
    w.u64(dq_.size());
    for (std::size_t i = 0; i < dq_.size(); ++i) {
      w.u64(dq_.at(i).idx);
      w.value(dq_.at(i).v);
    }
    w.u64(pushed_);
    w.u64(emitted_);
  }

  template <typename R>
  void load_state(R& r) {
    if (r.u64() != dq_.capacity()) return r.fail("StreamingExtremum: width mismatch");
    const std::size_t n = r.u64();
    if (n > dq_.capacity()) return r.fail("StreamingExtremum: deque overflow");
    dq_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      Entry e;
      e.idx = r.u64();
      e.v = r.template value<sample_t>();
      dq_.push(e);
    }
    pushed_ = r.u64();
    emitted_ = r.u64();
  }

  [[nodiscard]] std::size_t delay() const { return half_; }

 private:
  struct Entry {
    std::size_t idx;
    sample_t v;
  };
  void emit_center(std::size_t center, std::vector<sample_t>& out) {
    const std::size_t win_begin = center > half_ ? center - half_ : 0;
    while (!dq_.empty() && dq_.front().idx < win_begin) dq_.pop();
    out.push_back(dq_.front().v);
    ++emitted_;
  }

  std::size_t half_;
  Kind kind_;
  RingBuffer<Entry> dq_;      ///< monotonic deque over the current window
  std::size_t pushed_ = 0;    ///< input samples consumed
  std::size_t emitted_ = 0;   ///< output samples produced
};

using StreamingExtremum = BasicStreamingExtremum<DoubleBackend>;

/// Lockstep extremum for the SIMD batch backend. Order statistics are
/// the one front-chain kernel whose control flow is data-dependent (the
/// monotonic deque pops on comparisons), so the lanes cannot share a
/// deque: this variant keeps W independent scalar deques and advances
/// them under the lane-uniform emission schedule (pushed_/emitted_ are
/// identical across lanes by construction). Each lane runs exactly the
/// BasicStreamingExtremum<DoubleBackend> comparisons in the same order,
/// preserving the batch byte-identity contract.
///
/// Checkpointing is save-only and per-lane: save_state requires a lane
/// adaptor (core::LaneStateWriter) and writes lane i's deque in the
/// exact scalar wire layout, so a batch dissolves into the existing
/// per-session checkpoint format. Nothing restores a batch, so there is
/// no load_state.
template <typename B>
class BatchStreamingExtremum {
 public:
  using sample_t = typename B::sample_t; ///< LaneVec<W>
  static constexpr std::size_t kLanes = B::kLanes;
  using Kind = typename BasicStreamingExtremum<DoubleBackend>::Kind;

  BatchStreamingExtremum(std::size_t width, Kind kind)
      : half_(width / 2), kind_(kind), lanes_(kLanes, RingBuffer<Entry>(width + 1)) {
    if (width % 2 == 0 || width == 0)
      ICGKIT_THROW(std::invalid_argument("BatchStreamingExtremum: width must be odd"));
  }

  void push(sample_t x, std::vector<sample_t>& out) {
    const std::size_t idx = pushed_++;
    for (std::size_t l = 0; l < kLanes; ++l) {
      auto& dq = lanes_[l];
      const double v = x.lane(l);
      if (kind_ == Kind::Min) {
        while (!dq.empty() && v <= dq.back().v) dq.pop_back();
      } else {
        while (!dq.empty() && v >= dq.back().v) dq.pop_back();
      }
      dq.push(Entry{idx, v});
    }
    if (pushed_ > half_) emit_center(pushed_ - 1 - half_, out);
  }

  void finish(std::vector<sample_t>& out) {
    while (emitted_ < pushed_) emit_center(emitted_, out);
  }

  /// Lane-adaptor serialization: lane i's deque is written to w.lane_writer(i)
  /// in the BasicStreamingExtremum wire layout.
  template <typename W>
  void save_state(W& w) const {
    for (std::size_t l = 0; l < kLanes; ++l) {
      auto& pw = w.lane_writer(l);
      const auto& dq = lanes_[l];
      pw.u64(dq.capacity());
      pw.u64(dq.size());
      for (std::size_t i = 0; i < dq.size(); ++i) {
        pw.u64(dq.at(i).idx);
        pw.value(dq.at(i).v);
      }
      pw.u64(pushed_);
      pw.u64(emitted_);
    }
  }

  [[nodiscard]] std::size_t delay() const { return half_; }

 private:
  struct Entry {
    std::size_t idx;
    double v;
  };
  void emit_center(std::size_t center, std::vector<sample_t>& out) {
    const std::size_t win_begin = center > half_ ? center - half_ : 0;
    sample_t r{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      auto& dq = lanes_[l];
      while (!dq.empty() && dq.front().idx < win_begin) dq.pop();
      r.set_lane(l, dq.front().v);
    }
    out.push_back(r);
    ++emitted_;
  }

  std::size_t half_;
  Kind kind_;
  std::vector<RingBuffer<Entry>> lanes_; ///< one monotonic deque per lane
  std::size_t pushed_ = 0;               ///< lane-uniform input counter
  std::size_t emitted_ = 0;              ///< lane-uniform output counter
};

/// Width derivation shared by the batch estimator and the streaming
/// remover: w1 = odd(qrs_window_s * fs), w2 = odd(factor * w1).
std::size_t baseline_width_w1(SampleRate fs, const BaselineEstimatorConfig& cfg);
std::size_t baseline_width_w2(SampleRate fs, const BaselineEstimatorConfig& cfg);

/// Streaming counterpart of remove_baseline(): the Sun et al. estimator
/// (open w1 then close w2) run as a cascade of four StreamingExtremum
/// stages, with the input delayed alongside so cleaned[c] = x[c] -
/// baseline[c]. Bit-identical to the batch remove_baseline() including
/// both edges; fixed group delay of (w1 - 1) + (w2 - 1) samples. Generic
/// over the numeric backend: only the final subtraction is arithmetic
/// (saturating under Q31Backend).
template <typename B>
class BasicStreamingBaselineRemover {
 public:
  using sample_t = typename B::sample_t;
  /// The batch backend swaps in the per-lane-deque extremum; everything
  /// else in this cascade is lane-uniform and works unchanged.
  using Extremum = std::conditional_t<is_batch_backend_v<B>,
                                      BatchStreamingExtremum<B>,
                                      BasicStreamingExtremum<B>>;

  BasicStreamingBaselineRemover(SampleRate fs, const BaselineEstimatorConfig& cfg = {})
      : w1_(baseline_width_w1(fs, cfg)), w2_(baseline_width_w2(fs, cfg)),
        delay_((w1_ - 1) + (w2_ - 1)),
        open_erode_(w1_, Extremum::Kind::Min),
        open_dilate_(w1_, Extremum::Kind::Max),
        close_dilate_(w2_, Extremum::Kind::Max),
        close_erode_(w2_, Extremum::Kind::Min),
        raw_delay_(delay_ + 1) {
    if (fs <= 0.0)
      ICGKIT_THROW(std::invalid_argument("StreamingBaselineRemover: fs must be positive"));
  }

  /// Feeds one raw sample; appends newly completed cleaned samples.
  void push(sample_t x, std::vector<sample_t>& out) {
    raw_delay_.push(x);
    scratch1_.clear();
    open_erode_.push(x, scratch1_);
    scratch2_.clear();
    for (const sample_t v : scratch1_) open_dilate_.push(v, scratch2_);
    scratch1_.clear();
    for (const sample_t v : scratch2_) close_dilate_.push(v, scratch1_);
    scratch2_.clear();
    for (const sample_t v : scratch1_) close_erode_.push(v, scratch2_);
    for (const sample_t baseline : scratch2_)
      out.push_back(B::sub(raw_delay_.pop(), baseline));
  }

  /// Flushes the trailing delay (right edge), emitting all pending output.
  void finish(std::vector<sample_t>& out) {
    scratch1_.clear();
    open_erode_.finish(scratch1_);
    scratch2_.clear();
    for (const sample_t v : scratch1_) open_dilate_.push(v, scratch2_);
    open_dilate_.finish(scratch2_);
    scratch1_.clear();
    for (const sample_t v : scratch2_) close_dilate_.push(v, scratch1_);
    close_dilate_.finish(scratch1_);
    scratch2_.clear();
    for (const sample_t v : scratch1_) close_erode_.push(v, scratch2_);
    close_erode_.finish(scratch2_);
    for (const sample_t baseline : scratch2_)
      out.push_back(B::sub(raw_delay_.pop(), baseline));
  }

  /// Serializes the four extremum stages plus the delayed-input ring for
  /// core::Checkpoint round trips.
  template <typename W>
  void save_state(W& w) const {
    open_erode_.save_state(w);
    open_dilate_.save_state(w);
    close_dilate_.save_state(w);
    close_erode_.save_state(w);
    raw_delay_.save_state(w);
  }

  template <typename R>
  void load_state(R& r) {
    open_erode_.load_state(r);
    open_dilate_.load_state(r);
    close_dilate_.load_state(r);
    close_erode_.load_state(r);
    raw_delay_.load_state(r, "StreamingBaselineRemover");
  }

  [[nodiscard]] std::size_t delay() const { return delay_; }

 private:
  std::size_t w1_, w2_, delay_;
  Extremum open_erode_, open_dilate_, close_dilate_, close_erode_;
  RingBuffer<sample_t> raw_delay_;          ///< input delayed by `delay_` samples
  std::vector<sample_t> scratch1_, scratch2_; ///< per-push stage buffers
};

using StreamingBaselineRemover = BasicStreamingBaselineRemover<DoubleBackend>;

} // namespace icgkit::dsp
