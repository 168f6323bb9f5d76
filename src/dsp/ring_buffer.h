// Fixed-capacity ring buffer for the streaming pipeline.
//
// Mirrors the bounded sample FIFO an embedded firmware would keep between
// the ADC ISR and the processing loop. Header-only; trivially copyable
// element types expected.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/contract.h"

namespace icgkit::dsp {

/// Fixed-capacity single-threaded FIFO with random access from the
/// oldest element (at(0) = oldest) and deque-style back removal; push on
/// a full buffer overwrites the oldest element (newest data wins).
///
/// Invariant: head_ < capacity() and size_ <= capacity(). Every offset
/// added to head_ (a logical index, the size, or 1) is at most the
/// capacity, so the sum is below twice the capacity and one conditional
/// subtraction (slot()) wraps it exactly: no division on the hot path.
template <typename T>
class RingBuffer {
 public:
  explicit RingBuffer(std::size_t capacity) : buf_(capacity) {
    if (capacity == 0) ICGKIT_THROW(std::invalid_argument("RingBuffer: capacity must be >= 1"));
  }

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == buf_.size(); }

  /// Appends a value; overwrites the oldest element when full (the
  /// firmware drop policy: newest data wins).
  void push(const T& v) {
    buf_[slot(size_)] = v;
    if (full()) {
      head_ = slot(1);
    } else {
      ++size_;
    }
  }

  /// Removes and returns the oldest element.
  T pop() {
    if (empty()) ICGKIT_THROW(std::out_of_range("RingBuffer: pop from empty"));
    T v = buf_[head_];
    head_ = slot(1);
    --size_;
    return v;
  }

  /// Removes and returns the newest element (deque-style back removal;
  /// lets the streaming morphology kernels keep their monotonic deques in
  /// fixed storage instead of a heap-allocating std::deque).
  T pop_back() {
    if (empty()) ICGKIT_THROW(std::out_of_range("RingBuffer: pop_back from empty"));
    --size_;
    return buf_[slot(size_)];
  }

  /// Element i positions from the oldest (0 = oldest).
  [[nodiscard]] const T& at(std::size_t i) const {
    if (i >= size_) ICGKIT_THROW(std::out_of_range("RingBuffer: index out of range"));
    return buf_[slot(i)];
  }

  /// Newest element.
  [[nodiscard]] const T& back() const { return at(size_ - 1); }
  /// Oldest element.
  [[nodiscard]] const T& front() const { return at(0); }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Zero-copy view of the logical range [lo, hi) (indices from the
  /// oldest, like at()): at most two contiguous spans — the range up to
  /// the physical wrap point, then the remainder. Lets window consumers
  /// (the per-beat tail) run flat pointer loops instead of a per-element
  /// index wrap through at(). Spans are invalidated by any mutation.
  struct Segments {
    std::span<const T> first, second;
  };
  [[nodiscard]] Segments segments(std::size_t lo, std::size_t hi) const {
    if (lo > hi || hi > size_)
      ICGKIT_THROW(std::out_of_range("RingBuffer: segment range out of range"));
    const std::size_t start = slot(lo);
    const std::size_t len = hi - lo;
    const std::size_t first_len = std::min(len, buf_.size() - start);
    return {std::span<const T>(buf_.data() + start, first_len),
            std::span<const T>(buf_.data(), len - first_len)};
  }

  /// Copies the content oldest-to-newest into a vector.
  [[nodiscard]] std::vector<T> snapshot() const {
    std::vector<T> out;
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back(at(i));
    return out;
  }

  /// Serializes capacity + contents (oldest-to-newest) for
  /// core::Checkpoint round trips. Duck-typed like the kernel
  /// save_state members, so this layer never depends on core; usable
  /// for any T the writer has a value() overload for (samples,
  /// accumulators, u8 marks, u64 indices). `what` names the owning
  /// ring in mismatch errors.
  template <typename W>
  void save_state(W& w) const {
    w.u64(buf_.size());
    w.u64(size_);
    for (std::size_t i = 0; i < size_; ++i) w.value(at(i));
  }

  template <typename R>
  void load_state(R& r, const char* what) {
    if (r.u64() != buf_.size())
      return r.fail(std::string(what) + ": ring capacity mismatch");
    const std::size_t n = r.u64();
    if (n > buf_.size()) return r.fail(std::string(what) + ": ring overflow");
    clear();
    for (std::size_t i = 0; i < n; ++i) push(r.template value<T>());
  }

 private:
  /// Physical slot of logical offset i <= capacity() from the oldest.
  [[nodiscard]] std::size_t slot(std::size_t i) const {
    const std::size_t s = head_ + i;
    return s >= buf_.size() ? s - buf_.size() : s;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

} // namespace icgkit::dsp
