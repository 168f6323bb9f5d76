#include "dsp/ring_buffer.h"

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <random>
#include <vector>

namespace icgkit::dsp {
namespace {

TEST(RingBufferTest, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_FALSE(rb.full());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBufferTest, ZeroCapacityThrows) {
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

TEST(RingBufferTest, PushPopFifoOrder) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  rb.push(3);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_TRUE(rb.empty());
}

TEST(RingBufferTest, OverwriteOldestWhenFull) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.front(), 3);
  EXPECT_EQ(rb.back(), 5);
  EXPECT_EQ(rb.pop(), 3);
  EXPECT_EQ(rb.pop(), 4);
  EXPECT_EQ(rb.pop(), 5);
}

TEST(RingBufferTest, PopEmptyThrows) {
  RingBuffer<int> rb(2);
  EXPECT_THROW(rb.pop(), std::out_of_range);
}

TEST(RingBufferTest, AtIndexesFromOldest) {
  RingBuffer<int> rb(4);
  rb.push(10);
  rb.push(20);
  rb.push(30);
  EXPECT_EQ(rb.at(0), 10);
  EXPECT_EQ(rb.at(2), 30);
  EXPECT_THROW([[maybe_unused]] auto v = rb.at(3), std::out_of_range);
}

TEST(RingBufferTest, SnapshotOrder) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  const auto v = rb.snapshot();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[1], 4);
  EXPECT_EQ(v[2], 5);
}

TEST(RingBufferTest, ClearResets) {
  RingBuffer<double> rb(2);
  rb.push(1.0);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push(2.0);
  EXPECT_DOUBLE_EQ(rb.front(), 2.0);
}

TEST(RingBufferTest, WrapsManyTimes) {
  RingBuffer<std::size_t> rb(7);
  for (std::size_t i = 0; i < 1000; ++i) rb.push(i);
  EXPECT_EQ(rb.front(), 993u);
  EXPECT_EQ(rb.back(), 999u);
}

// The contents oldest-first, read through segments().
template <typename T>
std::vector<T> by_segments(const RingBuffer<T>& rb, std::size_t lo, std::size_t hi) {
  const auto seg = rb.segments(lo, hi);
  std::vector<T> v(seg.first.begin(), seg.first.end());
  v.insert(v.end(), seg.second.begin(), seg.second.end());
  return v;
}

TEST(RingBufferTest, CapacityOne) {
  RingBuffer<int> rb(1);
  rb.push(1);
  EXPECT_TRUE(rb.full());
  rb.push(2);  // overwrites the only slot
  EXPECT_EQ(rb.size(), 1u);
  EXPECT_EQ(rb.front(), 2);
  EXPECT_EQ(by_segments(rb, 0, 1), std::vector<int>{2});
  EXPECT_EQ(rb.pop_back(), 2);
  EXPECT_TRUE(rb.empty());
  rb.push(3);
  EXPECT_EQ(rb.pop(), 3);
  rb.push(4);
  EXPECT_EQ(rb.at(0), 4);
  EXPECT_THROW([[maybe_unused]] auto v = rb.at(1), std::out_of_range);
}

TEST(RingBufferTest, OverwriteOnFullAcrossTheWrap) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 3; ++i) rb.push(i);
  EXPECT_EQ(rb.pop(), 1);
  EXPECT_EQ(rb.pop(), 2);  // the oldest now sits in the third slot
  for (int i = 4; i <= 6; ++i) rb.push(i);  // 5 and 6 wrap to the front
  EXPECT_TRUE(rb.full());
  rb.push(7);  // overwrites 3, the oldest
  rb.push(8);  // overwrites 4, the oldest, in the last slot
  EXPECT_EQ(rb.snapshot(), (std::vector<int>{5, 6, 7, 8}));
  EXPECT_EQ(rb.pop(), 5);
  EXPECT_EQ(rb.front(), 6);
}

TEST(RingBufferTest, PopBackAtAndSegmentsAcrossTheWrap) {
  RingBuffer<int> rb(5);
  for (int i = 0; i <= 6; ++i) rb.push(i);  // slots hold 5 6 2 3 4
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(rb.at(i), static_cast<int>(i) + 2);
  const auto seg = rb.segments(1, 4);
  EXPECT_EQ(std::vector<int>(seg.first.begin(), seg.first.end()), (std::vector<int>{3, 4}));
  EXPECT_EQ(std::vector<int>(seg.second.begin(), seg.second.end()), std::vector<int>{5});
  EXPECT_EQ(by_segments(rb, 0, 5), (std::vector<int>{2, 3, 4, 5, 6}));
  EXPECT_EQ(by_segments(rb, 3, 5), (std::vector<int>{5, 6}));
  EXPECT_TRUE(rb.segments(5, 5).first.empty());
  EXPECT_EQ(rb.pop_back(), 6);
  EXPECT_EQ(rb.pop_back(), 5);  // back across the wrap
  EXPECT_EQ(rb.back(), 4);
  rb.push(9);
  EXPECT_EQ(rb.snapshot(), (std::vector<int>{2, 3, 4, 9}));
  EXPECT_THROW([[maybe_unused]] auto s = rb.segments(2, 5), std::out_of_range);
}

TEST(RingBufferTest, LoadStateThenPush) {
  RingBuffer<std::uint64_t> src(6);
  for (std::uint64_t i = 0; i < 9; ++i) src.push(i);  // wrapped
  (void)src.pop();
  core::StateWriter w;
  w.begin_section("RING");
  src.save_state(w);
  w.end_section();
  const std::vector<std::uint8_t> blob = w.take();

  RingBuffer<std::uint64_t> dst(6);
  dst.push(99);
  core::StateReader r(blob);
  r.begin_section("RING");
  dst.load_state(r, "test ring");
  r.end_section();
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(dst.snapshot(), src.snapshot());
  for (std::uint64_t i = 100; i < 104; ++i) {
    src.push(i);
    dst.push(i);
  }
  EXPECT_EQ(dst.snapshot(), src.snapshot());
  EXPECT_EQ(dst.pop_back(), src.pop_back());
  EXPECT_EQ(by_segments(dst, 1, dst.size()), by_segments(src, 1, src.size()));
}

// Random pushes and both-end pops against std::deque, at every small
// capacity: every slot sum the ring wraps is exercised.
TEST(RingBufferTest, MatchesADequeAcrossWraps) {
  std::mt19937 rng(7);
  for (std::size_t cap = 1; cap <= 6; ++cap) {
    RingBuffer<int> rb(cap);
    std::deque<int> model;
    for (int step = 0; step < 400; ++step) {
      const unsigned op = rng() % 4;
      if (op <= 1) {
        rb.push(step);
        model.push_back(step);
        if (model.size() > cap) model.pop_front();
      } else if (!model.empty() && op == 2) {
        ASSERT_EQ(rb.pop(), model.front());
        model.pop_front();
      } else if (!model.empty()) {
        ASSERT_EQ(rb.pop_back(), model.back());
        model.pop_back();
      }
      ASSERT_EQ(rb.size(), model.size());
      for (std::size_t i = 0; i < model.size(); ++i) ASSERT_EQ(rb.at(i), model[i]);
      const std::size_t lo = model.empty() ? 0 : rng() % model.size();
      ASSERT_EQ(by_segments(rb, lo, model.size()),
                std::vector<int>(model.begin() + static_cast<std::ptrdiff_t>(lo), model.end()));
    }
  }
}

} // namespace
} // namespace icgkit::dsp
