// Tests of the benchmark harness's own arithmetic.
#include "harness.h"
#include "workloads.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n, already sorted
  return v;
}

TEST(Percentile, NearestRank) {
  const std::vector<double> v = iota_sample(100);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(iota_sample(1), 99.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(TailQuantile, PicksHighestPercentileWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 above its rank, p99.9 only 1.
  TailQuantile q = tail_quantile(iota_sample(1000));
  EXPECT_TRUE(q.supported);
  EXPECT_DOUBLE_EQ(q.p, 99.0);
  EXPECT_DOUBLE_EQ(q.value, 990.0);
  EXPECT_EQ(q.n, 1000u);
  EXPECT_EQ(q.beyond, 10u);

  // 999 samples: p99's rank is 990, leaving 9 -> fall back to p90.
  q = tail_quantile(iota_sample(999));
  EXPECT_DOUBLE_EQ(q.p, 90.0);
  EXPECT_EQ(q.beyond, 99u);

  // 10000 samples reach p99.9 (10 beyond), not p99.99.
  q = tail_quantile(iota_sample(10000));
  EXPECT_DOUBLE_EQ(q.p, 99.9);
  EXPECT_EQ(q.beyond, 10u);
}

TEST(TailQuantile, TinySampleIsFlaggedUnsupported) {
  const TailQuantile q = tail_quantile(iota_sample(15));
  EXPECT_FALSE(q.supported);
  EXPECT_DOUBLE_EQ(q.p, 50.0);
  EXPECT_EQ(q.n, 15u);
}

TEST(Sliced, FastFiguresIgnoreStalledAndSlowSlices) {
  // Ten 100 ms slices from t = 1 s. Slices 0-1 are fast (latencies
  // 0.01..1.00 ms, 100 events), 2-8 slow (latencies doubled, 50 events),
  // and slice 9 holds a stall.
  const std::int64_t t0 = 1'000'000'000, slice = 100'000'000;
  SlicedSample lat(t0, 1.0, 0.1);
  SlicedCounter done(t0, 1.0, 0.1);
  for (int s = 0; s < 10; ++s) {
    const bool slow = s >= 2;
    for (int i = 1; i <= 100; ++i) {
      if (slow && i % 2 == 0) continue;
      const std::int64_t t = t0 + s * slice + i * 900'000;
      const double v = static_cast<double>(i) * 0.01;
      lat.add(t, s == 9 ? 50.0 : slow ? 2.0 * v : v);
      done.add(t, 10.0);
    }
  }
  lat.add(t0 - 1, 1e9);           // before the window: ignored
  lat.add(t0 + 10 * slice, 1e9);  // after it: ignored
  EXPECT_EQ(lat.count(), 100u * 2 + 50u * 8);
  // The fastest tenth of slices is a fast slice: p99 0.99, p50 0.5.
  EXPECT_DOUBLE_EQ(lat.fast_percentile(99.0), 0.99);
  EXPECT_DOUBLE_EQ(lat.fast_percentile(50.0), 0.5);
  // The 90th percentile of 100 events of 10 (fast) or 50 (slow) per 0.1 s
  // slice is the fast rate, 10000 per second.
  EXPECT_NEAR(done.fast_rate(), 10000.0, 1e-6);
}

TEST(Reservoir, KeepsEverythingBelowCapacityAndAUniformSampleAbove) {
  Reservoir small(8);
  for (int i = 5; i >= 1; --i) small.add(i);
  EXPECT_EQ(small.seen(), 5u);
  EXPECT_EQ(small.sorted(), (std::vector<double>{1, 2, 3, 4, 5}));

  // 100000 draws of 0..99999 into 1000 slots: memory stays at the
  // capacity, the count is exact, and the kept sample is spread over the
  // whole stream (its median near the stream's), not just its start.
  Reservoir r(1000);
  for (int i = 0; i < 100000; ++i) r.add(i);
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_EQ(r.kept(), 1000u);
  const std::vector<double> v = r.sorted();
  EXPECT_NEAR(percentile(v, 50.0), 50000.0, 5000.0);
  EXPECT_GT(v.back(), 90000.0);

  // Same seed, same sample.
  Reservoir again(1000);
  for (int i = 0; i < 100000; ++i) again.add(i);
  EXPECT_EQ(again.sorted(), v);

  // A reservoir as large as two others holds their union and both counts.
  Reservoir both(2000);
  both.merge(r);
  both.merge(small);
  EXPECT_EQ(both.seen(), 100005u);
  EXPECT_EQ(both.kept(), 1005u);
}

TEST(Sliced, LanesKeepEachLoadersSlicesApart) {
  // Two loaders over the same two 100 ms slices: one on a fast core
  // (20 events of 1 per slice, latency 1 ms), one on a slow core (10
  // events, 2 ms). Merged slice by slice, every slice would mix the two;
  // as lanes the fast loader's slices stay whole.
  const std::int64_t t0 = 0, slice = 100'000'000;
  SlicedSample fast_lat(t0, 0.2, 0.1), slow_lat(t0, 0.2, 0.1);
  SlicedCounter fast_done(t0, 0.2, 0.1), slow_done(t0, 0.2, 0.1);
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 20; ++i) {
      const std::int64_t t = t0 + s * slice + i * 4'000'000;
      fast_lat.add(t, 1.0);
      fast_done.add(t, 1.0);
      if (i % 2 == 0) {
        slow_lat.add(t, 2.0);
        slow_done.add(t, 1.0);
      }
    }
  }
  fast_lat.add_lane(slow_lat);
  fast_done.add_lane(slow_done);
  EXPECT_EQ(fast_lat.count(), 60u);
  EXPECT_EQ(fast_lat.slice_percentiles(50.0), (std::vector<double>{1.0, 1.0, 2.0, 2.0}));
  EXPECT_EQ(fast_done.lanes(), 2u);
  EXPECT_EQ(fast_done.slice_rates(), (std::vector<double>{200.0, 200.0, 100.0, 100.0}));
  // Both lanes at the fast lane's rate.
  EXPECT_NEAR(fast_done.fast_rate(), 400.0, 1e-9);
  EXPECT_DOUBLE_EQ(fast_lat.fast_percentile(50.0), 1.0);
}

TEST(Sliced, CountIncludesObservationsPastTheSliceCapacity) {
  const std::int64_t t0 = 0;
  SlicedSample lat(t0, 0.2, 0.1, /*per_slice_capacity=*/16);
  for (int i = 0; i < 100; ++i) lat.add(t0 + 1000 * i, 1.0);
  EXPECT_EQ(lat.count(), 100u);
  EXPECT_EQ(lat.sorted_all().size(), 16u);
  EXPECT_DOUBLE_EQ(lat.fast_percentile(99.0), 1.0);
}

Span span(std::int32_t parent, std::int64_t start, std::int64_t end) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Parent [0, 100); children [10, 40) and [30, 60) overlap on [30, 40),
  // so together they cover 50 ns, not 60.
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 40), span(0, 30, 60)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  // A child that outlives its parent only covers the parent's part.
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 90, 150), span(0, 0, 20),
                                   span(2, 5, 10)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 10 - 20);
  EXPECT_EQ(self[2], 20 - 5);  // grandchildren count against their own parent
  EXPECT_EQ(self[3], 5);
}

TEST(Tracer, NestsThroughImplicitStackAndRollsUp) {
  Tracer t(true);
  {
    ScopedSpan outer(t, "layer.outer");
    ScopedSpan inner(t, "layer.inner", 7);
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].trace_id, 7u);
  const auto roll = t.rollup();
  ASSERT_EQ(roll.size(), 2u);
  for (const Tracer::Rollup& r : roll) EXPECT_EQ(r.count, 1u);

  Tracer off(false);
  { ScopedSpan s(off, "ignored"); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, StalledSendIsTimedFromItsDueTime) {
  // 4 slots, 100 ms period: events every 25 ms from t0 = 1 s.
  const std::int64_t t0 = 1'000'000'000, period = 100'000'000;
  OpenLoopSchedule sched(t0, period, 4);
  EXPECT_EQ(sched.due_ns(0), t0);
  EXPECT_EQ(sched.due_ns(1), t0 + 25'000'000);
  EXPECT_EQ(sched.due_ns(5), t0 + period + 25'000'000);

  // Events 0..2 go out on time; the generator then stalls 80 ms, so
  // events 3..5 all leave at t0 + 155 ms, late by 80, 55 and 30 ms.
  for (std::uint64_t e = 0; e < 3; ++e) sched.record_send(e, sched.due_ns(e));
  const std::int64_t resumed = sched.due_ns(3) + 80'000'000;
  EXPECT_DOUBLE_EQ(sched.record_send(3, resumed), 80.0);
  EXPECT_DOUBLE_EQ(sched.record_send(4, resumed), 55.0);
  EXPECT_DOUBLE_EQ(sched.record_send(5, resumed), 30.0);
  for (std::uint64_t e = 6; e < 20; ++e) sched.record_send(e, sched.due_ns(e));

  // A completion 5 ms after the late send still counts the whole stall.
  EXPECT_DOUBLE_EQ(sched.latency_ms(3, resumed + 5'000'000), 85.0);
  EXPECT_DOUBLE_EQ(sched.latency_ms(5, resumed + 5'000'000), 35.0);

  // The stall shows in the generator-lag tail.
  std::vector<double> lag = sched.lag_ms();
  std::sort(lag.begin(), lag.end());
  EXPECT_DOUBLE_EQ(percentile(lag, 99.0), 80.0);
  EXPECT_DOUBLE_EQ(percentile(lag, 50.0), 0.0);
}

TEST(Inputs, SameSeedSameDigestOtherSeedOtherDigest) {
  const WorkloadInputs a = make_inputs("server_realtime", 11);
  const WorkloadInputs b = make_inputs("server_realtime", 11);
  const WorkloadInputs c = make_inputs("server_realtime", 12);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_EQ(a.digest, input_digest(a.recordings));

  const WorkloadInputs d = make_inputs("device_q31", 11);
  const WorkloadInputs e = make_inputs("device_q31", 11);
  EXPECT_EQ(d.digest, e.digest);
  EXPECT_NE(d.digest, make_inputs("device_q31", 12).digest);
}

TEST(Inputs, LoopedSliceWrapsAround) {
  StoredRecording r;
  r.rec.ecg_mv = {1, 2, 3, 4};
  r.rec.z_ohm = {5, 6, 7, 8};
  std::vector<double> e, z;
  looped_slice(r, 3, 3, e, z);
  EXPECT_EQ(e, (std::vector<double>{4, 1, 2}));
  EXPECT_EQ(z, (std::vector<double>{8, 5, 6}));
}

TEST(Output, ResultLineHasExactlyTheContractKeys) {
  const std::string line =
      result_line(true, 10, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": "
            "{\"value\": 0.5, \"unit\": \"s\"}}}");
}

} // namespace
} // namespace perfbench
