// Measurement plumbing shared by every perfbench workload: clocks,
// percentile selection, spans with self-time roll-up, open-loop schedule
// accounting, input digests, the host/build fingerprint and the result
// line. Nothing here knows about icgkit; the workloads do.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Median cost of one back-to-back now_ns() pair, measured once;
/// subtracted from per-call timings so short calls are not inflated by
/// the clock itself.
std::int64_t clock_pair_overhead_ns();

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least p% of the sample at or below it. p in (0, 100].
double percentile(const std::vector<double>& sorted, double p);

/// The tail a sample can support: the highest of p50, p90, p99, p99.9,
/// p99.99 and p99.999 that still has at least `min_beyond` samples
/// strictly above its rank, reported with the sample count. With fewer
/// than 2 * min_beyond samples even p50 lacks support; it is then
/// reported with `supported` false.
struct TailQuantile {
  double p = 0.0;          ///< the percentile chosen, e.g. 99.9
  double value = 0.0;
  std::size_t n = 0;       ///< sample count
  std::size_t beyond = 0;  ///< samples above the chosen rank
  bool supported = false;
};
TailQuantile tail_quantile(const std::vector<double>& sorted, std::size_t min_beyond = 10);

double median(std::vector<double> v);

/// The share of slices, in percent, a run's timing figure is read from:
/// the fastest tenth. The host's cores switch between a fast and a slow
/// state for seconds at a time (the same code runs about 1.7 times
/// slower in the slow one), and the share of a run spent in each differs
/// from run to run. Any central figure over slices follows that share;
/// the fastest tenth of slices is the program on a fast core, which most
/// runs reach, and any change to the program moves it.
inline constexpr double kFastShare = 10.0;

/// A uniform random sample of at most `capacity` of the observations
/// added (reservoir sampling, deterministic generator). Its storage is
/// allocated and touched on construction, so the harness's memory is
/// fixed before a measurement starts and does not grow with the rate of
/// the system under test. Below capacity it keeps every observation.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 4096, std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  void add(double v);
  /// Takes in another reservoir's sample: its kept values are appended
  /// while there is room (so a reservoir with the capacity of several
  /// others holds their union) and its count is added.
  void merge(const Reservoir& other);

  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] std::size_t kept() const { return kept_; }
  [[nodiscard]] bool empty() const { return kept_ == 0; }
  /// The kept observations, ascending.
  [[nodiscard]] std::vector<double> sorted() const;
  /// Appends the kept observations, unordered.
  void append_to(std::vector<double>& out) const;

 private:
  std::vector<double> buf_;
  std::size_t kept_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

/// Observations bucketed by the slice of the measurement window their
/// event fell in, each slice a Reservoir. A run's figure is a statistic
/// over slices of a per-slice statistic, so a transient stall (the host
/// taking a core away for a few milliseconds) spoils one slice, not the
/// run.
///
/// Independent loaders (one thread each, as the device workload has)
/// each fill a sample of their own; add_lane() then keeps each loader's
/// slices apart, so a slice is one loader on one core.
class SlicedSample {
 public:
  SlicedSample() = default;
  SlicedSample(std::int64_t window_start_ns, double seconds, double slice_s,
               std::size_t per_slice_capacity = 4096);

  /// Adds `v` to the slice (of the first lane) holding `t_ns`; ignored
  /// outside the window.
  void add(std::int64_t t_ns, double v);
  /// Appends the slices of another loader's sample over the same window
  /// and slicing as slices of their own.
  void add_lane(const SlicedSample& other);

  /// Nearest-rank p-th percentile of every non-empty slice.
  [[nodiscard]] std::vector<double> slice_percentiles(double p) const;
  /// Every kept observation, ascending.
  [[nodiscard]] std::vector<double> sorted_all() const;
  /// Observations added inside the window, kept or not.
  [[nodiscard]] std::uint64_t count() const;

  /// The fast-state figure of each slice's nearest-rank p-th percentile:
  /// its kFastShare-th percentile over non-empty slices.
  [[nodiscard]] double fast_percentile(double p) const;

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::int64_t slice_ns_ = 1;
  std::size_t lane_slices_ = 1;    ///< slices per lane
  std::vector<Reservoir> slices_;  ///< lane after lane
};

/// Per-slice sums over the same slicing as SlicedSample, for rates; keeps
/// no per-event storage, so its memory does not grow with the rate.
class SlicedCounter {
 public:
  SlicedCounter() = default;
  SlicedCounter(std::int64_t window_start_ns, double seconds, double slice_s);

  /// Adds `v` to the slice (of the first lane) holding `t_ns`; ignored
  /// outside the window.
  void add(std::int64_t t_ns, double v);
  /// Appends the slices of another loader's counter over the same window
  /// and slicing as slices of their own.
  void add_lane(const SlicedCounter& other);

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// Each slice's sum per second of slice, lane after lane.
  [[nodiscard]] std::vector<double> slice_rates() const;
  /// The fast-state rate of all lanes together: the lane count times the
  /// (100 - kFastShare)-th percentile of the slice rates.
  [[nodiscard]] double fast_rate() const;

 private:
  std::int64_t start_ns_ = 0;
  std::int64_t end_ns_ = 0;
  std::int64_t slice_ns_ = 1;
  std::size_t lanes_ = 1;
  std::vector<double> sums_;  ///< lane after lane, each sums_.size() / lanes_ slices
};

// ------------------------------------------------------------------ spans

/// One timed call into a layer. `parent` indexes the enclosing span in
/// the same Tracer (-1 for a root); `trace_id` groups the spans of one
/// session or stream.
struct Span {
  std::uint32_t name = 0;  ///< index into the tracer's name table
  std::int32_t parent = -1;
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it covered by
/// the union of its children's intervals (children may overlap each
/// other and may stick out of the parent; only the covered part of the
/// parent counts). Index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// In-memory span recorder for one thread. Spans nest through an
/// implicit stack: begin() parents the new span to the innermost open
/// one. Disabled tracers record nothing and cost one branch per call.
/// Spans past `capacity` are counted in dropped() instead of stored.
class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t capacity = std::size_t{1} << 20);

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span; returns its index, or -1 when not recorded.
  std::int32_t begin(std::string_view name, std::uint64_t trace_id = 0);
  /// Closes the span `begin` returned (no-op for -1). Spans close in
  /// LIFO order.
  void end(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  struct Rollup {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  /// Per span name: call count, total and self time, largest self first.
  [[nodiscard]] std::vector<Rollup> rollup() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps relative to the first span) that Perfetto and
  /// chrome://tracing open directly. `metadata_json` must be a JSON
  /// object; it is stored under "metadata". Returns false on I/O failure.
  bool write_chrome_json(const std::string& path, const std::string& metadata_json) const;

 private:
  std::uint32_t intern(std::string_view name);

  bool enabled_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::vector<std::int32_t> open_;
};

/// Median cost of recording one span (a begin/end pair) on an enabled
/// Tracer, measured once. Spans recorded times this cost, over the run's
/// length, estimates the tracing overhead of a run.
double span_pair_cost_ns();

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string_view name, std::uint64_t trace_id = 0)
      : t_(t), id_(t.enabled() ? t.begin(name, trace_id) : -1) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

// ------------------------------------------------------ open-loop schedule

/// Send schedule of an open-loop generator: `slots` streams share one
/// period, phases evenly staggered, so event e (slot e % slots, tick
/// e / slots) is due at t0 + e * period / slots whatever the system does.
/// Every latency is taken from the due time, so a stalled send charges
/// its wait to every event queued behind it; record_send() keeps how late
/// the generator actually issued each event.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(std::int64_t t0_ns, std::int64_t period_ns, std::size_t slots);

  [[nodiscard]] std::int64_t due_ns(std::uint64_t event) const;

  /// Pre-sizes the lag record for `events` sends.
  void reserve(std::size_t events) { lag_ms_.reserve(events); }

  /// Notes that `event` was issued at `sent_ns`; returns its lag (ms).
  double record_send(std::uint64_t event, std::int64_t sent_ns);
  [[nodiscard]] const std::vector<double>& lag_ms() const { return lag_ms_; }

  /// Completion latency of `event` finished at `done_ns`, from its due time.
  [[nodiscard]] double latency_ms(std::uint64_t event, std::int64_t done_ns) const {
    return ns_to_ms(done_ns - due_ns(event));
  }

 private:
  std::int64_t t0_ns_;
  std::int64_t period_ns_;
  std::size_t slots_;
  std::vector<double> lag_ms_;
};

// ---------------------------------------------------------------- digests

/// FNV-1a 64 over raw bytes, chained through `h`.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

// ------------------------------------------------------------ fingerprint

/// Host and build identity stamped into every result: numbers from
/// different fingerprints are not comparable.
struct Fingerprint {
  std::string lane_isa;
  std::size_t resolved_batch_width = 0;
  std::string compiler;
  std::string flags;
  std::string build_type;
  unsigned nproc = 0;
  std::string cpu;
  [[nodiscard]] std::string to_json() const;
};
Fingerprint host_fingerprint();

/// Peak resident set size of this process (VmHWM), MiB; 0 if unknown.
double peak_rss_mb();

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Escapes `s` as a JSON string literal, quotes included.
std::string json_string(std::string_view s);

/// The benchmark's result line: one JSON object with exactly the keys
/// correct, attempted, failed and metrics.
std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

} // namespace perfbench
