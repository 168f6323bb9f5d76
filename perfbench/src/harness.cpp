#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::int64_t clock_pair_overhead_ns() {
  static const std::int64_t cost = [] {
    std::vector<double> v;
    for (int i = 0; i < 2001; ++i) {
      const std::int64_t a = now_ns();
      const std::int64_t b = now_ns();
      v.push_back(static_cast<double>(b - a));
    }
    return static_cast<std::int64_t>(median(v));
  }();
  return cost;
}

// ------------------------------------------------------------ percentiles

namespace {
/// 1-based nearest rank of percentile p in n samples. The tolerance keeps
/// a product such as 99.9 * 10000 / 100 (9990.000000000002 in binary
/// floating point) from rounding up to the next rank.
std::size_t nearest_rank(double p, std::size_t n) {
  const double x = p / 100.0 * static_cast<double>(n);
  return static_cast<std::size_t>(std::ceil(x - x * 1e-12 - 1e-9));
}
} // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = std::clamp<std::size_t>(nearest_rank(p, sorted.size()), 1, sorted.size());
  return sorted[rank - 1];
}

TailQuantile tail_quantile(const std::vector<double>& sorted, std::size_t min_beyond) {
  static constexpr double kLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};
  TailQuantile q;
  q.n = sorted.size();
  for (const double p : kLadder) {
    const std::size_t rank = nearest_rank(p, sorted.size());
    if (rank == 0 || rank > sorted.size()) break;
    const std::size_t beyond = sorted.size() - rank;
    if (beyond < min_beyond) break;
    q.p = p;
    q.value = sorted[rank - 1];
    q.beyond = beyond;
    q.supported = true;
  }
  if (!q.supported && !sorted.empty()) {
    q.p = 50.0;
    q.value = percentile(sorted, 50.0);
    q.beyond = sorted.size() - nearest_rank(50.0, sorted.size());
  }
  return q;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : buf_(std::max<std::size_t>(1, capacity), 0.0), rng_(seed | 1) {}

void Reservoir::add(double v) {
  ++seen_;
  if (kept_ < buf_.size()) {
    buf_[kept_++] = v;
    return;
  }
  // xorshift64*; replace a kept value with probability capacity / seen.
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  const std::uint64_t j = (rng_ * 0x2545f4914f6cdd1dULL) % seen_;
  if (j < buf_.size()) buf_[static_cast<std::size_t>(j)] = v;
}

void Reservoir::merge(const Reservoir& other) {
  const std::uint64_t seen = seen_ + other.seen_;
  for (std::size_t i = 0; i < other.kept_; ++i) add(other.buf_[i]);
  seen_ = seen;
}

std::vector<double> Reservoir::sorted() const {
  std::vector<double> v(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(kept_));
  std::sort(v.begin(), v.end());
  return v;
}

void Reservoir::append_to(std::vector<double>& out) const {
  out.insert(out.end(), buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(kept_));
}

SlicedSample::SlicedSample(std::int64_t window_start_ns, double seconds, double slice_s,
                           std::size_t per_slice_capacity)
    : start_ns_(window_start_ns),
      end_ns_(window_start_ns + static_cast<std::int64_t>(seconds * 1e9)),
      slice_ns_(std::max<std::int64_t>(1, static_cast<std::int64_t>(slice_s * 1e9))) {
  lane_slices_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(seconds / slice_s - 1e-9)));
  slices_.reserve(lane_slices_);
  for (std::size_t i = 0; i < lane_slices_; ++i)
    slices_.emplace_back(per_slice_capacity, 0x9e3779b97f4a7c15ULL + i);
}

void SlicedSample::add(std::int64_t t_ns, double v) {
  if (t_ns < start_ns_ || t_ns >= end_ns_) return;
  const auto i = static_cast<std::size_t>((t_ns - start_ns_) / slice_ns_);
  slices_[std::min(i, lane_slices_ - 1)].add(v);
}

void SlicedSample::add_lane(const SlicedSample& other) {
  slices_.insert(slices_.end(), other.slices_.begin(), other.slices_.end());
}

std::vector<double> SlicedSample::slice_percentiles(double p) const {
  std::vector<double> out;
  for (const Reservoir& s : slices_)
    if (!s.empty()) out.push_back(percentile(s.sorted(), p));
  return out;
}

std::vector<double> SlicedSample::sorted_all() const {
  std::vector<double> all;
  for (const Reservoir& s : slices_) s.append_to(all);
  std::sort(all.begin(), all.end());
  return all;
}

std::uint64_t SlicedSample::count() const {
  std::uint64_t n = 0;
  for (const Reservoir& s : slices_) n += s.seen();
  return n;
}

double SlicedSample::fast_percentile(double p) const {
  std::vector<double> v = slice_percentiles(p);
  std::sort(v.begin(), v.end());
  return percentile(v, kFastShare);
}

SlicedCounter::SlicedCounter(std::int64_t window_start_ns, double seconds, double slice_s)
    : start_ns_(window_start_ns),
      end_ns_(window_start_ns + static_cast<std::int64_t>(seconds * 1e9)),
      slice_ns_(std::max<std::int64_t>(1, static_cast<std::int64_t>(slice_s * 1e9))),
      sums_(std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(seconds / slice_s - 1e-9))),
            0.0) {}

void SlicedCounter::add(std::int64_t t_ns, double v) {
  if (t_ns < start_ns_ || t_ns >= end_ns_) return;
  const auto i = static_cast<std::size_t>((t_ns - start_ns_) / slice_ns_);
  sums_[std::min(i, sums_.size() / lanes_ - 1)] += v;
}

void SlicedCounter::add_lane(const SlicedCounter& other) {
  sums_.insert(sums_.end(), other.sums_.begin(), other.sums_.end());
  lanes_ += other.lanes_;
}

std::vector<double> SlicedCounter::slice_rates() const {
  std::vector<double> rates;
  const std::size_t per_lane = sums_.size() / lanes_;
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    const std::int64_t lo = start_ns_ + static_cast<std::int64_t>(i % per_lane) * slice_ns_;
    const std::int64_t hi = std::min(end_ns_, lo + slice_ns_);
    if (hi > lo) rates.push_back(sums_[i] / (static_cast<double>(hi - lo) * 1e-9));
  }
  return rates;
}

double SlicedCounter::fast_rate() const {
  std::vector<double> v = slice_rates();
  std::sort(v.begin(), v.end());
  return static_cast<double>(lanes_) * percentile(v, 100.0 - kFastShare);
}

// ------------------------------------------------------------------ spans

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(s.start_ns, spans[c].start_ns);
      const std::int64_t hi = std::min(s.end_ns, spans[c].end_ns);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

Tracer::Tracer(bool enabled, std::size_t capacity) : enabled_(enabled), capacity_(capacity) {}

std::uint32_t Tracer::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int32_t Tracer::begin(std::string_view name, std::uint64_t trace_id) {
  if (!enabled_) return -1;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return -1;
  }
  Span s;
  s.name = intern(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.trace_id = trace_id;
  s.start_ns = now_ns();
  spans_.push_back(s);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<Tracer::Rollup> Tracer::rollup() const {
  const std::vector<std::int64_t> self = self_times(spans_);
  std::vector<Rollup> out(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Rollup& r = out[spans_[i].name];
    ++r.count;
    r.total_ms += ns_to_ms(spans_[i].end_ns - spans_[i].start_ns);
    r.self_ms += ns_to_ms(self[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const Rollup& a, const Rollup& b) { return a.self_ms > b.self_ms; });
  return out;
}

double span_pair_cost_ns() {
  static const double cost = [] {
    constexpr int kPairs = 4096;
    std::vector<double> per_pair;
    for (int rep = 0; rep < 9; ++rep) {
      Tracer t(true, kPairs);
      const std::int32_t outer = t.begin("calibrate.outer");
      const std::int64_t t0 = now_ns();
      for (int i = 1; i < kPairs; ++i) t.end(t.begin("calibrate.inner"));
      const std::int64_t t1 = now_ns();
      t.end(outer);
      per_pair.push_back(static_cast<double>(t1 - t0) / (kPairs - 1));
    }
    return median(per_pair);
  }();
  return cost;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata_json) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"displayTimeUnit\": \"ns\", \"metadata\": " << metadata_json
    << ", \"traceEvents\": [";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string& name = names_[s.name];
    const std::string cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
                  "\"trace_id\": %llu}}",
                  i == 0 ? "" : ",", json_string(name).c_str(), json_string(cat).c_str(),
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                  static_cast<unsigned long long>(s.trace_id));
    f << buf;
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

// ------------------------------------------------------ open-loop schedule

OpenLoopSchedule::OpenLoopSchedule(std::int64_t t0_ns, std::int64_t period_ns,
                                   std::size_t slots)
    : t0_ns_(t0_ns), period_ns_(period_ns), slots_(std::max<std::size_t>(1, slots)) {}

std::int64_t OpenLoopSchedule::due_ns(std::uint64_t event) const {
  const std::uint64_t tick = event / slots_;
  const std::uint64_t slot = event % slots_;
  return t0_ns_ + static_cast<std::int64_t>(tick) * period_ns_ +
         static_cast<std::int64_t>(slot) * period_ns_ / static_cast<std::int64_t>(slots_);
}

double OpenLoopSchedule::record_send(std::uint64_t event, std::int64_t sent_ns) {
  const double lag = ns_to_ms(sent_ns - due_ns(event));
  lag_ms_.push_back(lag);
  return lag;
}

// ---------------------------------------------------------------- digests

std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------ fingerprint

namespace {
std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}
} // namespace

Fingerprint host_fingerprint() {
  Fingerprint fp;
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.flags = PERFBENCH_CXX_FLAGS;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.nproc = std::max(1u, std::thread::hardware_concurrency());
  fp.cpu = cpu_model();
  return fp;
}

std::string Fingerprint::to_json() const {
  std::ostringstream o;
  o << "{\"lane_isa\": " << json_string(lane_isa)
    << ", \"resolved_batch_width\": " << resolved_batch_width
    << ", \"compiler\": " << json_string(compiler) << ", \"flags\": " << json_string(flags)
    << ", \"build_type\": " << json_string(build_type) << ", \"nproc\": " << nproc
    << ", \"cpu\": " << json_string(cpu) << "}";
  return o.str();
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// ----------------------------------------------------------------- output

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string result_line(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
    << ", \"failed\": " << failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.12g", v);
    o << (i == 0 ? "" : ", ") << json_string(metrics[i].name) << ": {\"value\": " << buf
      << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  o << "}}";
  return o.str();
}

} // namespace perfbench
