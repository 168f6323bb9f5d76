// perfbench: the repository benchmark. One workload per invocation:
//
//   perfbench --workload fleet_replay|server_realtime|device_q31
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints a human-readable report (every metric with its unit and the
// direction in which it is better, the host/build fingerprint, and with
// --trace 1 the per-layer self-time roll-up) and, as the last line, one
// JSON object {correct, attempted, failed, metrics}. Exits non-zero when
// any delivered beat diverges from its in-process reference or any
// operation fails.
#include "workloads.h"

#include "dsp/simd.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

namespace perfbench {

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() == "1";
    else if (k == "--trace-out") a.trace_out = value();
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

RunOutcome run_workload(const WorkloadInputs& in, double seconds, Tracer& tracer) {
  if (in.workload == "fleet_replay") return run_fleet_replay(in, seconds, tracer);
  if (in.workload == "server_realtime") return run_server_realtime(in, seconds, tracer);
  return run_device_q31(in, seconds, tracer);
}

struct Described {
  Metric m;
  const char* better;
};

/// The end-to-end metrics of one run, plus report-only extras. Rates
/// and percentiles are taken per slice of the window (kChunkSliceS,
/// kBeatSliceS) and read from the fastest kFastShare percent of slices;
/// the report lines add the whole-window median and the highest
/// percentile the whole sample supports, with its count.
std::vector<Described> end_to_end(const RunOutcome& o, std::vector<std::string>& extra) {
  const auto tail_note = [&](const char* name, const SlicedSample& s) {
    const std::vector<double> v = s.sorted_all();
    const TailQuantile q = tail_quantile(v);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: median %.6g ms, p%g %.6g ms (%zu samples kept of %llu, %zu beyond)%s",
                  name, percentile(v, 50.0), q.p, q.value, q.n,
                  static_cast<unsigned long long>(s.count()), q.beyond,
                  q.supported ? "" : " [sample too small for a supported tail]");
    extra.emplace_back(buf);
    std::vector<double> p99s = s.slice_percentiles(99.0);
    std::sort(p99s.begin(), p99s.end());
    std::snprintf(buf, sizeof buf, "%s p99 over %zu slices: min %.6g, median %.6g, max %.6g ms",
                  name, p99s.size(), p99s.empty() ? 0.0 : p99s.front(), median(p99s),
                  p99s.empty() ? 0.0 : p99s.back());
    extra.emplace_back(buf);
  };
  tail_note("chunk latency", o.chunk_latency_ms);
  tail_note("beat latency", o.beat_latency_ms);
  {
    std::vector<double> rates = o.completed.slice_rates();
    std::sort(rates.begin(), rates.end());
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "throughput over %zu slices of %zu lane(s): p10 %.6g, median %.6g, p90 %.6g "
                  "samples/s per lane",
                  rates.size(), o.completed.lanes(), percentile(rates, 10.0),
                  percentile(rates, 50.0), percentile(rates, 90.0));
    extra.emplace_back(buf);
  }
  const double late = o.chunks_in_window > 0 ? static_cast<double>(o.late_chunks) /
                                                   static_cast<double>(o.chunks_in_window)
                                             : 0.0;
  const double err = o.attempted > 0 ? static_cast<double>(o.failed) /
                                           static_cast<double>(o.attempted)
                                     : 1.0;
  char buf[256];
  std::snprintf(buf, sizeof buf, "late_fraction = %.6g ratio (lower is better; %llu of %llu chunks)",
                late, static_cast<unsigned long long>(o.late_chunks),
                static_cast<unsigned long long>(o.chunks_in_window));
  extra.emplace_back(buf);
  std::snprintf(buf, sizeof buf, "error_rate = %.6g ratio (lower is better; %llu of %llu operations)",
                err, static_cast<unsigned long long>(o.failed),
                static_cast<unsigned long long>(o.attempted));
  extra.emplace_back(buf);
  std::snprintf(buf, sizeof buf,
                "beat bytes: %llu of %llu streams identical to their in-process reference",
                static_cast<unsigned long long>(o.streams_checked - o.divergent_streams),
                static_cast<unsigned long long>(o.streams_checked));
  extra.emplace_back(buf);

  return {
      {{"setup_s", median(o.setup_s), "s"}, "lower"},
      {{"throughput_sps", o.completed.fast_rate(), "samples/s"}, "higher"},
      {{"chunk_latency_p50_ms", o.chunk_latency_ms.fast_percentile(50.0), "ms"}, "lower"},
      {{"chunk_latency_p99_ms", o.chunk_latency_ms.fast_percentile(99.0), "ms"}, "lower"},
      {{"beat_latency_p50_ms", o.beat_latency_ms.fast_percentile(50.0), "ms"}, "lower"},
      {{"beat_latency_p99_ms", o.beat_latency_ms.fast_percentile(99.0), "ms"}, "lower"},
      {{"peak_rss_mb", o.peak_rss_mb, "MiB"}, "lower"},
      {{"r_sensitivity", o.accuracy.sensitivity(), "ratio"}, "higher"},
      {{"pep_mae_ms", o.accuracy.pep_mae_ms(), "ms"}, "lower"},
      {{"lvet_mae_ms", o.accuracy.lvet_mae_ms(), "ms"}, "lower"},
      {{"usable_fraction", o.accuracy.usable_fraction(), "ratio"}, "higher"},
  };
}

void print_metrics(const char* title, const std::vector<Described>& ms) {
  std::cout << title << "\n";
  for (const Described& d : ms) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "  %-30s %16.8g %-10s (%s is better)", d.m.name.c_str(),
                  d.m.value, d.m.unit.c_str(), d.better);
    std::cout << buf << "\n";
  }
}

int run(const Args& args) {
  const WorkloadInputs in = make_inputs(args.workload, args.seed);
  Fingerprint fp = host_fingerprint();
  fp.lane_isa = icgkit::dsp::lane_isa();
  fp.resolved_batch_width = icgkit::dsp::default_batch_width();
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx", static_cast<unsigned long long>(in.digest));
  std::cout << "perfbench workload=" << in.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << " input_digest=" << digest << "\n";
  std::cout << "fingerprint: " << fp.to_json() << "\n";

  Tracer off(false);
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  const auto account = [&](const RunOutcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    problems.insert(problems.end(), o.problems.begin(), o.problems.end());
  };

  if (!args.trace) {
    RunOutcome o = run_workload(in, args.seconds, off);
    account(o);
    std::vector<std::string> extra;
    const std::vector<Described> e2e = end_to_end(o, extra);
    print_metrics("end-to-end metrics:", e2e);
    for (const std::string& line : extra) std::cout << "  " << line << "\n";
    for (const Described& d : e2e) metrics.push_back(d.m);
  } else {
    // One traced run, then the ladder. The tracing overhead is estimated
    // from the spans the run recorded times the measured cost of one
    // span, over the run's warm-up and window: comparing against a
    // separate untraced run would mostly show the host's drift.
    Tracer tracer(true);
    RunOutcome traced = run_workload(in, args.seconds, tracer);
    account(traced);
    const double span_ns = span_pair_cost_ns();
    const double overhead = 100.0 * static_cast<double>(tracer.spans().size()) * span_ns /
                            ((kWarmupS + args.seconds) * 1e9);
    std::cout << "tracing: " << tracer.spans().size() << " spans at " << span_ns
              << " ns each over " << (kWarmupS + args.seconds) << " s\n";

    std::vector<Metric> layer = traced.layer;
    std::vector<Metric> ladder;
    {
      ScopedSpan span(tracer, "ladder");
      run_ladder(in, tracer, ladder);
    }
    for (const Metric& m : ladder) {
      const bool own = std::any_of(layer.begin(), layer.end(),
                                   [&](const Metric& x) { return x.name == m.name; });
      if (!own) layer.push_back(m);
    }
    layer.push_back({"trace.overhead_pct", overhead, "%"});
    std::sort(layer.begin(), layer.end(),
              [](const Metric& a, const Metric& b) { return a.name < b.name; });

    std::cout << "per-layer metrics (traced run + ladder):\n";
    for (const Metric& m : layer) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "  %-32s %16.8g %s", m.name.c_str(), m.value,
                    m.unit.c_str());
      std::cout << buf << "\n";
    }
    std::cout << "self-time roll-up (" << tracer.spans().size() << " spans, " << tracer.dropped()
              << " dropped):\n";
    for (const Tracer::Rollup& r : tracer.rollup()) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "  %-28s %9zu calls %12.3f ms total %12.3f ms self",
                    r.name.c_str(), r.count, r.total_ms, r.self_ms);
      std::cout << buf << "\n";
    }
    if (!args.trace_out.empty()) {
      const std::string meta = "{\"workload\": " + json_string(in.workload) +
                               ", \"seed\": " + std::to_string(args.seed) +
                               ", \"fingerprint\": " + fp.to_json() + "}";
      if (tracer.write_chrome_json(args.trace_out, meta))
        std::cout << "spans written to " << args.trace_out << "\n";
      else
        problems.push_back("cannot write span file " + args.trace_out);
    }
    metrics = layer;
  }

  for (const std::string& p : problems) std::cout << "FAIL: " << p << "\n";
  const bool correct = problems.empty() && failed == 0 && attempted > 0;
  std::cout << result_line(correct, std::max<std::uint64_t>(1, attempted), failed, metrics)
            << std::endl;
  return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
