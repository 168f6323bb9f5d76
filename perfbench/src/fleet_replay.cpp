// fleet_replay: the CPU-bound bulk path. 192 sessions on an in-process
// SessionManager (default FleetConfig, 3 workers) replay long stored
// recordings in 64-sample chunks, cycling the clean, mild and moderate
// presets, in a closed loop driven by the pilot thread.
#include "pilot.h"
#include "workloads.h"

#include "core/beat_serializer.h"

#include <algorithm>
#include <limits>
#include <memory>

namespace perfbench {

namespace core = icgkit::core;
namespace dsp = icgkit::dsp;

void run_pilot(core::SessionManager& mgr, std::vector<core::SessionHandle>& handles,
               std::vector<PilotSession>& sessions, std::size_t chunk,
               std::int64_t window_start_ns, std::int64_t window_end_ns,
               std::int64_t stop_ns, Tracer& tracer, PilotStats& stats,
               std::uint64_t trace_every) {
  const std::int64_t clock_cost = clock_pair_overhead_ns();
  const bool tracing = tracer.enabled();
  std::vector<std::size_t> index_of_id;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const std::uint32_t id = handles[i].id();
    if (index_of_id.size() <= id) index_of_id.resize(id + 1, handles.size());
    index_of_id[id] = i;
  }
  std::vector<core::FleetBeat> polled;
  polled.reserve(4096);
  std::vector<unsigned char> bytes;
  const std::size_t bb = beat_byte_size();
  bytes.reserve(bb);
  // Checks each beat against the session's reference at the cursor and
  // records its latency from the acceptance of its emission sample's chunk.
  const auto deliver = [&](std::int64_t at) {
    for (const core::FleetBeat& fb : polled) {
      if (fb.end_of_session || fb.session >= index_of_id.size()) continue;
      PilotSession& s = sessions[index_of_id[fb.session]];
      const std::uint64_t b = s.delivered++;
      if (s.ref == nullptr || s.diverged) continue;
      bytes.clear();
      core::serialize_beat(fb.beat, bytes);
      if (b >= s.ref->streamed_beats ||
          !std::equal(bytes.begin(), bytes.end(), s.ref->bytes.begin() + static_cast<std::ptrdiff_t>(b * bb))) {
        s.diverged = true;
        continue;
      }
      const std::uint64_t k = s.ref->emit[b] / chunk;
      if (k >= s.pushed || s.pushed - k > kAcceptRing) {
        s.diverged = true;  // emitted from a chunk never pushed, or out of the ring
        continue;
      }
      const std::int64_t accepted = s.accept_ns[k % kAcceptRing];
      stats.beat_latency_ms.add(accepted, ns_to_ms(at - accepted));
    }
    stats.polled_beats += polled.size();
    polled.clear();
  };
  const auto in_window = [&](std::int64_t t) {
    return t >= window_start_ns && t < window_end_ns;
  };

  bool pushing = true;
  for (std::uint64_t sweep = 0;; ++sweep) {
    const std::int64_t sweep_start = now_ns();
    if (stop_ns > 0 && sweep_start >= stop_ns) pushing = false;
    tracer.set_enabled(tracing && sweep % trace_every == 0);
    const std::int32_t sweep_span = tracer.begin("pilot.sweep");

    bool any_pushing = false, all_done = true;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      PilotSession& s = sessions[i];
      core::SessionHandle& h = handles[i];
      const std::uint64_t processed = h.processed();
      std::int64_t t = now_ns();
      for (; s.done < processed; ++s.done) {
        const std::int64_t accepted = s.accept_ns[s.done % kAcceptRing];
        stats.chunk_latency_ms.add(accepted, ns_to_ms(t - accepted));
        stats.completed.add(t, static_cast<double>(chunk));
      }
      const bool budget_left = s.budget_chunks == 0 || s.pushed < s.budget_chunks;
      if (!pushing || !budget_left) {
        if (s.done < s.pushed) all_done = false;
        continue;
      }
      any_pushing = true;
      all_done = false;
      if (!s.attempting) {
        s.attempting = true;
        s.first_attempt_ns = t;
        if (in_window(t)) stats.offered_samples += chunk;
      }
      const std::size_t off = static_cast<std::size_t>((s.pushed * chunk) % s.rec->size());
      const dsp::SignalView ecg(s.rec->rec.ecg_mv.data() + off, chunk);
      const dsp::SignalView z(s.rec->rec.z_ohm.data() + off, chunk);
      const std::int32_t span = tracer.begin("fleet.try_push", h.id());
      t = now_ns();
      const bool ok = h.try_push(ecg, z);
      const std::int64_t t_after = now_ns();
      tracer.end(span);
      stats.try_push_ns += std::max<std::int64_t>(0, t_after - t - clock_cost);
      ++stats.attempts;
      if (!ok) {
        ++stats.rejects;
        continue;
      }
      s.accept_ns[s.pushed % kAcceptRing] = t_after;
      if (in_window(t)) stats.chunk_wait_ms.add(ns_to_ms(t_after - s.first_attempt_ns));
      s.attempting = false;
      ++s.pushed;
    }

    const std::int32_t poll_span = tracer.begin("fleet.poll");
    const std::int64_t p0 = now_ns();
    mgr.poll(polled);
    const std::int64_t p1 = now_ns();
    tracer.end(poll_span);
    stats.poll_ns += std::max<std::int64_t>(0, p1 - p0 - clock_cost);
    deliver(p1);
    tracer.end(sweep_span);
    if (in_window(sweep_start)) stats.sweep_ms.add(ns_to_ms(now_ns() - sweep_start));
    if (!any_pushing && all_done) break;
  }
  tracer.set_enabled(tracing);

  mgr.close();
  mgr.join();
  mgr.poll(polled);
  deliver(now_ns());
  for (const core::FleetWorkerStats& w : mgr.worker_stats())
    stats.worker_samples.push_back(w.samples);
}

namespace {

constexpr std::size_t kSessions = 192;
constexpr std::size_t kWorkers = 3;
constexpr int kSetupReps = 9;
/// The references are computed in set-up for the most samples a session
/// may push: its share of this fleet-wide rate over the warm-up and the
/// window. It is about four times the rate of the reference host, so a
/// faster engine still fits; a run that spends a session's budget fails
/// and says so.
constexpr double kMaxFleetSamplesPerS = 16e6;

struct Fleet {
  std::unique_ptr<core::SessionManager> mgr;
  std::vector<core::SessionHandle> handles;
};

Fleet build_fleet() {
  core::FleetConfig cfg;
  cfg.workers = kWorkers;
  Fleet f;
  f.mgr = std::make_unique<core::SessionManager>(kFs, cfg);
  f.handles.reserve(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) f.handles.push_back(f.mgr->open());
  f.mgr->start();
  return f;
}

} // namespace

RunOutcome run_fleet_replay(const WorkloadInputs& in, double seconds, Tracer& tracer) {
  RunOutcome out;
  // References first: one chunk-size-1 run per distinct recording over
  // the budget, so the window only compares bytes at a cursor.
  const std::size_t n_rec = in.recordings.size();
  const auto budget_chunks = static_cast<std::uint64_t>(
      kMaxFleetSamplesPerS * (kWarmupS + seconds) / static_cast<double>(kSessions * in.chunk));
  std::vector<Reference> refs(n_rec);
  parallel_for(n_rec, 4, [&](std::size_t r) {
    refs[r] = reference_run(in.recordings[r], budget_chunks * in.chunk, in.backend,
                            /*finish=*/false);
  });

  Fleet fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fleet.mgr) {
      fleet.mgr->close();
      fleet.mgr->join();
      fleet.handles.clear();
      fleet.mgr.reset();
    }
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "fleet_replay.setup");
      fleet = build_fleet();
    }
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  std::vector<PilotSession> sessions(kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions[i].rec = &in.recordings[i % n_rec];
    sessions[i].ref = &refs[i % n_rec];
    sessions[i].budget_chunks = budget_chunks;
  }

  const std::int64_t t_start = now_ns();
  const std::int64_t ws = t_start + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t we = ws + static_cast<std::int64_t>(seconds * 1e9);
  init_slices(out, ws, seconds);
  PilotStats stats;
  stats.chunk_latency_ms = std::move(out.chunk_latency_ms);
  stats.completed = std::move(out.completed);
  stats.beat_latency_ms = std::move(out.beat_latency_ms);
  run_pilot(*fleet.mgr, fleet.handles, sessions, in.chunk, ws, we, we, tracer, stats,
            /*trace_every=*/2048);
  out.peak_rss_mb = peak_rss_mb();
  out.completed = std::move(stats.completed);
  out.chunk_latency_ms = std::move(stats.chunk_latency_ms);
  out.beat_latency_ms = std::move(stats.beat_latency_ms);
  out.chunks_in_window = out.chunk_latency_ms.count();

  for (std::size_t i = 0; i < kSessions; ++i) {
    const PilotSession& s = sessions[i];
    const std::uint64_t n = s.pushed * in.chunk;
    const std::size_t expected = s.ref->beats_before(n);
    out.attempted += s.pushed + 1;  // chunks + the open
    ++out.streams_checked;
    std::string problem;
    if (s.pushed >= budget_chunks)
      problem = "pushed its whole reference budget of " + std::to_string(budget_chunks) +
                " chunks; raise kMaxFleetSamplesPerS";
    else if (s.diverged || s.delivered != expected)
      problem = std::to_string(s.delivered) + " beats delivered, " + std::to_string(expected) +
                " expected, bytes or emission chunks differ";
    if (!problem.empty()) {
      ++out.divergent_streams;
      out.failed += s.pushed + 1;
      if (out.problems.size() < 8)
        out.problems.push_back("fleet session " + std::to_string(i) + ": " + problem);
      continue;
    }
    score_stream(*s.rec, n, /*finished=*/false,
                 std::span<const ScoredBeat>(s.ref->beats.data(), expected), out.accuracy);
  }

  const std::vector<double> sweeps = stats.sweep_ms.sorted();
  out.layer = {
      {"loadgen.lag_p99_ms", percentile(sweeps, 99.0), "ms"},
      {"loadgen.offered_sps", static_cast<double>(stats.offered_samples) / seconds, "samples/s"},
  };
  fleet_metrics(stats, out.layer);
  return out;
}

void fleet_metrics(const PilotStats& stats, std::vector<Metric>& out) {
  double mean_w = 0.0, max_w = 0.0;
  for (const std::uint64_t w : stats.worker_samples) {
    mean_w += static_cast<double>(w);
    max_w = std::max(max_w, static_cast<double>(w));
  }
  mean_w /= static_cast<double>(std::max<std::size_t>(1, stats.worker_samples.size()));
  const auto attempts = static_cast<double>(std::max<std::uint64_t>(1, stats.attempts));
  out.push_back({"fleet.try_push_ns", static_cast<double>(stats.try_push_ns) / attempts, "ns"});
  out.push_back({"fleet.backpressure_ratio", static_cast<double>(stats.rejects) / attempts,
                 "ratio"});
  out.push_back({"fleet.poll_ns_per_beat",
                 static_cast<double>(stats.poll_ns) /
                     static_cast<double>(std::max<std::uint64_t>(1, stats.polled_beats)),
                 "ns"});
  out.push_back({"fleet.chunk_wait_p99_ms", percentile(stats.chunk_wait_ms.sorted(), 99.0), "ms"});
  out.push_back({"fleet.worker_imbalance", mean_w > 0.0 ? max_w / mean_w : 0.0, "ratio"});
}

} // namespace perfbench
