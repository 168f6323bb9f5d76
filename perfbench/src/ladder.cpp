// The per-layer ladder: the workload's own chunks (same recordings, same
// chunk size, same backend) replayed standalone through each layer's
// public entry point, in this process, so the cost of every rung of
//
//   kernel fronts -> pipeline tail -> SIMD batch -> fleet -> server hop
//
// is measured on identical input. Per-call timings have the clock's own
// cost removed; rows that are timed with several repetitions report the
// median repetition.
#include "pilot.h"
#include "workloads.h"

#include "capi/icgkit.h"
#include "core/batch.h"
#include "core/fleet.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "ecg/pan_tompkins.h"
#include "net/client.h"
#include "net/server.h"

#include <algorithm>
#include <limits>
#include <memory>

namespace perfbench {

namespace core = icgkit::core;
namespace dsp = icgkit::dsp;
namespace ecg = icgkit::ecg;
namespace net = icgkit::net;

namespace {

constexpr std::size_t kLanes = 8;
constexpr std::size_t kLadderSamples = 32000;  // 128 s: whole chunks of 10, 25 and 64
constexpr int kReps = 3;
constexpr int kCheckpointSaves = 50;

/// The ladder's input: kLanes streams of the workload's own samples.
std::vector<StoredRecording> ladder_streams(const WorkloadInputs& in) {
  std::vector<StoredRecording> out(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    const StoredRecording& src = in.recordings[i % in.recordings.size()];
    const std::uint64_t from = in.recordings.size() >= kLanes ? 0 : i * (kLadderSamples / 2);
    looped_slice(src, from, kLadderSamples, out[i].rec.ecg_mv, out[i].rec.z_ohm);
    out[i].rec.fs = kFs;
    out[i].preset = src.preset;
  }
  return out;
}

struct Timer {
  std::int64_t cost = clock_pair_overhead_ns();
  std::int64_t t0 = 0;
  void start() { t0 = now_ns(); }
  std::int64_t stop() const { return std::max<std::int64_t>(0, now_ns() - t0 - cost); }
};

// ----------------------------------------------------------- fronts + tail

struct PipelineRow {
  double icg_ns = 0, ecg_ns = 0, qrs_ns = 0;   // per sample
  double push_ns = 0;                          // per sample
  double push_total_ns = 0;
  std::uint64_t beats = 0, usable = 0;
  double save_us = 0, blob_kb = 0;
};

template <typename B>
void to_backend(const std::vector<double>& x, double fullscale,
                std::vector<typename B::sample_t>& out) {
  out.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = B::kFixed ? B::from_real(x[i] / fullscale) : static_cast<typename B::sample_t>(x[i]);
}

template <typename B>
PipelineRow pipeline_row(const std::vector<StoredRecording>& streams, std::size_t chunk,
                         Tracer& tracer) {
  using sample_t = typename B::sample_t;
  const dsp::Q31ScalingPolicy scaling{};
  PipelineRow row;
  Timer tm;
  std::int64_t icg_ns = 0, ecg_ns = 0, qrs_ns = 0, push_ns = 0;
  std::vector<sample_t> e, z, out, eout, feat;
  std::vector<std::uint32_t> cum, ecum, fcum;
  std::vector<core::BeatRecord> beats;
  std::vector<std::uint8_t> blob;
  std::vector<double> saves;
  std::uint64_t samples = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StoredRecording& r = streams[s];
    ScopedSpan span(tracer, "ladder.fronts.stream", s);
    to_backend<B>(r.rec.ecg_mv, scaling.ecg_fullscale_mv, e);
    to_backend<B>(r.rec.z_ohm, scaling.z_fullscale_ohm, z);
    core::BasicIcgConditionerStage<B> icg(kFs, {}, B::kFixed ? scaling.icg_gain_log2 : 0);
    core::BasicEcgCleanerStage<B> cleaner(kFs, {});
    ecg::BasicOnlinePanTompkins<B> qrs(kFs, {});
    for (std::size_t off = 0; off + chunk <= r.size(); off += chunk) {
      out.clear();
      cum.clear();
      tm.start();
      icg.process_chunk(std::span<const sample_t>(z.data() + off, chunk), out, cum);
      icg_ns += tm.stop();
      eout.clear();
      ecum.clear();
      tm.start();
      cleaner.process_chunk(std::span<const sample_t>(e.data() + off, chunk), eout, ecum);
      ecg_ns += tm.stop();
      feat.clear();
      fcum.clear();
      tm.start();
      qrs.front_chunk(eout, feat, fcum);
      qrs_ns += tm.stop();
    }
    samples += r.size();
  }
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StoredRecording& r = streams[s];
    ScopedSpan span(tracer, "ladder.pipeline.stream", s);
    core::BasicStreamingBeatPipeline<B> p(kFs);
    for (std::size_t off = 0; off + chunk <= r.size(); off += chunk) {
      tm.start();
      p.push_into(dsp::SignalView(r.rec.ecg_mv.data() + off, chunk),
                  dsp::SignalView(r.rec.z_ohm.data() + off, chunk), beats);
      push_ns += tm.stop();
    }
    if (s + 1 == streams.size()) {
      ScopedSpan ck(tracer, "ladder.checkpoint");
      for (int i = 0; i < kCheckpointSaves; ++i) {
        tm.start();
        p.checkpoint_into(blob);
        saves.push_back(static_cast<double>(tm.stop()) * 1e-3);
      }
      row.blob_kb = static_cast<double>(blob.size()) / 1024.0;
    }
  }
  for (const core::BeatRecord& b : beats) row.usable += b.usable() ? 1 : 0;
  row.beats = beats.size();
  const auto n = static_cast<double>(samples);
  row.icg_ns = static_cast<double>(icg_ns) / n;
  row.ecg_ns = static_cast<double>(ecg_ns) / n;
  row.qrs_ns = static_cast<double>(qrs_ns) / n;
  row.push_ns = static_cast<double>(push_ns) / n;
  row.push_total_ns = static_cast<double>(push_ns);
  row.save_us = median(saves);
  return row;
}

// ------------------------------------------------------------------ batch

template <std::size_t W>
double batch_row(const std::vector<StoredRecording>& streams, std::size_t chunk,
                 Tracer& tracer) {
  ScopedSpan span(tracer, W == 4 ? "ladder.batch.w4" : "ladder.batch.w8");
  core::SessionBatch<W> batch(kFs);
  std::vector<core::BeatRecord> out[W];
  const double* e[W];
  const double* z[W];
  Timer tm;
  std::int64_t ns = 0;
  for (std::size_t off = 0; off + chunk <= kLadderSamples; off += chunk) {
    for (std::size_t l = 0; l < W; ++l) {
      e[l] = streams[l].rec.ecg_mv.data() + off;
      z[l] = streams[l].rec.z_ohm.data() + off;
    }
    tm.start();
    batch.push(e, z, chunk, out);
    ns += tm.stop();
  }
  return static_cast<double>(ns) / static_cast<double>(W * kLadderSamples);
}

// ------------------------------------------------------------------- capi

struct CapiRow {
  double push_us_p50 = 0, push_total_ns = 0, poll_ns_per_beat = 0;
};

CapiRow capi_row(const std::vector<StoredRecording>& streams, std::size_t chunk,
                 Backend backend, Tracer& tracer) {
  icg_config cfg;
  icg_config_init(&cfg);
  cfg.backend = backend == Backend::Q31 ? ICG_BACKEND_Q31 : ICG_BACKEND_DOUBLE;
  Timer tm;
  std::vector<double> push_us;
  std::int64_t push_ns = 0, poll_ns = 0;
  std::uint64_t beats = 0;
  icg_beat b;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const StoredRecording& r = streams[s];
    ScopedSpan span(tracer, "ladder.capi.stream", s);
    icg_session* session = icg_session_create(&cfg);
    if (session == nullptr) continue;
    for (std::size_t off = 0; off + chunk <= r.size(); off += chunk) {
      tm.start();
      icg_session_push(session, r.rec.ecg_mv.data() + off, r.rec.z_ohm.data() + off,
                       static_cast<std::uint32_t>(chunk));
      const std::int64_t d = tm.stop();
      push_ns += d;
      push_us.push_back(static_cast<double>(d) * 1e-3);
      tm.start();
      while (icg_session_poll_beat(session, &b) == 1) ++beats;
      poll_ns += tm.stop();
    }
    icg_session_destroy(session);
  }
  std::sort(push_us.begin(), push_us.end());
  CapiRow row;
  row.push_us_p50 = percentile(push_us, 50.0);
  row.push_total_ns = static_cast<double>(push_ns);
  row.poll_ns_per_beat =
      static_cast<double>(poll_ns) / static_cast<double>(std::max<std::uint64_t>(1, beats));
  return row;
}

/// Flight recording through the C ABI's in-memory tap.
void recorder_row(const StoredRecording& r, std::size_t chunk, Backend backend,
                  Tracer& tracer, std::vector<Metric>& out) {
  ScopedSpan span(tracer, "ladder.recorder");
  icg_config cfg;
  icg_config_init(&cfg);
  cfg.backend = backend == Backend::Q31 ? ICG_BACKEND_Q31 : ICG_BACKEND_DOUBLE;
  icg_session* session = icg_session_create(&cfg);
  if (session == nullptr) return;
  icg_session_record_start_mem(session, 0);
  icg_beat b;
  for (std::size_t off = 0; off + chunk <= r.size(); off += chunk) {
    icg_session_push(session, r.rec.ecg_mv.data() + off, r.rec.z_ohm.data() + off,
                     static_cast<std::uint32_t>(chunk));
    while (icg_session_poll_beat(session, &b) == 1) {
    }
  }
  std::vector<std::uint8_t> buf(8u << 20);
  std::uint32_t written = 0;
  Timer tm;
  tm.start();
  const int st = icg_session_record_stop_mem(session, buf.data(),
                                             static_cast<std::uint32_t>(buf.size()), &written);
  const double stop_ms = static_cast<double>(tm.stop()) * 1e-6;
  icg_session_destroy(session);
  if (st != ICG_OK) return;
  out.push_back({"recorder.bytes_per_signal_s",
                 static_cast<double>(written) / (static_cast<double>(r.size()) / kFs), "B/s"});
  out.push_back({"recorder.stop_to_data_ms", stop_ms, "ms"});
}

// ------------------------------------------------------------------ fleet

void fleet_row(const std::vector<StoredRecording>& streams, std::size_t chunk,
               Tracer& tracer, std::vector<Metric>& out) {
  ScopedSpan span(tracer, "ladder.fleet");
  core::FleetConfig cfg;
  cfg.workers = 2;
  core::SessionManager mgr(kFs, cfg);
  std::vector<core::SessionHandle> handles;
  std::vector<PilotSession> sessions(streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    handles.push_back(mgr.open());
    sessions[i].rec = &streams[i];
    sessions[i].budget_chunks = streams[i].size() / chunk;
  }
  mgr.start();
  PilotStats stats;
  run_pilot(mgr, handles, sessions, chunk, 0, std::numeric_limits<std::int64_t>::max(), 0,
            tracer, stats);
  fleet_metrics(stats, out);
}

// -------------------------------------------------------------------- net

/// A loopback server hop: every ladder stream sent in full, windowed
/// against CACKs at the server's advertised in-flight bound.
void net_row(const std::vector<StoredRecording>& streams, std::size_t chunk, Tracer& tracer,
             std::vector<Metric>& out) {
  ScopedSpan span(tracer, "ladder.net");
  net::ServerConfig cfg;
  cfg.fleet.workers = 2;
  net::FleetServer server(cfg);
  if (server.bind() != net::ServerStatus::Ok) return;
  server.start();
  net::FleetClient client;
  if (!client.connect_loopback(server.port(), /*want_acks=*/true)) return;
  const WireSizes sizes = wire_sizes();
  const std::uint64_t window = client.server_hello().max_inflight;
  const std::uint64_t chunks = kLadderSamples / chunk;
  std::vector<std::uint64_t> sent(streams.size(), 0), acked(streams.size(), 0);
  std::vector<bool> done(streams.size(), false), closed(streams.size(), false);
  std::uint64_t out_bytes = 0, in_bytes = 0, sends = 0, events_n = 0;
  std::int64_t send_ns = 0, poll_ns = 0;
  Timer tm;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    client.open_stream(static_cast<std::uint32_t>(i + 1));
    out_bytes += frame_bytes(4);
  }
  std::vector<net::ClientEvent> events;
  std::size_t finished = 0;
  const std::int64_t give_up = now_ns() + 60'000'000'000LL;
  while (finished < streams.size() && client.connected() && now_ns() < give_up) {
    bool progressed = false;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const auto id = static_cast<std::uint32_t>(i + 1);
      while (sent[i] < chunks && sent[i] - acked[i] < window) {
        const std::size_t off = sent[i] * chunk;
        ScopedSpan s(tracer, "net.send_chunk", id);
        tm.start();
        client.send_chunk(id, std::span<const double>(streams[i].rec.ecg_mv.data() + off, chunk),
                          std::span<const double>(streams[i].rec.z_ohm.data() + off, chunk));
        send_ns += tm.stop();
        ++sends;
        ++sent[i];
        out_bytes += frame_bytes(8 + 16 * chunk);
        progressed = true;
      }
      if (sent[i] == chunks && !closed[i]) {
        client.close_stream(id);
        out_bytes += frame_bytes(4);
        closed[i] = true;
      }
    }
    events.clear();
    tm.start();
    const std::size_t n = client.poll_events(events, progressed ? 0 : 1);
    const std::int64_t d = tm.stop();
    if (n > 0) {
      poll_ns += d;
      events_n += n;
    }
    for (const net::ClientEvent& ev : events) {
      const std::size_t i = ev.stream - 1;
      using T = net::ClientEvent::Type;
      if (ev.type == T::ChunkAck) {
        in_bytes += frame_bytes(12);
        if (i < streams.size()) acked[i] = std::max(acked[i], ev.count);
      } else if (ev.type == T::Beat) {
        in_bytes += sizes.beat;
      } else if (ev.type == T::OpenAck) {
        in_bytes += frame_bytes(12);
      } else if (ev.type == T::Quality) {
        in_bytes += sizes.qual;
        if (i < streams.size() && !done[i]) {
          done[i] = true;
          ++finished;
        }
      }
    }
  }
  net::ServerStats stats{};
  client.request_stats();
  events.clear();
  const std::size_t at = client.wait_for(net::ClientEvent::Type::Stats, events);
  if (at != std::numeric_limits<std::size_t>::max()) stats = events[at].stats;
  client.bye();
  server.stop();
  out.push_back({"net.send_us_per_chunk",
                 static_cast<double>(send_ns) * 1e-3 /
                     static_cast<double>(std::max<std::uint64_t>(1, sends)),
                 "us"});
  out.push_back({"net.poll_us_per_event",
                 static_cast<double>(poll_ns) * 1e-3 /
                     static_cast<double>(std::max<std::uint64_t>(1, events_n)),
                 "us"});
  out.push_back({"net.wire_bytes_per_sample",
                 static_cast<double>(out_bytes + in_bytes) /
                     static_cast<double>(std::max<std::uint64_t>(1, sends * chunk)),
                 "B"});
  out.push_back({"net.shed_total", static_cast<double>(stats.shed_chunks), "count"});
  out.push_back({"net.migrations", static_cast<double>(stats.migrations), "count"});
}

double median_of(const std::vector<PipelineRow>& rows, double PipelineRow::*field) {
  std::vector<double> v;
  for (const PipelineRow& r : rows) v.push_back(r.*field);
  return median(v);
}

} // namespace

void run_ladder(const WorkloadInputs& in, Tracer& tracer, std::vector<Metric>& out) {
  const std::vector<StoredRecording> streams = ladder_streams(in);
  const std::size_t chunk = in.chunk;
  const bool q31 = in.backend == Backend::Q31;

  std::vector<PipelineRow> rows;
  std::vector<double> w4, w8, capi_p50, capi_self, capi_poll;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedSpan span(tracer, "ladder.rep", static_cast<std::uint64_t>(rep));
    const PipelineRow row = q31 ? pipeline_row<dsp::Q31Backend>(streams, chunk, tracer)
                                : pipeline_row<dsp::DoubleBackend>(streams, chunk, tracer);
    rows.push_back(row);
    w4.push_back(batch_row<4>(streams, chunk, tracer));
    w8.push_back(batch_row<8>(streams, chunk, tracer));
    const CapiRow c = capi_row(streams, chunk, in.backend, tracer);
    capi_p50.push_back(c.push_us_p50);
    capi_self.push_back((c.push_total_ns - row.push_total_ns) /
                        static_cast<double>(kLanes * kLadderSamples));
    capi_poll.push_back(c.poll_ns_per_beat);
  }

  const double icg = median_of(rows, &PipelineRow::icg_ns);
  const double ecgf = median_of(rows, &PipelineRow::ecg_ns);
  const double qrs = median_of(rows, &PipelineRow::qrs_ns);
  const double push = median_of(rows, &PipelineRow::push_ns);
  const double tail = push - icg - ecgf - qrs;
  const PipelineRow& r0 = rows.front();
  out.push_back({"dsp.icg_front_ns_per_sample", icg, "ns"});
  out.push_back({"dsp.ecg_front_ns_per_sample", ecgf, "ns"});
  out.push_back({"ecg.qrs_front_ns_per_sample", qrs, "ns"});
  out.push_back({"pipeline.push_ns_per_sample", push, "ns"});
  out.push_back({"pipeline.tail_ns_per_sample", tail, "ns"});
  out.push_back({"pipeline.tail_us_per_beat",
                 tail * static_cast<double>(kLanes * kLadderSamples) * 1e-3 /
                     static_cast<double>(std::max<std::uint64_t>(1, r0.beats)),
                 "us"});
  out.push_back({"pipeline.emitted_beats", static_cast<double>(r0.beats), "count"});
  out.push_back({"pipeline.usable_ratio",
                 static_cast<double>(r0.usable) /
                     static_cast<double>(std::max<std::uint64_t>(1, r0.beats)),
                 "ratio"});
  out.push_back({"batch.w4_ns_per_lane_sample", median(w4), "ns"});
  out.push_back({"batch.w8_ns_per_lane_sample", median(w8), "ns"});
  {
    const core::SessionManager probe(kFs, core::FleetConfig{});
    out.push_back({"batch.resolved_width", static_cast<double>(probe.resolved_batch_width()),
                   "lanes"});
  }
  out.push_back({"capi.push_us_p50", median(capi_p50), "us"});
  out.push_back({"capi.self_ns_per_sample", median(capi_self), "ns"});
  out.push_back({"capi.poll_ns_per_beat", median(capi_poll), "ns"});

  if (in.workload != "device_q31") {
    out.push_back({"checkpoint.save_us", median_of(rows, &PipelineRow::save_us), "us"});
    out.push_back({"checkpoint.blob_kb", r0.blob_kb, "KiB"});
  }
  if (in.workload != "server_realtime") {
    recorder_row(streams.front(), chunk, in.backend, tracer, out);
    net_row(streams, chunk, tracer, out);
  }
  if (in.workload != "fleet_replay") fleet_row(streams, chunk, tracer, out);
}

} // namespace perfbench
