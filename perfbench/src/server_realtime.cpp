// server_realtime: the wearable-backend path. A loopback FleetServer (2
// fleet workers + its IO/pilot thread) is driven by one client thread
// over 4 connections with per-chunk CACKs. 2048 stream slots each send
// 25-sample packets at true realtime (one per 100 ms), phases evenly
// staggered, so the offered load is fixed at 512k samples/s whatever the
// server does (an open loop). Streams last 10-40 s; when one ends the
// slot closes it and opens a new stream at once, so OPEN/CLSE/QUAL
// placement and the queue-depth rebalancer (migrations) run all the
// time. One stream in 64 is flight-recorded from open (RECS) to close
// (RECX -> RECD).
#include "workloads.h"

#include "core/beat_serializer.h"
#include "core/flight_recorder.h"
#include "net/client.h"
#include "net/server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <random>

namespace perfbench {

namespace core = icgkit::core;
namespace net = icgkit::net;

namespace {

constexpr std::size_t kSlots = 2048;
constexpr std::size_t kConns = 4;
constexpr std::int64_t kPeriodNs = 100'000'000;  // one packet per 100 ms
constexpr double kLateLimitMs = 100.0;           // one packet period
constexpr double kMinLenS = 10.0, kMaxLenS = 40.0;
constexpr std::uint32_t kRecordEvery = 64;
constexpr int kSetupReps = 5;
constexpr double kDrainTimeoutS = 30.0;
/// Traced runs record one generator event in kTraceEvents and one client
/// poll round in kTracePolls (the client spins, so polls vastly
/// outnumber events).
constexpr std::uint64_t kTraceEvents = 16;
constexpr std::uint64_t kTracePolls = 1024;

struct Stream {
  std::uint32_t id = 0;
  std::size_t slot = 0;
  std::size_t rec = 0;
  std::uint64_t len_chunks = 0;
  std::uint64_t tick0 = 0;        ///< slot tick at which chunk 0 is due
  std::uint64_t sent = 0, acked = 0;
  bool close_sent = false, done = false, failed = false, recording = false;
  std::vector<unsigned char> bytes;
  std::vector<ScoredBeat> beats;
  std::vector<std::int64_t> beat_ns;
  std::int64_t recx_ns = 0, recd_ns = 0;
  std::vector<std::uint8_t> flight;
};

} // namespace

WireSizes wire_sizes() {
  WireSizes s;
  net::RecordBuilder rb;
  std::vector<std::uint8_t> out;
  core::StateWriter& w = rb.begin(net::kTagBeat);
  w.u32(1);
  net::encode_beat(w, core::BeatRecord{});
  rb.finish(out);
  s.beat = out.size();
  out.clear();
  core::StateWriter& q = rb.begin(net::kTagQuality);
  q.u32(1);
  net::encode_quality(q, core::QualitySummary{});
  rb.finish(out);
  s.qual = out.size();
  return s;
}

namespace {

/// The system under test plus the client side of its connections.
struct Rig {
  std::unique_ptr<net::FleetServer> server;
  std::vector<std::unique_ptr<net::FleetClient>> clients;
};

net::ServerConfig server_config() {
  net::ServerConfig cfg;
  cfg.fleet.workers = 2;
  return cfg;
}

class Driver {
 public:
  Driver(const WorkloadInputs& in, Tracer& tracer)
      : in_(in), tracer_(tracer), rng_(in.seed * 0x9E3779B97F4A7C15ULL + 7) {}

  /// Builds the server, connects, opens the first-generation streams and
  /// waits for every OPAK. Returns false if the rig cannot be built.
  bool setup(Rig& rig, std::vector<Stream>& streams) {
    rig.server = std::make_unique<net::FleetServer>(server_config());
    if (rig.server->bind() != net::ServerStatus::Ok) return false;
    rig.server->start();
    for (std::size_t c = 0; c < kConns; ++c) {
      auto client = std::make_unique<net::FleetClient>();
      if (!client->connect_loopback(rig.server->port(), /*want_acks=*/true)) return false;
      rig.clients.push_back(std::move(client));
    }
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      const Stream& st = streams[slot];
      rig.clients[slot % kConns]->open_stream(st.id);
      out_bytes_ += frame_bytes(4);
    }
    std::size_t acks = 0;
    std::vector<net::ClientEvent> events;
    const std::int64_t give_up = now_ns() + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    while (acks < kSlots && now_ns() < give_up) {
      for (auto& c : rig.clients) {
        events.clear();
        c->poll_events(events, 0);
        for (const net::ClientEvent& ev : events) {
          if (ev.type != net::ClientEvent::Type::OpenAck) continue;
          ++acks;
          in_bytes_ += frame_bytes(12);
          if (ev.status != 0 && ev.stream >= 1 && ev.stream <= streams.size())
            streams[ev.stream - 1].failed = true;
        }
      }
    }
    return acks == kSlots;
  }

  std::vector<Stream> first_generation() {
    std::vector<Stream> streams(kSlots);
    std::uniform_real_distribution<double> u01(0.0, 1.0);
    for (std::size_t slot = 0; slot < kSlots; ++slot) {
      Stream& st = streams[slot];
      st.id = static_cast<std::uint32_t>(slot + 1);
      st.slot = slot;
      st.rec = pick_recording();
      // Residual life of a stream already running when the window opens:
      // density proportional to P(length > x), so closes spread evenly.
      double x = 0.0;
      for (;;) {
        x = u01(rng_) * kMaxLenS;
        const double survive =
            x < kMinLenS ? 1.0 : (kMaxLenS - x) / (kMaxLenS - kMinLenS);
        if (u01(rng_) < survive) break;
      }
      st.len_chunks = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(x * 10.0));
      st.recording = st.id % kRecordEvery == 0;
    }
    return streams;
  }

  RunOutcome run(double seconds) {
    RunOutcome out;
    completed_ = &out.completed;
    std::vector<Stream> streams = first_generation();
    Rig rig;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (rig.server) {
        rig.clients.clear();
        rig.server->stop();
        rig.server.reset();
        for (Stream& st : streams) st.failed = false;
      }
      out_bytes_ = in_bytes_ = 0;
      const std::int64_t t0 = now_ns();
      bool ok = false;
      {
        ScopedSpan span(tracer_, "server_realtime.setup");
        ok = setup(rig, streams);
      }
      out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
      if (!ok) {
        out.problems.push_back("server set-up failed (bind, connect or OPAK)");
        out.failed = out.attempted = 1;
        return out;
      }
    }
    for (Stream& st : streams)
      if (st.recording) start_recording(rig, st);

    // Growth of these buffers mid-run would stall the client thread and
    // show up as latency, so they are sized for the whole run up front.
    const auto events_expected =
        static_cast<std::size_t>((seconds + kWarmupS + 1.0) * 1e9 / kPeriodNs * kSlots);
    // Streams last at least 10 s (100 packets), first-generation ones less.
    streams.reserve(2 * kSlots + events_expected / 100);
    chunk_done_ns_.reserve(events_expected);

    std::vector<std::size_t> current(kSlots);
    for (std::size_t slot = 0; slot < kSlots; ++slot) current[slot] = slot;

    const std::int64_t t0 = now_ns() + 1'000'000;
    OpenLoopSchedule sched(t0, kPeriodNs, kSlots);
    sched.reserve(events_expected);
    ws_ = t0 + static_cast<std::int64_t>(kWarmupS * 1e9);
    we_ = ws_ + static_cast<std::int64_t>(seconds * 1e9);
    init_slices(out, ws_, seconds);
    std::uint64_t offered = 0;
    const std::int64_t clock_cost = clock_pair_overhead_ns();

    std::vector<net::ClientEvent> events;
    std::uint64_t next_event = 0, poll_round = 0;
    const bool tracing = tracer_.enabled();
    for (;;) {
      const std::int64_t due = sched.due_ns(next_event);
      if (due >= we_) break;
      std::int64_t now = now_ns();
      if (due <= now) {
        const std::size_t slot = next_event % kSlots;
        const std::uint64_t tick = next_event / kSlots;
        if (due >= ws_) {
          sched.record_send(next_event, now);
          offered += in_.chunk;
        }
        Stream* st = &streams[current[slot]];
        tracer_.set_enabled(tracing && next_event % kTraceEvents == 0);
        const std::int32_t span = tracer_.begin("loadgen.event", st->id);
        if (st->sent == st->len_chunks) {
          close_stream(rig, *st);
          streams.push_back(new_stream(slot, tick));
          current[slot] = streams.size() - 1;
          st = &streams.back();
          open_stream(rig, *st);
        }
        send_chunk(rig, *st, clock_cost);
        tracer_.end(span);
        ++next_event;
        continue;
      }
      tracer_.set_enabled(tracing && poll_round++ % kTracePolls == 0);
      // The client spins rather than sleeps: on a VM a sleeping thread's
      // vCPU halts, and waking it can cost milliseconds of send lateness.
      poll_all(rig, streams, events, sched, clock_cost);
      tracer_.set_enabled(tracing);
    }
    tracer_.set_enabled(false);  // the drain below is not measured

    // Drain: every sent chunk acknowledged, then close every stream.
    std::int64_t give_up = now_ns() + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    const auto all_acked = [&] {
      for (const Stream& st : streams)
        if (!st.failed && st.acked < st.sent) return false;
      return true;
    };
    while (!all_acked() && now_ns() < give_up) poll_all(rig, streams, events, sched, clock_cost);
    out.peak_rss_mb = peak_rss_mb();
    for (Stream& st : streams)
      if (!st.close_sent) close_stream(rig, st);
    give_up = now_ns() + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    const auto all_done = [&] {
      for (const Stream& st : streams)
        if (!st.done || (st.recording && st.recd_ns == 0)) return false;
      return true;
    };
    while (!all_done() && now_ns() < give_up) poll_all(rig, streams, events, sched, clock_cost);
    if (!all_done()) out.problems.push_back("streams still open after the drain timeout");

    net::ServerStats stats{};
    rig.clients[0]->request_stats();
    events.clear();
    const std::size_t at = rig.clients[0]->wait_for(net::ClientEvent::Type::Stats, events);
    if (at != std::numeric_limits<std::size_t>::max()) stats = events[at].stats;
    for (auto& c : rig.clients) c->bye();
    rig.clients.clear();
    rig.server->stop();
    tracer_.set_enabled(tracing);

    finish(in_, streams, sched, out);
    std::vector<double> lag_ms = sched.lag_ms();
    std::sort(lag_ms.begin(), lag_ms.end());
    const double sent_samples = static_cast<double>(std::max<std::uint64_t>(1, samples_sent_));
    std::vector<double> stop_to_data;
    double rec_bytes = 0.0, rec_signal_s = 0.0;
    for (const Stream& st : streams) {
      if (!st.recording || st.recd_ns == 0) continue;
      // Only stops sent inside the window: the drain closes every open
      // stream at once, and those RECX queue behind each other.
      if (st.recx_ns >= ws_ && st.recx_ns < we_)
        stop_to_data.push_back(ns_to_ms(st.recd_ns - st.recx_ns));
      rec_bytes += static_cast<double>(st.flight.size());
      rec_signal_s += static_cast<double>(st.sent * in_.chunk) / kFs;
    }
    out.layer = {
        {"loadgen.lag_p99_ms", percentile(lag_ms, 99.0), "ms"},
        {"loadgen.offered_sps", static_cast<double>(offered) / seconds, "samples/s"},
        {"net.send_us_per_chunk",
         static_cast<double>(send_ns_) * 1e-3 / static_cast<double>(std::max<std::uint64_t>(1, sends_)),
         "us"},
        {"net.poll_us_per_event",
         static_cast<double>(poll_ns_) * 1e-3 / static_cast<double>(std::max<std::uint64_t>(1, polled_events_)),
         "us"},
        {"net.wire_bytes_per_sample", static_cast<double>(out_bytes_ + in_bytes_) / sent_samples,
         "B"},
        {"net.shed_total", static_cast<double>(stats.shed_chunks), "count"},
        {"net.migrations", static_cast<double>(stats.migrations), "count"},
        {"recorder.bytes_per_signal_s", rec_signal_s > 0.0 ? rec_bytes / rec_signal_s : 0.0,
         "B/s"},
        {"recorder.stop_to_data_ms", median(stop_to_data), "ms"},
    };
    return out;
  }

 private:
  std::size_t pick_recording() {
    return std::uniform_int_distribution<std::size_t>(0, in_.recordings.size() - 1)(rng_);
  }

  Stream new_stream(std::size_t slot, std::uint64_t tick) {
    Stream st;
    st.id = next_id_++;
    st.slot = slot;
    st.rec = pick_recording();
    st.tick0 = tick;
    const double len_s = std::uniform_real_distribution<double>(kMinLenS, kMaxLenS)(rng_);
    st.len_chunks = static_cast<std::uint64_t>(len_s * 10.0);
    st.recording = st.id % kRecordEvery == 0;
    return st;
  }

  net::FleetClient& client(Rig& rig, const Stream& st) { return *rig.clients[st.slot % kConns]; }

  void open_stream(Rig& rig, Stream& st) {
    ScopedSpan span(tracer_, "net.open_stream", st.id);
    client(rig, st).open_stream(st.id);
    out_bytes_ += frame_bytes(4);
    if (st.recording) start_recording(rig, st);
  }

  void start_recording(Rig& rig, Stream& st) {
    ScopedSpan span(tracer_, "net.record_start", st.id);
    client(rig, st).record_start(st.id);
    out_bytes_ += frame_bytes(12);
  }

  void close_stream(Rig& rig, Stream& st) {
    if (st.recording) {
      ScopedSpan span(tracer_, "net.record_stop", st.id);
      st.recx_ns = now_ns();
      client(rig, st).record_stop(st.id);
      out_bytes_ += frame_bytes(4);
    }
    ScopedSpan span(tracer_, "net.close_stream", st.id);
    client(rig, st).close_stream(st.id);
    out_bytes_ += frame_bytes(4);
    st.close_sent = true;
  }

  void send_chunk(Rig& rig, Stream& st, std::int64_t clock_cost) {
    const StoredRecording& r = in_.recordings[st.rec];
    const std::size_t off = static_cast<std::size_t>((st.sent * in_.chunk) % r.size());
    const std::int32_t span = tracer_.begin("net.send_chunk", st.id);
    const std::int64_t t0 = now_ns();
    client(rig, st).send_chunk(st.id,
                               std::span<const double>(r.rec.ecg_mv.data() + off, in_.chunk),
                               std::span<const double>(r.rec.z_ohm.data() + off, in_.chunk));
    send_ns_ += std::max<std::int64_t>(0, now_ns() - t0 - clock_cost);
    tracer_.end(span);
    ++sends_;
    ++st.sent;
    samples_sent_ += in_.chunk;
    out_bytes_ += frame_bytes(8 + 16 * in_.chunk);
  }

  void poll_all(Rig& rig, std::vector<Stream>& streams, std::vector<net::ClientEvent>& events,
                const OpenLoopSchedule& sched, std::int64_t clock_cost) {
    for (auto& c : rig.clients) {
      events.clear();
      const std::int32_t span = tracer_.begin("net.poll_events");
      const std::int64_t t0 = now_ns();
      const std::size_t n = c->poll_events(events, 0);
      const std::int64_t t1 = now_ns();
      tracer_.end(span);
      if (n == 0) continue;
      poll_ns_ += std::max<std::int64_t>(0, t1 - t0 - clock_cost);
      polled_events_ += n;
      for (const net::ClientEvent& ev : events) on_event(ev, streams, sched, t1);
    }
  }

  void on_event(const net::ClientEvent& ev, std::vector<Stream>& streams,
                const OpenLoopSchedule& sched, std::int64_t now) {
    using T = net::ClientEvent::Type;
    Stream* st = ev.stream >= 1 && ev.stream <= streams.size() ? &streams[ev.stream - 1] : nullptr;
    switch (ev.type) {
      case T::ChunkAck:
        in_bytes_ += frame_bytes(12);
        if (st == nullptr) break;
        for (std::uint64_t k = st->acked; k < ev.count && k < st->sent; ++k) {
          const std::uint64_t event = (st->tick0 + k) * kSlots + st->slot;
          const std::int64_t due = sched.due_ns(event);
          if (due >= ws_ && due < we_) chunk_done_ns_.emplace_back(st->id, k, now);
          completed_->add(now, static_cast<double>(in_.chunk));
        }
        st->acked = std::max(st->acked, ev.count);
        break;
      case T::Beat:
        in_bytes_ += wire_.beat;
        if (st == nullptr) break;
        core::serialize_beat(ev.beat, st->bytes);
        st->beats.push_back(scored(ev.beat));
        st->beat_ns.push_back(now);
        break;
      case T::Quality:
        in_bytes_ += wire_.qual;
        if (st != nullptr) st->done = true;
        break;
      case T::OpenAck:
        in_bytes_ += frame_bytes(12);
        if (st != nullptr && ev.status != 0) st->failed = true;
        break;
      case T::RecordAck:
        in_bytes_ += frame_bytes(8);
        if (st != nullptr && ev.status != 0) st->failed = true;
        break;
      case T::RecordData:
        in_bytes_ += frame_bytes(8 + ev.blob.size());
        if (st == nullptr) break;
        st->flight = ev.blob;
        st->recd_ns = now;
        break;
      case T::Shed:
      case T::Error:
        in_bytes_ += frame_bytes(16);
        if (st != nullptr) st->failed = true;
        break;
      case T::Stats:
        break;
    }
  }

  /// Verification and end-to-end accounting once the server is gone.
  void finish(const WorkloadInputs& in, std::vector<Stream>& streams,
              const OpenLoopSchedule& sched, RunOutcome& out) {
    std::vector<Reference> refs(streams.size());
    parallel_for(streams.size(), 4, [&](std::size_t i) {
      const Stream& st = streams[i];
      refs[i] = reference_run(in.recordings[st.rec], st.sent * in.chunk, Backend::Double,
                              /*finish=*/true);
    });
    std::vector<bool> bad(streams.size(), false);
    std::uint64_t flight_bad = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      Stream& st = streams[i];
      const Reference& ref = refs[i];
      out.attempted += st.sent + 1;
      ++out.streams_checked;
      bool ok = !st.failed && st.done && st.acked == st.sent && st.bytes == ref.bytes;
      if (ok && st.recording) {
        const core::FlightVerifyReport rep = core::flight_verify(st.flight);
        if (!rep.ok) {
          ok = false;
          ++flight_bad;
        }
      }
      if (!ok) {
        bad[i] = true;
        ++out.divergent_streams;
        out.failed += st.sent + 1;
        if (out.problems.size() < 8)
          out.problems.push_back("server stream " + std::to_string(st.id) +
                                 (st.failed ? ": shed, refused or errored" : ": beats differ") +
                                 " (" + std::to_string(st.beats.size()) + " delivered, " +
                                 std::to_string(ref.emit.size()) + " expected)");
        continue;
      }
      for (std::size_t b = 0; b < ref.streamed_beats; ++b) {
        const std::uint64_t k = ref.emit[b] / in.chunk;
        const std::int64_t due = sched.due_ns((st.tick0 + k) * kSlots + st.slot);
        out.beat_latency_ms.add(due, ns_to_ms(st.beat_ns[b] - due));
      }
      score_stream(in.recordings[st.rec], st.sent * in.chunk, /*finished=*/true, st.beats,
                   out.accuracy);
    }
    if (flight_bad > 0)
      out.problems.push_back(std::to_string(flight_bad) + " flight records failed replay");

    // Chunk latency: due time -> covering CACK. Chunks of failed streams
    // and chunks never acknowledged count as late (+inf).
    for (const auto& [id, k, done] : chunk_done_ns_) {
      const Stream& st = streams[id - 1];
      if (bad[id - 1]) continue;
      const std::uint64_t event = (st.tick0 + k) * kSlots + st.slot;
      const double lat = sched.latency_ms(event, done);
      out.chunk_latency_ms.add(sched.due_ns(event), lat);
      if (lat > kLateLimitMs) ++out.late_chunks;
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Stream& st = streams[i];
      for (std::uint64_t k = 0; k < st.sent; ++k) {
        const std::int64_t due = sched.due_ns((st.tick0 + k) * kSlots + st.slot);
        if (due < ws_ || due >= we_) continue;
        ++out.chunks_in_window;
        if (bad[i]) {
          out.chunk_latency_ms.add(due, std::numeric_limits<double>::infinity());
          ++out.late_chunks;
        }
      }
    }
  }

  const WorkloadInputs& in_;
  Tracer& tracer_;
  std::mt19937_64 rng_;
  WireSizes wire_ = wire_sizes();
  std::uint32_t next_id_ = kSlots + 1;
  std::int64_t ws_ = 0, we_ = 0;
  std::uint64_t sends_ = 0, samples_sent_ = 0;
  SlicedCounter* completed_ = nullptr;
  std::uint64_t polled_events_ = 0;
  std::int64_t send_ns_ = 0, poll_ns_ = 0;
  std::uint64_t out_bytes_ = 0, in_bytes_ = 0;
  std::vector<std::tuple<std::uint32_t, std::uint64_t, std::int64_t>> chunk_done_ns_;
};

} // namespace

RunOutcome run_server_realtime(const WorkloadInputs& in, double seconds, Tracer& tracer) {
  Driver driver(in, tracer);
  return driver.run(seconds);
}

} // namespace perfbench
