#include "net/server.h"

#include "core/batch.h"
#include "dsp/stats.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace icgkit::net {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// The CHNK payload for n samples: stream id + count + two f64 arrays.
std::size_t chunk_payload_bytes(std::size_t n) { return 8 + 16 * n; }

} // namespace

const char* server_status_name(ServerStatus s) {
  switch (s) {
    case ServerStatus::Ok: return "Ok";
    case ServerStatus::BadMaxConnections: return "BadMaxConnections";
    case ServerStatus::BadMaxSessions: return "BadMaxSessions";
    case ServerStatus::BadPendingBound: return "BadPendingBound";
    case ServerStatus::BadRebalanceGap: return "BadRebalanceGap";
    case ServerStatus::BadOutbufBound: return "BadOutbufBound";
    case ServerStatus::BadFrameBound: return "BadFrameBound";
    case ServerStatus::BadSampleRate: return "BadSampleRate";
    case ServerStatus::BadFleetConfig: return "BadFleetConfig";
    case ServerStatus::AlreadyBound: return "AlreadyBound";
    case ServerStatus::BindFailed: return "BindFailed";
  }
  return "?";
}

ServerStatus validate_server_config(const ServerConfig& cfg) {
  if (cfg.max_connections == 0) return ServerStatus::BadMaxConnections;
  if (cfg.max_sessions == 0) return ServerStatus::BadMaxSessions;
  if (cfg.tenant_pending_chunks == 0) return ServerStatus::BadPendingBound;
  if (cfg.rebalance_period_chunks > 0 && cfg.rebalance_min_gap == 0)
    return ServerStatus::BadRebalanceGap;
  if (!core::sample_rate_supported(cfg.fs_hz)) return ServerStatus::BadSampleRate;
  if (cfg.fleet.workers == 0 || cfg.fleet.max_chunk == 0 ||
      cfg.fleet.chunk_slots_per_session == 0 ||
      (cfg.fleet.batch_width > 1 &&
       !core::session_batch_width_supported(cfg.fleet.batch_width)))
    return ServerStatus::BadFleetConfig;
  if (cfg.max_frame_bytes < chunk_payload_bytes(cfg.fleet.max_chunk))
    return ServerStatus::BadFrameBound;
  // The outbuf bound must hold at least one maximal framed record, or a
  // single RECD/QUAL could trip the slow-consumer disconnect by itself.
  if (cfg.max_outbuf_bytes < cfg.max_frame_bytes + 16)
    return ServerStatus::BadOutbufBound;
  return ServerStatus::Ok;
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

FleetServer::FleetServer(const ServerConfig& cfg) : cfg_(cfg) {}

FleetServer::~FleetServer() { stop(); }

ServerStatus FleetServer::bind() {
  if (bound_) return ServerStatus::AlreadyBound;
  const ServerStatus verdict = validate_server_config(cfg_);
  if (verdict != ServerStatus::Ok) return verdict;

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ServerStatus::BindFailed;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  addr.sin_addr.s_addr = htonl(cfg_.loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return ServerStatus::BindFailed;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return ServerStatus::BindFailed;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  bound_ = true;
  return ServerStatus::Ok;
}

void FleetServer::start() {
  if (!bound_) throw std::logic_error("FleetServer: start() before a successful bind()");
  if (fleet_) throw std::logic_error("FleetServer: start() called twice");
  // The fleet is constructed and its workers spawned here, but every
  // pilot-side call after this point happens on the IO thread — the
  // thread creation edge hands the pilot role over cleanly.
  fleet_ = std::make_unique<core::SessionManager>(cfg_.fs_hz, cfg_.fleet);
  fleet_->start();
  stop_requested_.store(false, std::memory_order_release);
  io_thread_ = std::thread([this] { run_loop(); });
}

void FleetServer::stop() {
  if (stopped_) return;
  stop_requested_.store(true, std::memory_order_release);
  if (io_thread_.joinable()) io_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  stopped_ = true;
}

ServerStats FleetServer::stats() const {
  ServerStats s;
  s.sessions_open = sessions_open_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.migrations = migrations_.load(std::memory_order_relaxed);
  s.shed_chunks = shed_chunks_.load(std::memory_order_relaxed);
  if (fleet_) {
    s.total_samples = fleet_->total_samples();
    s.total_beats = fleet_->total_beats();
  }
  return s;
}

std::uint64_t FleetServer::migrations() const {
  return migrations_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Event loop (IO thread == fleet pilot thread)
// ---------------------------------------------------------------------------

void FleetServer::run_loop() {
  std::vector<pollfd> fds;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& c : conns_) {
      short events = POLLIN;
      if (c->out_pos < c->outbuf.size()) events |= POLLOUT;
      fds.push_back({c->fd, events, 0});
    }
    // Zero timeout while anything is in flight (pending chunks, queued
    // output, unprocessed fleet work) so results stream back with no
    // imposed latency; 1 ms park otherwise.
    bool busy = fleet_ != nullptr && !fleet_->idle();
    for (const auto& c : conns_) {
      if (c->out_pos < c->outbuf.size() || c->dead || c->closing) busy = true;
      for (const auto& [id, st] : c->streams)
        if (!st->pending.empty() || st->finish_requested) busy = true;
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), busy ? 0 : 1);

    // Snapshot the polled count first: accept_pending() grows conns_,
    // and the fresh connections have no pollfd entry this tick.
    const std::size_t polled = fds.size() - 1;
    if ((fds[0].revents & POLLIN) != 0) accept_pending();
    for (std::size_t i = 0; i < polled; ++i) {
      const short rev = fds[i + 1].revents;
      Connection& c = *conns_[i];
      if ((rev & (POLLERR | POLLNVAL)) != 0) c.dead = true;
      if (!c.dead && (rev & (POLLIN | POLLHUP)) != 0) read_connection(c);
    }
    for (const auto& c : conns_)
      if (!c->dead) pump_pending(*c);
    pump_fleet_results();
    emit_acks();
    maybe_rebalance();
    for (const auto& c : conns_)
      if (!c->dead) flush_writes(*c);
    reap_dead();
  }

  // Shutdown: drop every connection (stream handles finish their
  // sessions from this thread — still the pilot), then run the fleet to
  // completion and discard the tail.
  for (const auto& c : conns_) {
    for (const auto& [id, st] : c->streams) routes_.erase(st->handle.id());
    if (c->fd >= 0) ::close(c->fd);
  }
  conns_.clear();
  routes_.clear();
  beat_scratch_.clear();
  fleet_->run_to_completion(beat_scratch_);
}

void FleetServer::accept_pending() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: nothing (more) queued
    if (conns_.size() >= cfg_.max_connections || !set_nonblocking(fd)) {
      ::close(fd);
      continue;
    }
    set_nodelay(fd);
    auto conn = std::make_unique<Connection>(fd, cfg_.max_frame_bytes);
    // Greet immediately: stream header + server HELO with the fleet's
    // operating parameters (the client checks the version and sizes its
    // chunks from max_chunk).
    write_stream_header(conn->outbuf);
    Hello h;
    h.version = kWireVersion;
    h.max_chunk = static_cast<std::uint32_t>(cfg_.fleet.max_chunk);
    h.fs_hz = cfg_.fs_hz;
    h.workers = static_cast<std::uint32_t>(cfg_.fleet.workers);
    h.max_inflight = static_cast<std::uint32_t>(cfg_.tenant_pending_chunks);
    core::StateWriter& w = rb_.begin(kTagHello);
    encode_hello(w, h);
    rb_.finish(conn->outbuf);
    conns_.push_back(std::move(conn));
  }
}

void FleetServer::read_connection(Connection& c) {
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof buf) break;
      continue;
    }
    if (n == 0) {  // orderly shutdown from the peer
      c.dead = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    c.dead = true;
    break;
  }
  if (c.dead) return;
  try {
    Frame f;
    while (c.decoder.next(f)) handle_frame(c, f);
  } catch (const WireError& e) {
    // Malformed stream: refuse with a clean error record, then drop the
    // connection. Decoder state is unrecoverable past a frame violation.
    const WireErrorCode code = c.decoder.header_done()
                                   ? WireErrorCode::BadFrame
                                   : WireErrorCode::VersionMismatch;
    send_error(c, code, kNoStream, e.what(), /*fatal=*/true);
  }
}

FleetServer::Stream* FleetServer::find_stream(Connection& c, std::uint32_t stream_id) {
  const auto it = c.streams.find(stream_id);
  return it == c.streams.end() ? nullptr : it->second.get();
}

void FleetServer::handle_frame(Connection& c, Frame& f) {
  core::StateReader& r = f.reader;
  if (!c.hello_done) {
    if (std::memcmp(f.tag, kTagHello, 4) != 0) {
      send_error(c, WireErrorCode::Protocol, kNoStream,
                 "first record must be HELO", /*fatal=*/true);
      return;
    }
    const Hello h = decode_hello(r);
    end_record(r);
    if (h.version != kWireVersion) {
      send_error(c, WireErrorCode::VersionMismatch, kNoStream,
                 "client speaks wire version " + std::to_string(h.version),
                 /*fatal=*/true);
      return;
    }
    c.hello_done = true;
    c.want_acks = (h.flags & kHelloWantAcks) != 0;
    return;
  }
  if (std::memcmp(f.tag, kTagChunk, 4) == 0) {
    handle_chunk(c, r);
  } else if (std::memcmp(f.tag, kTagOpen, 4) == 0) {
    handle_open(c, r);
  } else if (std::memcmp(f.tag, kTagClose, 4) == 0) {
    const std::uint32_t stream_id = r.u32();
    end_record(r);
    Stream* st = find_stream(c, stream_id);
    if (st == nullptr) {
      send_error(c, WireErrorCode::UnknownStream, stream_id, "CLSE", false);
      return;
    }
    st->finish_requested = true;  // flushed by pump_pending, in order
  } else if (std::memcmp(f.tag, kTagRecordStart, 4) == 0) {
    const std::uint32_t stream_id = r.u32();
    const std::uint64_t interval = r.u64();
    end_record(r);
    Stream* st = find_stream(c, stream_id);
    std::uint32_t status = 0;
    if (st == nullptr) {
      status = static_cast<std::uint32_t>(WireErrorCode::UnknownStream);
    } else if (st->handle.recording() || st->finish_requested) {
      status = static_cast<std::uint32_t>(WireErrorCode::Protocol);
    } else {
      core::FlightRecorderConfig rcfg;
      if (interval != 0) rcfg.checkpoint_interval = interval;
      rcfg.note = "net RECS stream " + std::to_string(stream_id);
      beat_scratch_.clear();
      st->handle.record_start(std::make_unique<core::BufferRecorderSink>(),
                              beat_scratch_, rcfg);
      emit_beat_records(beat_scratch_);
    }
    core::StateWriter& w = rb_.begin(kTagRecordAck);
    w.u32(stream_id);
    w.u32(status);
    rb_.finish(c.outbuf);
  } else if (std::memcmp(f.tag, kTagRecordStop, 4) == 0) {
    const std::uint32_t stream_id = r.u32();
    end_record(r);
    Stream* st = find_stream(c, stream_id);
    if (st == nullptr || !st->handle.recording()) {
      send_error(c, WireErrorCode::Protocol, stream_id, "RECX without recording",
                 false);
      return;
    }
    beat_scratch_.clear();
    std::unique_ptr<core::RecorderSink> sink = st->handle.record_stop(beat_scratch_);
    emit_beat_records(beat_scratch_);
    // The server always installs a BufferRecorderSink for RECS.
    auto* mem = static_cast<core::BufferRecorderSink*>(sink.get());
    const std::vector<std::uint8_t> blob = mem->take();
    core::StateWriter& w = rb_.begin(kTagRecordData);
    w.u32(stream_id);
    w.u32(static_cast<std::uint32_t>(blob.size()));
    w.bytes(blob.data(), blob.size());
    rb_.finish(c.outbuf);
  } else if (std::memcmp(f.tag, kTagStatRequest, 4) == 0) {
    end_record(r);
    core::StateWriter& w = rb_.begin(kTagStatReply);
    encode_stats(w, stats());
    rb_.finish(c.outbuf);
  } else if (std::memcmp(f.tag, kTagBye, 4) == 0) {
    end_record(r);
    c.closing = true;
    for (const auto& [id, st] : c.streams) st->finish_requested = true;
  } else {
    send_error(c, WireErrorCode::UnknownRecord, kNoStream,
               std::string("unknown record '") + f.tag + "'", /*fatal=*/true);
  }
}

void FleetServer::handle_open(Connection& c, core::StateReader& r) {
  const std::uint32_t stream_id = r.u32();
  end_record(r);
  std::uint32_t status = 0;
  std::uint32_t worker = 0;
  if (find_stream(c, stream_id) != nullptr) {
    status = static_cast<std::uint32_t>(WireErrorCode::DuplicateStream);
  } else if (sessions_open_.load(std::memory_order_relaxed) >= cfg_.max_sessions) {
    status = static_cast<std::uint32_t>(WireErrorCode::TooManySessions);
  } else {
    auto st = std::make_unique<Stream>();
    st->handle = fleet_->open();  // least-loaded placement
    st->stream_id = stream_id;
    st->want_acks = c.want_acks;
    worker = st->handle.worker();
    routes_[st->handle.id()] = Route{&c, st.get()};
    c.streams.emplace(stream_id, std::move(st));
    sessions_open_.fetch_add(1, std::memory_order_relaxed);
  }
  core::StateWriter& w = rb_.begin(kTagOpenAck);
  w.u32(stream_id);
  w.u32(status);
  w.u32(worker);
  rb_.finish(c.outbuf);
}

void FleetServer::handle_chunk(Connection& c, core::StateReader& r) {
  const std::uint32_t stream_id = r.u32();
  const std::uint32_t n = r.u32();
  if (n > cfg_.fleet.max_chunk)
    throw WireError("CHNK of " + std::to_string(n) + " samples exceeds max_chunk " +
                    std::to_string(cfg_.fleet.max_chunk));
  ecg_scratch_.resize(n);
  z_scratch_.resize(n);
  r.values(std::span(ecg_scratch_));
  r.values(std::span(z_scratch_));
  end_record(r);
  Stream* st = find_stream(c, stream_id);
  if (st == nullptr) {
    send_error(c, WireErrorCode::UnknownStream, stream_id, "CHNK", false);
    return;
  }
  if (st->finish_requested) {
    send_error(c, WireErrorCode::Protocol, stream_id, "CHNK after CLSE", false);
    return;
  }
  if (!dsp::all_finite(ecg_scratch_) || !dsp::all_finite(z_scratch_)) {
    send_error(c, WireErrorCode::BadFrame, stream_id, "CHNK holds a non-finite sample", false);
    return;
  }
  if (n == 0) return;
  // Fast path: nothing parked, hand the chunk straight to the fleet.
  if (st->pending.empty() &&
      st->handle.try_push(dsp::SignalView(ecg_scratch_.data(), n),
                          dsp::SignalView(z_scratch_.data(), n))) {
    ++chunks_since_rebalance_;
    return;
  }
  // Backpressured: park it in the stream's bounded tenant queue —
  // or shed it, explicitly, when the tenant budget is spent.
  if (st->pending.size() >= cfg_.tenant_pending_chunks) {
    ++st->shed_total;
    shed_chunks_.fetch_add(1, std::memory_order_relaxed);
    core::StateWriter& w = rb_.begin(kTagShed);
    w.u32(stream_id);
    w.u32(static_cast<std::uint32_t>(ShedReason::TenantQueueFull));
    w.u64(st->shed_total);
    rb_.finish(c.outbuf);
    return;
  }
  PendingChunk pc;
  pc.ecg.assign(ecg_scratch_.begin(), ecg_scratch_.end());
  pc.z.assign(z_scratch_.begin(), z_scratch_.end());
  st->pending.push_back(std::move(pc));
}

void FleetServer::pump_pending(Connection& c) {
  for (const auto& [id, st] : c.streams) {
    while (!st->pending.empty()) {
      const PendingChunk& pc = st->pending.front();
      if (!st->handle.try_push(
              dsp::SignalView(pc.ecg.data(), pc.ecg.size()),
              dsp::SignalView(pc.z.data(), pc.z.size())))
        break;
      st->pending.pop_front();
      ++chunks_since_rebalance_;
    }
    if (st->pending.empty() && st->finish_requested && !st->handle.finished())
      st->handle.try_finish();  // retried next tick when backpressured
  }
}

void FleetServer::pump_fleet_results() {
  beat_scratch_.clear();
  fleet_->poll(beat_scratch_);
  emit_beat_records(beat_scratch_);
}

void FleetServer::emit_beat_records(const std::vector<core::FleetBeat>& beats) {
  for (const core::FleetBeat& fb : beats) {
    const auto it = routes_.find(fb.session);
    if (it == routes_.end()) continue;  // consumer is gone; drop
    Connection& c = *it->second.conn;
    Stream& st = *it->second.stream;
    if (fb.end_of_session) {
      core::StateWriter& w = rb_.begin(kTagQuality);
      w.u32(st.stream_id);
      encode_quality(w, fb.session_summary);
      rb_.finish(c.outbuf);
      // Terminal record sent: the stream is complete. Unrouting first
      // keeps the handle destructor's finish-guard a no-op (the session
      // already finished).
      const std::uint32_t stream_id = st.stream_id;
      routes_.erase(it);
      c.streams.erase(stream_id);
      sessions_open_.fetch_sub(1, std::memory_order_relaxed);
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      core::StateWriter& w = rb_.begin(kTagBeat);
      w.u32(st.stream_id);
      encode_beat(w, fb.beat);
      rb_.finish(c.outbuf);
    }
  }
}

void FleetServer::emit_acks() {
  for (const auto& [session, route] : routes_) {
    Stream& st = *route.stream;
    if (!st.want_acks) continue;
    const std::uint64_t done = st.handle.processed();
    if (done == st.last_ack) continue;
    st.last_ack = done;
    core::StateWriter& w = rb_.begin(kTagChunkAck);
    w.u32(st.stream_id);
    w.u64(done);
    rb_.finish(route.conn->outbuf);
  }
}

void FleetServer::maybe_rebalance() {
  if (cfg_.rebalance_period_chunks == 0 ||
      chunks_since_rebalance_ < cfg_.rebalance_period_chunks)
    return;
  chunks_since_rebalance_ = 0;
  // Live load = queued work items + resident unfinished sessions, the
  // depth signal worker_queue_depths() exists for.
  fleet_->worker_queue_depths(depth_scratch_);
  fleet_->worker_resident_sessions(resident_scratch_);
  std::size_t busiest = 0, idlest = 0;
  for (std::size_t wkr = 0; wkr < depth_scratch_.size(); ++wkr) {
    depth_scratch_[wkr] += resident_scratch_[wkr];
    if (depth_scratch_[wkr] > depth_scratch_[busiest]) busiest = wkr;
    if (depth_scratch_[wkr] < depth_scratch_[idlest]) idlest = wkr;
  }
  if (busiest == idlest ||
      depth_scratch_[busiest] - depth_scratch_[idlest] < cfg_.rebalance_min_gap)
    return;
  for (auto& [session, route] : routes_) {
    Stream& st = *route.stream;
    if (st.handle.finished() || st.handle.worker() != busiest) continue;
    beat_scratch_.clear();
    st.handle.migrate_to(static_cast<std::uint32_t>(idlest), beat_scratch_);
    migrations_.fetch_add(1, std::memory_order_relaxed);
    emit_beat_records(beat_scratch_);
    return;  // one migration per tick keeps the control plane gentle
  }
}

void FleetServer::flush_writes(Connection& c) {
  while (c.out_pos < c.outbuf.size()) {
    const ssize_t n = ::send(c.fd, c.outbuf.data() + c.out_pos,
                             c.outbuf.size() - c.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    c.dead = true;
    return;
  }
  if (c.out_pos == c.outbuf.size()) {
    c.outbuf.clear();
    c.out_pos = 0;
    if (c.closing && c.streams.empty()) c.dead = true;  // clean BYE_ exit
  } else if (c.outbuf.size() - c.out_pos > cfg_.max_outbuf_bytes) {
    // Slow consumer: it is not draining what it asked for; cut it loose
    // rather than buffer without bound. (The ERRR would only queue
    // behind the backlog it refuses to read, so there is no point.)
    c.dead = true;
  }
}

void FleetServer::send_error(Connection& c, WireErrorCode code, std::uint32_t stream,
                             const std::string& message, bool fatal) {
  core::StateWriter& w = rb_.begin(kTagError);
  encode_error(w, code, stream, message);
  rb_.finish(c.outbuf);
  if (fatal) {
    // Best-effort delivery of the refusal, then drop the connection.
    flush_writes(c);
    c.dead = true;
  }
}

void FleetServer::reap_dead() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection& c = **it;
    if (!c.dead) {
      ++it;
      continue;
    }
    for (const auto& [id, st] : c.streams) {
      routes_.erase(st->handle.id());
      sessions_open_.fetch_sub(1, std::memory_order_relaxed);
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (c.fd >= 0) ::close(c.fd);
    // Destroying the streams finishes their sessions (handle RAII, on
    // this pilot thread); the drained tail is unrouted and dropped.
    it = conns_.erase(it);
  }
}

} // namespace icgkit::net
