// Network fleet front-end: the event-loop server that puts the
// SessionManager behind the binary wire protocol (net/wire.h).
//
// Architecture (one process):
//
//   accept/epoll IO thread  ==  the fleet's pilot thread
//        |  poll(2) over listen fd + per-connection fds, non-blocking
//        |  decode frames -> SessionHandle verbs (try_push/try_finish)
//        |  fleet poll()  -> encode BEAT/QUAL/CACK into per-conn outbufs
//        v
//   SessionManager worker pool (unchanged SPSC queues, SIMD batches)
//
// Running the socket loop *on* the pilot thread is what satisfies the
// SessionManager's strict one-pilot contract with zero new locks: every
// open/push/finish/migrate happens between two poll(2) calls, and the
// existing worker handoffs keep their SPSC roles.
//
// Backpressure is bounded and explicit at every hop:
//   - fleet-side: try_push fails when the session's slab window or the
//     worker queue is full; the chunk parks in the stream's bounded
//     pending queue and is retried each loop tick;
//   - tenant-side: a stream whose pending queue is full sheds the chunk
//     and tells the client with a SHED record (reason, running total)
//     instead of blocking the loop or growing memory;
//   - client-side: a connection that stops reading accumulates outbuf
//     bytes until max_outbuf_bytes, then is disconnected (ERRR
//     SlowConsumer when it can be delivered) — a slow consumer cannot
//     wedge the fleet.
//
// Placement is load-aware: OPEN homes the session via
// SessionManager::open() (least-loaded worker), and every
// rebalance_period_chunks accepted chunks the server compares live
// per-worker queue depths + resident session counts and migrate()s one
// session from the most to the least loaded worker when the gap
// exceeds rebalance_min_gap — the load source least_loaded_worker()/
// migrate() were waiting for since PR 5.
//
// src/core stays socket-free: this layer is the only place in the tree
// that includes OS networking headers, and it is deliberately excluded
// from the embedded-profile source list.
#pragma once

#include "core/fleet.h"
#include "net/wire.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

namespace icgkit::net {

/// bind()-time verdict on a ServerConfig — the init-then-validate shape
/// of icg_config_init/icg_session_create: defaults are valid, every
/// field is range-checked before any resource is acquired, and the
/// reject reason is a status code, not an exception.
enum class ServerStatus : std::int32_t {
  Ok = 0,
  BadMaxConnections = -1,   ///< zero
  BadMaxSessions = -2,      ///< zero
  BadPendingBound = -3,     ///< zero tenant_pending_chunks
  BadRebalanceGap = -4,     ///< rebalancing on with a zero gap
  BadOutbufBound = -5,      ///< too small to carry one max frame
  BadFrameBound = -6,       ///< max_frame_bytes cannot fit one CHNK
  BadSampleRate = -7,       ///< fs_hz outside core::sample_rate_supported()
  BadFleetConfig = -8,      ///< nested FleetConfig fails its own checks
  AlreadyBound = -9,        ///< bind() called twice
  BindFailed = -10,         ///< socket/bind/listen refused by the OS
};

[[nodiscard]] const char* server_status_name(ServerStatus s);

/// Every server/fleet knob in one validated place. The nested
/// FleetConfig is the same struct the in-process fleet takes; the
/// server-only fields bound the network edge.
struct ServerConfig {
  /// TCP port; 0 asks the OS for an ephemeral one (readable via
  /// FleetServer::port() after bind — how the tests/bench run loopback).
  std::uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// OPENs beyond this many concurrently live streams get OPAK
  /// status TooManySessions.
  std::size_t max_sessions = 16384;
  /// Per-stream pending-chunk bound (the tenant backpressure budget on
  /// top of the fleet's own slab window). A chunk arriving with the
  /// pending queue full is shed, not buffered.
  std::size_t tenant_pending_chunks = 8;
  /// Rebalance cadence in accepted chunks; 0 disables rebalancing.
  std::size_t rebalance_period_chunks = 4096;
  /// Minimum (busiest - idlest) worker load difference, in work items
  /// plus resident sessions, before a rebalance migrates a session.
  std::size_t rebalance_min_gap = 8;
  /// Slow-consumer disconnect bound on a connection's outbound buffer.
  std::size_t max_outbuf_bytes = 8u << 20;
  /// FrameDecoder bound for inbound records; must fit a max_chunk CHNK.
  std::size_t max_frame_bytes = 1u << 20;
  /// Sample rate every served session runs at (the server HELO
  /// advertises it).
  double fs_hz = 250.0;
  /// Bind 127.0.0.1 only (the loopback soak / test default). Clear it
  /// to serve a LAN.
  bool loopback_only = true;
  /// The fleet below the front-end, unchanged.
  core::FleetConfig fleet{};
};

/// Range-checks a ServerConfig (also run by bind()).
[[nodiscard]] ServerStatus validate_server_config(const ServerConfig& cfg);

/// The loopback/LAN fleet server. Lifecycle: construct -> bind() ->
/// start() -> stop() (or destruction). bind() is the validation gate;
/// start() spawns the IO/pilot thread plus the fleet workers; stop()
/// finishes every live session, drains, and joins.
class FleetServer {
 public:
  explicit FleetServer(const ServerConfig& cfg);
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  /// Validates the config and acquires the listen socket. Returns the
  /// reject reason instead of throwing (the icg_config shape).
  [[nodiscard]] ServerStatus bind();

  /// The bound TCP port (after a successful bind()).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Spawns the IO/pilot thread and the fleet worker pool. bind() must
  /// have succeeded.
  void start();

  /// Signals the IO thread, finishes every live session, joins
  /// everything. Idempotent; also run by the destructor.
  void stop();

  /// Live counters (readable from any thread while the server runs).
  [[nodiscard]] ServerStats stats() const;

  /// Fleet-level migration counter (stable after stop()).
  [[nodiscard]] std::uint64_t migrations() const;

 private:
  struct PendingChunk {
    std::vector<double> ecg, z;
  };

  /// One open stream: the session façade plus its tenant-side state.
  struct Stream {
    core::SessionHandle handle;
    std::uint32_t stream_id = 0;
    bool want_acks = false;
    bool finish_requested = false;  ///< CLSE seen; try_finish until accepted
    std::deque<PendingChunk> pending;
    std::uint64_t shed_total = 0;
    std::uint64_t last_ack = 0;
  };

  struct Connection {
    int fd = -1;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_pos = 0;
    bool hello_done = false;
    bool want_acks = false;  ///< client HELO requested per-chunk CACKs
    bool closing = false;  ///< BYE_ seen: close once streams finish + outbuf drains
    bool dead = false;     ///< protocol violation / IO error: reap this tick
    std::unordered_map<std::uint32_t, std::unique_ptr<Stream>> streams;

    explicit Connection(int fd_, std::size_t max_frame)
        : fd(fd_), decoder(max_frame) {}
  };

  void run_loop();
  void accept_pending();
  void read_connection(Connection& c);
  void handle_frame(Connection& c, Frame& f);
  void handle_open(Connection& c, core::StateReader& r);
  void handle_chunk(Connection& c, core::StateReader& r);
  void pump_pending(Connection& c);
  void pump_fleet_results();
  void maybe_rebalance();
  void flush_writes(Connection& c);
  void send_error(Connection& c, WireErrorCode code, std::uint32_t stream,
                  const std::string& message, bool fatal);
  void emit_beat_records(const std::vector<core::FleetBeat>& beats);
  void emit_acks();
  void reap_dead();
  Stream* find_stream(Connection& c, std::uint32_t stream_id);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  bool bound_ = false;
  std::atomic<bool> stop_requested_{false};
  bool stopped_ = false;
  std::thread io_thread_;

  std::unique_ptr<core::SessionManager> fleet_;
  std::vector<std::unique_ptr<Connection>> conns_;
  /// session id -> (connection, stream) routing for fleet poll()
  /// results. Entries are erased when the stream's QUAL is emitted or
  /// its connection dies; a routed beat without an entry is dropped
  /// (its consumer is gone).
  struct Route {
    Connection* conn = nullptr;
    Stream* stream = nullptr;
  };
  std::unordered_map<std::uint32_t, Route> routes_;
  std::vector<core::FleetBeat> beat_scratch_;
  std::vector<double> ecg_scratch_, z_scratch_;
  std::vector<std::size_t> depth_scratch_, resident_scratch_;
  RecordBuilder rb_;
  std::size_t chunks_since_rebalance_ = 0;

  // Live counters (IO thread writes, any thread reads).
  std::atomic<std::uint64_t> sessions_open_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> shed_chunks_{0};
  std::atomic<std::uint64_t> migrations_{0};
};

} // namespace icgkit::net
