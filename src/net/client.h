// Blocking loopback/LAN client for the fleet wire protocol.
//
// The deliberately simple counterpart to net::FleetServer: one blocking
// TCP socket, synchronous verb writes, and a poll-based event drain
// that decodes inbound records into a tagged ClientEvent union. It is
// what the tests, the bench soak, and examples/net_client speak — and
// doubles as the reference implementation of the client side of the
// protocol for out-of-tree consumers.
//
// Threading: a FleetClient is single-threaded (use one per thread; the
// bench opens many). Verbs never read; poll_events() never writes —
// the two halves can therefore be interleaved freely on that one
// thread without reentrancy surprises.
#pragma once

#include "net/wire.h"

#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::net {

/// One decoded server->client record. `type` selects which fields are
/// meaningful; the rest stay default-initialized.
struct ClientEvent {
  enum class Type {
    OpenAck,     ///< stream, status (0 ok / WireErrorCode), worker
    Beat,        ///< stream, beat
    ChunkAck,    ///< stream, count (cumulative chunks processed)
    Quality,     ///< stream, quality — terminal: the stream is closed
    Shed,        ///< stream, shed_reason, count (running shed total)
    RecordAck,   ///< stream, status (0 = recording started)
    RecordData,  ///< stream, blob (the .icgr flight record bytes)
    Stats,       ///< stats
    Error,       ///< error (stream-level unless error.stream == kNoStream)
  };
  Type type = Type::Error;
  std::uint32_t stream = 0;
  std::uint32_t status = 0;
  std::uint32_t worker = 0;
  std::uint32_t shed_reason = 0;
  std::uint64_t count = 0;
  core::BeatRecord beat{};
  core::QualitySummary quality{};
  ServerStats stats{};
  WireErrorRecord error{};
  std::vector<std::uint8_t> blob;
};

/// Synchronous wire-protocol client. Lifecycle: construct ->
/// connect_loopback() -> verbs + poll_events() -> bye()/destruction.
class FleetClient {
 public:
  /// `max_frame_bytes` bounds inbound records; the default is sized for
  /// RECD frames carrying a whole flight record.
  explicit FleetClient(std::size_t max_frame_bytes = 32u << 20);
  ~FleetClient();

  FleetClient(const FleetClient&) = delete;
  FleetClient& operator=(const FleetClient&) = delete;

  /// Connects to 127.0.0.1:port, sends the stream header + client HELO
  /// (`want_acks` requests per-chunk CACK records), and blocks until
  /// the server's HELO arrives. Returns false if the TCP connect fails;
  /// throws WireError if the server speaks garbage or refuses the
  /// version with an ERRR.
  [[nodiscard]] bool connect_loopback(std::uint16_t port, bool want_acks = false);

  /// The server's HELO (valid after connect_loopback() returns true):
  /// negotiated max_chunk, fs_hz, worker count, per-stream inflight bound.
  [[nodiscard]] const Hello& server_hello() const { return server_hello_; }

  /// True while the socket is up and the server has not closed on us.
  [[nodiscard]] bool connected() const { return fd_ >= 0 && !eof_; }

  // --- verbs (synchronous, blocking writes) -------------------------------

  /// Opens stream `stream_id` (client-chosen, unique per connection).
  /// The server answers with an OpenAck event carrying the worker.
  void open_stream(std::uint32_t stream_id);
  /// Sends one synchronized chunk; ecg and z must be the same length,
  /// at most server_hello().max_chunk samples.
  void send_chunk(std::uint32_t stream_id, std::span<const double> ecg,
                  std::span<const double> z);
  /// Requests finish; the tail Beat events and the terminal Quality
  /// event follow.
  void close_stream(std::uint32_t stream_id);
  /// Starts flight-recording the live stream (RecordAck follows).
  /// `checkpoint_interval` = 0 keeps the server default cadence.
  void record_start(std::uint32_t stream_id, std::uint64_t checkpoint_interval = 0);
  /// Stops recording; the RecordData event carries the .icgr bytes.
  void record_stop(std::uint32_t stream_id);
  /// Requests a Stats event.
  void request_stats();
  /// Clean shutdown: the server finishes remaining streams, flushes,
  /// and closes the connection.
  void bye();

  // --- inbound ------------------------------------------------------------

  /// Appends decoded events to `out`. Drains whatever is already
  /// buffered; if that yields nothing, waits up to `timeout_ms` for
  /// socket data (0 = pure poll, <0 = wait indefinitely). Returns the
  /// number of events appended — 0 on timeout or orderly server close
  /// (check connected()). Throws WireError on a malformed stream.
  std::size_t poll_events(std::vector<ClientEvent>& out, int timeout_ms);

  /// Convenience: polls until an event of `type` arrives (appending
  /// everything received to `out`) or the connection drops. Returns the
  /// index of the matching event in `out`, or SIZE_MAX.
  std::size_t wait_for(ClientEvent::Type type, std::vector<ClientEvent>& out);

  void close();

 private:
  void send_all(const std::vector<std::uint8_t>& bytes);
  bool drain_decoder(std::vector<ClientEvent>& out);
  static ClientEvent decode_event(Frame& f);

  int fd_ = -1;
  bool eof_ = false;
  FrameDecoder decoder_;
  RecordBuilder rb_;
  std::vector<std::uint8_t> sendbuf_;
  Hello server_hello_{};
};

} // namespace icgkit::net
