// FleetServer over real loopback sockets: protocol round trips, the
// backpressure/shed contract, load-aware rebalancing, the recording
// verbs, and refusal of hostile peers.
//
// The central claim is the network transparency one: beats decoded off
// the wire re-serialize byte-identically to a directly fed
// StreamingBeatPipeline — the server adds transport, not arithmetic.
// Runs under the Debug ASan/UBSan CI entry like the rest of tests/net.
#include "net/server.h"

#include "core/beat_serializer.h"
#include "core/flight_recorder.h"
#include "net/client.h"
#include "synth/recording.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <limits>
#include <map>
#include <vector>

namespace {

using namespace icgkit;

constexpr std::size_t kChunk = 64;

net::ServerConfig test_config(std::size_t workers = 2) {
  net::ServerConfig cfg;
  cfg.fleet.workers = workers;
  cfg.fleet.max_chunk = kChunk;
  return cfg;
}

std::vector<synth::Recording> test_workload(std::size_t distinct, double duration_s) {
  synth::RecordingConfig rcfg;
  rcfg.duration_s = duration_s;
  rcfg.session_seed = 23;
  return synth::make_fleet_workload(distinct, rcfg);
}

/// Plays `workload[s % distinct]` through client stream `s` for all
/// `streams`, CACK-flow-controlled to the server's advertised window so
/// the feed is provably shed-free, then closes every stream and drains
/// until each terminal QUAL arrives. Returns all events.
std::vector<net::ClientEvent> play_workload(net::FleetClient& client,
                                            const std::vector<synth::Recording>& workload,
                                            std::uint32_t streams) {
  std::vector<net::ClientEvent> events;
  for (std::uint32_t s = 0; s < streams; ++s) client.open_stream(s);

  std::vector<std::uint64_t> sent(streams, 0), acked(streams, 0);
  std::size_t drained = 0;
  const auto absorb_acks = [&] {
    for (; drained < events.size(); ++drained)
      if (events[drained].type == net::ClientEvent::Type::ChunkAck)
        acked[events[drained].stream] = events[drained].count;
  };
  const std::uint64_t window = client.server_hello().max_inflight;
  const std::size_t n = workload[0].ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (std::uint32_t s = 0; s < streams; ++s) {
      while (sent[s] - acked[s] >= window) {
        client.poll_events(events, 10);
        absorb_acks();
      }
      const synth::Recording& rec = workload[s % workload.size()];
      client.send_chunk(s, {rec.ecg_mv.data() + i, len}, {rec.z_ohm.data() + i, len});
      ++sent[s];
    }
    client.poll_events(events, 0);
    absorb_acks();
  }
  for (std::uint32_t s = 0; s < streams; ++s) client.close_stream(s);
  std::uint32_t closed = 0;
  while (closed < streams && client.connected()) {
    const std::size_t before = events.size();
    client.poll_events(events, 2000);
    for (std::size_t k = before; k < events.size(); ++k)
      if (events[k].type == net::ClientEvent::Type::Quality) ++closed;
  }
  EXPECT_EQ(closed, streams) << "connection dropped before every QUAL arrived";
  return events;
}

/// A raw loopback socket for speaking deliberately broken protocol.
struct RawConn {
  int fd = -1;
  bool ok = false;
  net::FrameDecoder decoder{1u << 20};

  explicit RawConn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      ADD_FAILURE() << "socket() failed";
      return;
    }
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    if (!ok) ADD_FAILURE() << "loopback connect failed";
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  void send_bytes(const std::vector<std::uint8_t>& b) {
    ASSERT_EQ(::send(fd, b.data(), b.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(b.size()));
  }

  /// Reads until the server closes (or times out), returning every
  /// ERRR it sent. A timeout is a test failure, not a hang.
  std::vector<net::WireErrorRecord> read_errors_until_close() {
    std::vector<net::WireErrorRecord> errors;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got == 0) break;  // orderly close
      if (got < 0) {
        ADD_FAILURE() << "timed out waiting for the server to close";
        break;
      }
      decoder.feed(buf, static_cast<std::size_t>(got));
      net::Frame f;
      while (decoder.next(f)) {
        if (std::memcmp(f.tag, net::kTagError, 4) != 0) continue;
        core::StateReader& r = f.reader;
        errors.push_back(net::decode_error(r));
      }
    }
    return errors;
  }
};

TEST(ServerTest, ConfigValidationStatuses) {
  using net::ServerStatus;
  EXPECT_EQ(net::validate_server_config(test_config()), ServerStatus::Ok);

  auto cfg = test_config();
  cfg.max_connections = 0;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadMaxConnections);

  cfg = test_config();
  cfg.max_sessions = 0;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadMaxSessions);

  cfg = test_config();
  cfg.tenant_pending_chunks = 0;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadPendingBound);

  cfg = test_config();
  cfg.rebalance_min_gap = 0;  // rebalancing on, gap zero
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadRebalanceGap);
  cfg.rebalance_period_chunks = 0;  // rebalancing off: gap is moot
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::Ok);

  cfg = test_config();
  cfg.max_outbuf_bytes = 64;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadOutbufBound);

  cfg = test_config();
  cfg.max_frame_bytes = 128;  // cannot fit a max_chunk CHNK
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadFrameBound);

  cfg = test_config();
  cfg.fs_hz = 0.0;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadSampleRate);
  cfg.fs_hz = 1e9;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadSampleRate);

  cfg = test_config();
  cfg.fleet.workers = 0;
  EXPECT_EQ(net::validate_server_config(cfg), ServerStatus::BadFleetConfig);

  // bind() runs the same gate and must not acquire a socket on refusal.
  net::FleetServer refused(cfg);
  EXPECT_EQ(refused.bind(), ServerStatus::BadFleetConfig);

  // Double bind is refused with a status, not an exception.
  net::FleetServer twice(test_config());
  ASSERT_EQ(twice.bind(), ServerStatus::Ok);
  EXPECT_EQ(twice.bind(), ServerStatus::AlreadyBound);
}

TEST(ServerTest, UnsupportedSampleRateIsRefusedAtBind) {
  // A rate the engine cannot build its filters for must fail bind(),
  // not the IO thread at the first OPEN.
  auto cfg = test_config();
  cfg.fs_hz = 50.0;
  net::FleetServer server(cfg);
  EXPECT_EQ(server.bind(), net::ServerStatus::BadSampleRate);
}

TEST(ServerTest, LoopbackBeatsMatchDirectPipelineBytes) {
  const auto workload = test_workload(2, 8.0);
  constexpr std::uint32_t kStreams = 4;

  auto cfg = test_config(2);
  cfg.fs_hz = workload[0].fs;
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port(), /*want_acks=*/true));
  EXPECT_EQ(client.server_hello().version, net::kWireVersion);
  EXPECT_EQ(client.server_hello().max_chunk, kChunk);

  const auto events = play_workload(client, workload, kStreams);

  std::vector<std::vector<unsigned char>> streams(kStreams);
  std::vector<core::QualitySummary> summaries(kStreams);
  std::vector<std::size_t> quals(kStreams, 0);
  for (const net::ClientEvent& ev : events) {
    if (ev.type == net::ClientEvent::Type::Beat)
      core::serialize_beat(ev.beat, streams[ev.stream]);
    else if (ev.type == net::ClientEvent::Type::Quality) {
      summaries[ev.stream] = ev.quality;
      ++quals[ev.stream];
    } else if (ev.type == net::ClientEvent::Type::Shed)
      FAIL() << "flow-controlled client was shed on stream " << ev.stream;
  }

  // The network transparency check: wire bytes == direct-feed bytes.
  for (std::uint32_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(quals[s], 1u) << "stream " << s << " terminal QUAL count";
    const synth::Recording& rec = workload[s % workload.size()];
    core::StreamingBeatPipeline direct(rec.fs, {});
    std::vector<core::BeatRecord> beats;
    const std::size_t n = rec.ecg_mv.size();
    for (std::size_t i = 0; i < n; i += kChunk) {
      const std::size_t len = std::min(kChunk, n - i);
      direct.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                       dsp::SignalView(rec.z_ohm.data() + i, len), beats);
    }
    direct.finish_into(beats);
    ASSERT_FALSE(beats.empty());
    std::vector<unsigned char> reference;
    for (const core::BeatRecord& b : beats) core::serialize_beat(b, reference);
    EXPECT_EQ(streams[s], reference) << "stream " << s << " diverged over the wire";
    EXPECT_TRUE(core::summaries_identical(summaries[s], direct.quality_summary()))
        << "stream " << s << " quality summary diverged over the wire";
  }

  client.bye();
  server.stop();
  const net::ServerStats stats = server.stats();
  EXPECT_EQ(stats.sessions_closed, kStreams);
  EXPECT_EQ(stats.shed_chunks, 0u);
  EXPECT_GT(stats.total_beats, 0u);
}

TEST(ServerTest, UnthrottledFloodShedsExplicitly) {
  const auto workload = test_workload(1, 10.0);

  auto cfg = test_config(1);
  cfg.fs_hz = workload[0].fs;
  cfg.tenant_pending_chunks = 2;         // tiny tenant budget: force the bound
  cfg.fleet.chunk_slots_per_session = 1; // tiny slab window, same reason
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  // No acks, no pacing: blast the whole recording as fast as the socket
  // accepts it. The server must shed with SHED records — bounded memory,
  // no blocking, no disconnect — and still finish the stream cleanly.
  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port(), /*want_acks=*/false));
  std::vector<net::ClientEvent> events;
  client.open_stream(0);
  const synth::Recording& rec = workload[0];
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    client.send_chunk(0, {rec.ecg_mv.data() + i, len}, {rec.z_ohm.data() + i, len});
    client.poll_events(events, 0);
  }
  client.close_stream(0);
  while (client.connected() &&
         client.wait_for(net::ClientEvent::Type::Quality, events) == SIZE_MAX) {
  }

  std::uint64_t shed_total = 0;
  bool got_quality = false;
  for (const net::ClientEvent& ev : events) {
    if (ev.type == net::ClientEvent::Type::Shed) {
      EXPECT_EQ(ev.shed_reason,
                static_cast<std::uint32_t>(net::ShedReason::TenantQueueFull));
      shed_total = ev.count;  // running total: keep the last
    } else if (ev.type == net::ClientEvent::Type::Quality) {
      got_quality = true;
    }
  }
  EXPECT_TRUE(got_quality) << "shed stream must still close with a QUAL";
  EXPECT_GT(shed_total, 0u) << "flood never hit the tenant bound";

  client.bye();
  server.stop();
  EXPECT_EQ(server.stats().shed_chunks, shed_total);
}

TEST(ServerTest, SkewedLoadTriggersRebalancing) {
  const auto workload = test_workload(1, 12.0);
  constexpr std::uint32_t kStreams = 8;

  auto cfg = test_config(2);
  cfg.fs_hz = workload[0].fs;
  cfg.rebalance_period_chunks = 32;  // rebalance eagerly for the test
  cfg.rebalance_min_gap = 2;
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port(), /*want_acks=*/true));
  std::vector<net::ClientEvent> events;
  for (std::uint32_t s = 0; s < kStreams; ++s) client.open_stream(s);

  // Learn each stream's home worker from its OPAK.
  std::map<std::uint32_t, std::uint32_t> home;
  while (home.size() < kStreams) {
    const std::size_t before = events.size();
    ASSERT_GT(client.poll_events(events, 2000), 0u);
    for (std::size_t k = before; k < events.size(); ++k)
      if (events[k].type == net::ClientEvent::Type::OpenAck) {
        ASSERT_EQ(events[k].status, 0u);
        home[events[k].stream] = events[k].worker;
      }
  }

  // Skew the fleet: immediately close every stream homed on worker 0,
  // leaving all load on the other worker. The periodic rebalance must
  // notice the resident-count gap and migrate sessions back.
  std::vector<std::uint32_t> live;
  for (const auto& [stream, worker] : home)
    if (worker == 0)
      client.close_stream(stream);
    else
      live.push_back(stream);
  ASSERT_FALSE(live.empty());
  ASSERT_LT(live.size(), static_cast<std::size_t>(kStreams));

  std::vector<std::uint64_t> sent(kStreams, 0), acked(kStreams, 0);
  std::size_t drained = 0;
  const auto absorb = [&] {
    for (; drained < events.size(); ++drained)
      if (events[drained].type == net::ClientEvent::Type::ChunkAck)
        acked[events[drained].stream] = events[drained].count;
  };
  const std::uint64_t window = client.server_hello().max_inflight;
  const synth::Recording& rec = workload[0];
  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    for (const std::uint32_t s : live) {
      while (sent[s] - acked[s] >= window) {
        client.poll_events(events, 10);
        absorb();
      }
      client.send_chunk(s, {rec.ecg_mv.data() + i, len}, {rec.z_ohm.data() + i, len});
      ++sent[s];
    }
    client.poll_events(events, 0);
    absorb();
  }
  for (const std::uint32_t s : live) client.close_stream(s);
  // The worker-0 streams' QUALs may already sit in `events` from the
  // feed-phase polls: count from the start, then drain the rest.
  std::uint32_t quals = 0;
  std::size_t counted = 0;
  for (;;) {
    for (; counted < events.size(); ++counted)
      if (events[counted].type == net::ClientEvent::Type::Quality) ++quals;
    if (quals >= kStreams || !client.connected()) break;
    client.poll_events(events, 2000);
  }
  EXPECT_EQ(quals, kStreams);

  // The migrated streams' beat streams must still match a direct feed —
  // rebalancing is byte-exact, not merely survivable.
  std::vector<std::vector<unsigned char>> streams(kStreams);
  for (const net::ClientEvent& ev : events)
    if (ev.type == net::ClientEvent::Type::Beat)
      core::serialize_beat(ev.beat, streams[ev.stream]);
  core::StreamingBeatPipeline direct(rec.fs, {});
  std::vector<core::BeatRecord> beats;
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    direct.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                     dsp::SignalView(rec.z_ohm.data() + i, len), beats);
  }
  direct.finish_into(beats);
  std::vector<unsigned char> reference;
  for (const core::BeatRecord& b : beats) core::serialize_beat(b, reference);
  for (const std::uint32_t s : live)
    EXPECT_EQ(streams[s], reference) << "migrated stream " << s << " diverged";

  client.bye();
  server.stop();
  EXPECT_GT(server.migrations(), 0u) << "skewed load never triggered a migration";
  EXPECT_EQ(server.stats().shed_chunks, 0u);
}

TEST(ServerTest, RecordingRoundTripReplayVerifies) {
  // Long enough that beats are emitted *live*, well before the finish
  // flush: the recording stops mid-stream, so only live beats land in
  // the flight record.
  const auto workload = test_workload(1, 24.0);

  auto cfg = test_config(1);
  cfg.fs_hz = workload[0].fs;
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port(), /*want_acks=*/true));
  std::vector<net::ClientEvent> events;
  client.open_stream(7);

  // RECS on a stream that does not exist is refused, not fatal.
  client.record_start(99);
  std::size_t at = client.wait_for(net::ClientEvent::Type::RecordAck, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].stream, 99u);
  EXPECT_EQ(events[at].status,
            static_cast<std::uint32_t>(net::WireErrorCode::UnknownStream));

  client.record_start(7, /*checkpoint_interval=*/1000);
  at = client.wait_for(net::ClientEvent::Type::RecordAck, events);
  while (at != SIZE_MAX && events[at].stream != 7)
    at = client.wait_for(net::ClientEvent::Type::RecordAck, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].status, 0u);

  // Stream half the recording while recording is live.
  std::vector<std::uint64_t> acked{0};
  std::uint64_t sent = 0;
  std::size_t drained = 0;
  const auto absorb = [&] {
    for (; drained < events.size(); ++drained)
      if (events[drained].type == net::ClientEvent::Type::ChunkAck)
        acked[0] = events[drained].count;
  };
  const std::uint64_t window = client.server_hello().max_inflight;
  const synth::Recording& rec = workload[0];
  const std::size_t half = rec.ecg_mv.size() * 3 / (4 * kChunk) * kChunk;
  for (std::size_t i = 0; i < half; i += kChunk) {
    while (sent - acked[0] >= window) {
      client.poll_events(events, 10);
      absorb();
    }
    client.send_chunk(7, {rec.ecg_mv.data() + i, kChunk}, {rec.z_ohm.data() + i, kChunk});
    ++sent;
    client.poll_events(events, 0);
    absorb();
  }

  client.record_stop(7);
  at = client.wait_for(net::ClientEvent::Type::RecordData, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].stream, 7u);
  ASSERT_FALSE(events[at].blob.empty());

  // The wire-returned .icgr replays deterministically: every recorded
  // chunk re-run from the recording reproduces its recorded beats.
  const core::FlightVerifyReport rep = core::flight_verify(events[at].blob);
  EXPECT_TRUE(rep.ok) << "first divergent chunk " << rep.first_divergent_chunk;
  EXPECT_GT(rep.chunks, 0u);
  EXPECT_GT(rep.beats_recorded, 0u);

  // RECX when nothing is recording is a stream-level ERRR, not fatal.
  client.record_stop(7);
  at = client.wait_for(net::ClientEvent::Type::Error, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].error.code, net::WireErrorCode::Protocol);
  EXPECT_TRUE(client.connected());

  client.close_stream(7);
  ASSERT_NE(client.wait_for(net::ClientEvent::Type::Quality, events), SIZE_MAX);
  client.bye();
  server.stop();
}

TEST(ServerTest, OpenStatusesAndStatsVerb) {
  auto cfg = test_config(1);
  cfg.max_sessions = 1;
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port()));
  std::vector<net::ClientEvent> events;

  client.open_stream(1);
  std::size_t at = client.wait_for(net::ClientEvent::Type::OpenAck, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].status, 0u);

  client.open_stream(1);  // duplicate id on the same connection
  at = client.wait_for(net::ClientEvent::Type::OpenAck, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].status,
            static_cast<std::uint32_t>(net::WireErrorCode::DuplicateStream));

  client.open_stream(2);  // over max_sessions
  at = client.wait_for(net::ClientEvent::Type::OpenAck, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].status,
            static_cast<std::uint32_t>(net::WireErrorCode::TooManySessions));

  // CLSE for a stream that was never opened: stream-level ERRR, the
  // connection survives.
  client.close_stream(42);
  at = client.wait_for(net::ClientEvent::Type::Error, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].error.code, net::WireErrorCode::UnknownStream);
  EXPECT_EQ(events[at].error.stream, 42u);
  EXPECT_TRUE(client.connected());

  client.request_stats();
  at = client.wait_for(net::ClientEvent::Type::Stats, events);
  ASSERT_NE(at, SIZE_MAX);
  EXPECT_EQ(events[at].stats.sessions_open, 1u);

  client.close_stream(1);
  ASSERT_NE(client.wait_for(net::ClientEvent::Type::Quality, events), SIZE_MAX);
  client.bye();
  server.stop();
}

// A CHNK holding NaN or an infinity is answered with a stream-level
// ERRR BadFrame and dropped; the connection and the stream carry on as
// if it had never been sent.
TEST(ServerTest, NonFiniteChunkIsRefusedAndDropped) {
  const auto workload = test_workload(1, 4.0);
  const synth::Recording& rec = workload[0];
  auto cfg = test_config(1);
  cfg.fs_hz = rec.fs;
  cfg.tenant_pending_chunks = 64;  // the whole recording may queue: nothing is shed
  net::FleetServer server(cfg);
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port()));
  std::vector<net::ClientEvent> events;
  client.open_stream(1);
  ASSERT_NE(client.wait_for(net::ClientEvent::Type::OpenAck, events), SIZE_MAX);

  const std::size_t n = rec.ecg_mv.size();
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    if (i == 4 * kChunk) {
      for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::infinity()}) {
        std::vector<double> z(rec.z_ohm.begin() + static_cast<std::ptrdiff_t>(i),
                              rec.z_ohm.begin() + static_cast<std::ptrdiff_t>(i + len));
        z[len / 2] = bad;
        client.send_chunk(1, {rec.ecg_mv.data() + i, len}, z);
        const std::size_t at = client.wait_for(net::ClientEvent::Type::Error, events);
        ASSERT_NE(at, SIZE_MAX);
        EXPECT_EQ(events[at].error.code, net::WireErrorCode::BadFrame);
        EXPECT_EQ(events[at].error.stream, 1u);
        EXPECT_TRUE(client.connected());
      }
    }
    client.send_chunk(1, {rec.ecg_mv.data() + i, len}, {rec.z_ohm.data() + i, len});
  }
  client.close_stream(1);
  ASSERT_NE(client.wait_for(net::ClientEvent::Type::Quality, events), SIZE_MAX);

  std::vector<unsigned char> wire;
  for (const net::ClientEvent& ev : events) {
    ASSERT_NE(ev.type, net::ClientEvent::Type::Shed);
    if (ev.type == net::ClientEvent::Type::Beat) core::serialize_beat(ev.beat, wire);
  }
  core::StreamingBeatPipeline direct(rec.fs, {});
  std::vector<core::BeatRecord> beats;
  for (std::size_t i = 0; i < n; i += kChunk) {
    const std::size_t len = std::min(kChunk, n - i);
    direct.push_into(dsp::SignalView(rec.ecg_mv.data() + i, len),
                     dsp::SignalView(rec.z_ohm.data() + i, len), beats);
  }
  direct.finish_into(beats);
  ASSERT_FALSE(beats.empty());
  std::vector<unsigned char> reference;
  for (const core::BeatRecord& b : beats) core::serialize_beat(b, reference);
  EXPECT_EQ(wire, reference);

  client.bye();
  server.stop();
  EXPECT_EQ(server.stats().shed_chunks, 0u);
}

TEST(ServerTest, VersionMismatchIsRefusedWithError) {
  net::FleetServer server(test_config(1));
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  RawConn raw(server.port());
  ASSERT_TRUE(raw.ok);
  // Stream header with a future version the server does not speak.
  std::vector<std::uint8_t> bytes;
  net::write_stream_header(bytes);
  bytes[4] = 99;
  raw.send_bytes(bytes);

  const auto errors = raw.read_errors_until_close();
  ASSERT_FALSE(errors.empty()) << "no ERRR before close";
  EXPECT_EQ(errors.back().code, net::WireErrorCode::VersionMismatch);
  EXPECT_EQ(errors.back().stream, net::kNoStream);
  server.stop();
}

TEST(ServerTest, UnknownRecordAndPreHelloTrafficAreFatal) {
  net::FleetServer server(test_config(1));
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  {
    // Valid handshake, then a correctly framed record with an unknown
    // tag: ERRR UnknownRecord + close (a v1 peer never sends one).
    RawConn raw(server.port());
    ASSERT_TRUE(raw.ok);
    std::vector<std::uint8_t> bytes;
    net::write_stream_header(bytes);
    net::RecordBuilder rb;
    net::encode_hello(rb.begin(net::kTagHello), net::Hello{});
    rb.finish(bytes);
    core::StateWriter& w = rb.begin("ZZZZ");
    w.u32(0);
    rb.finish(bytes);
    raw.send_bytes(bytes);
    const auto errors = raw.read_errors_until_close();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.back().code, net::WireErrorCode::UnknownRecord);
  }
  {
    // Any record before the client HELO is a protocol violation.
    RawConn raw(server.port());
    ASSERT_TRUE(raw.ok);
    std::vector<std::uint8_t> bytes;
    net::write_stream_header(bytes);
    net::RecordBuilder rb;
    core::StateWriter& w = rb.begin(net::kTagOpen);
    w.u32(0);
    rb.finish(bytes);
    raw.send_bytes(bytes);
    const auto errors = raw.read_errors_until_close();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.back().code, net::WireErrorCode::Protocol);
  }
  {
    // Flipped CRC on an otherwise valid frame: ERRR BadFrame + close.
    RawConn raw(server.port());
    ASSERT_TRUE(raw.ok);
    std::vector<std::uint8_t> bytes;
    net::write_stream_header(bytes);
    net::RecordBuilder rb;
    net::encode_hello(rb.begin(net::kTagHello), net::Hello{});
    rb.finish(bytes);
    bytes.back() ^= 0x01;
    raw.send_bytes(bytes);
    const auto errors = raw.read_errors_until_close();
    ASSERT_FALSE(errors.empty());
    EXPECT_EQ(errors.back().code, net::WireErrorCode::BadFrame);
  }
  server.stop();
}

TEST(ServerTest, MidHandshakeDisconnectIsHarmless) {
  net::FleetServer server(test_config(1));
  ASSERT_EQ(server.bind(), net::ServerStatus::Ok);
  server.start();

  // Three abrupt deaths at different handshake stages...
  {
    RawConn raw(server.port());  // connect, say nothing, vanish
    ASSERT_TRUE(raw.ok);
  }
  {
    RawConn raw(server.port());  // die mid-stream-header
    ASSERT_TRUE(raw.ok);
    std::vector<std::uint8_t> bytes;
    net::write_stream_header(bytes);
    bytes.resize(3);
    raw.send_bytes(bytes);
  }
  {
    RawConn raw(server.port());  // die mid-frame after a valid header
    ASSERT_TRUE(raw.ok);
    std::vector<std::uint8_t> bytes;
    net::write_stream_header(bytes);
    net::RecordBuilder rb;
    net::encode_hello(rb.begin(net::kTagHello), net::Hello{});
    rb.finish(bytes);
    bytes.resize(bytes.size() - 2);  // truncate inside the CRC
    raw.send_bytes(bytes);
  }

  // ...and the server still serves the next well-behaved client.
  const auto workload = test_workload(1, 4.0);
  net::FleetClient client;
  ASSERT_TRUE(client.connect_loopback(server.port(), /*want_acks=*/true));
  const auto events = play_workload(client, workload, 1);
  std::size_t beats = 0;
  for (const net::ClientEvent& ev : events)
    if (ev.type == net::ClientEvent::Type::Beat) ++beats;
  EXPECT_GT(beats, 0u);
  client.bye();
  server.stop();
}

} // namespace
