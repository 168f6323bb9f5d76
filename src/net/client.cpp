#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace icgkit::net {

FleetClient::FleetClient(std::size_t max_frame_bytes) : decoder_(max_frame_bytes) {}

FleetClient::~FleetClient() { close(); }

void FleetClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool FleetClient::connect_loopback(std::uint16_t port, bool want_acks) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fd_ = fd;
  eof_ = false;

  sendbuf_.clear();
  write_stream_header(sendbuf_);
  Hello h;
  h.version = kWireVersion;
  if (want_acks) h.flags |= kHelloWantAcks;
  core::StateWriter& w = rb_.begin(kTagHello);
  encode_hello(w, h);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);

  // Block until the server's HELO (or its refusal) arrives.
  std::uint8_t buf[4096];
  Frame f;
  for (;;) {
    while (decoder_.next(f)) {
      if (std::memcmp(f.tag, kTagHello, 4) == 0) {
        server_hello_ = decode_hello(f.reader);
        end_record(f.reader);
        if (server_hello_.version != kWireVersion)
          throw WireError("server speaks wire version " +
                          std::to_string(server_hello_.version));
        return true;
      }
      if (std::memcmp(f.tag, kTagError, 4) == 0) {
        const WireErrorRecord e = decode_error(f.reader);
        end_record(f.reader);
        throw WireError("server refused handshake: " + e.message);
      }
      throw WireError(std::string("unexpected record '") + f.tag +
                      "' before server HELO");
    }
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    eof_ = true;
    throw WireError("connection closed during handshake");
  }
}

void FleetClient::send_all(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    eof_ = true;
    throw WireError("send failed (connection lost)");
  }
}

void FleetClient::open_stream(std::uint32_t stream_id) {
  sendbuf_.clear();
  core::StateWriter& w = rb_.begin(kTagOpen);
  w.u32(stream_id);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::send_chunk(std::uint32_t stream_id, std::span<const double> ecg,
                             std::span<const double> z) {
  if (ecg.size() != z.size())
    throw WireError("CHNK channels must be the same length");
  sendbuf_.clear();
  core::StateWriter& w = rb_.begin(kTagChunk);
  w.u32(stream_id);
  w.u32(static_cast<std::uint32_t>(ecg.size()));
  w.values(ecg);
  w.values(z);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::close_stream(std::uint32_t stream_id) {
  sendbuf_.clear();
  core::StateWriter& w = rb_.begin(kTagClose);
  w.u32(stream_id);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::record_start(std::uint32_t stream_id,
                               std::uint64_t checkpoint_interval) {
  sendbuf_.clear();
  core::StateWriter& w = rb_.begin(kTagRecordStart);
  w.u32(stream_id);
  w.u64(checkpoint_interval);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::record_stop(std::uint32_t stream_id) {
  sendbuf_.clear();
  core::StateWriter& w = rb_.begin(kTagRecordStop);
  w.u32(stream_id);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::request_stats() {
  sendbuf_.clear();
  rb_.begin(kTagStatRequest);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

void FleetClient::bye() {
  sendbuf_.clear();
  rb_.begin(kTagBye);
  rb_.finish(sendbuf_);
  send_all(sendbuf_);
}

ClientEvent FleetClient::decode_event(Frame& f) {
  ClientEvent ev;
  core::StateReader& r = f.reader;
  if (std::memcmp(f.tag, kTagBeat, 4) == 0) {
    ev.type = ClientEvent::Type::Beat;
    ev.stream = r.u32();
    ev.beat = decode_beat(r);
  } else if (std::memcmp(f.tag, kTagChunkAck, 4) == 0) {
    ev.type = ClientEvent::Type::ChunkAck;
    ev.stream = r.u32();
    ev.count = r.u64();
  } else if (std::memcmp(f.tag, kTagQuality, 4) == 0) {
    ev.type = ClientEvent::Type::Quality;
    ev.stream = r.u32();
    ev.quality = decode_quality(r);
  } else if (std::memcmp(f.tag, kTagOpenAck, 4) == 0) {
    ev.type = ClientEvent::Type::OpenAck;
    ev.stream = r.u32();
    ev.status = r.u32();
    ev.worker = r.u32();
  } else if (std::memcmp(f.tag, kTagShed, 4) == 0) {
    ev.type = ClientEvent::Type::Shed;
    ev.stream = r.u32();
    ev.shed_reason = r.u32();
    ev.count = r.u64();
  } else if (std::memcmp(f.tag, kTagRecordAck, 4) == 0) {
    ev.type = ClientEvent::Type::RecordAck;
    ev.stream = r.u32();
    ev.status = r.u32();
  } else if (std::memcmp(f.tag, kTagRecordData, 4) == 0) {
    ev.type = ClientEvent::Type::RecordData;
    ev.stream = r.u32();
    const auto b = r.bytes(r.u32());
    ev.blob.assign(b.begin(), b.end());
  } else if (std::memcmp(f.tag, kTagStatReply, 4) == 0) {
    ev.type = ClientEvent::Type::Stats;
    ev.stats = decode_stats(r);
  } else if (std::memcmp(f.tag, kTagError, 4) == 0) {
    ev.type = ClientEvent::Type::Error;
    ev.error = decode_error(r);
    ev.stream = ev.error.stream;
  } else {
    throw WireError(std::string("unknown server record '") + f.tag + "'");
  }
  end_record(r);
  return ev;
}

bool FleetClient::drain_decoder(std::vector<ClientEvent>& out) {
  bool any = false;
  Frame f;
  while (decoder_.next(f)) {
    out.push_back(decode_event(f));
    any = true;
  }
  return any;
}

std::size_t FleetClient::poll_events(std::vector<ClientEvent>& out, int timeout_ms) {
  const std::size_t before = out.size();
  if (drain_decoder(out)) return out.size() - before;
  if (!connected()) return 0;
  std::uint8_t buf[65536];
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return 0;  // timeout
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      if (drain_decoder(out)) return out.size() - before;
      continue;  // partial frame: keep waiting within the caller's intent
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
    eof_ = true;  // orderly close or hard error
    return 0;
  }
}

std::size_t FleetClient::wait_for(ClientEvent::Type type,
                                  std::vector<ClientEvent>& out) {
  std::size_t scanned = out.size();
  for (;;) {
    for (; scanned < out.size(); ++scanned)
      if (out[scanned].type == type) return scanned;
    if (!connected()) return static_cast<std::size_t>(-1);
    poll_events(out, 1000);
    if (scanned == out.size() && !connected()) return static_cast<std::size_t>(-1);
  }
}

} // namespace icgkit::net
