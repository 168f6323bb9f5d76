// Binary wire protocol for the network fleet front-end.
//
// The stream format deliberately reuses the Checkpoint section framing
// that PR 5/PR 9 proved out against hostile input: after an 8-byte
// stream header
//
//   [magic u32 "ICGW"] [wire version u32]
//
// each direction carries a sequence of independently framed,
// integrity-checked records in exactly the StateWriter section shape:
//
//   [tag 4 bytes] [payload length u32] [payload] [CRC-32 of payload u32]
//
// All multi-byte integers are little-endian regardless of host order;
// doubles travel as IEEE-754 u64 bit patterns — the same portability
// contract as the checkpoint format. Version negotiation mirrors
// `icg_abi_version`: both the stream header and the HELO record carry
// kWireVersion, and a peer speaking any other version is refused with
// an ERRR record and a connection close, never guessed at.
//
// Record vocabulary (direction, payload):
//
//   HELO  c<->s  version/capability exchange (first record both ways)
//   OPEN  c->s   open a session stream        (stream_id, flags)
//   OPAK  s->c   open acknowledgement         (stream_id, status, worker)
//   CHNK  c->s   one synchronized chunk       (stream_id, n, ecg[n], z[n])
//   CACK  s->c   cumulative chunks processed  (stream_id, count) [opt-in]
//   CLSE  c->s   finish the stream (tail beats + QUAL follow)
//   BEAT  s->c   one completed beat           (stream_id, beat fields)
//   QUAL  s->c   terminal quality summary     (stream_id, summary fields)
//   SHED  s->c   explicit load-shed notice    (stream_id, reason, total)
//   RECS  c->s   start flight-recording the live stream
//   RACK  s->c   recording started/refused    (stream_id, status)
//   RECX  c->s   stop recording, return the file
//   RECD  s->c   the .icgr flight record bytes(stream_id, nbytes, bytes)
//   STAT  c->s   server statistics request
//   STAR  s->c   server statistics reply
//   ERRR  s->c   protocol error (code, stream_id or kNoStream, message);
//                connection-level errors are followed by a close
//   BYE_  c->s   clean connection shutdown
//
// Robustness: core::StateReader reads the wire, as it reads checkpoints
// and flight records. FrameDecoder only buffers, checks the stream
// header (magic and version must match before any record is decoded)
// and refuses a length prefix above its frame bound before it buffers
// toward it (a 4 GiB allocation is not a parse). It opens each complete
// record with StateReader::continuation, whose begin_section checks the
// frame's bounds and CRC before the tag is dispatched; every payload
// read after that is bounds-checked, and a decoder's refusal is kept by
// the reader. WireError is raised at two points: FrameDecoder::next()
// for the stream header and the frame, end_record() for the payload
// (short reads, trailing bytes, decoder refusals), which every handler
// calls before it acts on a decoded value. Never UB: the server answers
// a WireError with ERRR + close. A connection that dies mid-frame
// (truncation) simply never completes the frame; the accumulated bytes
// are dropped with the connection.
#pragma once

#include "core/checkpoint.h"
#include "core/pipeline.h"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace icgkit::net {

/// Any structural violation of the wire stream: bad magic/version,
/// oversized or truncated frame, CRC mismatch, malformed payload.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error("wire: " + what) {}
};

/// "ICGW" read as a little-endian u32.
inline constexpr std::uint32_t kWireMagic = 0x57474349u;
/// Bump on any incompatible protocol change; peers refuse other versions.
inline constexpr std::uint32_t kWireVersion = 1;

// Record tags, in StateWriter 4-character form.
inline constexpr char kTagHello[5] = "HELO";
inline constexpr char kTagOpen[5] = "OPEN";
inline constexpr char kTagOpenAck[5] = "OPAK";
inline constexpr char kTagChunk[5] = "CHNK";
inline constexpr char kTagChunkAck[5] = "CACK";
inline constexpr char kTagClose[5] = "CLSE";
inline constexpr char kTagBeat[5] = "BEAT";
inline constexpr char kTagQuality[5] = "QUAL";
inline constexpr char kTagShed[5] = "SHED";
inline constexpr char kTagRecordStart[5] = "RECS";
inline constexpr char kTagRecordAck[5] = "RACK";
inline constexpr char kTagRecordStop[5] = "RECX";
inline constexpr char kTagRecordData[5] = "RECD";
inline constexpr char kTagStatRequest[5] = "STAT";
inline constexpr char kTagStatReply[5] = "STAR";
inline constexpr char kTagError[5] = "ERRR";
inline constexpr char kTagBye[5] = "BYE_";

/// ERRR stream_id for connection-level errors.
inline constexpr std::uint32_t kNoStream = 0xFFFFFFFFu;

/// ERRR codes (u32 on the wire; append-only like icg_status).
enum class WireErrorCode : std::uint32_t {
  None = 0,
  VersionMismatch = 1,  ///< peer's stream header / HELO version differs
  BadFrame = 2,         ///< CRC mismatch, oversized length, malformed payload, non-finite CHNK sample
  UnknownRecord = 3,    ///< unrecognized tag (a version-1 peer never sends one)
  UnknownStream = 4,    ///< record for a stream_id that was never opened
  DuplicateStream = 5,  ///< OPEN with a stream_id already in use
  Protocol = 6,         ///< record out of order (e.g. CHNK before HELO)
  TooManySessions = 7,  ///< server at max_sessions
  SlowConsumer = 8,     ///< receiver's outbound buffer bound exceeded
};

/// SHED reasons (u32 on the wire).
enum class ShedReason : std::uint32_t {
  TenantQueueFull = 1,  ///< per-stream pending bound hit while backpressured
};

/// HELO payload, symmetric (fields a side has no say over are zero).
struct Hello {
  std::uint32_t version = kWireVersion;
  std::uint32_t flags = 0;          ///< client: bit0 = want per-chunk CACKs
  std::uint32_t max_chunk = 0;      ///< server: fleet max chunk (samples)
  double fs_hz = 0.0;               ///< server: fleet sample rate
  std::uint32_t workers = 0;        ///< server: worker pool size
  std::uint32_t max_inflight = 0;   ///< server: per-stream pending-chunk bound
};
inline constexpr std::uint32_t kHelloWantAcks = 1u << 0;

/// STAR payload: the server's live counters.
struct ServerStats {
  std::uint64_t sessions_open = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t shed_chunks = 0;
  std::uint64_t total_samples = 0;
  std::uint64_t total_beats = 0;
};

/// One decoded record: its tag and a reader opened on it. The reader
/// has validated the frame (bounds, CRC) and stands at the first payload
/// byte; it aliases the decoder's buffer and stays valid only until the
/// next feed()/next() call. Read the payload through it, then close it
/// with end_record() before acting on anything read.
struct Frame {
  char tag[5] = {};
  core::StateReader reader = core::StateReader::continuation({});
};

/// Incremental frame decoder for one direction of one connection. Feed
/// it raw socket bytes; next() yields complete validated records. The
/// stream header (magic + version) is consumed and checked before the
/// first record. Violations throw WireError; an incomplete suffix is
/// simply "not yet" (next() returns false).
class FrameDecoder {
 public:
  /// `max_frame_bytes` bounds the accepted payload length — the defense
  /// against hostile length prefixes. Size it from the negotiated
  /// max_chunk (a CHNK is the largest legitimate record).
  explicit FrameDecoder(std::size_t max_frame_bytes) : max_frame_(max_frame_bytes) {}

  /// Appends raw bytes from the socket.
  void feed(const std::uint8_t* p, std::size_t n);

  /// Opens the next complete record, if the buffer holds one. The
  /// returned reader is valid until the next feed()/next().
  bool next(Frame& out);

  /// True once the stream header was seen and validated.
  [[nodiscard]] bool header_done() const { return header_done_; }

  /// Bytes buffered but not yet consumed (tests and flow-control).
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t max_frame_;
  bool header_done_ = false;
};

/// Closes a record read through its Frame's reader: the payload must be
/// consumed exactly (trailing bytes are as malformed as missing ones),
/// and the reader's first violation or decoder refusal is raised as
/// WireError.
void end_record(core::StateReader& r);

/// Appends the 8-byte stream header to `out` (each side sends it once,
/// immediately after connect/accept).
void write_stream_header(std::vector<std::uint8_t>& out);

/// Builds framed records into a caller-owned byte stream, recycling one
/// scratch buffer across records (the per-connection encode path stays
/// allocation-free once warm). Usage:
///   core::StateWriter& w = rb.begin(kTagBeat);
///   w.u32(stream); encode_beat(w, rec);
///   rb.finish(outbuf);
class RecordBuilder {
 public:
  core::StateWriter& begin(const char (&tag)[5]);
  /// Closes the record and appends its framed bytes to `out`.
  void finish(std::vector<std::uint8_t>& out);

 private:
  std::vector<std::uint8_t> scratch_;
  std::optional<core::StateWriter> writer_;
};

// --- payload codecs -------------------------------------------------------
//
// The decoders read their fields through the record's reader and record
// a refusal there (StateReader::fail); none of them closes the record.
// The caller reads whatever else the record carries (a stream id ahead
// of a BEAT or QUAL), then calls end_record() before using the result.

void encode_hello(core::StateWriter& w, const Hello& h);
Hello decode_hello(core::StateReader& r);

/// BEAT fields are exactly the determinism byte contract of
/// core::serialize_beat (delineation points, hemodynamics, flaws, RR) —
/// the diagnostic-only SignalQuality/ensemble fields stay host-side.
/// A decoded beat therefore re-serializes byte-identically, which is
/// what the loopback soak's zero-divergence check relies on.
void encode_beat(core::StateWriter& w, const core::BeatRecord& rec);
core::BeatRecord decode_beat(core::StateReader& r);

void encode_quality(core::StateWriter& w, const core::QualitySummary& q);
core::QualitySummary decode_quality(core::StateReader& r);

void encode_stats(core::StateWriter& w, const ServerStats& s);
ServerStats decode_stats(core::StateReader& r);

/// ERRR payload: code, stream id (kNoStream when connection-level),
/// u32-length-prefixed UTF-8 message.
void encode_error(core::StateWriter& w, WireErrorCode code, std::uint32_t stream,
                  const std::string& message);
struct WireErrorRecord {
  WireErrorCode code = WireErrorCode::None;
  std::uint32_t stream = kNoStream;
  std::string message;
};
WireErrorRecord decode_error(core::StateReader& r);

} // namespace icgkit::net
