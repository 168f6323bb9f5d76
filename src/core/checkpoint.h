// Session checkpoint/restore wire format: the long-lived state capture
// substrate the elastic fleet is built on.
//
// A checkpoint is a self-describing binary blob:
//
//   [magic u32 "ICGK"] [version u32] [section]*
//
// where every section is independently framed and integrity-checked:
//
//   [tag 4 bytes] [payload length u32] [payload] [CRC-32 of payload u32]
//
// Three streams use these frames, and StateWriter/StateReader are the
// only code that writes or parses them: checkpoint blobs, flight-record
// files (core/flight_recorder.h: one header, then continuation sections)
// and the network wire (net/wire.h: its own "ICGW" stream header, then
// one record per section, each opened by StateReader::continuation). So
// StateWriter::end_section and StateReader::begin_section alone decide
// what a frame's CRC covers, for all three.
//
// All multi-byte integers are little-endian regardless of host order;
// doubles travel as the IEEE-754 bit pattern of their value (u64). The
// format is therefore stable across architectures and compilers, and a
// blob saved by one process restores bit-exactly in another — the
// property the fleet's live migration and the round-trip fuzz CI job
// pin down.
//
// Integrity rules (enforced by StateReader, which reports the first
// violation by value — never raises, never UB — in every build):
//   - magic and version must match exactly (a version-N reader refuses
//     version-M blobs instead of guessing);
//   - a section's tag, length and CRC are validated *before* any payload
//     byte is handed to a kernel, so a corrupted or truncated blob fails
//     at the frame, not inside a loader;
//   - every read is bounds-checked against the current section; a loader
//     must consume its section exactly (end_section() verifies), so a
//     blob with missing or trailing state is rejected even when its CRC
//     is intact;
//   - structural parameters (ring capacities, kernel lengths, backend
//     tag) are written alongside the state and re-validated by each
//     loader against the restore target's construction-time shape, so a
//     blob can only be restored into an engine built with the same
//     configuration. A loader refuses through StateReader::fail() and
//     returns at once, so no refused value is ever used.
//
// The writer/reader primitives are deliberately duck-typed targets: the
// dsp/ecg streaming kernels serialize through `template <typename W>
// save_state(W&)` members, so the lower layers never include this
// header (no dsp -> core dependency cycle) while core composes them
// with the concrete StateWriter/StateReader below. LaneStateWriter, at
// the end, fans that one layout out to W per-lane blobs for the SIMD
// batch engine. Nothing reads a batch back: the fleet builds batches
// fresh and dissolves them into scalar sessions, so every blob is read
// by the plain StateReader.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "dsp/simd.h"
#include "support/contract.h"

namespace icgkit::core {

/// Any structural violation of a checkpoint blob: bad magic/version,
/// frame truncation, CRC mismatch, section over/under-consumption, or a
/// semantic mismatch a kernel loader reports via StateReader::fail().
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error("checkpoint: " + what) {}
};

/// "ICGK" read as a little-endian u32.
inline constexpr std::uint32_t kCheckpointMagic = 0x4B474349u;
/// Bump on any incompatible layout change; readers refuse other versions.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of `n` bytes.
std::uint32_t checkpoint_crc32(const std::uint8_t* data, std::size_t n);

/// The element types value() writes and reads: each travels as its own
/// sizeof(T) little-endian bytes, so an array of them is its wire layout
/// on a little-endian host (StateWriter::values, StateReader::values).
template <typename T>
inline constexpr bool kWireScalar =
    std::is_same_v<T, double> || std::is_same_v<T, std::int32_t> ||
    std::is_same_v<T, std::int64_t> || std::is_same_v<T, std::uint64_t> ||
    std::is_same_v<T, std::uint8_t>;

/// Serializes checkpoint state into the framed format above. Primitive
/// puts append little-endian bytes to the current section; sections are
/// opened/closed explicitly and may not nest. The magic/version header
/// is written at construction.
class StateWriter {
 public:
  /// Starts a blob, reusing `buf`'s capacity (the fleet's migration path
  /// hands each session's blob buffer back and forth so steady-state
  /// migrations do not allocate once warmed up).
  explicit StateWriter(std::vector<std::uint8_t> buf = {})
      : StateWriter(std::move(buf), /*header=*/true) {}

  /// A headerless writer that emits framed sections only, for appending
  /// to a stream whose magic/version header was already written (the
  /// flight recorder frames each incremental section into a reused
  /// scratch buffer and flushes it to a sink). Same reuse semantics as
  /// the normal constructor: `buf`'s capacity is recycled.
  [[nodiscard]] static StateWriter continuation(std::vector<std::uint8_t> buf = {}) {
    StateWriter w(std::move(buf), /*header=*/false);
    return w;
  }

  // -- primitives (little-endian, one store per value) --
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Appends `n` raw bytes verbatim — the escape hatch for embedding an
  /// already-serialized blob (a nested pipeline checkpoint inside a
  /// flight-record section) without re-framing it element by element.
  void bytes(const std::uint8_t* p, std::size_t n) { append(p, n); }

  // -- generic overloads, the targets the backend-templated kernels and
  //    dsp::RingBuffer write sample_t / acc_t / mark / index values
  //    through --
  void value(double v) { f64(v); }
  void value(std::int32_t v) { i32(v); }
  void value(std::int64_t v) { i64(v); }
  void value(std::uint64_t v) { u64(v); }
  void value(std::uint8_t v) { u8(v); }
  /// Appends every element of `v` as value() would, in order. On a
  /// little-endian host the in-memory array already IS the wire layout,
  /// so this is one bulk copy: ring contents, filter windows and the
  /// recorder's and wire's sample chunks, where an element-wise loop
  /// would dominate the cost of a save.
  template <typename T>
  void values(std::span<const T> v) {
    static_assert(kWireScalar<T>, "StateWriter::values: unsupported type");
    if constexpr (std::endian::native == std::endian::little) {
      append(reinterpret_cast<const std::uint8_t*>(v.data()), v.size_bytes());
    } else {
      for (const T x : v) value(x);
    }
  }

  /// Opens a section with a 4-character tag ("QRSD"). The length and CRC
  /// are patched in by end_section().
  void begin_section(const char (&tag)[5]) {
    if (section_start_ != kNone)
      ICGKIT_THROW(CheckpointError(std::string("section '") + tag + "' opened inside another"));
    buf_.insert(buf_.end(), tag, tag + 4);
    section_start_ = buf_.size();
    u32(0);  // length placeholder
  }

  void end_section() {
    if (section_start_ == kNone) ICGKIT_THROW(CheckpointError("end_section without a section"));
    const std::size_t payload_begin = section_start_ + 4;
    const std::size_t len = buf_.size() - payload_begin;
    for (int i = 0; i < 4; ++i)
      buf_[section_start_ + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    u32(checkpoint_crc32(buf_.data() + payload_begin, len));
    section_start_ = kNone;
  }

  /// Lane l's writer: the writer itself, since a plain blob holds one
  /// session (see core::LaneStateWriter for the W-lane fan-out).
  [[nodiscard]] StateWriter& lane_writer(std::size_t) { return *this; }

  /// The finished blob (all sections must be closed). Moves the buffer
  /// out; the writer is spent afterwards.
  [[nodiscard]] std::vector<std::uint8_t> take() {
    if (section_start_ != kNone) ICGKIT_THROW(CheckpointError("take() inside an open section"));
    return std::move(buf_);
  }

 private:
  StateWriter(std::vector<std::uint8_t> buf, bool header) : buf_(std::move(buf)) {
    buf_.clear();
    if (header) {
      u32(kCheckpointMagic);
      u32(kCheckpointVersion);
    }
  }

  /// Appends `v`'s little-endian bytes with one store.
  template <typename U>
  void put(U v) {
    std::uint8_t le[sizeof v];
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(le, &v, sizeof v);
    } else {
      for (std::size_t i = 0; i < sizeof v; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    append(le, sizeof v);
  }

  void append(const std::uint8_t* p, std::size_t n) { buf_.insert(buf_.end(), p, p + n); }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::uint8_t> buf_;
  std::size_t section_start_ = kNone;
};

/// Parses and validates a checkpoint blob. Construction checks the
/// magic/version header; begin_section() validates the frame (tag,
/// bounds, CRC) before any payload is readable; every primitive read is
/// bounds-checked. It never raises: the first violation, or the first
/// refusal a loader reports through fail(), is kept (ok() turns false,
/// error() holds the CheckpointError text). From then on every read
/// returns zero (false, an empty span, a zero-filled array) and moves
/// nothing, begin_section()/end_section() do nothing, and
/// peek_tag()/at_end() return false.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> blob)
      : StateReader(blob, /*header=*/true) {}

  /// A headerless reader over framed sections only, for a stream whose
  /// magic/version header was checked elsewhere (the wire's FrameDecoder
  /// opens each complete record with one). The counterpart of
  /// StateWriter::continuation; every other rule is the same.
  [[nodiscard]] static StateReader continuation(std::span<const std::uint8_t> sections) {
    return StateReader(sections, /*header=*/false);
  }

  [[nodiscard]] bool ok() const { return ok_; }
  /// The first violation's message; empty while ok().
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Records a refusal unless one is already kept. A kernel loader whose
  /// own check fails (ring capacity or kernel length differs from the
  /// restore target's) returns at once: `if (bad) return r.fail("...");`.
  /// Out of line, so the read paths that can refuse stay small.
  void fail(std::string_view msg);

  /// Opens the next section, which must carry exactly `tag`; validates
  /// the frame and the payload CRC before returning.
  void begin_section(const char (&tag)[5]) {
    if (!ok_) return;
    if (in_section_) return fail(std::string("section '") + tag + "' opened inside another");
    if (blob_.size() - pos_ < 8)
      return fail(std::string("truncated before section '") + tag + "'");
    if (std::memcmp(blob_.data() + pos_, tag, 4) != 0)
      return fail(std::string("expected section '") + tag + "', found '" +
                  std::string(reinterpret_cast<const char*>(blob_.data() + pos_), 4) + "'");
    pos_ += 4;
    const std::uint32_t len = u32_at_cursor("section length");
    // Subtraction form: `len + 4` could wrap where size_t is 32 bits,
    // letting a corrupted length field slip past the bounds check.
    const std::size_t remaining = blob_.size() - pos_;
    if (remaining < 4 || len > remaining - 4)
      return fail(std::string("section '") + tag + "' truncated");
    const auto stored = static_cast<std::uint32_t>(le(blob_.data() + pos_ + len, 4));
    if (stored != checkpoint_crc32(blob_.data() + pos_, len))
      return fail(std::string("section '") + tag + "' CRC mismatch");
    section_end_ = pos_ + len;
    in_section_ = true;
  }

  /// Closes the current section; the loader must have consumed exactly
  /// its payload (missing state is as fatal as trailing state).
  void end_section() {
    if (!ok_) return;
    if (!in_section_) return fail("end_section without a section");
    if (pos_ != section_end_)
      return fail("section not fully consumed (" + std::to_string(section_end_ - pos_) +
                  " bytes left)");
    pos_ += 4;  // the validated CRC
    in_section_ = false;
  }

  [[nodiscard]] bool at_end() const { return ok_ && !in_section_ && pos_ == blob_.size(); }

  /// Copies the next section's 4-character tag into `out` (NUL-padded)
  /// without consuming it, so a reader of a heterogeneous stream (the
  /// flight-record file interleaves chunk and checkpoint sections) can
  /// dispatch before committing to begin_section(). Returns false at a
  /// clean end of the blob and on a violation (one is recorded if bytes
  /// remain but too few for a section header); ok() tells them apart.
  [[nodiscard]] bool peek_tag(char (&out)[5]) {
    if (!ok_ || pos_ == blob_.size()) return false;
    if (in_section_ || blob_.size() - pos_ < 8) {
      fail(in_section_ ? "peek_tag inside a section" : "truncated section header");
      return false;
    }
    std::memcpy(out, blob_.data() + pos_, 4);
    out[4] = '\0';
    return true;
  }

  // -- primitives --
  std::uint8_t u8() { return static_cast<std::uint8_t>(le(take_bytes(1), 1)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(take_bytes(4), 4)); }
  std::uint64_t u64() { return le(take_bytes(8), 8); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// values() over the `n` doubles at `out`.
  void f64_array(double* out, std::size_t n) { values(std::span<double>(out, n)); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail("boolean byte is neither 0 nor 1");
    return v == 1;
  }
  /// A bounds-checked view of the next `n` raw payload bytes (the
  /// counterpart of StateWriter::bytes). The span aliases the blob — it
  /// stays valid only as long as the blob the reader was built over.
  [[nodiscard]] std::span<const std::uint8_t> bytes(std::size_t n) {
    const std::uint8_t* p = take_bytes(n);
    return {p, p != nullptr ? n : 0};
  }

  /// Typed read for backend-templated kernels (sample_t / acc_t) and
  /// dsp::RingBuffer elements.
  template <typename T>
  T value() {
    if constexpr (std::is_same_v<T, double>) return f64();
    else if constexpr (std::is_same_v<T, std::int32_t>) return i32();
    else if constexpr (std::is_same_v<T, std::int64_t>) return i64();
    else if constexpr (std::is_same_v<T, std::uint64_t>) return u64();
    else if constexpr (std::is_same_v<T, std::uint8_t>) return u8();
    else static_assert(sizeof(T) == 0, "StateReader::value: unsupported type");
  }

  /// Fills `out` with the next out.size() values, as value<T>() would
  /// read them one by one (the counterpart of StateWriter::values): one
  /// bounds check for the whole span, then one memcpy on a little-endian
  /// host. A refused read zero-fills `out`.
  template <typename T>
  void values(std::span<T> out) {
    static_assert(kWireScalar<T>, "StateReader::values: unsupported type");
    if (out.empty()) return;
    const std::uint8_t* p = take_bytes(out.size_bytes());
    if (p == nullptr) {
      std::fill(out.begin(), out.end(), T{});
    } else if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out.data(), p, out.size_bytes());
    } else {
      for (std::size_t i = 0; i < out.size(); ++i) {
        const std::uint64_t bits = le(p + i * sizeof(T), sizeof(T));
        if constexpr (std::is_same_v<T, double>) out[i] = std::bit_cast<double>(bits);
        else out[i] = static_cast<T>(bits);
      }
    }
  }

  /// Bytes left in the current section — the bound loaders use to reject
  /// absurd element counts before allocating.
  [[nodiscard]] std::size_t section_remaining() const {
    return ok_ && in_section_ ? section_end_ - pos_ : 0;
  }

 private:
  StateReader(std::span<const std::uint8_t> blob, bool header) : blob_(blob) {
    if (!header) return;
    if (u32_at_cursor("magic") != kCheckpointMagic) {
      fail("bad magic (not a checkpoint blob)");
    } else if (const std::uint32_t version = u32_at_cursor("version");
               version != kCheckpointVersion) {
      fail("unsupported format version " + std::to_string(version) + " (reader supports " +
           std::to_string(kCheckpointVersion) + ")");
    }
  }

  /// The `n`-byte (n <= 8) little-endian integer at `p`; 0 for a
  /// refused read.
  static std::uint64_t le(const std::uint8_t* p, std::size_t n) {
    std::uint64_t v = 0;
    if (p == nullptr) return v;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(&v, p, n);
    } else {
      while (n-- > 0) v = (v << 8) | p[n];
    }
    return v;
  }
  std::uint32_t u32_at_cursor(const char* what) {
    if (blob_.size() - pos_ < 4) {
      fail(std::string("truncated reading ") + what);
      return 0;
    }
    pos_ += 4;
    return static_cast<std::uint32_t>(le(blob_.data() + pos_ - 4, 4));
  }
  const std::uint8_t* take_bytes(std::size_t n) {
    if (!ok_) return nullptr;
    const std::size_t limit = in_section_ ? section_end_ : blob_.size();
    if (limit - pos_ < n) [[unlikely]] {
      fail("read past end of section");
      return nullptr;
    }
    const std::uint8_t* p = blob_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::span<const std::uint8_t> blob_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  bool in_section_ = false;
  bool ok_ = true;
  std::string error_;
};

/// StateWriter fan-out for batched kernels: uniform fields (counters,
/// flags, configuration) broadcast to all W per-lane writers; LaneVec
/// values scatter one scalar per lane. Per-lane state
/// (BatchStreamingExtremum's deques, the QRS decision tails, the beat
/// assemblers' sections) goes to a single lane's writer via
/// lane_writer() in the plain scalar layout. The
/// result: W independent byte streams, each exactly the scalar kernel's
/// wire format.
template <std::size_t W>
class LaneStateWriter {
 public:
  /// `lanes` must point at W writers outliving this adaptor.
  explicit LaneStateWriter(StateWriter* lanes) : lanes_(lanes) {}

  void u8(std::uint8_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u8(v); }
  void u32(std::uint32_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u32(v); }
  void u64(std::uint64_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].u64(v); }
  void i32(std::int32_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].i32(v); }
  void i64(std::int64_t v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].i64(v); }
  void f64(double v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].f64(v); }
  void boolean(bool v) { for (std::size_t l = 0; l < W; ++l) lanes_[l].boolean(v); }

  void value(const dsp::LaneVec<W>& v) {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].value(v.lane(l));
  }
  void values(std::span<const dsp::LaneVec<W>> v) {
    for (const dsp::LaneVec<W>& x : v) value(x);
  }

  void begin_section(const char (&tag)[5]) {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].begin_section(tag);
  }
  void end_section() {
    for (std::size_t l = 0; l < W; ++l) lanes_[l].end_section();
  }

  [[nodiscard]] StateWriter& lane_writer(std::size_t l) { return lanes_[l]; }

 private:
  StateWriter* lanes_;
};

} // namespace icgkit::core
