#include "net/wire.h"

namespace icgkit::net {

namespace {

std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

// ---------------------------------------------------------------------------
// FrameDecoder
// ---------------------------------------------------------------------------

void FrameDecoder::feed(const std::uint8_t* p, std::size_t n) {
  // Compact before growing: the previous next() results are dead by
  // contract, so the consumed prefix can be dropped and the buffer's
  // steady-state size stays bounded by one partial frame.
  if (pos_ > 0) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), p, p + n);
}

bool FrameDecoder::next(Frame& out) {
  if (!header_done_) {
    if (buf_.size() - pos_ < 8) return false;
    if (le32(buf_.data() + pos_) != kWireMagic)
      throw WireError("bad magic (not an icgkit wire stream)");
    const std::uint32_t version = le32(buf_.data() + pos_ + 4);
    if (version != kWireVersion)
      throw WireError("unsupported wire version " + std::to_string(version) +
                      " (this side speaks " + std::to_string(kWireVersion) + ")");
    pos_ += 8;
    header_done_ = true;
  }
  const std::size_t avail = buf_.size() - pos_;
  if (avail < 8) return false;
  const std::uint32_t len = le32(buf_.data() + pos_ + 4);
  // Refuse the length before waiting for it: a hostile 4 GiB prefix
  // must not make the decoder buffer toward it.
  if (len > max_frame_)
    throw WireError("frame length " + std::to_string(len) + " exceeds bound " +
                    std::to_string(max_frame_));
  const std::size_t frame = 8 + static_cast<std::size_t>(len) + 4;
  if (avail < frame) return false;
  // The reader validates bounds and CRC here, before the caller
  // dispatches on the tag. A complete frame always has a tag to peek.
  out.reader = core::StateReader::continuation({buf_.data() + pos_, frame});
  if (out.reader.peek_tag(out.tag)) out.reader.begin_section(out.tag);
  if (!out.reader.ok()) throw WireError(out.reader.error());
  pos_ += frame;
  return true;
}

void end_record(core::StateReader& r) {
  r.end_section();
  if (!r.ok()) throw WireError(r.error());
}

// ---------------------------------------------------------------------------
// Stream header / RecordBuilder
// ---------------------------------------------------------------------------

void write_stream_header(std::vector<std::uint8_t>& out) {
  for (const std::uint32_t v : {kWireMagic, kWireVersion})
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

core::StateWriter& RecordBuilder::begin(const char (&tag)[5]) {
  writer_.emplace(core::StateWriter::continuation(std::move(scratch_)));
  writer_->begin_section(tag);
  return *writer_;
}

void RecordBuilder::finish(std::vector<std::uint8_t>& out) {
  if (!writer_.has_value()) throw WireError("RecordBuilder::finish without begin");
  writer_->end_section();
  scratch_ = writer_->take();
  writer_.reset();
  out.insert(out.end(), scratch_.begin(), scratch_.end());
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

void encode_hello(core::StateWriter& w, const Hello& h) {
  w.u32(h.version);
  w.u32(h.flags);
  w.u32(h.max_chunk);
  w.f64(h.fs_hz);
  w.u32(h.workers);
  w.u32(h.max_inflight);
}

Hello decode_hello(core::StateReader& r) {
  Hello h;
  h.version = r.u32();
  h.flags = r.u32();
  h.max_chunk = r.u32();
  h.fs_hz = r.f64();
  h.workers = r.u32();
  h.max_inflight = r.u32();
  return h;
}

void encode_beat(core::StateWriter& w, const core::BeatRecord& rec) {
  w.u64(rec.points.r);
  w.u64(rec.points.b);
  w.u64(rec.points.c);
  w.u64(rec.points.x);
  w.u64(rec.points.b0);
  w.u32(static_cast<std::uint32_t>(rec.points.b_method));
  w.f64(rec.points.c_amplitude);
  w.boolean(rec.points.valid);
  w.f64(rec.hemo.pep_s);
  w.f64(rec.hemo.lvet_s);
  w.f64(rec.hemo.hr_bpm);
  w.f64(rec.hemo.dzdt_max);
  w.f64(rec.hemo.sv_kubicek_ml);
  w.f64(rec.hemo.sv_sramek_ml);
  w.f64(rec.hemo.co_kubicek_l_min);
  w.f64(rec.hemo.tfc_per_kohm);
  w.u32(static_cast<std::uint32_t>(rec.flaws));
  w.f64(rec.rr_s);
}

core::BeatRecord decode_beat(core::StateReader& r) {
  core::BeatRecord rec;
  rec.points.r = static_cast<std::size_t>(r.u64());
  rec.points.b = static_cast<std::size_t>(r.u64());
  rec.points.c = static_cast<std::size_t>(r.u64());
  rec.points.x = static_cast<std::size_t>(r.u64());
  rec.points.b0 = static_cast<std::size_t>(r.u64());
  if (const std::uint32_t method = r.u32(); method > 1)
    r.fail("BEAT b_method out of range");
  else
    rec.points.b_method = static_cast<core::BPointMethod>(method);
  rec.points.c_amplitude = r.f64();
  rec.points.valid = r.boolean();
  rec.hemo.pep_s = r.f64();
  rec.hemo.lvet_s = r.f64();
  rec.hemo.hr_bpm = r.f64();
  rec.hemo.dzdt_max = r.f64();
  rec.hemo.sv_kubicek_ml = r.f64();
  rec.hemo.sv_sramek_ml = r.f64();
  rec.hemo.co_kubicek_l_min = r.f64();
  rec.hemo.tfc_per_kohm = r.f64();
  rec.flaws = static_cast<core::BeatFlaw>(r.u32());
  rec.rr_s = r.f64();
  return rec;
}

void encode_quality(core::StateWriter& w, const core::QualitySummary& q) { q.save_state(w); }

core::QualitySummary decode_quality(core::StateReader& r) {
  core::QualitySummary q;
  q.load_state(r);
  return q;
}

void encode_stats(core::StateWriter& w, const ServerStats& s) {
  w.u64(s.sessions_open);
  w.u64(s.sessions_closed);
  w.u64(s.migrations);
  w.u64(s.shed_chunks);
  w.u64(s.total_samples);
  w.u64(s.total_beats);
}

ServerStats decode_stats(core::StateReader& r) {
  ServerStats s;
  s.sessions_open = r.u64();
  s.sessions_closed = r.u64();
  s.migrations = r.u64();
  s.shed_chunks = r.u64();
  s.total_samples = r.u64();
  s.total_beats = r.u64();
  return s;
}

void encode_error(core::StateWriter& w, WireErrorCode code, std::uint32_t stream,
                  const std::string& message) {
  w.u32(static_cast<std::uint32_t>(code));
  w.u32(stream);
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes(reinterpret_cast<const std::uint8_t*>(message.data()), message.size());
}

WireErrorRecord decode_error(core::StateReader& r) {
  WireErrorRecord e;
  e.code = static_cast<WireErrorCode>(r.u32());
  e.stream = r.u32();
  const auto b = r.bytes(r.u32());
  e.message.assign(b.begin(), b.end());
  return e;
}

} // namespace icgkit::net
