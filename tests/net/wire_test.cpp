// Hostile wire input: the refusal contract of FrameDecoder and of the
// core::StateReader it opens each record with.
//
// Every structurally invalid byte stream — truncated frames, flipped
// CRC bytes, oversized length prefixes, bad magic, wrong versions,
// malformed payloads — must raise WireError, never UB. This binary
// runs under the Debug ASan/UBSan CI entry, which is what turns "reads
// past the buffer" from a latent bug into a test failure. A v1
// transcript pins the wire's bytes.
#include "net/wire.h"

#include "core/beat_serializer.h"
#include "core/flight_recorder.h"
#include "core/pipeline.h"
#include "common/restamp.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace {

using namespace icgkit;
using net::Frame;
using net::FrameDecoder;
using net::RecordBuilder;
using net::WireError;

constexpr std::size_t kBound = 1 << 16;

/// One framed HELO record preceded by the stream header.
std::vector<std::uint8_t> hello_stream() {
  std::vector<std::uint8_t> out;
  net::write_stream_header(out);
  RecordBuilder rb;
  net::Hello h;
  h.flags = net::kHelloWantAcks;
  h.max_chunk = 64;
  h.fs_hz = 250.0;
  net::encode_hello(rb.begin(net::kTagHello), h);
  rb.finish(out);
  return out;
}

/// The stream header and one `tag` record carrying `payload` verbatim
/// under a valid CRC: how a test frames a lying payload.
std::vector<std::uint8_t> record_stream(const char (&tag)[5],
                                        const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  net::write_stream_header(out);
  RecordBuilder rb;
  rb.begin(tag).bytes(payload.data(), payload.size());
  rb.finish(out);
  return out;
}

/// Feeds `stream` to `dec` and opens its first record into `f`.
void open_first(FrameDecoder& dec, const std::vector<std::uint8_t>& stream, Frame& f) {
  dec.feed(stream.data(), stream.size());
  ASSERT_TRUE(dec.next(f));
}

TEST(WireTest, RoundTripsAFrame) {
  const auto bytes = hello_stream();
  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  ASSERT_TRUE(dec.next(f));
  EXPECT_STREQ(f.tag, net::kTagHello);
  const net::Hello h = net::decode_hello(f.reader);
  net::end_record(f.reader);
  EXPECT_EQ(h.version, net::kWireVersion);
  EXPECT_EQ(h.flags, net::kHelloWantAcks);
  EXPECT_EQ(h.max_chunk, 64u);
  EXPECT_EQ(h.fs_hz, 250.0);
  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(WireTest, ByteAtATimeFeedingReassembles) {
  const auto bytes = hello_stream();
  FrameDecoder dec(kBound);
  Frame f;
  std::size_t frames = 0;
  for (const std::uint8_t b : bytes) {
    dec.feed(&b, 1);
    while (dec.next(f)) ++frames;
  }
  EXPECT_EQ(frames, 1u);
}

TEST(WireTest, TruncatedFrameIsSimplyIncomplete) {
  const auto bytes = hello_stream();
  // Every proper prefix yields no frame and no error — a connection
  // dying mid-frame is a non-event, not a parse.
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec(kBound);
    dec.feed(bytes.data(), cut);
    Frame f;
    EXPECT_FALSE(dec.next(f)) << "cut at " << cut;
  }
}

TEST(WireTest, FlippedBytesAreRefused) {
  const auto pristine = hello_stream();
  // Flip one bit in every byte position past the stream header: either
  // the tag/length header no longer parses into a valid frame, the CRC
  // refuses it, or (length bytes) the bound refuses it. Never UB.
  std::size_t crc_refusals = 0;
  for (std::size_t i = 8; i < pristine.size(); ++i) {
    auto bytes = pristine;
    bytes[i] ^= 0x40;
    FrameDecoder dec(kBound);
    Frame f;
    try {
      dec.feed(bytes.data(), bytes.size());
      if (dec.next(f)) {
        // A corrupted tag byte still frames correctly (the tag is
        // opaque to the decoder); everything else must not.
        EXPECT_LT(i, 12u) << "undetected flip at offset " << i;
      }
    } catch (const WireError&) {
      ++crc_refusals;
    }
  }
  EXPECT_GT(crc_refusals, 0u);
}

TEST(WireTest, FlippedCrcByteIsRefused) {
  auto bytes = hello_stream();
  bytes.back() ^= 0x01;  // last byte of the trailing CRC-32
  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_THROW(dec.next(f), WireError);
}

TEST(WireTest, OversizedLengthPrefixIsRefusedBeforeBuffering) {
  std::vector<std::uint8_t> bytes;
  net::write_stream_header(bytes);
  bytes.insert(bytes.end(), {'C', 'H', 'N', 'K'});
  // 4 GiB length prefix: must be refused from the 8-byte header alone,
  // without waiting for (or allocating toward) the payload.
  for (const std::uint8_t b : {0xFF, 0xFF, 0xFF, 0xFF}) bytes.push_back(b);
  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_THROW(dec.next(f), WireError);
}

TEST(WireTest, BadMagicIsRefused) {
  auto bytes = hello_stream();
  bytes[0] = 'X';
  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_THROW(dec.next(f), WireError);
}

TEST(WireTest, WrongStreamVersionIsRefused) {
  auto bytes = hello_stream();
  bytes[4] = 99;  // stream-header version field
  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_THROW(dec.next(f), WireError);
}

TEST(WireTest, PayloadReaderBoundsEveryRead) {
  // A record's reader bounds every read by its payload: a read past the
  // end reads zero and is kept, and end_record() raises it, as it does
  // for bytes left unread.
  const auto four = record_stream(net::kTagClose, {1, 2, 3, 4});
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, four, f);
    EXPECT_EQ(f.reader.u32(), 0x04030201u);
    EXPECT_NO_THROW(net::end_record(f.reader));
  }
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, four, f);
    EXPECT_EQ(f.reader.u32(), 0x04030201u);
    EXPECT_EQ(f.reader.u8(), 0u);  // exhausted
    EXPECT_THROW(net::end_record(f.reader), WireError);
  }
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, four, f);
    EXPECT_EQ(f.reader.u64(), 0u);  // 8 > 4
    EXPECT_THROW(net::end_record(f.reader), WireError);
  }
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, four, f);
    double d[2] = {1.0, 1.0};
    f.reader.f64_array(d, 2);
    EXPECT_EQ(d[0], 0.0);
    EXPECT_THROW(net::end_record(f.reader), WireError);
  }
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, four, f);
    f.reader.u8();
    EXPECT_THROW(net::end_record(f.reader), WireError);  // 3 trailing bytes
  }
}

TEST(WireTest, MalformedBeatPayloadIsRefused) {
  // A structurally valid frame whose BEAT payload lies about its enum
  // and bool fields must be refused by the codec, not cast blindly.
  core::BeatRecord rec;
  rec.points.valid = true;
  core::StateWriter w = core::StateWriter::continuation();
  net::encode_beat(w, rec);
  const std::vector<std::uint8_t> payload = w.take();
  {
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, record_stream(net::kTagBeat, payload), f);
    const core::BeatRecord back = net::decode_beat(f.reader);
    net::end_record(f.reader);
    EXPECT_TRUE(back.points.valid);
  }

  // Corrupt the b_method u32 (offset 40 in the payload: five u64s), then
  // the valid byte (after b_method and the f64 C amplitude).
  for (const std::size_t at : {std::size_t{40}, std::size_t{52}}) {
    std::vector<std::uint8_t> evil = payload;
    evil[at] = 7;
    FrameDecoder dec(kBound);
    Frame f;
    open_first(dec, record_stream(net::kTagBeat, evil), f);
    net::decode_beat(f.reader);
    EXPECT_THROW(net::end_record(f.reader), WireError) << "byte " << at;
  }
}

TEST(WireTest, TruncatedErrorMessageIsRefused) {
  core::StateWriter w = core::StateWriter::continuation();
  net::encode_error(w, net::WireErrorCode::BadFrame, net::kNoStream, "boom");
  std::vector<std::uint8_t> evil = w.take();
  // Claim a message longer than the payload carries.
  evil[8] = 0xFF;  // message-length u32 low byte (code u32 + stream u32 first)
  FrameDecoder dec(kBound);
  Frame f;
  open_first(dec, record_stream(net::kTagError, evil), f);
  net::decode_error(f.reader);
  EXPECT_THROW(net::end_record(f.reader), WireError);
}

TEST(WireTest, BeatCodecPreservesSerializeBeatBytes) {
  // The wire BEAT codec carries exactly the canonical determinism
  // fields: encode -> decode -> serialize_beat must be byte-identical
  // to serialize_beat on the original.
  core::BeatRecord rec;
  rec.points = {101, 113, 127, 160, 110, core::BPointMethod::ZeroCrossing, -0.25, true};
  rec.hemo = {0.1, 0.3, 62.5, 1.5, 80.0, 75.0, 5.0, 25.0};
  rec.flaws = static_cast<core::BeatFlaw>(0b101);
  rec.rr_s = 0.96;

  RecordBuilder rb;
  std::vector<std::uint8_t> framed;
  net::write_stream_header(framed);
  net::encode_beat(rb.begin(net::kTagBeat), rec);
  rb.finish(framed);

  FrameDecoder dec(kBound);
  dec.feed(framed.data(), framed.size());
  Frame f;
  ASSERT_TRUE(dec.next(f));
  const core::BeatRecord back = net::decode_beat(f.reader);
  net::end_record(f.reader);

  std::vector<unsigned char> a, b;
  core::serialize_beat(rec, a);
  core::serialize_beat(back, b);
  EXPECT_EQ(a, b);
}

TEST(WireTest, QualityAndStatsCodecsRoundTrip) {
  core::QualitySummary q;
  q.beats = 120;
  q.usable = 100;
  q.flaw_counts[2] = 7;
  q.snr_beats = 90;
  q.sum_snr_db = 1234.5;
  q.min_snr_db = 3.25;

  net::ServerStats st;
  st.sessions_open = 3;
  st.sessions_closed = 97;
  st.migrations = 5;
  st.shed_chunks = 11;
  st.total_samples = 1u << 20;
  st.total_beats = 4242;

  RecordBuilder rb;
  std::vector<std::uint8_t> framed;
  net::write_stream_header(framed);
  net::encode_quality(rb.begin(net::kTagQuality), q);
  rb.finish(framed);
  net::encode_stats(rb.begin(net::kTagStatReply), st);
  rb.finish(framed);

  FrameDecoder dec(kBound);
  dec.feed(framed.data(), framed.size());
  Frame f;
  ASSERT_TRUE(dec.next(f));
  {
    const core::QualitySummary back = net::decode_quality(f.reader);
    net::end_record(f.reader);
    EXPECT_TRUE(core::summaries_identical(q, back));
  }
  ASSERT_TRUE(dec.next(f));
  {
    const net::ServerStats back = net::decode_stats(f.reader);
    net::end_record(f.reader);
    EXPECT_EQ(back.sessions_closed, 97u);
    EXPECT_EQ(back.migrations, 5u);
    EXPECT_EQ(back.shed_chunks, 11u);
    EXPECT_EQ(back.total_samples, 1u << 20);
    EXPECT_EQ(back.total_beats, 4242u);
  }
}

// ---------------------------------------------------------------------------
// The v1 transcript: the stream header, one record per shared codec and a
// 64-sample CHNK, all from fixed values. Its length and CRC-32 pin the
// version-1 bytes: a change to them is a wire format change, which bumps
// kWireVersion and these constants together.
// ---------------------------------------------------------------------------

constexpr std::size_t kV1TranscriptBytes = 1477;
constexpr std::uint32_t kV1TranscriptCrc = 0x23025743u;

constexpr std::uint32_t kStream = 7;
constexpr std::uint32_t kChunkSamples = 64;

net::Hello transcript_hello() {
  net::Hello h;
  h.flags = net::kHelloWantAcks;
  h.max_chunk = 64;
  h.fs_hz = 250.0;
  h.workers = 4;
  h.max_inflight = 8;
  return h;
}

core::BeatRecord transcript_beat() {
  core::BeatRecord rec;
  rec.points = {101, 113, 127, 160, 110, core::BPointMethod::ZeroCrossing, -0.25, true};
  rec.hemo = {0.1, 0.3, 62.5, 1.5, 80.0, 75.0, 5.0, 25.0};
  rec.flaws = static_cast<core::BeatFlaw>(0b101);
  rec.rr_s = 0.96;
  return rec;
}

core::QualitySummary transcript_quality() {
  core::QualitySummary q;
  q.beats = 120;
  q.usable = 100;
  q.flaw_counts[2] = 7;
  q.ecg_dropouts = 2;
  q.detector_resets = 1;
  q.snr_beats = 90;
  q.sum_snr_db = 1234.5;
  q.min_snr_db = 3.25;
  return q;
}

net::ServerStats transcript_stats() {
  net::ServerStats s;
  s.sessions_open = 3;
  s.sessions_closed = 97;
  s.migrations = 5;
  s.shed_chunks = 11;
  s.total_samples = 1u << 20;
  s.total_beats = 4242;
  return s;
}

// Dyadic sample values: exact however the compiler evaluates them.
double transcript_ecg(std::size_t i) { return (static_cast<double>(i) - 32.0) / 64.0; }
double transcript_z(std::size_t i) { return 25.0 + static_cast<double>(i) / 128.0; }

std::vector<std::uint8_t> v1_transcript() {
  std::vector<std::uint8_t> out;
  net::write_stream_header(out);
  RecordBuilder rb;
  net::encode_hello(rb.begin(net::kTagHello), transcript_hello());
  rb.finish(out);
  core::StateWriter& beat = rb.begin(net::kTagBeat);
  beat.u32(kStream);
  net::encode_beat(beat, transcript_beat());
  rb.finish(out);
  core::StateWriter& qual = rb.begin(net::kTagQuality);
  qual.u32(kStream);
  net::encode_quality(qual, transcript_quality());
  rb.finish(out);
  net::encode_stats(rb.begin(net::kTagStatReply), transcript_stats());
  rb.finish(out);
  net::encode_error(rb.begin(net::kTagError), net::WireErrorCode::UnknownStream, kStream,
                    "CHNK");
  rb.finish(out);
  core::StateWriter& chunk = rb.begin(net::kTagChunk);
  chunk.u32(kStream);
  chunk.u32(kChunkSamples);
  for (std::size_t i = 0; i < kChunkSamples; ++i) chunk.f64(transcript_ecg(i));
  for (std::size_t i = 0; i < kChunkSamples; ++i) chunk.f64(transcript_z(i));
  rb.finish(out);
  return out;
}

TEST(WireTest, V1TranscriptIsPinnedAndDecodes) {
  ASSERT_EQ(net::kWireVersion, 1u);
  const std::vector<std::uint8_t> bytes = v1_transcript();
  EXPECT_EQ(bytes.size(), kV1TranscriptBytes);
  EXPECT_EQ(core::checkpoint_crc32(bytes.data(), bytes.size()), kV1TranscriptCrc);

  FrameDecoder dec(kBound);
  dec.feed(bytes.data(), bytes.size());
  Frame f;

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagHello);
  {
    const net::Hello h = net::decode_hello(f.reader);
    net::end_record(f.reader);
    EXPECT_EQ(h.version, net::kWireVersion);
    EXPECT_EQ(h.flags, net::kHelloWantAcks);
    EXPECT_EQ(h.max_chunk, 64u);
    EXPECT_EQ(h.fs_hz, 250.0);
    EXPECT_EQ(h.workers, 4u);
    EXPECT_EQ(h.max_inflight, 8u);
  }

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagBeat);
  {
    EXPECT_EQ(f.reader.u32(), kStream);
    const core::BeatRecord back = net::decode_beat(f.reader);
    net::end_record(f.reader);
    std::vector<unsigned char> a, b;
    core::serialize_beat(transcript_beat(), a);
    core::serialize_beat(back, b);
    EXPECT_EQ(a, b);
  }

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagQuality);
  {
    EXPECT_EQ(f.reader.u32(), kStream);
    const core::QualitySummary back = net::decode_quality(f.reader);
    net::end_record(f.reader);
    EXPECT_TRUE(core::summaries_identical(transcript_quality(), back));
  }

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagStatReply);
  {
    const net::ServerStats s = net::decode_stats(f.reader);
    net::end_record(f.reader);
    const net::ServerStats want = transcript_stats();
    EXPECT_EQ(s.sessions_open, want.sessions_open);
    EXPECT_EQ(s.sessions_closed, want.sessions_closed);
    EXPECT_EQ(s.migrations, want.migrations);
    EXPECT_EQ(s.shed_chunks, want.shed_chunks);
    EXPECT_EQ(s.total_samples, want.total_samples);
    EXPECT_EQ(s.total_beats, want.total_beats);
  }

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagError);
  {
    const net::WireErrorRecord e = net::decode_error(f.reader);
    net::end_record(f.reader);
    EXPECT_EQ(e.code, net::WireErrorCode::UnknownStream);
    EXPECT_EQ(e.stream, kStream);
    EXPECT_EQ(e.message, "CHNK");
  }

  ASSERT_TRUE(dec.next(f));
  ASSERT_STREQ(f.tag, net::kTagChunk);
  {
    EXPECT_EQ(f.reader.u32(), kStream);
    ASSERT_EQ(f.reader.u32(), kChunkSamples);
    std::vector<double> ecg(kChunkSamples), z(kChunkSamples);
    f.reader.f64_array(ecg.data(), ecg.size());
    f.reader.f64_array(z.data(), z.size());
    net::end_record(f.reader);
    for (std::size_t i = 0; i < kChunkSamples; ++i) {
      EXPECT_EQ(ecg[i], transcript_ecg(i)) << i;
      EXPECT_EQ(z[i], transcript_z(i)) << i;
    }
  }

  EXPECT_FALSE(dec.next(f));
  EXPECT_EQ(dec.buffered(), 0u);
}

/// Reads one transcript record through the public decoders and closes
/// it, so any refusal surfaces as WireError.
void decode_record(Frame& f) {
  core::StateReader& r = f.reader;
  if (std::strcmp(f.tag, net::kTagHello) == 0) {
    net::decode_hello(r);
  } else if (std::strcmp(f.tag, net::kTagBeat) == 0) {
    r.u32();
    net::decode_beat(r);
  } else if (std::strcmp(f.tag, net::kTagQuality) == 0) {
    r.u32();
    net::decode_quality(r);
  } else if (std::strcmp(f.tag, net::kTagStatReply) == 0) {
    net::decode_stats(r);
  } else if (std::strcmp(f.tag, net::kTagError) == 0) {
    net::decode_error(r);
  }
  net::end_record(r);
}

TEST(WireTest, EveryRestampedPayloadByteDecodesOrIsRefused) {
  // The wire twin of CheckpointRestampTest: each payload byte of each
  // record the public decoders read takes every other value under a
  // re-stamped CRC, so the frame checks pass and the decoders' own
  // checks see the edit. Each case decodes or raises WireError.
  const std::vector<std::uint8_t> transcript = v1_transcript();
  std::size_t decoded = 0, refused = 0;
  for (const test::BlobSection& sec : test::blob_sections(transcript)) {
    if (sec.tag == net::kTagChunk) continue;  // no public decoder
    // The stream header and this one record.
    std::vector<std::uint8_t> record(transcript.begin(), transcript.begin() + 8);
    record.insert(record.end(),
                  transcript.begin() + static_cast<std::ptrdiff_t>(sec.payload - 8),
                  transcript.begin() + static_cast<std::ptrdiff_t>(sec.payload + sec.len + 4));
    for (std::size_t off = 0; off < sec.len; ++off) {
      for (unsigned mask = 1; mask < 256; ++mask) {
        const std::vector<std::uint8_t> bytes =
            test::restamped(record, sec.tag, off, static_cast<std::uint8_t>(mask));
        FrameDecoder dec(kBound);
        dec.feed(bytes.data(), bytes.size());
        Frame f;
        try {
          ASSERT_TRUE(dec.next(f)) << sec.tag << " byte " << off;
          decode_record(f);
          ++decoded;
        } catch (const WireError&) {
          ++refused;
        }
      }
    }
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

} // namespace
