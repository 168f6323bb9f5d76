#include "core/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <utility>

namespace icgkit::core {

namespace {

/// Serialized size of one BeatRecord in the canonical beat byte form —
/// measured once from serialize_beat itself so the two can never drift.
std::size_t beat_record_bytes() {
  static const std::size_t n = [] {
    std::vector<unsigned char> v;
    serialize_beat(BeatRecord{}, v);
    return v.size();
  }();
  return n;
}

void serialize_beats(std::span<const BeatRecord> beats,
                     std::vector<unsigned char>& out) {
  out.clear();
  for (const BeatRecord& rec : beats) serialize_beat(rec, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// FileRecorderSink

struct FileRecorderSink::Impl {
  std::ofstream out;
  std::string path;
};

FileRecorderSink::FileRecorderSink(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) {
    delete impl_;
    ICGKIT_THROW(CheckpointError("cannot open flight record file '" + path + "'"));
  }
}

FileRecorderSink::~FileRecorderSink() { delete impl_; }

void FileRecorderSink::write(const std::uint8_t* data, std::size_t n) {
  impl_->out.write(reinterpret_cast<const char*>(data),
                   static_cast<std::streamsize>(n));
  if (!impl_->out)
    ICGKIT_THROW(CheckpointError("short write to flight record file '" +
                                 impl_->path + "'"));
}

void FileRecorderSink::flush() {
  impl_->out.flush();
  if (!impl_->out)
    ICGKIT_THROW(CheckpointError("flush failed on flight record file '" +
                                 impl_->path + "'"));
}

// ---------------------------------------------------------------------------
// FlightRecorder

void FlightRecorder::flush_scratch(StateWriter&& w) {
  scratch_ = w.take();
  sink_.write(scratch_.data(), scratch_.size());
  bytes_ += scratch_.size();
}

void FlightRecorder::begin(std::uint64_t start_samples) {
  const CheckpointProbe probe = probe_checkpoint(ckpt_blob_);
  if (!probe.valid)
    ICGKIT_THROW(CheckpointError("flight recorder: initial checkpoint is invalid"));
  const auto expect_window = static_cast<std::uint64_t>(
      std::max(4.0, cfg_.window_s) * probe.fs);
  if (expect_window != probe.window_samples)
    ICGKIT_THROW(CheckpointError(
        "flight recorder: window_s does not match the recorded pipeline"));

  StateWriter w(std::move(scratch_));  // with magic/version header
  w.begin_section("RHDR");
  w.u32(kFlightVersion);
  w.u8(probe.backend_fixed ? 1 : 0);
  w.f64(probe.fs);
  w.f64(cfg_.window_s);
  w.u64(probe.window_samples);
  w.boolean(probe.ensemble);
  w.u64(cfg_.checkpoint_interval);
  w.u64(start_samples);
  w.u64(cfg_.seed);
  w.i32(cfg_.tier);
  w.u64(cfg_.subject);
  w.u32(static_cast<std::uint32_t>(cfg_.note.size()));
  w.bytes(reinterpret_cast<const std::uint8_t*>(cfg_.note.data()),
          cfg_.note.size());
  w.end_section();
  flush_scratch(std::move(w));

  // The initial checkpoint makes a recording started mid-session
  // self-contained; for a fresh session it is a tiny near-empty blob.
  record_checkpoint(start_samples);
}

void FlightRecorder::record_chunk(dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                                  std::span<const BeatRecord> emitted) {
  if (closed_)
    ICGKIT_THROW(CheckpointError("flight recorder: tap after the recording closed"));
  if (ecg_mv.size() != z_ohm.size())
    ICGKIT_THROW(CheckpointError("flight recorder: chunk length mismatch"));
  serialize_beats(emitted, beat_bytes_);

  StateWriter w = StateWriter::continuation(std::move(scratch_));
  w.begin_section("CHNK");
  w.u64(chunks_);
  w.u32(static_cast<std::uint32_t>(ecg_mv.size()));
  w.f64_array(ecg_mv.data(), ecg_mv.size());
  w.f64_array(z_ohm.data(), z_ohm.size());
  w.u32(static_cast<std::uint32_t>(beat_bytes_.size()));
  w.bytes(reinterpret_cast<const std::uint8_t*>(beat_bytes_.data()),
          beat_bytes_.size());
  w.end_section();
  flush_scratch(std::move(w));
  ++chunks_;
}

void FlightRecorder::record_checkpoint(std::uint64_t samples) {
  StateWriter w = StateWriter::continuation(std::move(scratch_));
  w.begin_section("CKPT");
  w.u64(samples);
  w.u32(static_cast<std::uint32_t>(ckpt_blob_.size()));
  w.bytes(ckpt_blob_.data(), ckpt_blob_.size());
  w.end_section();
  flush_scratch(std::move(w));
  ++checkpoints_;
  next_checkpoint_at_ = samples + cfg_.checkpoint_interval;
}

void FlightRecorder::record_end(std::span<const BeatRecord> tail,
                                const QualitySummary& summary,
                                std::uint64_t samples, bool finished) {
  if (closed_)
    ICGKIT_THROW(CheckpointError("flight recorder: already closed"));
  serialize_beats(tail, beat_bytes_);

  StateWriter w = StateWriter::continuation(std::move(scratch_));
  w.begin_section("FINI");
  w.boolean(finished);
  w.u32(static_cast<std::uint32_t>(beat_bytes_.size()));
  w.bytes(reinterpret_cast<const std::uint8_t*>(beat_bytes_.data()),
          beat_bytes_.size());
  summary.save_state(w);
  w.u64(samples);
  w.u64(chunks_);
  w.end_section();
  flush_scratch(std::move(w));
  closed_ = true;
  sink_.flush();
}

// ---------------------------------------------------------------------------
// FlightReader

FlightReader::FlightReader(std::span<const std::uint8_t> file) : r_(file) {
  r_.begin_section("RHDR");
  header_.flight_version = r_.u32();
  if (header_.flight_version != kFlightVersion)
    r_.fail("unsupported flight-record version " +
            std::to_string(header_.flight_version) + " (reader supports " +
            std::to_string(kFlightVersion) + ")");
  const std::uint8_t backend = r_.u8();
  if (backend > 1) r_.fail("flight record: bad backend tag");
  header_.backend_fixed = backend == 1;
  header_.fs = r_.f64();
  if (!(header_.fs > 0.0) || !(header_.fs <= 1e6))
    r_.fail("flight record: implausible sample rate");
  header_.window_s = r_.f64();
  header_.window_samples = r_.u64();
  if (header_.window_samples !=
      static_cast<std::uint64_t>(std::max(4.0, header_.window_s) * header_.fs))
    r_.fail("flight record: window fields disagree");
  if (header_.window_samples > (1u << 27))
    r_.fail("flight record: implausible window length");
  header_.ensemble = r_.boolean();
  header_.checkpoint_interval = r_.u64();
  header_.start_samples = r_.u64();
  header_.seed = r_.u64();
  header_.tier = r_.i32();
  header_.subject = r_.u64();
  const std::uint32_t note_len = r_.u32();
  if (note_len > r_.section_remaining())
    r_.fail("flight record: note overruns its section");
  const auto note = r_.bytes(note_len);
  header_.note.assign(reinterpret_cast<const char*>(note.data()), note.size());
  r_.end_section();
}

bool FlightReader::next(Event& ev) {
  char tag[5];
  if (!r_.peek_tag(tag)) return false;
  if (saw_end_)
    r_.fail(std::string("flight record: section '") + tag + "' after FINI");

  if (std::memcmp(tag, "CKPT", 4) == 0) {
    ev.kind = EventKind::Checkpoint;
    r_.begin_section("CKPT");
    ev.samples = r_.u64();
    const std::uint32_t len = r_.u32();
    if (len > r_.section_remaining())
      r_.fail("flight record: checkpoint blob overruns its section");
    ev.state = r_.bytes(len);
    r_.end_section();
    return true;
  }

  if (std::memcmp(tag, "CHNK", 4) == 0) {
    ev.kind = EventKind::Chunk;
    r_.begin_section("CHNK");
    ev.chunk_index = r_.u64();
    if (ev.chunk_index != expect_chunk_)
      r_.fail("flight record: chunk out of order");
    ++expect_chunk_;
    const std::uint32_t n = r_.u32();
    if (r_.section_remaining() < 16u * static_cast<std::size_t>(n) + 4u)
      r_.fail("flight record: chunk sample count overruns its section");
    ev.ecg.resize(n);
    ev.z.resize(n);
    r_.f64_array(ev.ecg.data(), n);
    r_.f64_array(ev.z.data(), n);
    const std::uint32_t beat_len = r_.u32();
    if (beat_len > r_.section_remaining())
      r_.fail("flight record: beat bytes overrun their section");
    if (beat_len % beat_record_bytes() != 0)
      r_.fail("flight record: beat byte length is not a whole record count");
    ev.beat_bytes = r_.bytes(beat_len);
    r_.end_section();
    return true;
  }

  if (std::memcmp(tag, "FINI", 4) == 0) {
    ev.kind = EventKind::End;
    r_.begin_section("FINI");
    ev.finished = r_.boolean();
    const std::uint32_t tail_len = r_.u32();
    if (tail_len > r_.section_remaining())
      r_.fail("flight record: tail bytes overrun their section");
    if (tail_len % beat_record_bytes() != 0)
      r_.fail("flight record: tail byte length is not a whole record count");
    ev.beat_bytes = r_.bytes(tail_len);
    ev.summary.load_state(r_);
    ev.samples = r_.u64();
    ev.total_chunks = r_.u64();
    if (ev.total_chunks != expect_chunk_)
      r_.fail("flight record: FINI chunk count disagrees with the stream");
    r_.end_section();
    saw_end_ = true;
    return true;
  }

  r_.fail(std::string("flight record: unknown section '") + tag + "'");
}

// ---------------------------------------------------------------------------
// Replay

namespace {

template <typename B>
BasicStreamingBeatPipeline<B> make_replay_engine(const FlightHeader& h) {
  PipelineConfig cfg;
  cfg.enable_ensemble = h.ensemble;
  BasicStreamingBeatPipeline<B> engine(h.fs, cfg, h.window_s);
  if (engine.window_samples() != h.window_samples)
    ICGKIT_THROW(CheckpointError("flight record: replay window mismatch"));
  return engine;
}

/// A fresh replay engine stands in for a missing initial checkpoint only
/// when the recording legitimately starts at sample 0.
inline void restore_or_refuse(const FlightHeader& h, bool restored) {
  if (restored) return;
  if (h.start_samples != 0)
    ICGKIT_THROW(CheckpointError(
        "flight record: mid-session recording lacks its initial checkpoint"));
}

template <typename B>
FlightVerifyReport verify_impl(std::span<const std::uint8_t> file,
                               bool check_checkpoints) {
  FlightReader rd(file);
  auto engine = make_replay_engine<B>(rd.header());

  FlightVerifyReport rep;
  FlightReader::Event ev;
  std::vector<BeatRecord> beats;
  std::vector<unsigned char> replay_bytes;
  std::vector<std::uint8_t> state_scratch;
  bool restored = false;
  std::int64_t ckpt_ordinal = -1;  // initial checkpoint is ordinal -1

  while (rd.next(ev)) {
    switch (ev.kind) {
      case FlightReader::EventKind::Checkpoint: {
        if (!restored) {
          engine.restore(ev.state);
          restored = true;
        } else if (check_checkpoints) {
          engine.checkpoint_into(state_scratch);
          const bool same = state_scratch.size() == ev.state.size() &&
                            std::equal(state_scratch.begin(), state_scratch.end(),
                                       ev.state.begin());
          if (!same && rep.first_divergent_checkpoint < 0)
            rep.first_divergent_checkpoint = ckpt_ordinal;
        }
        ++ckpt_ordinal;
        break;
      }
      case FlightReader::EventKind::Chunk: {
        restore_or_refuse(rd.header(), restored);
        restored = true;
        beats.clear();
        engine.push_into(dsp::SignalView(ev.ecg), dsp::SignalView(ev.z), beats);
        serialize_beats(beats, replay_bytes);
        rep.beats_replayed += beats.size();
        rep.beats_recorded += ev.beat_bytes.size() / beat_record_bytes();
        const bool same = replay_bytes.size() == ev.beat_bytes.size() &&
                          std::equal(replay_bytes.begin(), replay_bytes.end(),
                                     ev.beat_bytes.begin());
        if (!same && rep.first_divergent_chunk < 0)
          rep.first_divergent_chunk = static_cast<std::int64_t>(ev.chunk_index);
        ++rep.chunks;
        break;
      }
      case FlightReader::EventKind::End: {
        restore_or_refuse(rd.header(), restored);
        restored = true;
        rep.has_end = true;
        rep.finished = ev.finished;
        rep.beats_recorded += ev.beat_bytes.size() / beat_record_bytes();
        if (ev.finished) {
          beats.clear();
          engine.finish_into(beats);
          serialize_beats(beats, replay_bytes);
          rep.beats_replayed += beats.size();
          rep.tail_match = replay_bytes.size() == ev.beat_bytes.size() &&
                           std::equal(replay_bytes.begin(), replay_bytes.end(),
                                      ev.beat_bytes.begin());
        }
        rep.summary_match =
            summaries_identical(engine.quality_summary(), ev.summary) &&
            ev.samples == engine.samples_consumed();
        break;
      }
    }
  }
  rep.samples = engine.samples_consumed();
  rep.ok = rep.first_divergent_chunk < 0 && rep.first_divergent_checkpoint < 0 &&
           rep.summary_match && rep.tail_match;
  return rep;
}

/// Scans the file once and returns the ordinal (among all CKPT sections)
/// of the latest checkpoint positioned at or before `target`.
std::int64_t latest_checkpoint_before(std::span<const std::uint8_t> file,
                                      std::uint64_t target) {
  FlightReader rd(file);
  FlightReader::Event ev;
  std::int64_t ordinal = -1, best = -1;
  while (rd.next(ev)) {
    if (ev.kind != FlightReader::EventKind::Checkpoint) continue;
    ++ordinal;
    if (ev.samples <= target) best = ordinal;
  }
  return best;
}

template <typename B>
FlightSeekReport seek_impl(std::span<const std::uint8_t> file,
                           std::uint64_t target) {
  FlightSeekReport rep;
  rep.target_sample = target;
  const std::int64_t best = latest_checkpoint_before(file, target);
  if (best < 0)
    ICGKIT_THROW(CheckpointError(
        "flight record: no checkpoint at or before the seek target"));

  FlightReader rd(file);
  auto engine = make_replay_engine<B>(rd.header());
  FlightReader::Event ev;
  std::vector<BeatRecord> beats;
  std::vector<unsigned char> replay_bytes;
  std::int64_t ordinal = -1;
  bool restored = false;

  while (rd.next(ev)) {
    switch (ev.kind) {
      case FlightReader::EventKind::Checkpoint:
        if (++ordinal == best) {
          engine.restore(ev.state);
          rep.restored_at = ev.samples;
          restored = true;
        }
        break;
      case FlightReader::EventKind::Chunk: {
        if (!restored) break;  // prefix the checkpoint already covers
        beats.clear();
        engine.push_into(dsp::SignalView(ev.ecg), dsp::SignalView(ev.z), beats);
        serialize_beats(beats, replay_bytes);
        rep.suffix_beats += beats.size();
        const bool same = replay_bytes.size() == ev.beat_bytes.size() &&
                          std::equal(replay_bytes.begin(), replay_bytes.end(),
                                     ev.beat_bytes.begin());
        if (!same && rep.first_divergent_chunk < 0)
          rep.first_divergent_chunk = static_cast<std::int64_t>(ev.chunk_index);
        ++rep.suffix_chunks;
        break;
      }
      case FlightReader::EventKind::End: {
        if (!restored) break;
        if (ev.finished) {
          beats.clear();
          engine.finish_into(beats);
          serialize_beats(beats, replay_bytes);
          rep.suffix_beats += beats.size();
          rep.tail_match = replay_bytes.size() == ev.beat_bytes.size() &&
                           std::equal(replay_bytes.begin(), replay_bytes.end(),
                                      ev.beat_bytes.begin());
        }
        rep.summary_match =
            summaries_identical(engine.quality_summary(), ev.summary) &&
            ev.samples == engine.samples_consumed();
        break;
      }
    }
  }
  if (!restored)
    ICGKIT_THROW(CheckpointError("flight record: seek checkpoint vanished"));
  rep.ok = rep.first_divergent_chunk < 0 && rep.summary_match && rep.tail_match;
  return rep;
}

template <typename B>
FlightStateReport state_at_impl(std::span<const std::uint8_t> file,
                                std::uint64_t target,
                                std::vector<std::uint8_t>& state_out) {
  const std::int64_t best = latest_checkpoint_before(file, target);
  if (best < 0)
    ICGKIT_THROW(CheckpointError(
        "flight record: no checkpoint at or before the dump target"));

  FlightReader rd(file);
  auto engine = make_replay_engine<B>(rd.header());
  FlightReader::Event ev;
  std::vector<BeatRecord> beats;
  FlightStateReport rep;
  std::int64_t ordinal = -1;
  bool restored = false;

  while (rd.next(ev)) {
    if (ev.kind == FlightReader::EventKind::Checkpoint) {
      if (++ordinal == best) {
        engine.restore(ev.state);
        restored = true;
      }
      continue;
    }
    if (ev.kind != FlightReader::EventKind::Chunk || !restored) continue;
    if (engine.samples_consumed() >= target) break;
    beats.clear();
    engine.push_into(dsp::SignalView(ev.ecg), dsp::SignalView(ev.z), beats);
    rep.beats += beats.size();
  }
  if (!restored)
    ICGKIT_THROW(CheckpointError("flight record: dump checkpoint vanished"));
  rep.samples = engine.samples_consumed();
  engine.checkpoint_into(state_out);
  return rep;
}

/// Pulls the next Chunk/End event, stashing any Checkpoint events passed
/// over (their spans alias the file and stay valid).
bool next_output_event(FlightReader& rd, FlightReader::Event& ev,
                       std::vector<std::pair<std::uint64_t,
                                             std::span<const std::uint8_t>>>& ckpts) {
  while (rd.next(ev)) {
    if (ev.kind == FlightReader::EventKind::Checkpoint) {
      ckpts.emplace_back(ev.samples, ev.state);
      continue;
    }
    return true;
  }
  return false;
}

}  // namespace

FlightVerifyReport flight_verify(std::span<const std::uint8_t> file,
                                 bool check_checkpoints) {
  FlightReader probe(file);
  return probe.header().backend_fixed
             ? verify_impl<dsp::Q31Backend>(file, check_checkpoints)
             : verify_impl<dsp::DoubleBackend>(file, check_checkpoints);
}

FlightSeekReport flight_seek(std::span<const std::uint8_t> file,
                             std::uint64_t target_sample) {
  FlightReader probe(file);
  return probe.header().backend_fixed
             ? seek_impl<dsp::Q31Backend>(file, target_sample)
             : seek_impl<dsp::DoubleBackend>(file, target_sample);
}

FlightStateReport flight_state_at(std::span<const std::uint8_t> file,
                                  std::uint64_t target_sample,
                                  std::vector<std::uint8_t>& state_out) {
  FlightReader probe(file);
  return probe.header().backend_fixed
             ? state_at_impl<dsp::Q31Backend>(file, target_sample, state_out)
             : state_at_impl<dsp::DoubleBackend>(file, target_sample, state_out);
}

FlightCompareReport flight_compare(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b) {
  FlightCompareReport rep;
  FlightReader ra(a), rb(b);
  if (ra.header().fs != rb.header().fs ||
      ra.header().start_samples != rb.header().start_samples) {
    rep.first_input_mismatch = 0;
    return rep;
  }

  std::vector<std::pair<std::uint64_t, std::span<const std::uint8_t>>> cka, ckb;
  FlightReader::Event ea, eb;
  bool done = false;
  while (!done) {
    const bool ga = next_output_event(ra, ea, cka);
    const bool gb = next_output_event(rb, eb, ckb);
    if (!ga || !gb) {
      if (ga != gb && rep.first_input_mismatch < 0)
        rep.first_input_mismatch = static_cast<std::int64_t>(rep.chunks_compared);
      break;
    }
    if (ea.kind != eb.kind) {
      if (rep.first_input_mismatch < 0)
        rep.first_input_mismatch = static_cast<std::int64_t>(rep.chunks_compared);
      break;
    }
    if (ea.kind == FlightReader::EventKind::Chunk) {
      const bool inputs_same =
          ea.ecg.size() == eb.ecg.size() &&
          std::memcmp(ea.ecg.data(), eb.ecg.data(),
                      ea.ecg.size() * sizeof(double)) == 0 &&
          std::memcmp(ea.z.data(), eb.z.data(),
                      ea.z.size() * sizeof(double)) == 0;
      if (!inputs_same && rep.first_input_mismatch < 0)
        rep.first_input_mismatch = static_cast<std::int64_t>(ea.chunk_index);
      const bool beats_same = ea.beat_bytes.size() == eb.beat_bytes.size() &&
                              std::equal(ea.beat_bytes.begin(), ea.beat_bytes.end(),
                                         eb.beat_bytes.begin());
      if (!beats_same && rep.first_divergent_chunk < 0)
        rep.first_divergent_chunk = static_cast<std::int64_t>(ea.chunk_index);
      ++rep.chunks_compared;
    } else {  // End
      if (ea.finished == eb.finished) {
        rep.tail_match = ea.beat_bytes.size() == eb.beat_bytes.size() &&
                         std::equal(ea.beat_bytes.begin(), ea.beat_bytes.end(),
                                    eb.beat_bytes.begin());
      } else {
        rep.tail_match = false;
      }
      rep.summary_match = summaries_identical(ea.summary, eb.summary);
      done = true;
    }
  }

  // Checkpoints are compared only where both recordings captured the
  // same position (cadences may differ between the two runs).
  std::int64_t matched = -1;
  for (const auto& [sa, blob_a] : cka) {
    for (const auto& [sb, blob_b] : ckb) {
      if (sa != sb) continue;
      ++matched;
      const bool same = blob_a.size() == blob_b.size() &&
                        std::equal(blob_a.begin(), blob_a.end(), blob_b.begin());
      if (!same && rep.first_divergent_checkpoint < 0)
        rep.first_divergent_checkpoint = matched;
      break;
    }
  }

  rep.inputs_identical = rep.first_input_mismatch < 0;
  rep.outputs_identical = rep.first_divergent_chunk < 0 &&
                          rep.first_divergent_checkpoint < 0 &&
                          rep.summary_match && rep.tail_match;
  return rep;
}

FlightProbe probe_flight(std::span<const std::uint8_t> file) noexcept {
#if defined(ICGKIT_NO_EXCEPTIONS)
  // The flight recorder is a hosted-tools subsystem; it is not compiled
  // into the firmware profile, where refusal happens at probe_checkpoint.
  (void)file;
  return {};
#else
  FlightProbe p;
  try {
    FlightReader rd(file);
    p.header = rd.header();
    FlightReader::Event ev;
    std::uint64_t pos = rd.header().start_samples;
    std::uint64_t ckpts = 0;
    while (rd.next(ev)) {
      switch (ev.kind) {
        case FlightReader::EventKind::Checkpoint:
          ++ckpts;
          break;
        case FlightReader::EventKind::Chunk:
          ++p.chunks;
          pos += ev.ecg.size();
          p.beats += ev.beat_bytes.size() / beat_record_bytes();
          break;
        case FlightReader::EventKind::End:
          p.has_end = true;
          p.finished = ev.finished;
          p.beats += ev.beat_bytes.size() / beat_record_bytes();
          pos = ev.samples;
          break;
      }
    }
    p.checkpoints = ckpts > 0 ? ckpts - 1 : 0;  // exclude the initial one
    p.samples = pos;
    p.valid = true;
  } catch (...) {
    p = FlightProbe{};
  }
  return p;
#endif
}

} // namespace icgkit::core
