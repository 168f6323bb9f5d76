#include "core/flight_recorder.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
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

void FlightRecorder::begin(bool backend_fixed, double fs, double window_s,
                           std::uint64_t window_samples, bool ensemble,
                           std::uint64_t start_samples) {
  StateWriter w(std::move(scratch_));  // with magic/version header
  w.begin_section("RHDR");
  w.u32(kFlightVersion);
  w.u8(backend_fixed ? 1 : 0);
  w.f64(fs);
  w.f64(window_s);
  w.u64(window_samples);
  w.boolean(ensemble);
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
  // Saturating: a recording started mid-session with a huge interval
  // must not wrap round to a position the engine has already passed.
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  next_checkpoint_at_ = cfg_.checkpoint_interval > kNever - samples
                            ? kNever
                            : samples + cfg_.checkpoint_interval;
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
  read_header();
  raise_if_refused();
}

bool FlightReader::next(Event& ev) {
  char tag[5];
  const bool more = r_.peek_tag(tag);
  if (more) read_section(tag, ev);
  raise_if_refused();
  return more;
}

void FlightReader::raise_if_refused() const {
  if (!r_.ok()) ICGKIT_THROW(CheckpointError(r_.error()));
}

void FlightReader::read_header() {
  r_.begin_section("RHDR");
  header_.flight_version = r_.u32();
  if (header_.flight_version != kFlightVersion)
    return r_.fail("unsupported flight-record version " +
                   std::to_string(header_.flight_version) + " (reader supports " +
                   std::to_string(kFlightVersion) + ")");
  const std::uint8_t backend = r_.u8();
  if (backend > 1) return r_.fail("flight record: bad backend tag");
  header_.backend_fixed = backend == 1;
  header_.fs = r_.f64();
  if (!(header_.fs > 0.0) || !(header_.fs <= 1e6))
    return r_.fail("flight record: implausible sample rate");
  header_.window_s = r_.f64();
  header_.window_samples = r_.u64();
  if (header_.window_samples !=
      static_cast<std::uint64_t>(std::max(4.0, header_.window_s) * header_.fs))
    return r_.fail("flight record: window fields disagree");
  if (header_.window_samples > (1u << 27))
    return r_.fail("flight record: implausible window length");
  header_.ensemble = r_.boolean();
  header_.checkpoint_interval = r_.u64();
  header_.start_samples = r_.u64();
  header_.seed = r_.u64();
  header_.tier = r_.i32();
  header_.subject = r_.u64();
  const std::uint32_t note_len = r_.u32();
  if (note_len > r_.section_remaining())
    return r_.fail("flight record: note overruns its section");
  const auto note = r_.bytes(note_len);
  header_.note.assign(reinterpret_cast<const char*>(note.data()), note.size());
  r_.end_section();
}

void FlightReader::read_section(const char (&tag)[5], Event& ev) {
  if (saw_end_)
    return r_.fail(std::string("flight record: section '") + tag + "' after FINI");

  if (std::memcmp(tag, "CKPT", 4) == 0) {
    ev.kind = EventKind::Checkpoint;
    r_.begin_section("CKPT");
    ev.samples = r_.u64();
    const std::uint32_t len = r_.u32();
    if (len > r_.section_remaining())
      return r_.fail("flight record: checkpoint blob overruns its section");
    ev.state = r_.bytes(len);
    return r_.end_section();
  }

  if (std::memcmp(tag, "CHNK", 4) == 0) {
    ev.kind = EventKind::Chunk;
    r_.begin_section("CHNK");
    ev.chunk_index = r_.u64();
    if (ev.chunk_index != expect_chunk_)
      return r_.fail("flight record: chunk out of order");
    ++expect_chunk_;
    const std::uint32_t n = r_.u32();
    if (r_.section_remaining() < 16u * static_cast<std::size_t>(n) + 4u)
      return r_.fail("flight record: chunk sample count overruns its section");
    ev.ecg.resize(n);
    ev.z.resize(n);
    r_.f64_array(ev.ecg.data(), n);
    r_.f64_array(ev.z.data(), n);
    const std::uint32_t beat_len = r_.u32();
    if (beat_len > r_.section_remaining())
      return r_.fail("flight record: beat bytes overrun their section");
    if (beat_len % beat_record_bytes() != 0)
      return r_.fail("flight record: beat byte length is not a whole record count");
    ev.beat_bytes = r_.bytes(beat_len);
    return r_.end_section();
  }

  if (std::memcmp(tag, "FINI", 4) == 0) {
    ev.kind = EventKind::End;
    r_.begin_section("FINI");
    ev.finished = r_.boolean();
    const std::uint32_t tail_len = r_.u32();
    if (tail_len > r_.section_remaining())
      return r_.fail("flight record: tail bytes overrun their section");
    if (tail_len % beat_record_bytes() != 0)
      return r_.fail("flight record: tail byte length is not a whole record count");
    ev.beat_bytes = r_.bytes(tail_len);
    ev.summary.load_state(r_);
    ev.samples = r_.u64();
    ev.total_chunks = r_.u64();
    if (ev.total_chunks != expect_chunk_)
      return r_.fail("flight record: FINI chunk count disagrees with the stream");
    r_.end_section();
    saw_end_ = true;
    return;
  }

  r_.fail(std::string("flight record: unknown section '") + tag + "'");
}

// ---------------------------------------------------------------------------
// Replay: flight_verify, flight_seek and flight_state_at are one pass over
// the recording (restore, re-run every chunk and byte-compare its beats,
// then the recorded end) that differ only in where it starts and stops.

namespace {

struct ReplayPlan {
  /// Index, among all CKPT sections, of the checkpoint the pass restores;
  /// the chunks before it are skipped. -1 replays the whole recording
  /// from its first checkpoint, or from a fresh engine when a chunk comes
  /// first, which only a recording that starts at sample 0 allows.
  std::int64_t restore_index = -1;
  bool compare_checkpoints = false;  ///< byte-compare every later CKPT
  /// Stop at the first chunk boundary at or past this position; the
  /// recording's end (finish()) is then never replayed.
  std::optional<std::uint64_t> stop_at;
};

/// What one pass saw, in flight_verify's terms, and where it started.
struct ReplayPass {
  FlightVerifyReport report;
  std::uint64_t restored_at = 0;
};

template <typename B>
ReplayPass replay_pass(FlightReader& rd, const ReplayPlan& plan,
                       std::vector<std::uint8_t>* state_out) {
  const FlightHeader& h = rd.header();
  PipelineConfig cfg;
  cfg.enable_ensemble = h.ensemble;
  BasicStreamingBeatPipeline<B> engine(h.fs, cfg, h.window_s);
  if (engine.window_samples() != h.window_samples)
    ICGKIT_THROW(CheckpointError("flight record: replay window mismatch"));

  ReplayPass pass;
  FlightVerifyReport& rep = pass.report;
  FlightReader::Event ev;
  std::vector<BeatRecord> beats;
  std::vector<unsigned char> replay_bytes;
  std::vector<std::uint8_t> state_scratch;
  std::int64_t ckpt_index = -1;
  bool restored = false;
  const auto replayed_beats_match = [&] {
    serialize_beats(beats, replay_bytes);
    rep.beats_replayed += beats.size();
    return std::ranges::equal(replay_bytes, ev.beat_bytes);
  };

  while (rd.next(ev)) {
    if (ev.kind == FlightReader::EventKind::Checkpoint) {
      ++ckpt_index;
      if (!restored && (plan.restore_index < 0 || ckpt_index == plan.restore_index)) {
        engine.restore(ev.state);
        pass.restored_at = ev.samples;
        restored = true;
      } else if (restored && plan.compare_checkpoints) {
        engine.checkpoint_into(state_scratch);
        // Reported among the periodic checkpoints: index 0 is the initial one.
        if (!std::ranges::equal(state_scratch, ev.state) && rep.first_divergent_checkpoint < 0)
          rep.first_divergent_checkpoint = ckpt_index - 1;
      }
      continue;
    }
    if (!restored) {
      if (plan.restore_index >= 0) continue;
      if (h.start_samples != 0)
        ICGKIT_THROW(CheckpointError(
            "flight record: mid-session recording lacks its initial checkpoint"));
      restored = true;
    }
    if (ev.kind == FlightReader::EventKind::Chunk) {
      if (plan.stop_at && engine.samples_consumed() >= *plan.stop_at) break;
      beats.clear();
      engine.push_into(dsp::SignalView(ev.ecg), dsp::SignalView(ev.z), beats);
      rep.beats_recorded += ev.beat_bytes.size() / beat_record_bytes();
      if (!replayed_beats_match() && rep.first_divergent_chunk < 0)
        rep.first_divergent_chunk = static_cast<std::int64_t>(ev.chunk_index);
      ++rep.chunks;
    } else if (!plan.stop_at) {
      rep.has_end = true;
      rep.finished = ev.finished;
      rep.beats_recorded += ev.beat_bytes.size() / beat_record_bytes();
      if (ev.finished) {
        beats.clear();
        engine.finish_into(beats);
        rep.tail_match = replayed_beats_match();
      }
      rep.summary_match = summaries_identical(engine.quality_summary(), ev.summary) &&
                          ev.samples == engine.samples_consumed();
    }
  }
  rep.samples = engine.samples_consumed();
  rep.ok = rep.first_divergent_chunk < 0 && rep.first_divergent_checkpoint < 0 &&
           rep.summary_match && rep.tail_match;
  if (state_out != nullptr) engine.checkpoint_into(*state_out);
  return pass;
}

ReplayPass replay(std::span<const std::uint8_t> file, const ReplayPlan& plan,
                  std::vector<std::uint8_t>* state_out = nullptr) {
  FlightReader rd(file);
  return rd.header().backend_fixed ? replay_pass<dsp::Q31Backend>(rd, plan, state_out)
                                   : replay_pass<dsp::DoubleBackend>(rd, plan, state_out);
}

/// Scans the file once and returns the index (among all CKPT sections)
/// of the latest checkpoint positioned at or before `target`; `what`
/// names the target in the refusal when there is none.
std::int64_t latest_checkpoint_before(std::span<const std::uint8_t> file,
                                      std::uint64_t target, const char* what) {
  FlightReader rd(file);
  FlightReader::Event ev;
  std::int64_t index = -1, best = -1;
  while (rd.next(ev)) {
    if (ev.kind != FlightReader::EventKind::Checkpoint) continue;
    ++index;
    if (ev.samples <= target) best = index;
  }
  if (best < 0)
    ICGKIT_THROW(CheckpointError(std::string("flight record: no checkpoint at or before the ") +
                                 what + " target"));
  return best;
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
  ReplayPlan plan;
  plan.compare_checkpoints = check_checkpoints;
  return replay(file, plan).report;
}

FlightSeekReport flight_seek(std::span<const std::uint8_t> file,
                             std::uint64_t target_sample) {
  ReplayPlan plan;
  plan.restore_index = latest_checkpoint_before(file, target_sample, "seek");
  const ReplayPass pass = replay(file, plan);
  const FlightVerifyReport& r = pass.report;
  return {.ok = r.ok,
          .target_sample = target_sample,
          .restored_at = pass.restored_at,
          .suffix_chunks = r.chunks,
          .suffix_beats = r.beats_replayed,
          .first_divergent_chunk = r.first_divergent_chunk,
          .summary_match = r.summary_match,
          .tail_match = r.tail_match};
}

FlightStateReport flight_state_at(std::span<const std::uint8_t> file,
                                  std::uint64_t target_sample,
                                  std::vector<std::uint8_t>& state_out) {
  ReplayPlan plan;
  plan.restore_index = latest_checkpoint_before(file, target_sample, "dump");
  plan.stop_at = target_sample;
  const ReplayPass pass = replay(file, plan, &state_out);
  return {.samples = pass.report.samples, .beats = pass.report.beats_replayed};
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
}

} // namespace icgkit::core
