// Implementation of the flat C ABI (capi/icgkit.h) over the C++
// streaming engine.
//
// Boundary rules implemented here:
//
//  - Handles are never raw pointers to session memory. A handle packs
//    (slot index + 1, generation) into the pointer *value*; every call
//    decodes and validates it against a fixed-size slot table, so a
//    stale, destroyed or garbage handle is reported as
//    ICG_ERR_BAD_HANDLE without ever being dereferenced — double
//    destroy is a checked error, not use-after-free.
//  - No exception crosses the boundary: every entry point that can
//    reach throwing core code runs under guarded(), which maps
//    CheckpointError / bad_alloc / anything else to negative status
//    codes. In the embedded profile (ICGKIT_NO_EXCEPTIONS) the core
//    raises through icgkit::contract_panic instead, and guarded()
//    compiles to a plain call. Bad input never reaches a raising path:
//    arguments and chunk sizes are checked here, and a checkpoint blob
//    is read by core::StateReader, which reports every violation by
//    value (see icg_session_restore for the two refusal states), so
//    panics are reserved for genuine invariant breakage.
//  - After create, the push/poll/finish/checkpoint hot path performs no
//    heap allocation once warm: the beat queue is a fixed ring sized at
//    create, the BeatRecord scratch and checkpoint blob reuse their
//    capacity, and the engine below carries the PR-2 zero-steady-state-
//    allocation property. Verified by tests/capi/capi_alloc_test.cpp.
//  - Sessions are externally synchronized (one session, one thread at a
//    time — the firmware model); create/destroy touch the shared slot
//    table under a spinlock so independent sessions can be managed from
//    different threads without a libpthread dependency.
#include "capi/icgkit.h"

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "dsp/backend.h"
#include "dsp/stats.h"
#include "dsp/types.h"

#include <atomic>
#include <cstdio>
#include <cstring>
#include <new>
#include <span>
#include <string>
#include <vector>

#if !defined(ICGKIT_CAPI_MINIMAL)
#include "core/flight_recorder.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <memory>
#endif

namespace {

using icgkit::core::BasicStreamingBeatPipeline;
using icgkit::core::BeatRecord;
using icgkit::core::CheckpointError;
using icgkit::core::PipelineConfig;
using icgkit::core::QualitySummary;

// ---------------------------------------------------------------------------
// Thread-local error text. The embedded profile avoids TLS (an MCU
// runtime may not provide it) — single-threaded use is that profile's
// documented model anyway.
// ---------------------------------------------------------------------------

#if defined(ICGKIT_CAPI_MINIMAL)
char g_error[256];
#else
thread_local char g_error[256];
#endif

int set_error(int status, const char* what) {
  std::snprintf(g_error, sizeof g_error, "%s: %s", icg_status_name(status),
                what != nullptr ? what : "");
  return status;
}

// ---------------------------------------------------------------------------
// Exception firewall. Everything that can reach throwing core code runs
// under guarded(); with exceptions disabled the core panics instead of
// unwinding, so the wrapper is a plain call.
// ---------------------------------------------------------------------------

template <typename F>
int guarded(F&& f) {
#if defined(ICGKIT_NO_EXCEPTIONS)
  return f();
#else
  try {
    return f();
  } catch (const CheckpointError& e) {
    return set_error(ICG_ERR_BAD_CHECKPOINT, e.what());
  } catch (const std::bad_alloc&) {
    return set_error(ICG_ERR_NO_RESOURCES, "out of memory");
  } catch (const std::exception& e) {
    return set_error(ICG_ERR_INTERNAL, e.what());
  } catch (...) {
    return set_error(ICG_ERR_INTERNAL, "unknown exception");
  }
#endif
}

// ---------------------------------------------------------------------------
// Engine type erasure: one virtual seam so the backend is a runtime
// choice (virtual dispatch needs no RTTI and no exceptions).
// ---------------------------------------------------------------------------

struct EngineIface {
  virtual ~EngineIface() = default;
  virtual void push_into(icgkit::dsp::SignalView ecg, icgkit::dsp::SignalView z,
                         std::vector<BeatRecord>& out) = 0;
  virtual void finish_into(std::vector<BeatRecord>& out) = 0;
  virtual const QualitySummary& quality() const = 0;
  virtual void checkpoint_into(std::vector<std::uint8_t>& blob) const = 0;
  virtual bool restore_compatible(std::span<const std::uint8_t> blob) const = 0;
  // Ends an active recording (as stopped), then restores without
  // raising; false with the reader's message in `why` on a refusal.
  virtual bool try_restore(std::span<const std::uint8_t> blob, std::string& why) = 0;
#if !defined(ICGKIT_CAPI_MINIMAL)
  // Flight-record taps (hosted profile only: flight_recorder.cpp is not
  // part of libicgkit_embedded.a).
  virtual void record_start(const char* path, std::uint64_t interval) = 0;
  virtual void record_start_mem(std::uint64_t interval) = 0;
  // Stops an in-memory recording (if still live) and exposes its bytes;
  // nullptr when no memory-backed recording exists. The bytes stay
  // owned by the engine until record_mem_discard().
  virtual const std::vector<std::uint8_t>* record_mem_bytes() = 0;
  virtual void record_mem_discard() = 0;
  virtual void record_stop() = 0;
  virtual bool recording() const noexcept = 0;
#endif
};

template <typename B>
struct EngineOf final : EngineIface {
  BasicStreamingBeatPipeline<B> engine;
#if !defined(ICGKIT_CAPI_MINIMAL)
  // Sink declared before the recorder so the recorder (which holds a
  // reference to it) is destroyed first.
  std::unique_ptr<icgkit::core::RecorderSink> rec_sink;
  std::unique_ptr<icgkit::core::FlightRecorder> recorder;
  bool rec_sink_is_mem = false;
#endif

  EngineOf(double fs, const PipelineConfig& cfg, double window_s)
      : engine(fs, cfg, window_s) {}

  void push_into(icgkit::dsp::SignalView ecg, icgkit::dsp::SignalView z,
                 std::vector<BeatRecord>& out) override {
    engine.push_into(ecg, z, out);
#if !defined(ICGKIT_CAPI_MINIMAL)
    // The tap runs after the engine so the recorded beats are exactly
    // this chunk's emissions (the capi push clears `out` per call).
    if (recorder) recorder->on_chunk(engine, ecg, z, out);
#endif
  }
  void finish_into(std::vector<BeatRecord>& out) override {
    engine.finish_into(out);
#if !defined(ICGKIT_CAPI_MINIMAL)
    end_recording(&out);
#endif
  }
  const QualitySummary& quality() const override { return engine.quality_summary(); }
  void checkpoint_into(std::vector<std::uint8_t>& blob) const override {
    // checkpoint_into replaces the blob but reuses its capacity, which
    // is what keeps the warmed-up checkpoint path allocation-free.
    engine.checkpoint_into(blob);
  }
  bool restore_compatible(std::span<const std::uint8_t> blob) const override {
    return engine.restore_compatible(blob);
  }
  bool try_restore(std::span<const std::uint8_t> blob, std::string& why) override {
#if !defined(ICGKIT_CAPI_MINIMAL)
    // Samples pushed after a restore no longer follow from the recorded
    // state, so an active recording ends (as stopped) before the jump.
    end_recording(nullptr);
#endif
    return engine.try_restore(blob, why);
  }
#if !defined(ICGKIT_CAPI_MINIMAL)
  void record_start(const char* path, std::uint64_t interval) override {
    start_recording(std::make_unique<icgkit::core::FileRecorderSink>(path), false, interval,
                    "capi icg_session_record_start");
  }
  void record_start_mem(std::uint64_t interval) override {
    start_recording(std::make_unique<icgkit::core::BufferRecorderSink>(), true, interval,
                    "capi icg_session_record_start_mem");
  }
  void start_recording(std::unique_ptr<icgkit::core::RecorderSink> sink, bool is_mem,
                       std::uint64_t interval, const char* note) {
    icgkit::core::FlightRecorderConfig rcfg;
    if (interval != 0) rcfg.checkpoint_interval = interval;
    rcfg.note = note;
    recorder = std::make_unique<icgkit::core::FlightRecorder>(*sink, engine, rcfg);
    rec_sink = std::move(sink);
    rec_sink_is_mem = is_mem;
  }
  // Writes the end marker and closes the recorder, the way finish (with
  // its tail beats) and restore (stopped, no tail) end a recording: a
  // file sink closes, a memory sink keeps its bytes for one
  // record_mem_bytes() take.
  void end_recording(const std::vector<BeatRecord>* tail) {
    if (!recorder) return;
    if (tail != nullptr) recorder->on_finish(engine, *tail);
    else recorder->on_stop(engine);
    recorder.reset();
    if (!rec_sink_is_mem) rec_sink.reset();
  }
  const std::vector<std::uint8_t>* record_mem_bytes() override {
    if (!rec_sink_is_mem || !rec_sink) return nullptr;
    end_recording(nullptr);  // a live recording gets its end marker once
    return &static_cast<icgkit::core::BufferRecorderSink&>(*rec_sink).bytes();
  }
  void record_mem_discard() override {
    rec_sink.reset();
    rec_sink_is_mem = false;
  }
  void record_stop() override {
    if (!recorder) return;
    end_recording(nullptr);
    record_mem_discard();
  }
  bool recording() const noexcept override { return recorder != nullptr; }
#endif
};

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

// Lost: a restore was refused after it had replaced part of the state.
enum class SessionState : std::uint8_t { Streaming, Finished, Poisoned, Lost };

constexpr const char* kLostState = "session state lost to a refused restore";

struct SessionImpl {
  icg_config cfg{};
  EngineIface* engine = nullptr;
  // Fixed-capacity beat FIFO (cfg.beat_queue_capacity), filled by
  // push/finish, drained by poll_beat.
  std::vector<icg_beat> queue;
  std::size_t queue_head = 0;
  std::size_t queue_count = 0;
  std::vector<BeatRecord> scratch;     // per-push emission buffer
  std::vector<std::uint8_t> blob;      // checkpoint scratch (capacity reused)
  SessionState state = SessionState::Streaming;

  ~SessionImpl() { delete engine; }
};

icg_beat to_c_beat(const BeatRecord& rec) {
  icg_beat b;
  std::memset(&b, 0, sizeof b);
  b.r = rec.points.r;
  b.b = rec.points.b;
  b.c = rec.points.c;
  b.x = rec.points.x;
  b.b0 = rec.points.b0;
  b.c_amplitude = rec.points.c_amplitude;
  b.rr_s = rec.rr_s;
  b.pep_s = rec.hemo.pep_s;
  b.lvet_s = rec.hemo.lvet_s;
  b.hr_bpm = rec.hemo.hr_bpm;
  b.dzdt_max = rec.hemo.dzdt_max;
  b.sv_kubicek_ml = rec.hemo.sv_kubicek_ml;
  b.sv_sramek_ml = rec.hemo.sv_sramek_ml;
  b.co_kubicek_l_min = rec.hemo.co_kubicek_l_min;
  b.tfc_per_kohm = rec.hemo.tfc_per_kohm;
  b.b_method = static_cast<std::uint32_t>(rec.points.b_method);
  b.valid = rec.points.valid ? 1u : 0u;
  b.flaws = static_cast<std::uint32_t>(rec.flaws);
  return b;
}

// Moves this push's freshly emitted beats into the fixed queue.
// Returns the number queued, or ICG_ERR_BEAT_BACKLOG (poisoning the
// session: overflowed beats are unrecoverably lost).
int enqueue_beats(SessionImpl& s) {
  int queued = 0;
  for (const BeatRecord& rec : s.scratch) {
    if (s.queue_count == s.queue.size()) {
      s.state = SessionState::Poisoned;
      return set_error(ICG_ERR_BEAT_BACKLOG,
                       "beat queue overflow — poll between pushes");
    }
    s.queue[(s.queue_head + s.queue_count) % s.queue.size()] = to_c_beat(rec);
    ++s.queue_count;
    ++queued;
  }
  return queued;
}

// ---------------------------------------------------------------------------
// Handle table: fixed slots + generations, guarded by a spinlock (no
// libpthread). Handles encode (slot + 1) in the low byte and the
// generation above it; decoding validates both, so any stale or forged
// handle fails cleanly.
// ---------------------------------------------------------------------------

constexpr std::size_t kMaxSessions = 64;

// impl/generation are atomic because decode_handle validates handles
// lock-free from any thread while create/destroy mutate the slot under
// the table lock: checking a stale handle concurrently with a destroy
// must stay a defined-behaviour "no" (the documented handle guarantee),
// not a C++ data race. Writers store with release under the lock,
// decode_handle loads with acquire.
struct Slot {
  std::atomic<SessionImpl*> impl{nullptr};
  std::atomic<std::uintptr_t> generation{1};
};

Slot g_slots[kMaxSessions];
std::atomic_flag g_table_lock = ATOMIC_FLAG_INIT;

struct TableLock {
  TableLock() {
    while (g_table_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~TableLock() { g_table_lock.clear(std::memory_order_release); }
};

// Callers hold the table lock (relaxed loads suffice under it).
icg_session* encode_handle(std::size_t slot) {
  const std::uintptr_t v =
      (g_slots[slot].generation.load(std::memory_order_relaxed) << 8) |
      static_cast<std::uintptr_t>(slot + 1);
  return reinterpret_cast<icg_session*>(v);
}

SessionImpl* decode_handle(icg_session* handle) {
  const auto v = reinterpret_cast<std::uintptr_t>(handle);
  const std::uintptr_t low = v & 0xFF;
  if (low == 0 || low > kMaxSessions) return nullptr;
  const std::size_t slot = static_cast<std::size_t>(low - 1);
  if (g_slots[slot].generation.load(std::memory_order_acquire) != (v >> 8))
    return nullptr;
  return g_slots[slot].impl.load(std::memory_order_acquire);
}

int validate_config(const icg_config& cfg) {
  if (cfg.abi_version != ICG_ABI_VERSION)
    return set_error(ICG_ERR_ABI_MISMATCH,
                     "icg_config.abi_version does not match ICG_ABI_VERSION");
  if (cfg.backend != ICG_BACKEND_DOUBLE && cfg.backend != ICG_BACKEND_Q31)
    return set_error(ICG_ERR_BAD_CONFIG, "unknown backend");
  if (!icgkit::core::sample_rate_supported(cfg.sample_rate_hz))
    return set_error(ICG_ERR_BAD_CONFIG, "sample_rate_hz out of range [125, 1000]");
  if (!(cfg.window_s >= 4.0) || cfg.window_s > 120.0)
    return set_error(ICG_ERR_BAD_CONFIG, "window_s out of range [4, 120]");
  if (cfg.enable_ensemble > 1)
    return set_error(ICG_ERR_BAD_CONFIG, "enable_ensemble must be 0 or 1");
  if (cfg.max_chunk == 0 || cfg.max_chunk > (1u << 20))
    return set_error(ICG_ERR_BAD_CONFIG, "max_chunk out of range");
  if (cfg.beat_queue_capacity == 0 || cfg.beat_queue_capacity > (1u << 20))
    return set_error(ICG_ERR_BAD_CONFIG, "beat_queue_capacity out of range");
  for (const std::uint32_t r : cfg.reserved)
    if (r != 0)
      return set_error(ICG_ERR_BAD_CONFIG, "reserved fields must be zero");
  return ICG_OK;
}

} // namespace

// ---------------------------------------------------------------------------
// ABI surface
// ---------------------------------------------------------------------------

extern "C" {

uint32_t icg_abi_version(void) { return ICG_ABI_VERSION; }

const char* icg_last_error(void) { return g_error; }

const char* icg_status_name(int status) {
  switch (status) {
    case ICG_OK: return "ICG_OK";
    case ICG_ERR_NULL_ARG: return "ICG_ERR_NULL_ARG";
    case ICG_ERR_BAD_HANDLE: return "ICG_ERR_BAD_HANDLE";
    case ICG_ERR_ABI_MISMATCH: return "ICG_ERR_ABI_MISMATCH";
    case ICG_ERR_BAD_CONFIG: return "ICG_ERR_BAD_CONFIG";
    case ICG_ERR_BAD_STATE: return "ICG_ERR_BAD_STATE";
    case ICG_ERR_CHUNK_TOO_LARGE: return "ICG_ERR_CHUNK_TOO_LARGE";
    case ICG_ERR_BEAT_BACKLOG: return "ICG_ERR_BEAT_BACKLOG";
    case ICG_ERR_BAD_CHECKPOINT: return "ICG_ERR_BAD_CHECKPOINT";
    case ICG_ERR_BUFFER_TOO_SMALL: return "ICG_ERR_BUFFER_TOO_SMALL";
    case ICG_ERR_NO_RESOURCES: return "ICG_ERR_NO_RESOURCES";
    case ICG_ERR_INTERNAL: return "ICG_ERR_INTERNAL";
    case ICG_ERR_BAD_SAMPLE: return "ICG_ERR_BAD_SAMPLE";
    default: return status > 0 ? "ICG_OK(count)" : "ICG_ERR_?";
  }
}

int icg_config_init(icg_config* cfg) {
  if (cfg == nullptr) return set_error(ICG_ERR_NULL_ARG, "cfg is NULL");
  std::memset(cfg, 0, sizeof *cfg);
  cfg->abi_version = ICG_ABI_VERSION;
  cfg->backend = ICG_BACKEND_DOUBLE;
  cfg->sample_rate_hz = 250.0;
  cfg->window_s = 12.0;
  cfg->enable_ensemble = 0;
  cfg->max_chunk = 1024;
  cfg->beat_queue_capacity = 256;
  return ICG_OK;
}

icg_session* icg_session_create(const icg_config* cfg) {
  if (cfg == nullptr) {
    set_error(ICG_ERR_NULL_ARG, "cfg is NULL");
    return nullptr;
  }
  if (validate_config(*cfg) != ICG_OK) return nullptr;

  SessionImpl* impl = nullptr;
  const int rc = guarded([&]() -> int {
    auto s = new SessionImpl;
    impl = s;
    s->cfg = *cfg;
    PipelineConfig pcfg;
    pcfg.enable_ensemble = cfg->enable_ensemble != 0;
    if (cfg->backend == ICG_BACKEND_Q31)
      s->engine = new EngineOf<icgkit::dsp::Q31Backend>(cfg->sample_rate_hz, pcfg,
                                                        cfg->window_s);
    else
      s->engine = new EngineOf<icgkit::dsp::DoubleBackend>(cfg->sample_rate_hz, pcfg,
                                                           cfg->window_s);
    s->queue.resize(cfg->beat_queue_capacity);
    s->scratch.reserve(cfg->beat_queue_capacity);
    return ICG_OK;
  });
  if (rc != ICG_OK) {
    delete impl;
    return nullptr;
  }

  TableLock lock;
  for (std::size_t i = 0; i < kMaxSessions; ++i) {
    if (g_slots[i].impl.load(std::memory_order_relaxed) == nullptr) {
      g_slots[i].impl.store(impl, std::memory_order_release);
      return encode_handle(i);
    }
  }
  delete impl;
  set_error(ICG_ERR_NO_RESOURCES, "session table full");
  return nullptr;
}

int icg_session_destroy(icg_session* session) {
  SessionImpl* impl = nullptr;
  {
    TableLock lock;
    const auto v = reinterpret_cast<std::uintptr_t>(session);
    const std::uintptr_t low = v & 0xFF;
    if (low == 0 || low > kMaxSessions)
      return set_error(ICG_ERR_BAD_HANDLE, "not a session handle");
    const std::size_t slot = static_cast<std::size_t>(low - 1);
    if (g_slots[slot].generation.load(std::memory_order_relaxed) != (v >> 8) ||
        g_slots[slot].impl.load(std::memory_order_relaxed) == nullptr)
      return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
    impl = g_slots[slot].impl.load(std::memory_order_relaxed);
    g_slots[slot].impl.store(nullptr, std::memory_order_release);
    // Retire every outstanding handle to this slot.
    g_slots[slot].generation.fetch_add(1, std::memory_order_release);
  }
  delete impl;
  return ICG_OK;
}

int icg_session_push(icg_session* session, const double* ecg_mv,
                     const double* z_ohm, uint32_t len) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (ecg_mv == nullptr || z_ohm == nullptr)
    return set_error(ICG_ERR_NULL_ARG, "sample pointer is NULL");
  if (s->state == SessionState::Poisoned)
    return set_error(ICG_ERR_BEAT_BACKLOG, "session poisoned by an earlier overflow");
  if (s->state == SessionState::Lost) return set_error(ICG_ERR_BAD_STATE, kLostState);
  if (s->state != SessionState::Streaming)
    return set_error(ICG_ERR_BAD_STATE, "push after finish");
  if (len > s->cfg.max_chunk)
    return set_error(ICG_ERR_CHUNK_TOO_LARGE, "len exceeds icg_config.max_chunk");
  if (len == 0) return 0;
  const icgkit::dsp::SignalView ecg(ecg_mv, len);
  const icgkit::dsp::SignalView z(z_ohm, len);
  if (!icgkit::dsp::all_finite(ecg) || !icgkit::dsp::all_finite(z))
    return set_error(ICG_ERR_BAD_SAMPLE, "non-finite sample (NaN or Inf)");
  return guarded([&]() -> int {
    s->scratch.clear();
    s->engine->push_into(ecg, z, s->scratch);
    return enqueue_beats(*s);
  });
}

int icg_session_finish(icg_session* session) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (s->state == SessionState::Poisoned)
    return set_error(ICG_ERR_BEAT_BACKLOG, "session poisoned by an earlier overflow");
  if (s->state == SessionState::Lost) return set_error(ICG_ERR_BAD_STATE, kLostState);
  if (s->state != SessionState::Streaming)
    return set_error(ICG_ERR_BAD_STATE, "finish called twice");
  return guarded([&]() -> int {
    s->scratch.clear();
    s->engine->finish_into(s->scratch);
    s->state = SessionState::Finished;
    return enqueue_beats(*s);
  });
}

int icg_session_poll_beat(icg_session* session, icg_beat* beat) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (beat == nullptr) return set_error(ICG_ERR_NULL_ARG, "beat is NULL");
  if (s->queue_count == 0) return 0;
  *beat = s->queue[s->queue_head];
  s->queue_head = (s->queue_head + 1) % s->queue.size();
  --s->queue_count;
  return 1;
}

int icg_session_quality(icg_session* session, icg_quality_summary* summary) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (summary == nullptr) return set_error(ICG_ERR_NULL_ARG, "summary is NULL");
  return guarded([&]() -> int {
    const QualitySummary& q = s->engine->quality();
    std::memset(summary, 0, sizeof *summary);
    summary->beats = q.beats;
    summary->usable = q.usable;
    for (std::size_t i = 0; i < icgkit::core::kBeatFlawCount; ++i)
      summary->flaw_counts[i] = q.flaw_counts[i];
    summary->ecg_dropouts = q.ecg_dropouts;
    summary->z_dropouts = q.z_dropouts;
    summary->detector_resets = q.detector_resets;
    summary->ensemble_folds_skipped = q.ensemble_folds_skipped;
    summary->snr_beats = q.snr_beats;
    summary->sum_snr_db = q.sum_snr_db;
    summary->min_snr_db = q.min_snr_db;
    return ICG_OK;
  });
}

uint32_t icg_session_checkpoint_size(icg_session* session) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) {
    set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
    return 0;
  }
  if (s->state == SessionState::Lost) {
    set_error(ICG_ERR_BAD_STATE, kLostState);
    return 0;
  }
  const int rc = guarded([&]() -> int {
    s->engine->checkpoint_into(s->blob);
    return ICG_OK;
  });
  if (rc != ICG_OK) return 0;
  return static_cast<uint32_t>(s->blob.size());
}

int icg_session_checkpoint(icg_session* session, uint8_t* buf, uint32_t cap,
                           uint32_t* written) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (buf == nullptr || written == nullptr)
    return set_error(ICG_ERR_NULL_ARG, "buf/written is NULL");
  if (s->state == SessionState::Lost) return set_error(ICG_ERR_BAD_STATE, kLostState);
  return guarded([&]() -> int {
    s->engine->checkpoint_into(s->blob);
    *written = static_cast<uint32_t>(s->blob.size());
    if (s->blob.size() > cap)
      return set_error(ICG_ERR_BUFFER_TOO_SMALL,
                       "checkpoint blob exceeds caller buffer");
    std::memcpy(buf, s->blob.data(), s->blob.size());
    return ICG_OK;
  });
}

int icg_session_restore(icg_session* session, const uint8_t* blob, uint32_t len) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (blob == nullptr) return set_error(ICG_ERR_NULL_ARG, "blob is NULL");
  const std::span<const std::uint8_t> bytes(blob, len);
  return guarded([&]() -> int {
    // A blob with a bad frame or configuration touches nothing; one
    // refused past this check has replaced part of the state: Lost.
    if (!s->engine->restore_compatible(bytes))
      return set_error(ICG_ERR_BAD_CHECKPOINT,
                       "corrupt, truncated, or configuration-mismatched blob");
    std::string why;
    if (!s->engine->try_restore(bytes, why)) {
      s->state = SessionState::Lost;
      return set_error(ICG_ERR_BAD_CHECKPOINT, CheckpointError(why).what());
    }
    // A restored session resumes the source's stream: pollable from a
    // clean queue, accepting pushes again.
    s->queue_head = 0;
    s->queue_count = 0;
    s->state = SessionState::Streaming;
    return ICG_OK;
  });
}

#if !defined(ICGKIT_CAPI_MINIMAL)

int icg_session_record_start(icg_session* session, const char* path,
                             uint64_t checkpoint_interval_samples) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (path == nullptr) return set_error(ICG_ERR_NULL_ARG, "path is NULL");
  if (s->state != SessionState::Streaming)
    return set_error(ICG_ERR_BAD_STATE, "record_start after finish");
  if (s->engine->recording())
    return set_error(ICG_ERR_BAD_STATE, "session is already recording");
  return guarded([&]() -> int {
    s->engine->record_start(path, checkpoint_interval_samples);
    return ICG_OK;
  });
}

int icg_session_record_stop(icg_session* session) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (!s->engine->recording())
    return set_error(ICG_ERR_BAD_STATE, "session is not recording");
  return guarded([&]() -> int {
    s->engine->record_stop();
    return ICG_OK;
  });
}

int icg_session_record_start_mem(icg_session* session,
                                 uint64_t checkpoint_interval_samples) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (s->state != SessionState::Streaming)
    return set_error(ICG_ERR_BAD_STATE, "record_start after finish");
  if (s->engine->recording())
    return set_error(ICG_ERR_BAD_STATE, "session is already recording");
  return guarded([&]() -> int {
    s->engine->record_start_mem(checkpoint_interval_samples);
    return ICG_OK;
  });
}

int icg_session_record_stop_mem(icg_session* session, uint8_t* buf, uint32_t cap,
                                uint32_t* written) {
  SessionImpl* s = decode_handle(session);
  if (s == nullptr) return set_error(ICG_ERR_BAD_HANDLE, "stale or destroyed handle");
  if (written == nullptr) return set_error(ICG_ERR_NULL_ARG, "written is NULL");
  if (buf == nullptr && cap != 0) return set_error(ICG_ERR_NULL_ARG, "buf is NULL");
  return guarded([&]() -> int {
    // Stops the recorder (idempotent) but leaves the bytes in the sink
    // until they are actually delivered, so ICG_ERR_BUFFER_TOO_SMALL is
    // a retryable size probe rather than data loss.
    const std::vector<std::uint8_t>* blob = s->engine->record_mem_bytes();
    if (blob == nullptr)
      return set_error(ICG_ERR_BAD_STATE, "no in-memory recording to take");
    *written = static_cast<uint32_t>(blob->size());
    if (blob->size() > cap)
      return set_error(ICG_ERR_BUFFER_TOO_SMALL, "flight record exceeds capacity");
    std::memcpy(buf, blob->data(), blob->size());
    s->engine->record_mem_discard();
    return ICG_OK;
  });
}

int icg_flight_probe(const uint8_t* data, uint32_t len, uint32_t* backend,
                     double* sample_rate_hz, uint64_t* chunks,
                     uint64_t* checkpoints, uint64_t* beats,
                     uint32_t* finished) {
  if (data == nullptr && len != 0)
    return set_error(ICG_ERR_NULL_ARG, "data is NULL");
  const icgkit::core::FlightProbe probe =
      icgkit::core::probe_flight(std::span<const std::uint8_t>(data, len));
  if (!probe.valid)
    return set_error(ICG_ERR_BAD_CHECKPOINT,
                     "corrupt, truncated, or non-flight-record buffer");
  if (backend != nullptr)
    *backend = probe.header.backend_fixed ? ICG_BACKEND_Q31 : ICG_BACKEND_DOUBLE;
  if (sample_rate_hz != nullptr) *sample_rate_hz = probe.header.fs;
  if (chunks != nullptr) *chunks = probe.chunks;
  if (checkpoints != nullptr) *checkpoints = probe.checkpoints;
  if (beats != nullptr) *beats = probe.beats;
  if (finished != nullptr) *finished = probe.finished ? 1u : 0u;
  return ICG_OK;
}

int icg_demo_synth_recording(uint32_t subject_index, double duration_s,
                             double sample_rate_hz, double* ecg_mv, double* z_ohm,
                             uint32_t capacity, uint32_t* written) {
  if (ecg_mv == nullptr || z_ohm == nullptr || written == nullptr)
    return set_error(ICG_ERR_NULL_ARG, "buffer/written is NULL");
  if (!(duration_s > 0.0) || duration_s > 3600.0 || !(sample_rate_hz > 0.0))
    return set_error(ICG_ERR_BAD_CONFIG, "duration/sample rate out of range");
  return guarded([&]() -> int {
    using namespace icgkit;
    const auto roster = synth::paper_roster();
    const synth::SubjectProfile& subject =
        roster[subject_index % roster.size()];
    synth::RecordingConfig rcfg;
    rcfg.duration_s = duration_s;
    rcfg.fs = sample_rate_hz;
    const synth::SourceActivity source = generate_source(subject, rcfg);
    const synth::Recording rec =
        measure_device(subject, source, 50e3, synth::Position::HoldToChest);
    if (rec.z_ohm.size() != rec.ecg_mv.size())
      return set_error(ICG_ERR_INTERNAL, "synth channels have unequal lengths");
    *written = static_cast<uint32_t>(rec.ecg_mv.size());
    if (rec.ecg_mv.size() > capacity)
      return set_error(ICG_ERR_BUFFER_TOO_SMALL, "recording exceeds capacity");
    std::memcpy(ecg_mv, rec.ecg_mv.data(), rec.ecg_mv.size() * sizeof(double));
    std::memcpy(z_ohm, rec.z_ohm.data(), rec.z_ohm.size() * sizeof(double));
    return ICG_OK;
  });
}

#endif // !ICGKIT_CAPI_MINIMAL

} // extern "C"
