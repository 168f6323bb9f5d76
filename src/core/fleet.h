// Multi-session fleet engine: thousands of independent
// StreamingBeatPipeline sessions on one host.
//
// The paper's firmware serves one wearer; the ROADMAP north star is a
// backend serving millions of streams. This subsystem is the host-side
// concurrency layer for that: a SessionManager owns N sessions and
// shards them across a fixed pool of worker threads. Because a session
// lives on exactly one worker and its chunks are processed in
// submission order, every session's hot path stays single-threaded and
// lock-free — per-session output is byte-identical whatever the worker
// count, which is the determinism contract the fleet tests pin down.
//
// Session-facing API: `open()` returns a `SessionHandle`, an RAII
// façade over one session's input side (push/finish, plus migration and
// flight recording). Output is fleet-wide: SessionManager::poll() drains
// every session's completed beats, each FleetBeat tagged with the id of
// the session that produced it. Placement is load-aware — open() homes
// the session on `least_loaded_worker()` (for sequential opens on a
// fresh fleet that is the static `id % workers` order, which is why the
// determinism fixtures never moved).
//
// Threading model (strict, by construction):
//   - ONE pilot thread calls open / push / finish / poll / close. All
//     cross-thread channels are SPSC queues whose producer/consumer
//     roles follow from that: pilot -> worker for work items, worker ->
//     pilot for completed beats.
//   - Workers never touch the session table, only the Session* carried
//     by their work items.
//
// Memory pooling (zero steady-state allocation on the hot path):
//   - each session pre-sizes its StreamingBeatPipeline (ring buffers,
//     delineation scratch) at open time;
//   - submitted chunks are copied into a per-session slab of
//     chunk_slots_per_session fixed slots, recycled in FIFO order — the
//     producer claims slot (submitted % slots) only when
//     submitted - completed < slots, the worker releases it by bumping
//     `completed` after the push;
//   - completed beats travel by value (BeatRecord is POD) through
//     pre-sized result queues.
//
// Backpressure is explicit and bounded end to end: no free chunk slot or
// a full work queue fails try_push (the pilot drains results and
// retries); a full result queue parks the worker until the pilot polls.
//
// Elastic rebalancing (core::Checkpoint subsystem): a session is no
// longer pinned for life to the worker that created it.
// SessionHandle::migrate_to() checkpoints the session's full engine
// state on its current worker, hands the blob off, and restores it on
// the target worker, after which every subsequent chunk is processed
// there — with byte-identical per-session output to the never-migrated
// run, at any cut point. The control messages ride the existing SPSC
// work queues (a CheckpointOut item to the source, a RestoreIn item to
// the target); the blob itself lives in the session's pilot-owned
// buffer, published source -> pilot by an acquire/release flag and
// pilot -> target through the target's work queue, so every handoff has
// a happens-before edge (the TSan CI entry runs the migration tests to
// keep it that way). `worker_queue_depths()` exposes the live
// submitted-minus-completed depth per worker — the load signal the
// network server's periodic rebalancer feeds back into migrate_to().
#pragma once

#include "core/batch.h"
#include "core/flight_recorder.h"
#include "core/pipeline.h"
#include "core/spsc_queue.h"
#include "dsp/types.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace icgkit::core {

class SessionHandle;

struct FleetConfig {
  std::size_t workers = 1;
  /// Largest chunk (samples) a single submit may carry; sizes the slab slots.
  std::size_t max_chunk = 256;
  /// In-flight chunks per session (slab slots).
  std::size_t chunk_slots_per_session = 4;
  /// Completed beats per worker queue.
  std::size_t result_queue_capacity = 8192;
  /// Per-session look-back window, as in StreamingBeatPipeline.
  double window_s = 12.0;
  /// SIMD batch mode (core::SessionBatch): 0 (the default) auto-selects
  /// the widest lockstep width this build's ISA runs without register
  /// spills — 8 on AVX2, AVX-512 or NEON, scalar on builds whose lane
  /// vector lowers to SSE2 or scalar code (see
  /// dsp::default_batch_width; the chosen value is readable via
  /// SessionManager::resolved_batch_width). 1 forces every session onto
  /// its own scalar engine; 4 or 8 makes start() group that many
  /// same-worker sessions into lockstep SIMD batches. Per-session output
  /// is byte-identical either way (the batch identity contract); batching
  /// only changes throughput. A worker advances a batch when every lane
  /// has a pending chunk of the same length, stashing early arrivals (one
  /// slab's worth per lane); a group whose lanes diverge — a finish or
  /// migration on one lane, mismatched chunk lengths, a stash overflow —
  /// is dissolved back to scalar engines via the checkpoint format and
  /// stays scalar. Sessions left over after grouping (count % width, or
  /// added after start()) run scalar as before.
  std::size_t batch_width = 0;
  PipelineConfig pipeline{};
};

/// One completed beat, tagged with the session that produced it — or,
/// when end_of_session is set, the terminal record a finished session
/// emits exactly once, after its tail beats: `beat` is default-valued
/// and `session_summary` carries the session's QualitySummary (beats,
/// usable fraction, per-flaw counts, contact gaps, recovery resets).
/// Consumers that only want beats skip end_of_session records.
struct FleetBeat {
  std::uint32_t session = 0;
  BeatRecord beat{};
  bool end_of_session = false;
  QualitySummary session_summary{};  ///< valid when end_of_session
};

/// Per-worker counters, valid to read after join().
struct FleetWorkerStats {
  std::uint64_t chunks = 0;
  std::uint64_t samples = 0;
  std::uint64_t beats = 0;
};

class SessionManager {
 public:
  SessionManager(dsp::SampleRate fs, const FleetConfig& cfg = {});
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Opens a new session and pre-allocates everything it will ever need
  /// (pipeline state, chunk slab, beat scratch), homing it on
  /// `least_loaded_worker()` — the load-aware placement that replaced
  /// static `id % workers`. For sequential opens on a fresh fleet the
  /// two policies pick identical workers (lowest index wins ties), so
  /// the cross-worker-count determinism fixtures hold unchanged.
  /// Returns the RAII façade; the handle's destructor finishes a
  /// still-streaming session (discarding its tail beats) unless the
  /// pool was already closed. Pilot thread only; legal before or after
  /// start().
  [[nodiscard]] SessionHandle open();

  /// open() with explicit placement (tests and repack tooling).
  [[nodiscard]] SessionHandle open_on(std::uint32_t worker);

  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool closed() const { return closed_; }

  /// The concrete lockstep width this manager runs: what
  /// FleetConfig::batch_width = 0 resolved to for this build's ISA,
  /// or the explicitly configured value otherwise. Always 1, 4 or 8.
  [[nodiscard]] std::size_t resolved_batch_width() const { return cfg_.batch_width; }

  /// Spawns the worker pool. Call once.
  void start();

  /// Worker with the fewest resident unfinished sessions (pilot thread
  /// only) — open()'s placement policy and the natural migrate_to()
  /// target when draining or rebalancing. Ties break to the lowest
  /// worker index.
  [[nodiscard]] std::uint32_t least_loaded_worker() const;

  /// Live submitted-but-not-yet-completed work items per worker (pilot
  /// thread only; the workers' completed counters are read with acquire
  /// loads). This is the queue-depth signal the network server's
  /// periodic rebalancer uses to pick migration donors and targets.
  /// Appends nothing — `out` is assigned, its capacity reused.
  void worker_queue_depths(std::vector<std::size_t>& out) const;

  /// Resident unfinished sessions per worker (pilot thread only) — the
  /// static component of worker load, complementing the instantaneous
  /// worker_queue_depths().
  void worker_resident_sessions(std::vector<std::size_t>& out) const;

  /// Completed migrations so far (SessionHandle::migrate_to() calls).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

  /// Moves up to max_items completed beats into `out` (appended, not
  /// cleared). Pilot thread only. Returns the number moved. This is the
  /// one delivery path: every session's beats and end_of_session records
  /// fan in here, in per-session order, and every blocking verb spins on
  /// it while it waits.
  std::size_t poll(std::vector<FleetBeat>& out,
                   std::size_t max_items = static_cast<std::size_t>(-1));

  /// The canonical end-of-input sequence in one call: finishes every
  /// unfinished session, close()s the pool, polls into `sink` until all
  /// submitted work is processed, join()s the workers, and performs the
  /// final poll. After it returns, `sink` holds every remaining beat.
  void run_to_completion(std::vector<FleetBeat>& sink);

  /// Signals end of input: workers exit once their queues drain. Safe to
  /// call once after the last submit/finish. Drains results into an
  /// internal overflow (re-pollable) if it must wait for queue space.
  void close();

  /// Waits for all workers to exit (close() first), draining results
  /// while waiting so backpressure-parked workers can finish. Everything
  /// drained or still queued remains pollable after join().
  void join();

  /// True once every submitted chunk has been processed.
  [[nodiscard]] bool idle() const;

  /// Per-worker counters; stable after join().
  [[nodiscard]] const std::vector<FleetWorkerStats>& worker_stats() const;

  /// Running totals, safe to read from any thread while workers run
  /// (relaxed atomic counters — a live dashboard surface).
  [[nodiscard]] std::uint64_t total_samples() const;
  [[nodiscard]] std::uint64_t total_beats() const;

 private:
  friend class SessionHandle;

  /// What a work item asks the owning worker to do with the session.
  enum class SessionOp : std::uint8_t {
    Chunk,          ///< push one slab chunk through the engine
    Finish,         ///< end-of-stream flush + end-of-session record
    CheckpointOut,  ///< serialize the engine into the migration blob
    RestoreIn,      ///< deserialize the migration blob into the engine
    RecordStart,    ///< open a flight recorder over the installed sink
    RecordStop,     ///< finalize the flight recorder mid-stream
  };

  struct BatchGroup;

  struct Session {
    Session(std::uint32_t id, std::uint32_t worker, dsp::SampleRate fs,
            const FleetConfig& cfg);

    std::uint32_t id;
    StreamingBeatPipeline engine;
    std::vector<dsp::Sample> slab;      ///< slots * max_chunk * 2 samples
    std::uint64_t submitted = 0;        ///< pilot side
    std::atomic<std::uint64_t> completed{0};  ///< worker side: all work items
    /// Worker side: Chunk items only. `completed` also counts control
    /// ops (checkpoint/restore/record start/stop), so it is the slab and
    /// queue bookkeeping counter; this one is the flow-control counter a
    /// CACK may expose — a migration must not inflate a client's ack.
    std::atomic<std::uint64_t> chunks_done{0};
    bool finished = false;              ///< pilot side
    std::uint32_t worker = 0;           ///< pilot side: current owner
    std::vector<BeatRecord> beat_scratch;     ///< worker side, reused
    /// Migration handoff: written by the source worker (CheckpointOut),
    /// published to the pilot by checkpoint_ready, then to the target
    /// worker through its work queue (RestoreIn). Capacity is reused
    /// across migrations.
    std::vector<std::uint8_t> migration_blob;
    std::atomic<bool> checkpoint_ready{false};
    /// Flight recording: the sink is installed by the pilot before the
    /// RecordStart op; the recorder is created, driven and destroyed
    /// exclusively by the owning worker (the work-queue handoffs give it
    /// the same happens-before edges as the engine, so it rides the
    /// session across migrations). Declared sink-before-recorder so the
    /// recorder is destroyed first. record_ack is the worker -> pilot
    /// acknowledgement for RecordStart/RecordStop, released only after
    /// the corresponding file sections are in the sink.
    std::unique_ptr<RecorderSink> recorder_sink;
    std::unique_ptr<FlightRecorder> recorder;
    FlightRecorderConfig recorder_cfg;  ///< pilot-written before RecordStart
    std::atomic<bool> record_ack{false};
    bool is_recording = false;  ///< pilot side
    /// Batch mode: the lockstep group this session rides in, or nullptr
    /// when it runs its own scalar engine. Set by start(), cleared by the
    /// owning worker when the group dissolves (while the session is
    /// packed, `engine` is stale — the live state is group lane `lane`).
    BatchGroup* group = nullptr;
    std::uint32_t lane = 0;
  };

  /// One lockstep SIMD batch of batch_width same-worker sessions (batch
  /// mode only). Owned by the manager, driven exclusively by the owning
  /// worker after start(). Each lane has a FIFO chunk stash (slab-sized)
  /// absorbing arrival skew: the batch advances only when every lane
  /// holds a chunk of the same length.
  struct BatchGroup {
    std::vector<Session*> lanes;
    std::unique_ptr<SessionBatchBase> batch;
    bool packed = false;    ///< worker side after start(); false = dissolved
    std::size_t slots = 0;      ///< stash depth per lane (= chunk slots)
    std::size_t max_chunk = 0;
    std::vector<dsp::Sample> stash;          ///< lanes * slots * max_chunk * 2
    std::vector<std::uint32_t> stash_len;    ///< lanes * slots
    std::vector<std::size_t> head, count;    ///< per-lane FIFO state
    std::vector<std::vector<BeatRecord>> lane_beats;       ///< reused
    std::vector<std::vector<std::uint8_t>> lane_blobs;     ///< unpack reuse
    std::vector<const dsp::Sample*> ecg_ptrs, z_ptrs;      ///< reused
  };

  /// session == nullptr is the pool-shutdown sentinel.
  struct WorkItem {
    Session* session = nullptr;
    std::uint32_t len = 0;
    SessionOp op = SessionOp::Chunk;
  };

  struct Worker {
    explicit Worker(const FleetConfig& cfg);
    SpscQueue<WorkItem> in;
    SpscQueue<FleetBeat> out;
    /// Batch groups homed on this worker (filled by start(), before the
    /// thread spawns); dissolved on shutdown so stashed chunks flush.
    std::vector<BatchGroup*> groups;
    /// Counters are atomic (relaxed) so the pilot can read live totals
    /// while the worker runs.
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> beats{0};
    std::thread thread;
  };

  // The implementations behind the SessionHandle verbs.
  std::uint32_t do_add_session_on(std::uint32_t worker);
  bool do_try_submit(std::uint32_t session, dsp::SignalView ecg_mv, dsp::SignalView z_ohm);
  void do_submit(std::uint32_t session, dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                 std::vector<FleetBeat>& sink);
  bool do_try_finish(std::uint32_t session);
  void do_finish(std::uint32_t session, std::vector<FleetBeat>& sink);
  void do_migrate(std::uint32_t session, std::uint32_t target_worker,
                  std::vector<FleetBeat>& sink);
  void do_start_recording(std::uint32_t session, std::unique_ptr<RecorderSink> sink,
                          std::vector<FleetBeat>& drained, FlightRecorderConfig rcfg);
  std::unique_ptr<RecorderSink> do_stop_recording(std::uint32_t session,
                                                  std::vector<FleetBeat>& drained);
  [[nodiscard]] bool do_recording(std::uint32_t session) const;
  [[nodiscard]] std::uint32_t do_session_worker(std::uint32_t session) const;
  [[nodiscard]] bool do_session_finished(std::uint32_t session) const;
  [[nodiscard]] std::uint64_t do_session_processed(std::uint32_t session) const;

  [[nodiscard]] Worker& worker_of(const Session& s) { return *workers_[s.worker]; }
  Session& checked_session(std::uint32_t session);
  const Session& checked_session(std::uint32_t session) const;
  bool enqueue_item(Session& s, dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                    SessionOp op);
  std::size_t drain_queues(std::vector<FleetBeat>& out, std::size_t max_items);
  void worker_loop(Worker& w);
  // Batch mode (worker side unless noted).
  void form_batch_groups();  ///< pilot, from start()
  void stash_chunk(BatchGroup& g, Session& s, const WorkItem& item, Worker& w);
  void process_batch_ready(BatchGroup& g, Worker& w);
  void dissolve_group(BatchGroup& g, Worker& w);
  static void emit_beats(Session& s, Worker& w, const std::vector<BeatRecord>& beats);

  dsp::SampleRate fs_;
  FleetConfig cfg_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<BatchGroup>> groups_;  ///< batch mode only
  std::atomic<std::size_t> active_workers_{0};
  /// Results drained while close()/join() waited; served by poll() ahead
  /// of the live queues to preserve per-session order.
  std::vector<FleetBeat> overflow_;
  std::size_t overflow_pos_ = 0;
  mutable std::vector<FleetWorkerStats> stats_cache_;
  std::uint64_t migrations_ = 0;  ///< pilot side
  bool started_ = false;
  bool closed_ = false;
  bool joined_ = false;
};

/// RAII façade over one fleet session's input side: open (via
/// SessionManager::open()), push, finish, migrate_to and flight
/// recording. Beats come back through SessionManager::poll(). A handle
/// is movable, not copyable; the pilot-thread-only discipline of
/// SessionManager applies to every verb. Destroying a handle whose
/// session is still streaming finishes it (tail beats are discarded),
/// unless the pool was already closed — so a scope exit can never leak
/// an unfinished session into close().
class SessionHandle {
 public:
  SessionHandle() = default;
  SessionHandle(SessionHandle&& o) noexcept : mgr_(o.mgr_), id_(o.id_) {
    o.mgr_ = nullptr;
  }
  SessionHandle& operator=(SessionHandle&& o) noexcept {
    if (this != &o) {
      reset();
      mgr_ = o.mgr_;
      id_ = o.id_;
      o.mgr_ = nullptr;
    }
    return *this;
  }
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;
  ~SessionHandle() { reset(); }

  /// True when the handle refers to a session (default-constructed and
  /// moved-from handles are invalid; every verb below requires valid()).
  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
  explicit operator bool() const { return valid(); }

  /// The session's fleet id — stable for the session's lifetime, used
  /// in FleetBeat::session to route fan-in poll() results.
  [[nodiscard]] std::uint32_t id() const { return id_; }

  /// The worker currently owning the session's engine.
  [[nodiscard]] std::uint32_t worker() const { return mgr_->do_session_worker(id_); }

  /// True once finish()/try_finish() was accepted.
  [[nodiscard]] bool finished() const { return mgr_->do_session_finished(id_); }

  /// Chunks the owning worker has accepted and consumed for this
  /// session so far (acquire read of the worker's counter). Control
  /// ops — migration checkpoints/restores, recording start/stop — are
  /// deliberately not counted: this is the cumulative count the
  /// server's CACK records report, and clients window their sends
  /// against it, so it must advance once per submitted chunk, exactly.
  [[nodiscard]] std::uint64_t processed() const {
    return mgr_->do_session_processed(id_);
  }

  /// Copies one synchronized chunk into the session's slab and hands it
  /// to the owning worker. Returns false when backpressured (no free
  /// slot or full work queue) — drain with SessionManager::poll() and
  /// retry. Chunks are processed strictly in submission order.
  bool try_push(dsp::SignalView ecg_mv, dsp::SignalView z_ohm) {
    return mgr_->do_try_submit(id_, ecg_mv, z_ohm);
  }

  /// Blocking push: spins on try_push, appending any beats drained
  /// while waiting to `sink` so the wait can always make progress.
  void push(dsp::SignalView ecg_mv, dsp::SignalView z_ohm, std::vector<FleetBeat>& sink) {
    mgr_->do_submit(id_, ecg_mv, z_ohm, sink);
  }

  /// Enqueues the end-of-stream flush (emits tail beats, then the
  /// end_of_session QualitySummary record). No further pushes are
  /// accepted. Returns false when backpressured.
  bool try_finish() { return mgr_->do_try_finish(id_); }

  /// Blocking finish (drains into `sink` while waiting).
  void finish(std::vector<FleetBeat>& sink) { mgr_->do_finish(id_, sink); }

  /// Moves the live session to another worker (see the migration notes
  /// on SessionManager): blocking control-plane call, byte-identical
  /// output guaranteed, `sink` holds every pre-migration beat when it
  /// returns.
  void migrate_to(std::uint32_t worker, std::vector<FleetBeat>& sink) {
    mgr_->do_migrate(id_, worker, sink);
  }

  /// Starts flight-recording the live session into `sink` (see
  /// core/flight_recorder.h): header + initial checkpoint at the exact
  /// cut point, then every subsequent chunk, purely observationally.
  /// Blocking control-plane call; drains into `drained` while waiting.
  void record_start(std::unique_ptr<RecorderSink> sink, std::vector<FleetBeat>& drained,
                    FlightRecorderConfig rcfg = {}) {
    mgr_->do_start_recording(id_, std::move(sink), drained, rcfg);
  }

  /// Cuts a live recording mid-stream and hands the sink back (see
  /// SessionManager notes). The file replays up to the cut.
  std::unique_ptr<RecorderSink> record_stop(std::vector<FleetBeat>& drained) {
    return mgr_->do_stop_recording(id_, drained);
  }

  /// True while the session has an active recording.
  [[nodiscard]] bool recording() const { return mgr_->do_recording(id_); }

  /// Detaches the handle from the session without finishing it: the
  /// session stays alive under its raw id, for the manager-level
  /// run_to_completion() sweep. Returns the id; the handle becomes
  /// invalid.
  std::uint32_t release() {
    const std::uint32_t id = id_;
    mgr_ = nullptr;
    return id;
  }

 private:
  friend class SessionManager;
  SessionHandle(SessionManager* mgr, std::uint32_t id) : mgr_(mgr), id_(id) {}

  /// Destructor/assignment guard: finish a still-streaming session so a
  /// dropped handle cannot leak un-flushed state — but only when the
  /// pool can still process the flush (started, not closed). Tail beats
  /// surface through poll(); this handle no longer claims them.
  void reset() {
    if (mgr_ == nullptr) return;
    if (mgr_->started() && !mgr_->closed() && !mgr_->do_session_finished(id_)) {
      std::vector<FleetBeat> drained;
      mgr_->do_finish(id_, drained);
      // Park what we drained so SessionManager::poll() still delivers
      // it.
      for (const FleetBeat& fb : drained) mgr_->overflow_.push_back(fb);
    }
    mgr_ = nullptr;
  }

  SessionManager* mgr_ = nullptr;
  std::uint32_t id_ = 0;
};

/// The subsystem's working name in prose and benches.
using Fleet = SessionManager;

} // namespace icgkit::core
