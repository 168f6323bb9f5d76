#include "core/fleet.h"

#include "dsp/simd.h"
#include "dsp/stats.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

namespace icgkit::core {

namespace {

/// Work items per worker queue.
constexpr std::size_t kSubmitQueueCapacity = 1024;

// Two-stage wait: stay on the cheap yield path while work is flowing,
// back off to a short sleep once a queue stays blocked — so idle or
// backpressure-parked threads do not pin cores (which matters exactly
// when workers oversubscribe them).
class Backoff {
 public:
  void pause() {
    if (spins_ < 64) {
      ++spins_;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  void reset() { spins_ = 0; }

 private:
  unsigned spins_ = 0;
};

} // namespace

// ---------------------------------------------------------------------------
// Session / Worker construction: every buffer the hot path will ever
// touch is sized here, once.
// ---------------------------------------------------------------------------

SessionManager::Session::Session(std::uint32_t id_, std::uint32_t worker_,
                                 dsp::SampleRate fs, const FleetConfig& cfg)
    : id(id_),
      engine(fs, cfg.pipeline, cfg.window_s),
      slab(cfg.chunk_slots_per_session * cfg.max_chunk * 2),
      worker(worker_) {
  beat_scratch.reserve(64);
}

SessionManager::Worker::Worker(const FleetConfig& cfg)
    : in(kSubmitQueueCapacity), out(cfg.result_queue_capacity) {}

SessionManager::SessionManager(dsp::SampleRate fs, const FleetConfig& cfg)
    : fs_(fs), cfg_(cfg) {
  if (cfg.workers == 0) throw std::invalid_argument("SessionManager: workers must be >= 1");
  if (cfg.max_chunk == 0) throw std::invalid_argument("SessionManager: max_chunk must be >= 1");
  if (cfg.chunk_slots_per_session == 0)
    throw std::invalid_argument("SessionManager: chunk_slots_per_session must be >= 1");
  if (cfg.batch_width > 1 && !session_batch_width_supported(cfg.batch_width))
    throw std::invalid_argument("SessionManager: batch_width must be 0, 1, 4 or 8");
  // 0 = auto: pick the width this build's ISA runs without register
  // spills (see dsp::default_batch_width). Resolved once, here, so
  // every later decision (group formation, stats) sees a concrete width.
  if (cfg_.batch_width == 0) cfg_.batch_width = dsp::default_batch_width();
  workers_.reserve(cfg.workers);
  for (std::size_t i = 0; i < cfg.workers; ++i)
    workers_.push_back(std::make_unique<Worker>(cfg));
}

SessionManager::~SessionManager() {
  if (!started_ || joined_) return;
  if (!closed_) close();
  join();
}

// ---------------------------------------------------------------------------
// Pilot-side API
// ---------------------------------------------------------------------------

std::uint32_t SessionManager::do_add_session_on(std::uint32_t worker) {
  if (worker >= workers_.size())
    throw std::out_of_range("SessionManager: unknown worker");
  const auto id = static_cast<std::uint32_t>(sessions_.size());
  sessions_.push_back(std::make_unique<Session>(id, worker, fs_, cfg_));
  return id;
}

SessionHandle SessionManager::open() {
  return SessionHandle(this, do_add_session_on(least_loaded_worker()));
}

SessionHandle SessionManager::open_on(std::uint32_t worker) {
  return SessionHandle(this, do_add_session_on(worker));
}

SessionManager::Session& SessionManager::checked_session(std::uint32_t session) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  return *sessions_[session];
}

const SessionManager::Session& SessionManager::checked_session(
    std::uint32_t session) const {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  return *sessions_[session];
}

void SessionManager::start() {
  if (started_) throw std::logic_error("SessionManager: start() called twice");
  if (cfg_.batch_width > 1) form_batch_groups();
  started_ = true;
  active_workers_.store(workers_.size(), std::memory_order_release);
  for (auto& w : workers_)
    w->thread = std::thread([this, &w] {
      worker_loop(*w);
      active_workers_.fetch_sub(1, std::memory_order_acq_rel);
    });
}

void SessionManager::form_batch_groups() {
  // Group batch_width same-worker sessions (in id order) into lockstep
  // SIMD batches. Every session shares this manager's configuration, and
  // none has been *processed* yet (workers aren't running — pre-start
  // submits are still queued), so every lane sits at stream position 0:
  // a freshly built batch already holds exactly the state of the fresh
  // scalar engines it takes over (batch_test pins unpack() of a new
  // batch against their checkpoints).
  const std::size_t width = cfg_.batch_width;
  std::vector<Session*> cohort;
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    cohort.clear();
    for (auto& s : sessions_)
      if (s->worker == wi) cohort.push_back(s.get());
    for (std::size_t base = 0; base + width <= cohort.size(); base += width) {
      auto g = std::make_unique<BatchGroup>();
      g->lanes.assign(cohort.begin() + static_cast<std::ptrdiff_t>(base),
                      cohort.begin() + static_cast<std::ptrdiff_t>(base + width));
      g->batch = make_session_batch(width, fs_, cfg_.pipeline, cfg_.window_s);
      g->slots = cfg_.chunk_slots_per_session;
      g->max_chunk = cfg_.max_chunk;
      g->stash.resize(width * g->slots * g->max_chunk * 2);
      g->stash_len.assign(width * g->slots, 0);
      g->head.assign(width, 0);
      g->count.assign(width, 0);
      g->lane_beats.resize(width);
      g->lane_blobs.resize(width);
      g->ecg_ptrs.resize(width);
      g->z_ptrs.resize(width);
      g->packed = true;
      for (std::size_t l = 0; l < width; ++l) {
        g->lanes[l]->group = g.get();
        g->lanes[l]->lane = static_cast<std::uint32_t>(l);
      }
      workers_[wi]->groups.push_back(g.get());
      groups_.push_back(std::move(g));
    }
  }
}

bool SessionManager::enqueue_item(Session& s, dsp::SignalView ecg_mv, dsp::SignalView z_ohm,
                                  SessionOp op) {
  // After close() the shutdown sentinel is already queued; anything
  // enqueued behind it would never be processed and idle() would hang.
  if (closed_) throw std::logic_error("SessionManager: push after close()");
  if (s.finished) throw std::logic_error("SessionManager: session already finished");
  // Every op occupies one slot of the in-flight window so the
  // submitted/completed counters stay aligned on both sides (the worker
  // derives the slab slot of a chunk from its completed count).
  if (s.submitted - s.completed.load(std::memory_order_acquire) >=
      cfg_.chunk_slots_per_session)
    return false;  // no free chunk slot yet
  Worker& w = worker_of(s);
  WorkItem item{&s, static_cast<std::uint32_t>(ecg_mv.size()), op};
  if (op == SessionOp::Chunk) {
    const std::size_t slot = s.submitted % cfg_.chunk_slots_per_session;
    dsp::Sample* base = s.slab.data() + slot * cfg_.max_chunk * 2;
    std::memcpy(base, ecg_mv.data(), ecg_mv.size() * sizeof(dsp::Sample));
    std::memcpy(base + cfg_.max_chunk, z_ohm.data(), z_ohm.size() * sizeof(dsp::Sample));
  }
  if (!w.in.try_push(item)) return false;  // work queue full; slot copy is moot
  ++s.submitted;
  if (op == SessionOp::Finish) s.finished = true;
  return true;
}

bool SessionManager::do_try_submit(std::uint32_t session, dsp::SignalView ecg_mv,
                                dsp::SignalView z_ohm) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  if (ecg_mv.size() != z_ohm.size())
    throw std::invalid_argument("SessionManager: chunk length mismatch");
  if (ecg_mv.size() > cfg_.max_chunk)
    throw std::invalid_argument("SessionManager: chunk exceeds max_chunk");
  if (!dsp::all_finite(ecg_mv) || !dsp::all_finite(z_ohm))
    throw std::invalid_argument("SessionManager: non-finite sample in chunk");
  if (ecg_mv.empty()) return true;
  return enqueue_item(*sessions_[session], ecg_mv, z_ohm, SessionOp::Chunk);
}

void SessionManager::do_submit(std::uint32_t session, dsp::SignalView ecg_mv,
                            dsp::SignalView z_ohm, std::vector<FleetBeat>& sink) {
  Backoff backoff;
  while (!do_try_submit(session, ecg_mv, z_ohm)) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }
}

bool SessionManager::do_try_finish(std::uint32_t session) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  return enqueue_item(*sessions_[session], {}, {}, SessionOp::Finish);
}

void SessionManager::do_finish(std::uint32_t session, std::vector<FleetBeat>& sink) {
  Backoff backoff;
  while (!do_try_finish(session)) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }
}

void SessionManager::do_migrate(std::uint32_t session, std::uint32_t target_worker,
                             std::vector<FleetBeat>& sink) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  if (target_worker >= workers_.size())
    throw std::out_of_range("SessionManager: unknown worker");
  if (!started_) throw std::logic_error("SessionManager: migrate_to() before start()");
  Session& s = *sessions_[session];
  if (s.finished) throw std::logic_error("SessionManager: migrate_to() after finish");

  // 1. Ask the current owner to checkpoint. The work queue serializes
  //    this behind every chunk submitted so far, so the blob captures
  //    the session exactly at the cut point.
  s.checkpoint_ready.store(false, std::memory_order_relaxed);
  Backoff backoff;
  while (!enqueue_item(s, {}, {}, SessionOp::CheckpointOut)) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }

  // 2. Wait for the blob (polling so a result-parked source can drain).
  backoff.reset();
  while (!s.checkpoint_ready.load(std::memory_order_acquire)) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }

  // 3. One full drain pass. Every pre-cut beat of this session was
  //    pushed to the source's result queue before checkpoint_ready was
  //    released, so after the acquire above a single pass moves them all
  //    into `sink` — which is what keeps the per-session beat order
  //    intact even though the post-cut beats will surface through a
  //    different worker's queue.
  poll(sink);

  // 4. Re-home the session and hand the blob to the target. The
  //    pilot's acquire in step 2 plus the SPSC push below give the
  //    target a happens-before edge covering both the blob and the
  //    engine memory it will overwrite.
  s.worker = target_worker;
  backoff.reset();
  while (!enqueue_item(s, {}, {}, SessionOp::RestoreIn)) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }
  ++migrations_;
}

void SessionManager::do_start_recording(std::uint32_t session,
                                     std::unique_ptr<RecorderSink> sink,
                                     std::vector<FleetBeat>& drained,
                                     FlightRecorderConfig rcfg) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  if (!started_) throw std::logic_error("SessionManager: record_start() before start()");
  if (sink == nullptr)
    throw std::invalid_argument("SessionManager: record_start() needs a sink");
  Session& s = *sessions_[session];
  if (s.finished) throw std::logic_error("SessionManager: record_start() after finish");
  if (s.is_recording)
    throw std::logic_error("SessionManager: session is already being recorded");

  // The fields below are published to the worker by the work-queue push
  // inside enqueue_item (SPSC release/acquire), read there, and not
  // touched again by the pilot until the stop/finish acknowledgement.
  s.recorder_cfg = rcfg;
  s.recorder_sink = std::move(sink);
  s.record_ack.store(false, std::memory_order_relaxed);

  Backoff backoff;
  while (!enqueue_item(s, {}, {}, SessionOp::RecordStart)) {
    if (poll(drained) == 0) backoff.pause();
    else backoff.reset();
  }
  backoff.reset();
  while (!s.record_ack.load(std::memory_order_acquire)) {
    if (poll(drained) == 0) backoff.pause();
    else backoff.reset();
  }
  s.is_recording = true;
}

std::unique_ptr<RecorderSink> SessionManager::do_stop_recording(
    std::uint32_t session, std::vector<FleetBeat>& drained) {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  Session& s = *sessions_[session];
  if (!s.is_recording)
    throw std::logic_error("SessionManager: session is not being recorded");
  if (s.finished)
    throw std::logic_error(
        "SessionManager: recording was already finalized by finish()");

  s.record_ack.store(false, std::memory_order_relaxed);
  Backoff backoff;
  while (!enqueue_item(s, {}, {}, SessionOp::RecordStop)) {
    if (poll(drained) == 0) backoff.pause();
    else backoff.reset();
  }
  backoff.reset();
  while (!s.record_ack.load(std::memory_order_acquire)) {
    if (poll(drained) == 0) backoff.pause();
    else backoff.reset();
  }
  // The acquire above covers the worker's final writes; handing the
  // sink back lets the pilot read its bytes, and dropping it closes a
  // file sink deterministically at the cut.
  s.is_recording = false;
  return std::move(s.recorder_sink);
}

bool SessionManager::do_recording(std::uint32_t session) const {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  return sessions_[session]->is_recording;
}

std::uint32_t SessionManager::do_session_worker(std::uint32_t session) const {
  if (session >= sessions_.size())
    throw std::out_of_range("SessionManager: unknown session id");
  return sessions_[session]->worker;
}

std::uint32_t SessionManager::least_loaded_worker() const {
  std::vector<std::size_t> load(workers_.size(), 0);
  for (const auto& s : sessions_)
    if (!s->finished) ++load[s->worker];
  std::uint32_t best = 0;
  for (std::uint32_t w = 1; w < load.size(); ++w)
    if (load[w] < load[best]) best = w;
  return best;
}

void SessionManager::worker_queue_depths(std::vector<std::size_t>& out) const {
  out.assign(workers_.size(), 0);
  for (const auto& s : sessions_)
    out[s->worker] += static_cast<std::size_t>(
        s->submitted - s->completed.load(std::memory_order_acquire));
}

void SessionManager::worker_resident_sessions(std::vector<std::size_t>& out) const {
  out.assign(workers_.size(), 0);
  for (const auto& s : sessions_)
    if (!s->finished) ++out[s->worker];
}

bool SessionManager::do_session_finished(std::uint32_t session) const {
  return checked_session(session).finished;
}

std::uint64_t SessionManager::do_session_processed(std::uint32_t session) const {
  return checked_session(session).chunks_done.load(std::memory_order_acquire);
}

void SessionManager::run_to_completion(std::vector<FleetBeat>& sink) {
  for (const auto& s : sessions_)
    if (!s->finished) do_finish(s->id, sink);
  close();
  Backoff backoff;
  while (!idle()) {
    if (poll(sink) == 0) backoff.pause();
    else backoff.reset();
  }
  join();
  poll(sink);
}

std::size_t SessionManager::drain_queues(std::vector<FleetBeat>& out,
                                         std::size_t max_items) {
  std::size_t moved = 0;
  FleetBeat fb;
  for (auto& w : workers_) {
    while (moved < max_items && w->out.try_pop(fb)) {
      out.push_back(fb);
      ++moved;
    }
  }
  return moved;
}

std::size_t SessionManager::poll(std::vector<FleetBeat>& out, std::size_t max_items) {
  std::size_t moved = 0;
  while (moved < max_items && overflow_pos_ < overflow_.size()) {
    out.push_back(overflow_[overflow_pos_++]);
    ++moved;
  }
  if (overflow_pos_ == overflow_.size() && overflow_pos_ > 0) {
    overflow_.clear();
    overflow_pos_ = 0;
  }
  return moved + drain_queues(out, max_items - moved);
}

void SessionManager::close() {
  if (!started_) throw std::logic_error("SessionManager: close() before start()");
  if (closed_) return;
  closed_ = true;
  for (auto& w : workers_) {
    WorkItem stop{};
    // A worker parked on a full result queue never pops its work queue;
    // drain on its behalf so the sentinel always lands.
    Backoff backoff;
    while (!w->in.try_push(stop)) {
      if (drain_queues(overflow_, static_cast<std::size_t>(-1)) == 0) backoff.pause();
      else backoff.reset();
    }
  }
}

void SessionManager::join() {
  if (!closed_) throw std::logic_error("SessionManager: join() before close()");
  if (joined_) return;
  Backoff backoff;
  while (active_workers_.load(std::memory_order_acquire) > 0) {
    if (drain_queues(overflow_, static_cast<std::size_t>(-1)) == 0) backoff.pause();
    else backoff.reset();
  }
  for (auto& w : workers_) w->thread.join();
  joined_ = true;
}

bool SessionManager::idle() const {
  for (const auto& s : sessions_)
    if (s->completed.load(std::memory_order_acquire) != s->submitted) return false;
  return true;
}

const std::vector<FleetWorkerStats>& SessionManager::worker_stats() const {
  static const std::vector<FleetWorkerStats> empty;
  if (!joined_) return empty;
  stats_cache_.clear();
  for (const auto& w : workers_) {
    FleetWorkerStats s;
    s.chunks = w->chunks.load(std::memory_order_relaxed);
    s.samples = w->samples.load(std::memory_order_relaxed);
    s.beats = w->beats.load(std::memory_order_relaxed);
    stats_cache_.push_back(s);
  }
  return stats_cache_;
}

std::uint64_t SessionManager::total_samples() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->samples.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t SessionManager::total_beats() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->beats.load(std::memory_order_relaxed);
  return n;
}

// ---------------------------------------------------------------------------
// Worker loop: the whole hot path. Single-threaded per session by
// construction; zero steady-state allocation (push_into + reused
// scratch + by-value POD results).
// ---------------------------------------------------------------------------

void SessionManager::worker_loop(Worker& w) {
  WorkItem item;
  Backoff idle_backoff;
  for (;;) {
    if (!w.in.try_pop(item)) {
      idle_backoff.pause();
      continue;
    }
    idle_backoff.reset();
    if (item.session == nullptr) {
      // Pool shutdown: any chunks still stashed in lockstep groups must
      // reach their engines before the thread exits, or idle()/beat
      // totals would lie. Dissolve unpacks to scalar and flushes.
      for (BatchGroup* g : w.groups) dissolve_group(*g, w);
      return;
    }

    Session& s = *item.session;
    if (s.group != nullptr && s.group->packed) {
      // Lockstep fast path: buffer the chunk and advance the whole
      // group when every lane has work. Any op the batch engine cannot
      // service in lockstep (finish, checkpoint, restore, stash
      // overflow) dissolves the group back to scalar sessions first.
      if (item.op == SessionOp::Chunk && s.group->count[s.lane] < s.group->slots) {
        stash_chunk(*s.group, s, item, w);
        continue;
      }
      dissolve_group(*s.group, w);
    }
    s.beat_scratch.clear();
    switch (item.op) {
      case SessionOp::Finish:
        s.engine.finish_into(s.beat_scratch);
        if (s.recorder) {
          // A recorded session that runs to completion finalizes its own
          // file: tail beats + terminal summary, then the recorder goes
          // away (the pilot releases the sink when the manager dies).
          s.recorder->on_finish(s.engine, s.beat_scratch);
          s.recorder.reset();
        }
        break;
      case SessionOp::CheckpointOut:
        // Serialize after everything submitted ahead of this item; the
        // release store publishes the blob (and the engine memory) to
        // the pilot, which relays the handoff to the target worker
        // through its work queue.
        s.engine.checkpoint_into(s.migration_blob);
        s.completed.fetch_add(1, std::memory_order_release);
        s.checkpoint_ready.store(true, std::memory_order_release);
        w.chunks.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SessionOp::RestoreIn:
        // The blob is load-bearing: restore() overwrites every carried
        // field from it, so the round-trip tests (not shared memory)
        // are what guarantee the resumed stream's byte identity.
        s.engine.restore(s.migration_blob);
        s.completed.fetch_add(1, std::memory_order_release);
        w.chunks.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SessionOp::RecordStart:
        // Writes the file header and the initial checkpoint at this
        // exact cut (serialized behind every prior chunk). The ack is
        // released only after those bytes reached the sink.
        s.recorder = std::make_unique<FlightRecorder>(*s.recorder_sink, s.engine,
                                                      s.recorder_cfg);
        s.completed.fetch_add(1, std::memory_order_release);
        s.record_ack.store(true, std::memory_order_release);
        w.chunks.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SessionOp::RecordStop:
        if (s.recorder) {
          s.recorder->on_stop(s.engine);
          s.recorder.reset();
        }
        s.completed.fetch_add(1, std::memory_order_release);
        s.record_ack.store(true, std::memory_order_release);
        w.chunks.fetch_add(1, std::memory_order_relaxed);
        continue;
      case SessionOp::Chunk: {
        const std::size_t slot =
            s.completed.load(std::memory_order_relaxed) % cfg_.chunk_slots_per_session;
        const dsp::Sample* base = s.slab.data() + slot * cfg_.max_chunk * 2;
        s.engine.push_into(dsp::SignalView(base, item.len),
                           dsp::SignalView(base + cfg_.max_chunk, item.len),
                           s.beat_scratch);
        if (s.recorder)
          s.recorder->on_chunk(s.engine, dsp::SignalView(base, item.len),
                               dsp::SignalView(base + cfg_.max_chunk, item.len),
                               s.beat_scratch);
        w.samples.fetch_add(item.len, std::memory_order_relaxed);
        s.chunks_done.fetch_add(1, std::memory_order_release);
        break;
      }
    }
    // Release the chunk slot before publishing results: the slot's data
    // is fully consumed, and a parked result push must not block reuse.
    s.completed.fetch_add(1, std::memory_order_release);
    w.chunks.fetch_add(1, std::memory_order_relaxed);
    emit_beats(s, w, s.beat_scratch);
    if (item.op == SessionOp::Finish) {
      // Terminal record: the session's quality aggregate, emitted exactly
      // once, after the tail beats (not counted in the beat totals).
      FleetBeat fb{s.id, {}, /*end_of_session=*/true, s.engine.quality_summary()};
      Backoff park;
      while (!w.out.try_push(fb)) park.pause();
    }
  }
}

// ---------------------------------------------------------------------------
// Lockstep batch plumbing (worker-thread side). A BatchGroup is owned by
// exactly one worker while packed, so none of this needs extra locking:
// the work queue already serializes every touch.
// ---------------------------------------------------------------------------

void SessionManager::emit_beats(Session& s, Worker& w,
                                const std::vector<BeatRecord>& beats) {
  for (const BeatRecord& b : beats) {
    FleetBeat fb{s.id, b, /*end_of_session=*/false, {}};
    Backoff park;  // pilot must poll; park instead of pinning a core
    while (!w.out.try_push(fb)) park.pause();
    w.beats.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionManager::stash_chunk(BatchGroup& g, Session& s, const WorkItem& item,
                                 Worker& w) {
  // Copy the chunk out of the session's slab into the group's stash and
  // release the slab slot immediately — the pilot's submit window must
  // not stall on other lanes catching up. `completed` therefore means
  // "accepted by the worker", not "pushed through a pipeline"; the
  // samples reach the engine in process_batch_ready() or at dissolve.
  const std::size_t slab_slot =
      s.completed.load(std::memory_order_relaxed) % cfg_.chunk_slots_per_session;
  const dsp::Sample* base = s.slab.data() + slab_slot * cfg_.max_chunk * 2;
  const std::size_t stash_slot = (g.head[s.lane] + g.count[s.lane]) % g.slots;
  dsp::Sample* dst = g.stash.data() + (s.lane * g.slots + stash_slot) * g.max_chunk * 2;
  std::memcpy(dst, base, item.len * sizeof(dsp::Sample));
  std::memcpy(dst + g.max_chunk, base + cfg_.max_chunk, item.len * sizeof(dsp::Sample));
  g.stash_len[s.lane * g.slots + stash_slot] = item.len;
  ++g.count[s.lane];
  s.completed.fetch_add(1, std::memory_order_release);
  s.chunks_done.fetch_add(1, std::memory_order_release);
  w.chunks.fetch_add(1, std::memory_order_relaxed);
  w.samples.fetch_add(item.len, std::memory_order_relaxed);
  process_batch_ready(g, w);
}

void SessionManager::process_batch_ready(BatchGroup& g, Worker& w) {
  const std::size_t width = g.lanes.size();
  while (g.packed) {
    for (std::size_t l = 0; l < width; ++l)
      if (g.count[l] == 0) return;  // some lane still owes a chunk
    const std::uint32_t len = g.stash_len[0 * g.slots + g.head[0]];
    for (std::size_t l = 1; l < width; ++l) {
      if (g.stash_len[l * g.slots + g.head[l]] != len) {
        // Lanes fed with different chunk sizes can't tick in lockstep;
        // fall back to scalar rather than guess a split.
        dissolve_group(g, w);
        return;
      }
    }
    for (std::size_t l = 0; l < width; ++l) {
      const dsp::Sample* src =
          g.stash.data() + (l * g.slots + g.head[l]) * g.max_chunk * 2;
      g.ecg_ptrs[l] = src;
      g.z_ptrs[l] = src + g.max_chunk;
      g.lane_beats[l].clear();
    }
    g.batch->push(g.ecg_ptrs.data(), g.z_ptrs.data(), len, g.lane_beats.data());
    for (std::size_t l = 0; l < width; ++l) {
      g.head[l] = (g.head[l] + 1) % g.slots;
      --g.count[l];
      emit_beats(*g.lanes[l], w, g.lane_beats[l]);
    }
  }
}

void SessionManager::dissolve_group(BatchGroup& g, Worker& w) {
  if (!g.packed) return;
  g.packed = false;
  // unpack() is the production use of the lane de-interleave: each lane
  // becomes a v1 checkpoint blob that the scalar engine restores from,
  // so a dissolved session is bit-for-bit the session a scalar worker
  // would have produced.
  g.batch->unpack(g.lane_blobs);
  for (std::size_t l = 0; l < g.lanes.size(); ++l) {
    Session& ls = *g.lanes[l];
    ls.engine.restore(g.lane_blobs[l]);
    // Flush this lane's stashed chunks through the scalar engine. Their
    // chunk/sample counters were bumped at stash time; only beats and
    // latency samples are new here.
    while (g.count[l] > 0) {
      const dsp::Sample* src =
          g.stash.data() + (l * g.slots + g.head[l]) * g.max_chunk * 2;
      const std::uint32_t len = g.stash_len[l * g.slots + g.head[l]];
      ls.beat_scratch.clear();
      ls.engine.push_into(dsp::SignalView(src, len),
                          dsp::SignalView(src + g.max_chunk, len), ls.beat_scratch);
      emit_beats(ls, w, ls.beat_scratch);
      g.head[l] = (g.head[l] + 1) % g.slots;
      --g.count[l];
    }
    ls.group = nullptr;
  }
}

} // namespace icgkit::core
