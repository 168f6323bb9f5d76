// The closed-loop fleet pilot shared by fleet_replay and the ladder's
// fleet row: one thread sweeps every session, records chunk completions
// through SessionHandle::processed(), offers each session its next chunk
// with try_push() as soon as a slot frees, and drains beats with poll().
#pragma once

#include "harness.h"
#include "inputs.h"

#include "core/fleet.h"

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Acceptance times are kept for this many most recent chunks of a
/// session. A session has at most FleetConfig::chunk_slots_per_session
/// (4) chunks in flight, so every chunk still to complete or to emit a
/// beat is well inside the ring.
inline constexpr std::size_t kAcceptRing = 256;

/// One session's input and what is observed about it, in memory fixed
/// when the session is set up.
struct PilotSession {
  const StoredRecording* rec = nullptr;
  /// Expected beats of the looped recording; when set, every delivered
  /// beat is checked against it as it arrives and its latency recorded.
  const Reference* ref = nullptr;
  std::uint64_t budget_chunks = 0;   ///< 0: push until the pilot stops
  std::uint64_t pushed = 0;          ///< chunks accepted by try_push
  std::uint64_t done = 0;            ///< chunks seen processed
  std::uint64_t delivered = 0;       ///< beats polled
  bool diverged = false;             ///< a delivered beat differed from `ref`
  bool attempting = false;
  std::int64_t first_attempt_ns = 0; ///< first try_push of the current chunk
  std::array<std::int64_t, kAcceptRing> accept_ns{};  ///< chunk k at k % kAcceptRing
};

struct PilotStats {
  std::uint64_t attempts = 0, rejects = 0;
  std::int64_t try_push_ns = 0;         ///< summed, clock overhead removed
  std::int64_t poll_ns = 0;
  std::uint64_t polled_beats = 0;
  std::uint64_t offered_samples = 0;    ///< samples of chunks first offered in the window
  Reservoir chunk_wait_ms{65536};       ///< first attempt -> acceptance
  Reservoir sweep_ms{65536};            ///< one pilot sweep over all sessions
  /// Acceptance -> processed, samples processed, and acceptance of the
  /// emission sample's chunk -> beat delivery, keyed by acceptance time.
  /// Left default (no window) when the caller does not need them.
  SlicedSample chunk_latency_ms;
  SlicedCounter completed;
  SlicedSample beat_latency_ms;
  std::vector<std::uint64_t> worker_samples;
};

/// Drives `sessions` (handles index-aligned) until pushing stops (at
/// `stop_ns`, or when every budget is spent) and every accepted chunk is
/// processed, then closes and joins the manager and drains the rest.
/// Latencies count only chunks accepted in [window_start_ns, window_end_ns).
/// With an enabled tracer, one sweep in `trace_every` is traced.
void run_pilot(icgkit::core::SessionManager& mgr,
               std::vector<icgkit::core::SessionHandle>& handles,
               std::vector<PilotSession>& sessions, std::size_t chunk,
               std::int64_t window_start_ns, std::int64_t window_end_ns,
               std::int64_t stop_ns, Tracer& tracer, PilotStats& stats,
               std::uint64_t trace_every = 128);

/// Appends the fleet.* per-layer metrics of a finished pilot run.
void fleet_metrics(const PilotStats& stats, std::vector<Metric>& out);

} // namespace perfbench
