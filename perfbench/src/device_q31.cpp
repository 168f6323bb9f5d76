// device_q31: the firmware path. Each device is a Q31 session behind the
// C ABI (icg_session_create with ICG_BACKEND_Q31) on its own thread, fed
// 10-sample chunks (one ADC DMA block) of a severe-preset recording in a
// closed loop, draining beats with icg_session_poll_beat after every push
// and taking a power-loss snapshot with icg_session_checkpoint into a
// reused buffer every 5 s of signal.
//
// A session lives for one pass over the recording (51 min of signal);
// the device then destroys it and creates the next. Every pass therefore
// emits exactly the beats of one reference pass, computed in set-up, and
// each pass is checked against it when it ends.
//
// kDevices such devices run side by side, one per core of the reference
// host, sharing nothing but the read-only input. A device's speed follows
// the state of whichever core it runs on, and the cores switch state
// independently, so each device's slices are kept as a lane of their own
// (SlicedSample::add_lane): the run's fast-state figures are read over
// every device's slices, and four devices find fast slices where one
// alone may not.
#include "workloads.h"

#include "capi/icgkit.h"
#include "core/beat_serializer.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace perfbench {

namespace core = icgkit::core;

namespace {

constexpr std::size_t kDevices = 4;
constexpr std::uint64_t kCheckpointEverySamples = 1250;  // 5 s at 250 Hz
constexpr std::uint64_t kTraceEvery = 256;
/// Observations kept per device and slice.
constexpr std::size_t kDeviceSliceCapacity = 1024;

core::BeatRecord from_c_beat(const icg_beat& b) {
  core::BeatRecord r;
  r.points.r = b.r;
  r.points.b = b.b;
  r.points.c = b.c;
  r.points.x = b.x;
  r.points.b0 = b.b0;
  r.points.b_method = static_cast<core::BPointMethod>(b.b_method);
  r.points.c_amplitude = b.c_amplitude;
  r.points.valid = b.valid != 0;
  r.rr_s = b.rr_s;
  r.hemo.pep_s = b.pep_s;
  r.hemo.lvet_s = b.lvet_s;
  r.hemo.hr_bpm = b.hr_bpm;
  r.hemo.dzdt_max = b.dzdt_max;
  r.hemo.sv_kubicek_ml = b.sv_kubicek_ml;
  r.hemo.sv_sramek_ml = b.sv_sramek_ml;
  r.hemo.co_kubicek_l_min = b.co_kubicek_l_min;
  r.hemo.tfc_per_kohm = b.tfc_per_kohm;
  r.flaws = static_cast<core::BeatFlaw>(b.flaws);
  return r;
}

icg_config device_config() {
  icg_config cfg;
  icg_config_init(&cfg);
  cfg.backend = ICG_BACKEND_Q31;
  return cfg;
}

/// Running digests of a pass's beats: their bytes, and the index (within
/// the pass) of the chunk each was polled after, which must hold its
/// emission sample.
struct PassDigest {
  std::uint64_t bytes = fnv1a(nullptr, 0);
  std::uint64_t chunks = fnv1a(nullptr, 0);
  std::uint64_t beats = 0;
  bool operator==(const PassDigest&) const = default;
};

/// The digest a correct pass cut after `chunks` chunks has.
PassDigest expected_digest(const Reference& ref, std::uint64_t chunks, std::size_t chunk) {
  PassDigest d;
  d.beats = ref.beats_before(chunks * chunk);
  d.bytes = fnv1a(ref.bytes.data(), d.beats * beat_byte_size());
  for (std::size_t b = 0; b < d.beats; ++b) {
    const std::uint64_t k = ref.emit[b] / chunk;
    d.chunks = fnv1a(&k, sizeof k, d.chunks);
  }
  return d;
}

/// One device and what is observed about it, in memory fixed before the
/// window.
struct Device {
  icg_session* session = nullptr;
  SlicedSample chunk_latency_ms, beat_latency_ms;
  SlicedCounter completed;
  Reservoir lag_ms{16384}, save_us{16384};
  std::vector<std::uint8_t> snapshot = std::vector<std::uint8_t>(std::size_t{1} << 17);
  /// Every icg_session_create call, timed: the device's first session
  /// before the window and each replacement inside it. setup_s is their
  /// median, so it is sampled across the run like the other timings
  /// rather than in one burst that the host's fast or slow state decides.
  Reservoir create_s{4096};
  PassDigest pass;                       ///< the current pass so far
  std::uint64_t pass_chunks = 0;         ///< chunks pushed in the current pass
  std::uint64_t pushed = 0, pushed_in_window = 0, sessions = 0;
  std::uint64_t failed_calls = 0, passes = 0, divergent_passes = 0, failed_chunks = 0;
  std::uint32_t blob_bytes = 0;
};

void drive(Device& d, const StoredRecording& rec, std::size_t chunk, const PassDigest& full,
           std::int64_t ws, std::int64_t we, Tracer& tracer) {
  const icg_config cfg = device_config();
  const std::uint64_t chunks_per_pass = rec.size() / chunk;
  const std::int64_t clock_cost = clock_pair_overhead_ns();
  const bool tracing = tracer.enabled();
  std::vector<unsigned char> bytes;
  bytes.reserve(beat_byte_size());
  std::int64_t prev_end = now_ns();
  icg_beat cb;
  for (;;) {
    const std::size_t off = static_cast<std::size_t>(d.pass_chunks * chunk);
    tracer.set_enabled(tracing && d.pushed % kTraceEvery == 0);
    const std::int32_t chunk_span = tracer.begin("device.chunk");
    const std::int32_t push_span = tracer.begin("capi.push");
    const std::int64_t ta = now_ns();
    if (ta >= we) {
      tracer.end(push_span);
      tracer.end(chunk_span);
      break;
    }
    const int rc = icg_session_push(d.session, rec.rec.ecg_mv.data() + off,
                                    rec.rec.z_ohm.data() + off,
                                    static_cast<std::uint32_t>(chunk));
    const std::int64_t tb = now_ns();
    tracer.end(push_span);
    const std::uint64_t k = d.pass_chunks++;
    ++d.pushed;
    if (rc < 0) ++d.failed_calls;
    const bool in_window = ta >= ws;
    if (in_window) {
      d.chunk_latency_ms.add(ta, ns_to_ms(tb - ta - clock_cost));
      d.lag_ms.add(ns_to_ms(ta - prev_end));
      d.completed.add(ta, static_cast<double>(chunk));
      ++d.pushed_in_window;
    }

    const std::int32_t poll_span = tracer.begin("capi.poll_beat");
    int got = 0;
    const std::uint64_t before = d.pass.beats;
    while ((got = icg_session_poll_beat(d.session, &cb)) == 1) {
      bytes.clear();
      core::serialize_beat(from_c_beat(cb), bytes);
      d.pass.bytes = fnv1a(bytes.data(), bytes.size(), d.pass.bytes);
      d.pass.chunks = fnv1a(&k, sizeof k, d.pass.chunks);
      ++d.pass.beats;
    }
    if (got < 0) ++d.failed_calls;
    const std::int64_t p1 = now_ns();
    tracer.end(poll_span);
    for (std::uint64_t b = before; b < d.pass.beats; ++b) d.beat_latency_ms.add(ta, ns_to_ms(p1 - ta));

    if ((d.pass_chunks * chunk) % kCheckpointEverySamples == 0) {
      const std::int32_t span = tracer.begin("capi.checkpoint");
      std::int64_t c0 = now_ns();
      int st = icg_session_checkpoint(d.session, d.snapshot.data(),
                                      static_cast<std::uint32_t>(d.snapshot.size()), &d.blob_bytes);
      if (st == ICG_ERR_BUFFER_TOO_SMALL) {  // grow the reused buffer once, then retry
        d.snapshot.resize(static_cast<std::size_t>(d.blob_bytes) * 2);
        c0 = now_ns();
        st = icg_session_checkpoint(d.session, d.snapshot.data(),
                                    static_cast<std::uint32_t>(d.snapshot.size()), &d.blob_bytes);
      }
      const std::int64_t c1 = now_ns();
      tracer.end(span);
      if (st != ICG_OK) ++d.failed_calls;
      if (in_window) d.save_us.add(static_cast<double>(c1 - c0 - clock_cost) * 1e-3);
    }

    if (d.pass_chunks == chunks_per_pass) {  // end of the recording: next session
      const std::int32_t span = tracer.begin("device.next_session");
      ++d.passes;
      if (!(d.pass == full)) {
        ++d.divergent_passes;
        d.failed_chunks += d.pass_chunks;
      }
      icg_session_destroy(d.session);
      const std::int64_t c0 = now_ns();
      d.session = icg_session_create(&cfg);
      d.create_s.add(static_cast<double>(now_ns() - c0) * 1e-9);
      ++d.sessions;
      d.pass = PassDigest{};
      d.pass_chunks = 0;
      tracer.end(span);
    }
    tracer.end(chunk_span);
    if (d.session == nullptr) {
      ++d.failed_calls;
      break;
    }
    prev_end = now_ns();
  }
  tracer.set_enabled(tracing);
}

} // namespace

RunOutcome run_device_q31(const WorkloadInputs& in, double seconds, Tracer& tracer) {
  RunOutcome out;
  const StoredRecording& rec = in.recordings.front();
  const std::size_t chunk = in.chunk;
  const std::uint64_t pass_samples = rec.size() / chunk * chunk;
  const Reference ref = reference_run(rec, pass_samples, in.backend, /*finish=*/false);
  const PassDigest full = expected_digest(ref, pass_samples / chunk, chunk);

  const icg_config cfg = device_config();

  std::vector<Device> devices(kDevices);
  for (Device& d : devices) {
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(tracer, "device_q31.setup");
      d.session = icg_session_create(&cfg);
    }
    d.create_s.add(static_cast<double>(now_ns() - t0) * 1e-9);
    d.sessions = 1;
    if (d.session == nullptr) {
      out.problems.push_back(std::string("icg_session_create failed: ") + icg_last_error());
      for (Device& e : devices)
        if (e.session != nullptr) icg_session_destroy(e.session);
      out.attempted = out.failed = 1;
      return out;
    }
  }

  // Every device replays the same recording; only device 0 is traced (a
  // Tracer belongs to one thread).
  const std::int64_t ws = now_ns() + static_cast<std::int64_t>(kWarmupS * 1e9);
  const std::int64_t we = ws + static_cast<std::int64_t>(seconds * 1e9);
  for (Device& d : devices) {
    d.chunk_latency_ms = SlicedSample(ws, seconds, kChunkSliceS, kDeviceSliceCapacity);
    d.beat_latency_ms = SlicedSample(ws, seconds, kBeatSliceS, kDeviceSliceCapacity);
    d.completed = SlicedCounter(ws, seconds, kChunkSliceS);
  }
  std::vector<Tracer> quiet(kDevices, Tracer(false));
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kDevices; ++i)
      threads.emplace_back(drive, std::ref(devices[i]), std::cref(rec), chunk, std::cref(full),
                           ws, we, std::ref(i == 0 ? tracer : quiet[i]));
    for (std::thread& t : threads) t.join();
  }
  out.peak_rss_mb = peak_rss_mb();

  Reservoir lag_ms(kDevices * 16384), save_us(kDevices * 16384);
  std::uint64_t pushed_in_window = 0;
  for (std::size_t i = 0; i < kDevices; ++i) {
    Device& d = devices[i];
    // The pass cut by the end of the window is checked on its prefix.
    if (d.session != nullptr) {
      icg_session_destroy(d.session);
      if (!(d.pass == expected_digest(ref, d.pass_chunks, chunk))) {
        ++d.divergent_passes;
        d.failed_chunks += d.pass_chunks;
      }
      ++d.passes;
    }
    if (i == 0) {
      out.chunk_latency_ms = std::move(d.chunk_latency_ms);
      out.beat_latency_ms = std::move(d.beat_latency_ms);
      out.completed = std::move(d.completed);
    } else {
      out.chunk_latency_ms.add_lane(d.chunk_latency_ms);
      out.beat_latency_ms.add_lane(d.beat_latency_ms);
      out.completed.add_lane(d.completed);
    }
    lag_ms.merge(d.lag_ms);
    save_us.merge(d.save_us);
    const std::vector<double> creates = d.create_s.sorted();
    out.setup_s.insert(out.setup_s.end(), creates.begin(), creates.end());
    pushed_in_window += d.pushed_in_window;
    out.attempted += d.pushed + d.sessions;
    out.failed += d.failed_chunks + d.failed_calls;
    out.streams_checked += d.passes;
    out.divergent_streams += d.divergent_passes;
    if (d.divergent_passes > 0 || d.failed_calls > 0)
      out.problems.push_back("device " + std::to_string(i) + ": " +
                             std::to_string(d.divergent_passes) + " of " +
                             std::to_string(d.passes) + " passes differ from the reference, " +
                             std::to_string(d.failed_calls) + " failed C ABI calls");
  }
  out.chunks_in_window = pushed_in_window;
  // Every pass that matched emitted exactly the reference's beats, so
  // accuracy is the reference pass's.
  if (out.divergent_streams == 0)
    score_stream(rec, pass_samples, /*finished=*/false,
                 std::span<const ScoredBeat>(ref.beats.data(), ref.streamed_beats), out.accuracy);

  out.layer = {
      {"loadgen.lag_p99_ms", percentile(lag_ms.sorted(), 99.0), "ms"},
      {"loadgen.offered_sps", static_cast<double>(pushed_in_window * chunk) / seconds,
       "samples/s"},
      {"checkpoint.save_us", median(save_us.sorted()), "us"},
      {"checkpoint.blob_kb", static_cast<double>(devices.front().blob_bytes) / 1024.0, "KiB"},
  };
  return out;
}

} // namespace perfbench
