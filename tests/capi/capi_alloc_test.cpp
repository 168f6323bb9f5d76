// Verifies the C ABI's embedded-profile memory contract: after
// icg_session_create (the only allocating call) a warmed-up session's
// push / poll / finish / checkpoint hot path performs ZERO heap
// allocation — the beat queue is a fixed ring, the emission scratch and
// checkpoint blob reuse their capacity, and the engine underneath keeps
// the PR-2 zero-steady-state-allocation property through the boundary.
//
// Same technique as tests/core/fleet_alloc_test.cpp: this binary
// replaces the global operator new/delete with the counting versions of
// common/counting_allocator.h, which bump core::allocation_counter();
// AllocationProbe reads the delta around the measured region.
#include "capi/icgkit.h"

#include "common/counting_allocator.h"
#include "core/alloc_probe.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace icgkit;
using core::AllocationProbe;

constexpr std::uint32_t kChunk = 256;

synth::Recording make_recording() {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = 40.0;
  cfg.session_seed = 13;
  const synth::SourceActivity source = generate_source(roster[0], cfg);
  return measure_device(roster[0], source, 50e3, synth::Position::HoldToChest);
}

void run_backend_alloc_check(std::uint32_t backend) {
  const synth::Recording rec = make_recording();
  icg_config cfg;
  ASSERT_EQ(icg_config_init(&cfg), ICG_OK);
  cfg.backend = backend;
  cfg.sample_rate_hz = rec.fs;

  icg_session* s = icg_session_create(&cfg);
  ASSERT_NE(s, nullptr) << icg_last_error();

  const std::size_t total = rec.ecg_mv.size();
  const std::size_t half = (total / 2 / kChunk) * kChunk;
  icg_beat beat;

  // Warm-up: one complete session lifecycle — full stream, a mid-stream
  // checkpoint, the finish flush — so every lazily-grown scratch
  // capacity (session queue, engine delineation/filter buffers,
  // checkpoint blob) reaches steady state. The blob buffer keeps
  // headroom because the blob grows a little as pending beats accrue.
  std::vector<std::uint8_t> mid_blob;
  std::uint32_t mid_len = 0;
  for (std::size_t off = 0; off < total; off += kChunk) {
    const auto len = static_cast<std::uint32_t>(std::min<std::size_t>(kChunk, total - off));
    ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, len), 0)
        << icg_last_error();
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
    if (off + kChunk == half) {
      mid_blob.resize(icg_session_checkpoint_size(s) + 4096);
      ASSERT_GT(mid_blob.size(), 4096u);
      ASSERT_EQ(icg_session_checkpoint(s, mid_blob.data(),
                                       static_cast<std::uint32_t>(mid_blob.size()),
                                       &mid_len),
                ICG_OK);
    }
  }
  ASSERT_GE(icg_session_finish(s), 0);
  while (icg_session_poll_beat(s, &beat) == 1) {
  }

  // Rewind the SAME session (same engine, warm buffers) to the
  // mid-stream state, then measure the whole remaining lifecycle.
  ASSERT_EQ(icg_session_restore(s, mid_blob.data(), mid_len), ICG_OK);

  std::uint32_t written = 0;
  {
    AllocationProbe probe;
    for (std::size_t off = half; off + kChunk <= total; off += kChunk) {
      ASSERT_GE(icg_session_push(s, rec.ecg_mv.data() + off, rec.z_ohm.data() + off, kChunk), 0);
      while (icg_session_poll_beat(s, &beat) == 1) {
      }
    }
    ASSERT_EQ(icg_session_checkpoint(s, mid_blob.data(),
                                     static_cast<std::uint32_t>(mid_blob.size()), &written),
              ICG_OK);
    ASSERT_GE(icg_session_finish(s), 0);
    while (icg_session_poll_beat(s, &beat) == 1) {
    }
    EXPECT_EQ(probe.delta(), 0u) << "C ABI hot path allocated after warm-up";
  }
  EXPECT_EQ(icg_session_destroy(s), ICG_OK);
}

TEST(CApiAllocTest, HookCountsAllocations) {
  AllocationProbe probe;
  auto* p = new int(42);
  EXPECT_GE(probe.delta(), 1u);  // observe before delete so the pair can't be elided
  delete p;
}

TEST(CApiAllocTest, DoubleBackendHotPathIsAllocationFree) {
  run_backend_alloc_check(ICG_BACKEND_DOUBLE);
}

TEST(CApiAllocTest, Q31BackendHotPathIsAllocationFree) {
  run_backend_alloc_check(ICG_BACKEND_Q31);
}

} // namespace
