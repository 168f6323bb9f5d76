// DenormalGuard: the flush-to-zero scope the streaming engine holds
// around every push and finish (see dsp/denormal.h).
//
// A decaying IIR impulse response is a reliable source of subnormals:
// after an impulse its state shrinks geometrically and, without FTZ/DAZ,
// passes through subnormal territory. The test drives the impulse
// response of the paper's 20 Hz ICG Butterworth (the cascade the ICG
// low-pass kernel is designed from) deep past the normal range and
// asserts it never goes subnormal while the guard is engaged, that the
// guard restores the previous FPU mode on scope exit, and that guards
// nest.
#include "dsp/denormal.h"

#include "dsp/biquad.h"
#include "dsp/butterworth.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

namespace {

using namespace icgkit;

bool is_subnormal(double x) { return std::fpclassify(x) == FP_SUBNORMAL; }

// Feeds an impulse then zeros through the paper's ICG low-pass and
// reports whether any output sample of the decay tail was subnormal.
bool tail_produces_subnormals(std::size_t zeros) {
  dsp::Signal impulse(1 + zeros, 0.0);
  impulse[0] = 1.0;
  const dsp::Signal y = dsp::sos_apply(dsp::butterworth_lowpass(4, 20.0, 250.0), impulse);
  bool seen = false;
  for (std::size_t i = 1; i < y.size(); ++i) seen |= is_subnormal(y[i]);
  return seen;
}

// Enough zero samples for a 4th-order 20 Hz/250 Hz Butterworth tail to
// decay from 1.0 well past 2^-1022 (the poles give roughly a decade of
// amplitude per ~15 samples; 40k samples is orders of magnitude spare).
constexpr std::size_t kTailSamples = 40000;

TEST(DenormalTest, GuardFlushesFilterTailToZero) {
  if (!dsp::DenormalGuard::supported())
    GTEST_SKIP() << "no FTZ/DAZ control on this target";
  dsp::DenormalGuard guard;
  EXPECT_FALSE(tail_produces_subnormals(kTailSamples))
      << "filter tail went subnormal despite FTZ/DAZ";
}

TEST(DenormalTest, WithoutGuardTailActuallyGoesSubnormal) {
  // Sanity check that the scenario above is non-trivial: under default
  // FPU mode the same tail does pass through the subnormal range. Some
  // environments force FTZ globally (e.g. certain libm/startup flags);
  // skip rather than fail there.
  if (!dsp::DenormalGuard::supported())
    GTEST_SKIP() << "no FTZ/DAZ control on this target";
  if (!tail_produces_subnormals(kTailSamples))
    GTEST_SKIP() << "environment already flushes denormals by default";
  SUCCEED();
}

TEST(DenormalTest, GuardRestoresPreviousModeOnExit) {
  if (!dsp::DenormalGuard::supported())
    GTEST_SKIP() << "no FTZ/DAZ control on this target";
  // Direct arithmetic probe: x / 2 where x is the smallest normal double
  // is subnormal under default rounding and exactly 0.0 under FTZ.
  volatile double smallest_normal = 2.2250738585072014e-308;
  volatile double half;
  {
    dsp::DenormalGuard guard;
    half = smallest_normal / 2.0;
    EXPECT_EQ(half, 0.0) << "FTZ not engaged inside guard scope";
  }
  half = smallest_normal / 2.0;
  if (half == 0.0)
    GTEST_SKIP() << "environment already flushes denormals by default";
  EXPECT_TRUE(is_subnormal(half)) << "guard failed to restore FPU mode";
}

TEST(DenormalTest, GuardsNest) {
  if (!dsp::DenormalGuard::supported())
    GTEST_SKIP() << "no FTZ/DAZ control on this target";
  volatile double smallest_normal = 2.2250738585072014e-308;
  dsp::DenormalGuard outer;
  {
    dsp::DenormalGuard inner;
    EXPECT_EQ(smallest_normal / 2.0, 0.0);
  }
  // Inner scope exit must not disturb the outer guard's mode.
  EXPECT_EQ(smallest_normal / 2.0, 0.0) << "inner guard clobbered outer FTZ mode";
}

} // namespace
