// Denormal (subnormal) hygiene: the streaming engine's one floating-point
// mode.
//
// Whether a subnormal double is kept or flushed changes the arithmetic:
// an engine that flushes and one that does not compute different filter
// state from the same subnormal input, so a session would replay
// differently depending on which thread ran it. Keeping them is also
// slow: many x86 cores take a microcode assist costing 50-100x a normal
// multiply. The engine's accuracy budget is nowhere near 1e-308, so it
// runs flush-to-zero (FTZ) and denormals-are-zero (DAZ):
// BasicStreamingBeatPipeline holds a DenormalGuard for the length of
// every push and finish. A fleet worker, the C ABI, a directly driven
// pipeline and flight-record replay therefore all compute the same bytes.
//
// DenormalGuard is an RAII scope: it sets the mode on construction and
// restores the caller's on destruction, so guards nest and the calling
// thread keeps its own mode. On targets without an FTZ control this is
// a no-op (supported() reports it, and the denormal test skips itself).
#pragma once

#if defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
#include <immintrin.h>
#define ICGKIT_DENORMAL_X86 1
#elif defined(__aarch64__)
#define ICGKIT_DENORMAL_AARCH64 1
#endif

namespace icgkit::dsp {

class DenormalGuard {
 public:
  DenormalGuard() {
#if defined(ICGKIT_DENORMAL_X86)
    saved_ = _mm_getcsr();
    // Bit 15: FTZ (results flush to zero); bit 6: DAZ (inputs treated as
    // zero). DAZ exists on every SSE2-capable core this project targets.
    _mm_setcsr(saved_ | 0x8040u);
#elif defined(ICGKIT_DENORMAL_AARCH64)
    asm volatile("mrs %0, fpcr" : "=r"(saved_));
    // FZ (bit 24): flush-to-zero for denormal inputs and outputs.
    asm volatile("msr fpcr, %0" ::"r"(saved_ | (1ull << 24)));
#endif
  }

  ~DenormalGuard() {
#if defined(ICGKIT_DENORMAL_X86)
    _mm_setcsr(saved_);
#elif defined(ICGKIT_DENORMAL_AARCH64)
    asm volatile("msr fpcr, %0" ::"r"(saved_));
#endif
  }

  DenormalGuard(const DenormalGuard&) = delete;
  DenormalGuard& operator=(const DenormalGuard&) = delete;

  /// Whether this build can actually flush denormals (false => no-op).
  static constexpr bool supported() {
#if defined(ICGKIT_DENORMAL_X86) || defined(ICGKIT_DENORMAL_AARCH64)
    return true;
#else
    return false;
#endif
  }

 private:
#if defined(ICGKIT_DENORMAL_X86)
  unsigned int saved_ = 0;
#elif defined(ICGKIT_DENORMAL_AARCH64)
  unsigned long long saved_ = 0;
#endif
};

} // namespace icgkit::dsp
