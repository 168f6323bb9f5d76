// Portable fixed-width lane vector for the SIMD batch backend.
//
// LaneVec<W> is a structure-of-arrays register of W double lanes. On
// GCC/Clang it is backed by the compiler vector extension
// (__attribute__((vector_size))), which lowers to AVX/AVX2 on x86-64-v3,
// SSE2 pairs on baseline x86-64 and NEON pairs on aarch64 -- one type,
// the compiler picks the widest ISA the build targets. Elsewhere it
// falls back to a plain double array whose operators are scalar loops
// (auto-vectorizable, always correct).
//
// The batch identity contract (see BatchBackend in dsp/backend.h)
// depends on each lane performing exactly the scalar double expression:
// every operator here is elementwise IEEE double arithmetic with no
// reordering, no FMA contraction beyond what the scalar build does (the
// project compiles with -ffp-contract=off), and no horizontal ops.
#pragma once

#include <cstddef>
#include <cstring>

namespace icgkit::dsp {

#if defined(__GNUC__) || defined(__clang__)
#define ICGKIT_LANEVEC_NATIVE 1
#else
#define ICGKIT_LANEVEC_NATIVE 0
#endif

#if ICGKIT_LANEVEC_NATIVE
namespace detail {
// GCC does not accept a template-dependent vector_size, so the native
// vector types are spelled out per supported byte width.
template <std::size_t Bytes>
struct NativeLanes; // only the specialized widths exist
template <>
struct NativeLanes<16> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct NativeLanes<32> {
  typedef double type __attribute__((vector_size(32)));
};

#if defined(__AVX2__) && !defined(__AVX512F__)
// 64-byte lane vectors on a 32-byte ISA. A generic vector_size(64) type
// makes GCC treat each W=8 value as one indivisible 64-byte object: the
// register allocator must find two *paired* ymm registers per value, and
// state-heavy kernels (a batch FIR holds the accumulator plus the tap
// broadcast) run out of pairs and spill every tick. Splitting the value
// into two explicit 32-byte halves gives the allocator eight independent
// ymm values to juggle instead of four pairs, which is what lets W=8
// *beat* W=4 on plain AVX2 instead of losing to it. Elementwise
// semantics are unchanged: every operator applies the identical IEEE
// double expression per lane, half by half, with no cross-half
// (horizontal) operations.
struct PairLanes64 {
  typedef double half_t __attribute__((vector_size(32)));
  half_t lo{}, hi{};

  double& operator[](std::size_t i) { return i < 4 ? lo[i] : hi[i - 4]; }
  double operator[](std::size_t i) const { return i < 4 ? lo[i] : hi[i - 4]; }

  friend PairLanes64 operator+(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo + b.lo, a.hi + b.hi};
  }
  friend PairLanes64 operator-(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo - b.lo, a.hi - b.hi};
  }
  friend PairLanes64 operator*(PairLanes64 a, PairLanes64 b) {
    return PairLanes64{a.lo * b.lo, a.hi * b.hi};
  }
  friend PairLanes64 operator*(double c, PairLanes64 a) {
    return PairLanes64{c * a.lo, c * a.hi};
  }
  friend PairLanes64 operator*(PairLanes64 a, double c) {
    return PairLanes64{a.lo * c, a.hi * c};
  }
  friend PairLanes64 operator/(PairLanes64 a, double c) {
    return PairLanes64{a.lo / c, a.hi / c};
  }
  friend PairLanes64 operator-(PairLanes64 a) { return PairLanes64{-a.lo, -a.hi}; }
};
template <>
struct NativeLanes<64> {
  using type = PairLanes64;
};
#else
template <>
struct NativeLanes<64> {
  typedef double type __attribute__((vector_size(64)));
};
#endif
} // namespace detail
#endif

/// W double lanes advancing in lockstep. W must be a power of two so the
/// native vector extension applies: 4 and 8 are the batch backend's
/// widths, 2 the lane pairs of the scalar double FIR's blocked
/// convolution (dsp/filtfilt.h).
///
/// Width guidance: W=8 is one zmm on AVX-512 and, on plain AVX2, two
/// *independent* ymm halves (detail::PairLanes64) — the split keeps the
/// register allocator free to schedule eight 32-byte values instead of
/// four paired 64-byte ones, so the batch FIR's accumulator and tap
/// broadcast stay in registers and W=8 beats W=4 on both ISAs. W=4
/// remains the fallback for register files that cannot hold the doubled
/// state (SSE2-only builds, where every lane vector is already
/// emulated).
template <std::size_t W>
struct LaneVec {
  static_assert(W >= 2 && W <= 8 && (W & (W - 1)) == 0,
                "LaneVec: W must be 2, 4 or 8");

#if ICGKIT_LANEVEC_NATIVE
  using vec_t = typename detail::NativeLanes<W * sizeof(double)>::type;
  vec_t v{};
#else
  double v[W] = {};
#endif

  /// Broadcast construction (explicit: a stray scalar-to-vector
  /// conversion in kernel code would hide a missing batch op).
  static LaneVec broadcast(double x) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = x;
    return r;
  }

  [[nodiscard]] double lane(std::size_t i) const { return v[i]; }
  void set_lane(std::size_t i, double x) { v[i] = x; }

  /// W consecutive doubles from memory of any alignment: lane i = p[i].
  static LaneVec load(const double* p) {
    LaneVec r;
    std::memcpy(&r.v, p, sizeof r.v);
    return r;
  }
  /// Writes lane i to p[i].
  void store(double* p) const { std::memcpy(p, &v, sizeof v); }

  // Elementwise arithmetic. The native path is a single vector op; the
  // fallback loops are the same expressions per lane.
#if ICGKIT_LANEVEC_NATIVE
  friend LaneVec operator+(LaneVec a, LaneVec b) { return LaneVec{a.v + b.v}; }
  friend LaneVec operator-(LaneVec a, LaneVec b) { return LaneVec{a.v - b.v}; }
  friend LaneVec operator*(LaneVec a, LaneVec b) { return LaneVec{a.v * b.v}; }
  friend LaneVec operator*(double c, LaneVec a) { return LaneVec{c * a.v}; }
  friend LaneVec operator*(LaneVec a, double c) { return LaneVec{a.v * c}; }
  friend LaneVec operator/(LaneVec a, double c) { return LaneVec{a.v / c}; }
  friend LaneVec operator-(LaneVec a) { return LaneVec{-a.v}; }
#else
  friend LaneVec operator+(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] + b.v[i];
    return r;
  }
  friend LaneVec operator-(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] - b.v[i];
    return r;
  }
  friend LaneVec operator*(LaneVec a, LaneVec b) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] * b.v[i];
    return r;
  }
  friend LaneVec operator*(double c, LaneVec a) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = c * a.v[i];
    return r;
  }
  friend LaneVec operator*(LaneVec a, double c) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] * c;
    return r;
  }
  friend LaneVec operator/(LaneVec a, double c) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = a.v[i] / c;
    return r;
  }
  friend LaneVec operator-(LaneVec a) {
    LaneVec r;
    for (std::size_t i = 0; i < W; ++i) r.v[i] = -a.v[i];
    return r;
  }
#endif
};

/// Compile-time name of the widest ISA the lane vector lowers to in this
/// build -- reported by benches so gate floors can be ISA-aware.
constexpr const char* lane_isa() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__) || defined(_M_X64) || defined(_M_AMD64)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#elif ICGKIT_LANEVEC_NATIVE
  return "vector-ext";
#else
  return "scalar";
#endif
}

/// Default lockstep batch width for this build's ISA — what
/// FleetConfig::batch_width = 0 resolves to.
///
/// Width guidance: a W-lane batch keeps W doubles of every kernel state
/// variable live at once, so the right width is the widest the register
/// file carries without spilling. On AVX-512 and NEON that is trivially
/// W=8 (one zmm / the 32-register file). On plain AVX2, W=8 used to
/// spill — a monolithic 64-byte vector needs paired ymm registers — but
/// the two-half lowering (detail::PairLanes64) splits each value into
/// two independently-allocatable ymm halves, so W=8 now amortizes the
/// per-sample batch bookkeeping over twice the lanes and beats W=4
/// there too. Builds whose lane vector lowers to scalar or SSE2 code
/// (e.g. generic x86-64 without -march) gain nothing from lockstep
/// batching, so the default keeps them scalar rather than paying the
/// batch-group bookkeeping.
constexpr std::size_t default_batch_width() {
#if defined(__AVX512F__) || defined(__ARM_NEON) || defined(__AVX2__)
  return 8;
#else
  return 1;
#endif
}

} // namespace icgkit::dsp
