// Streaming counterparts vs their batch references: the streaming engine
// rests on these stages being (a) chunk-size invariant and (b) equal to
// the batch kernels they replace (exactly for morphology/moving, to
// filtfilt-level accuracy for the zero-phase FIR stages).
#include "core/stream.h"
#include "dsp/backend.h"
#include "dsp/butterworth.h"
#include "dsp/denormal.h"
#include "dsp/filtfilt.h"
#include "dsp/fir_design.h"
#include "dsp/morphology.h"
#include "dsp/moving.h"
#include "dsp/zero_phase_highpass.h"
#include "ecg/pan_tompkins.h"
#include "synth/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <numbers>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace icgkit::dsp {
namespace {

constexpr double kFs = 250.0;

Signal noisy_signal(std::size_t n, std::uint64_t seed) {
  synth::Rng rng(seed);
  Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    x[i] = std::sin(2.0 * std::numbers::pi * 1.3 * t) +
           0.4 * std::sin(2.0 * std::numbers::pi * 17.0 * t) + 0.2 * rng.normal();
  }
  return x;
}

Signal run_streaming(StreamingZeroPhaseFir& st, SignalView x, std::size_t chunk) {
  Signal y;
  for (std::size_t i = 0; i < x.size(); i += chunk)
    st.process_chunk(x.subspan(i, std::min(chunk, x.size() - i)), y);
  st.finish(y);
  return y;
}

TEST(ZeroPhaseKernelTest, FirKernelMagnitudeIsSquared) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  ASSERT_EQ(g.taps.size(), 2 * h.taps.size() - 1);
  for (const double f : {0.0, 5.0, 20.0, 60.0, 100.0}) {
    const double mh = fir_magnitude_at(h, f, kFs);
    const double mg = fir_magnitude_at(g, f, kFs);
    EXPECT_NEAR(mg, mh * mh, 1e-9) << "f=" << f;
  }
}

TEST(ZeroPhaseKernelTest, SosKernelMagnitudeIsSquared) {
  const SosFilter lp = butterworth_lowpass(4, 20.0, kFs);
  const FirCoefficients g = zero_phase_sos_kernel(lp);
  ASSERT_EQ(g.taps.size() % 2, 1u);
  for (const double f : {0.0, 5.0, 15.0, 20.0, 40.0}) {
    const double mh = sos_magnitude_at(lp, f, kFs);
    const double mg = fir_magnitude_at(g, f, kFs);
    EXPECT_NEAR(mg, mh * mh, 1e-4) << "f=" << f;
  }
}

// FNV-1a over the little-endian IEEE bytes of every tap.
std::uint64_t tap_hash(const FirCoefficients& k) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double t : k.taps) {
    const auto bits = std::bit_cast<std::uint64_t>(t);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

TEST(ZeroPhaseKernelTest, DesignedKernelsAreBitStable) {
  // The four kernels every engine builds, pinned bit for bit at default
  // configs: the ICG 20 Hz low-pass, the Pan-Tompkins 5-15 Hz band-pass,
  // the ECG 0.05-40 Hz FIR and the decimated baseline high-pass. A
  // changed tap otherwise surfaces only as replay-corpus divergence.
  struct Pin {
    std::size_t len;
    std::uint64_t hash;
  };
  struct Rate {
    double fs;
    Pin icg_lp, qrs_bp, ecg_fir, baseline_hp;
  };
  const Rate rates[] = {
      {125.0, {77, 0xc980f4d840c10dafull}, {123, 0x93befc7d2e0f8d6cull},
       {65, 0xc65ed963138c9f42ull}, {65, 0x66d9aea2bd85861dull}},
      {250.0, {141, 0x4be7cbb9b5cc3927ull}, {245, 0xf8bd101dad71e028ull},
       {65, 0x2bd309c45e1882bdull}, {69, 0x270292604266495full}},
      {500.0, {283, 0x9b54f9279061010full}, {491, 0x425ce0062b894ecdull},
       {65, 0xf0ef2c0a9ad3f912ull}, {67, 0x1e97edfc9f4f93e3ull}},
      {1000.0, {563, 0x5946d191b165dc05ull}, {981, 0xdc561a771523f66aull},
       {65, 0x0ac91090ae255625ull}, {67, 0x1e97edfc9f4f93e3ull}},
  };
  const ZeroPhaseHighpassConfig hp;
  for (const Rate& r : rates) {
    const auto check = [&](const FirCoefficients& k, const Pin& pin, const char* name) {
      EXPECT_EQ(k.taps.size(), pin.len) << name << " at " << r.fs << " Hz";
      EXPECT_EQ(tap_hash(k), pin.hash) << name << " at " << r.fs << " Hz";
    };
    check(core::icg_conditioner_lowpass_kernel(r.fs, {}), r.icg_lp, "ICG low-pass");
    check(ecg::pan_tompkins_bandpass_kernel(r.fs, {}), r.qrs_bp, "QRS band-pass");
    check(core::ecg_cleaner_fir_kernel(r.fs, {}), r.ecg_fir, "ECG FIR");
    check(zero_phase_highpass_kernel(r.fs, zero_phase_highpass_decimation(r.fs, hp), hp),
          r.baseline_hp, "baseline high-pass");
  }
}

TEST(StreamingZeroPhaseFirTest, MatchesFiltfiltFir) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const Signal x = noisy_signal(2000, 7);
  const Signal ref = filtfilt_fir(h, x);
  StreamingZeroPhaseFir st(zero_phase_fir_kernel(h));
  const Signal y = run_streaming(st, x, 64);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-9) << "i=" << i;
}

TEST(StreamingZeroPhaseFirTest, ChunkSizeInvariant) {
  const FirCoefficients h = design_bandpass(32, 0.05, 40.0, kFs);
  const Signal x = noisy_signal(1500, 8);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  StreamingZeroPhaseFir a(g);
  const Signal ref = run_streaming(a, x, x.size());
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                  std::size_t{1024}}) {
    StreamingZeroPhaseFir st(g);
    const Signal y = run_streaming(st, x, chunk);
    ASSERT_EQ(y.size(), ref.size());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y[i], ref[i]) << "chunk=" << chunk << " i=" << i;
  }
}

TEST(StreamingZeroPhaseFirTest, SosKernelTracksFiltfiltSos) {
  const SosFilter lp = butterworth_lowpass(4, 20.0, kFs);
  const Signal x = noisy_signal(2000, 9);
  const Signal ref = filtfilt_sos(lp, x);
  StreamingZeroPhaseFir st(zero_phase_sos_kernel(lp));
  const Signal y = run_streaming(st, x, 32);
  ASSERT_EQ(y.size(), x.size());
  // Interior matches tightly; the batch filtfilt uses steady-state edge
  // initialization the truncated-kernel stage only approximates.
  double scale = 0.0;
  for (const double v : ref) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 100; i + 100 < x.size(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-4 * scale) << "i=" << i;
}

TEST(StreamingZeroPhaseFirTest, ShortSignalStillAligned) {
  const FirCoefficients h = design_lowpass(16, 30.0, kFs);
  const FirCoefficients g = zero_phase_fir_kernel(h);
  StreamingZeroPhaseFir st(g);
  const Signal x = noisy_signal(8, 10); // shorter than the group delay
  Signal y;
  st.process_chunk(x, y);
  st.finish(y);
  ASSERT_EQ(y.size(), x.size());
  for (const double v : y) EXPECT_TRUE(std::isfinite(v));
}

TEST(StreamingZeroPhaseFirTest, RejectsAsymmetricKernel) {
  FirCoefficients bad;
  bad.taps = {1.0, 2.0, 3.0};
  EXPECT_THROW(StreamingZeroPhaseFir{bad}, std::invalid_argument);
  FirCoefficients even;
  even.taps = {1.0, 1.0};
  EXPECT_THROW(StreamingZeroPhaseFir{even}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Chunk feeds against the one-sample feed, on every backend
// ---------------------------------------------------------------------------

template <typename B>
class StreamingZeroPhaseFirTest : public ::testing::Test {};

struct BackendName {
  template <typename B>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<B, DoubleBackend>) return "Double";
    else if constexpr (std::is_same_v<B, Q31Backend>) return "Q31";
    else return "Batch" + std::to_string(B::kLanes);
  }
};
using FirBackends =
    ::testing::Types<DoubleBackend, Q31Backend, BatchBackend<4>, BatchBackend<8>>;
TYPED_TEST_SUITE(StreamingZeroPhaseFirTest, FirBackends, BackendName);

// What lane_signal draws: noise inside the Q1.31 range; the noise's
// sign at +-full scale (Q31's rails); or signed zeros, subnormals and
// the smallest normals.
enum class Input { Noise, Rails, Tiny };

// n samples per lane, a different signal in every lane.
template <typename B>
std::vector<typename B::sample_t> lane_signal(std::size_t n, Input input = Input::Noise) {
  constexpr double kTiny[] = {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                              -std::numeric_limits<double>::denorm_min(),
                              std::numeric_limits<double>::min()};
  std::vector<typename B::sample_t> x(n);
  for (std::size_t l = 0; l < B::kLanes; ++l) {
    const Signal s = noisy_signal(n, 40 + l);
    for (std::size_t i = 0; i < n; ++i) {
      double v = 0.3 * s[i];
      if (input == Input::Rails) v = s[i] < 0.0 ? -1.0 : 1.0;
      if (input == Input::Tiny) v = kTiny[(i + l) % std::size(kTiny)] * (i % 7 == 3 ? s[i] : 1.0);
      if constexpr (is_batch_backend_v<B>) x[i].set_lane(l, v);
      else x[i] = B::from_real(v);
    }
  }
  return x;
}

// Which convolution the chunk feeds ran, for the test report.
template <typename B>
const char* fir_path() {
  if constexpr (is_batch_backend_v<B>) return "batch lanes";
  else return wide_fir_active() ? "avx512" : "blocked";
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// A save_state()/load_state() target that keeps the written values as
// raw bytes, without checkpoint framing or CRC: cheap enough to compare
// at every chunk boundary (the framed round trip is CheckpointKernelTest's
// job), and two filters write equal bytes exactly when they carry equal
// state.
struct RawState {
  std::vector<unsigned char> bytes;
  std::size_t at = 0;

  template <typename T>
  void value(const T& v) {
    const auto* p = reinterpret_cast<const unsigned char*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof v);
  }
  template <typename T>
  void values(std::span<const T> v) {
    for (const T& x : v) value(x);
  }
  void u64(std::uint64_t v) { value(v); }
  void boolean(bool v) { value(v); }

  template <typename T>
  T value() {
    T v;
    std::memcpy(&v, bytes.data() + at, sizeof v);
    at += sizeof v;
    return v;
  }
  template <typename T>
  void values(std::span<T> out) {
    for (T& v : out) v = value<T>();
  }
  std::uint64_t u64() { return value<std::uint64_t>(); }
  bool boolean() { return value<bool>(); }
  [[noreturn]] void fail(const std::string& msg) { throw std::runtime_error(msg); }
};

template <typename B>
std::vector<unsigned char> state_bytes(const BasicStreamingZeroPhaseFir<B>& f) {
  RawState w;
  f.save_state(w);
  return w.bytes;
}

template <typename B>
BasicStreamingZeroPhaseFir<B> restored(const FirCoefficients& kernel,
                                       std::vector<unsigned char> bytes) {
  BasicStreamingZeroPhaseFir<B> f(kernel);
  RawState r{std::move(bytes)};
  f.load_state(r);
  EXPECT_EQ(r.at, r.bytes.size());
  return f;
}

// The 65-tap ECG kernel with every mirrored pair moved onto a Q2.30
// rounding boundary, 2^-42 above it on the left and 2^-42 below it on
// the right: symmetric to 2^-41, far inside the constructor's 1e-9
// tolerance, yet every pair quantizes to neighbouring Q31 taps, so the
// wide kernel cannot lean on tap symmetry.
FirCoefficients straddling_kernel() {
  FirCoefficients k = core::ecg_cleaner_fir_kernel(250.0, {});
  const std::size_t len = k.taps.size();
  for (std::size_t i = 0; i < len / 2; ++i) {
    const double boundary = (std::floor(k.taps[i] * 0x1p30) + 0.5) * 0x1p-30;
    k.taps[i] = boundary + 0x1p-42;
    k.taps[len - 1 - i] = boundary - 0x1p-42;
  }
  return k;
}

TEST(StreamingZeroPhaseFirTest, StraddlingKernelQuantizesAsymmetrically) {
  const FirCoefficients k = straddling_kernel();
  EXPECT_NO_THROW(StreamingZeroPhaseFir{k});
  const std::size_t len = k.taps.size();
  for (std::size_t i = 0; i < len / 2; ++i)
    EXPECT_EQ(Q31Backend::coeff(k.taps[i]), Q31Backend::coeff(k.taps[len - 1 - i]) + 1) << i;
}

// Every chunk length from 1 to 17 (the device's 10 among them) runs
// each masked tail width of the wide kernel and one to three of its
// registers; 64 and the longer chunks run full 32-output passes.
TYPED_TEST(StreamingZeroPhaseFirTest, BlockedChunksMatchOneSampleFeed) {
  using B = TypeParam;
  using Fir = BasicStreamingZeroPhaseFir<B>;
  using sample_t = typename B::sample_t;
  ::testing::Test::RecordProperty("fir_path", fir_path<B>());
  struct Case {
    FirCoefficients kernel;
    Input input;
  };
  const Case cases[] = {
      {FirCoefficients{{0.75}}, Input::Noise},
      {FirCoefficients{{0.25, 0.5, 0.25}}, Input::Noise},
      {core::ecg_cleaner_fir_kernel(250.0, {}), Input::Noise},
      {ecg::pan_tompkins_bandpass_kernel(250.0, {}), Input::Noise},
      {ecg::pan_tompkins_bandpass_kernel(1000.0, {}), Input::Noise},
      // Taps summing past 1: Q31 outputs saturate at both rails. A
      // 3-tap history slides every 4 samples, so only the 49-tap
      // kernel's runs fill more than one register.
      {FirCoefficients{{0.9, 1.9, 0.9}}, Input::Rails},
      {FirCoefficients{Signal(49, 0.1)}, Input::Rails},
      {core::ecg_cleaner_fir_kernel(250.0, {}), Input::Tiny},
      {straddling_kernel(), Input::Noise},
      {straddling_kernel(), Input::Rails},
  };
  std::vector<std::size_t> chunks(17);
  std::iota(chunks.begin(), chunks.end(), std::size_t{1});
  for (const auto& [kernel, input] : cases) {
    const std::size_t len = kernel.taps.size();
    // Subnormal handling is part of the arithmetic: the engine runs it
    // flushed, and both convolutions round under the same mode.
    std::optional<DenormalGuard> flush;
    if (input == Input::Tiny) flush.emplace();
    std::vector<std::size_t> sizes = chunks;
    sizes.insert(sizes.end(), {std::size_t{64}, len, len + 1, 3 * len + 5});
    for (const std::size_t chunk : sizes) {
      SCOPED_TRACE("len " + std::to_string(len) + ", input " +
                   std::to_string(static_cast<int>(input)) + ", chunk " + std::to_string(chunk));
      // Past the warm-up the history slides every len + 1 samples: at
      // least twice here, and inside a chunk for the last three sizes.
      const std::vector<sample_t> x = lane_signal<B>(std::max(2 * len, chunk + len) + 11, input);
      Fir ref(kernel);
      Fir fed(kernel);
      Fir resumed(kernel);  // restored from `fed` at every chunk boundary
      std::vector<sample_t> ref_out, fed_out, resumed_out;
      std::vector<std::uint32_t> ref_cum, fed_cum, resumed_cum;
      for (std::size_t i = 0; i < x.size(); i += chunk) {
        const auto part = std::span<const sample_t>(x).subspan(i, std::min(chunk, x.size() - i));
        for (const sample_t v : part) {
          ref.push(v, ref_out);
          ref_cum.push_back(static_cast<std::uint32_t>(ref_out.size()));
        }
        fed.process_chunk_counted(part, fed_out, fed_cum);
        resumed.process_chunk_counted(part, resumed_out, resumed_cum);
        const std::vector<unsigned char> state = state_bytes(fed);
        ASSERT_EQ(state, state_bytes(ref)) << "after " << i + part.size() << " samples";
        resumed = restored<B>(kernel, state);
      }
      ref.finish(ref_out);
      fed.finish(fed_out);
      resumed.finish(resumed_out);
      ASSERT_EQ(ref_out.size(), x.size());
      EXPECT_EQ(fed_cum, ref_cum);
      EXPECT_EQ(resumed_cum, ref_cum);
      EXPECT_TRUE(same_bytes(fed_out, ref_out));
      EXPECT_TRUE(same_bytes(resumed_out, ref_out));
    }
  }
}

template <typename B>
void expect_second_finish_emits_nothing() {
  const FirCoefficients kernel = core::ecg_cleaner_fir_kernel(250.0, {});
  const auto x = lane_signal<B>(10);  // shorter than the 32-sample group delay
  BasicStreamingZeroPhaseFir<B> f(kernel);
  std::vector<typename B::sample_t> out;
  f.process_chunk(x, out);
  f.finish(out);
  ASSERT_EQ(out.size(), x.size());
  f.finish(out);
  EXPECT_EQ(out.size(), x.size());
  // A copy restored from the finished filter has nothing left to emit
  // either (the C ABI reaches this through checkpoint + restore).
  BasicStreamingZeroPhaseFir<B> again = restored<B>(kernel, state_bytes(f));
  again.finish(out);
  EXPECT_EQ(out.size(), x.size());
}

TEST(StreamingZeroPhaseFirTest, SecondFinishOfShortStreamEmitsNothing) {
  expect_second_finish_emits_nothing<DoubleBackend>();
  expect_second_finish_emits_nothing<Q31Backend>();
}

TEST(StreamingExtremumTest, MatchesBatchErodeDilate) {
  const Signal x = noisy_signal(777, 11);
  for (const std::size_t width : {std::size_t{1}, std::size_t{5}, std::size_t{51}}) {
    const Signal er = erode(x, width);
    const Signal di = dilate(x, width);
    StreamingExtremum smin(width, StreamingExtremum::Kind::Min);
    StreamingExtremum smax(width, StreamingExtremum::Kind::Max);
    Signal ys_min, ys_max;
    for (const double v : x) {
      smin.push(v, ys_min);
      smax.push(v, ys_max);
    }
    smin.finish(ys_min);
    smax.finish(ys_max);
    ASSERT_EQ(ys_min.size(), x.size());
    ASSERT_EQ(ys_max.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      ASSERT_EQ(ys_min[i], er[i]) << "width=" << width << " i=" << i;
      ASSERT_EQ(ys_max[i], di[i]) << "width=" << width << " i=" << i;
    }
  }
}

TEST(StreamingBaselineRemoverTest, MatchesBatchRemoveBaseline) {
  const Signal x = noisy_signal(2000, 12);
  const Signal ref = remove_baseline(x, kFs);
  StreamingBaselineRemover st(kFs);
  Signal y;
  for (std::size_t i = 0; i < x.size(); i += 13) {
    for (std::size_t j = i; j < std::min(x.size(), i + 13); ++j) st.push(x[j], y);
  }
  st.finish(y);
  ASSERT_EQ(y.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) ASSERT_EQ(y[i], ref[i]) << "i=" << i;
}

TEST(StreamingMovingAverageTest, MatchesMovingWindowIntegrate) {
  const Signal x = noisy_signal(500, 13);
  const Signal ref = moving_window_integrate(x, 37);
  StreamingMovingAverage st(37);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(st.tick(x[i]), ref[i]) << "i=" << i;
}

} // namespace
} // namespace icgkit::dsp
