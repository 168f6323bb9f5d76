// google-benchmark microbenchmarks of the DSP kernels and the full
// pipeline. These support the embedded feasibility claim: the per-second
// workload at fs = 250 Hz must complete in a small fraction of a second
// even on a laptop-class core, and the measured op ratios sanity-check
// the analytic cycle model in platform/mcu.h.
#include <benchmark/benchmark.h>

#include "core/delineator.h"
#include "core/ensemble.h"
#include "core/hemodynamics.h"
#include "core/pipeline.h"
#include "core/quality.h"
#include "core/stream.h"
#include "dsp/backend.h"
#include "dsp/biquad.h"
#include "dsp/butterworth.h"
#include "dsp/denormal.h"
#include "dsp/fft.h"
#include "dsp/filtfilt.h"
#include "dsp/fir_design.h"
#include "dsp/morphology.h"
#include "dsp/moving.h"
#include "dsp/simd.h"
#include "ecg/pan_tompkins.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace {

using namespace icgkit;

constexpr double kFs = 250.0;

dsp::Signal test_signal(std::size_t n) {
  dsp::Signal x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / kFs;
    x[i] = std::sin(2.0 * 3.14159 * 1.2 * t) + 0.4 * std::sin(2.0 * 3.14159 * 9.0 * t);
  }
  return x;
}

void BM_FirBandpass32(benchmark::State& state) {
  const auto fir = dsp::design_bandpass(32, 0.05, 40.0, kFs);
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::filtfilt_fir(fir, x));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FirBandpass32)->Arg(250)->Arg(2500)->Arg(7500);

void BM_ButterworthLp20(benchmark::State& state) {
  const auto lp = dsp::butterworth_lowpass(4, 20.0, kFs);
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::filtfilt_sos(lp, x));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ButterworthLp20)->Arg(250)->Arg(2500)->Arg(7500);

void BM_MorphologicalBaseline(benchmark::State& state) {
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::remove_baseline(x, kFs));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MorphologicalBaseline)->Arg(2500)->Arg(7500);

void BM_Fft(benchmark::State& state) {
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(dsp::magnitude_spectrum(x));
}
BENCHMARK(BM_Fft)->Arg(1024)->Arg(4096);

void BM_PanTompkins30s(benchmark::State& state) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = 30.0;
  const auto src = generate_source(roster[0], cfg);
  const ecg::PanTompkins pt(kFs);
  for (auto _ : state) benchmark::DoNotOptimize(pt.detect(src.ecg_mv));
}
BENCHMARK(BM_PanTompkins30s);

void BM_FullPipeline30s(benchmark::State& state) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = 30.0;
  const auto src = generate_source(roster[0], cfg);
  const auto rec = measure_device(roster[0], src, 50e3, synth::Position::HoldToChest);
  const core::BeatPipeline pipeline(kFs);
  for (auto _ : state) benchmark::DoNotOptimize(pipeline.process(rec.ecg_mv, rec.z_ohm));
}
BENCHMARK(BM_FullPipeline30s);

// ---------------------------------------------------------------------------
// Scalar vs SIMD-batch streaming kernels. Each variant ticks the same
// per-session sample stream; the batch rows process kLanes sessions in
// lockstep, so items/sec (= samples * lanes) divided across rows gives
// the per-kernel cycles/sample ratio the batch backend buys. Run under
// the same FTZ/DAZ mode as the fleet's worker threads so IIR tails cost
// the same in every row.
// ---------------------------------------------------------------------------

template <typename B>
typename B::sample_t bsample(double x) {
  return B::from_real(x);
}

template <typename B>
void BM_StreamingZeroPhaseFirPush(benchmark::State& state) {
  dsp::DenormalGuard guard;
  dsp::BasicStreamingZeroPhaseFir<B> fir(dsp::design_lowpass(30, 20.0, kFs));
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  std::vector<typename B::sample_t> out;
  out.reserve(x.size() + 64);
  for (auto _ : state) {
    out.clear();
    for (const double v : x) fir.push(bsample<B>(v), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(B::kLanes));
}
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirPush, dsp::DoubleBackend)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirPush, dsp::BatchBackend<4>)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirPush, dsp::BatchBackend<8>)->Arg(7500);

// The path the engines run: 64-sample chunks through process_chunk_counted
// with the engine's own 245-tap Pan-Tompkins band-pass. Past the first
// window each chunk is convolved as a block (dsp/filtfilt.h).
template <typename B>
void BM_StreamingZeroPhaseFirChunk(benchmark::State& state) {
  constexpr std::size_t kChunk = 64;
  dsp::DenormalGuard guard;
  dsp::BasicStreamingZeroPhaseFir<B> fir(ecg::pan_tompkins_bandpass_kernel(kFs, {}));
  std::vector<typename B::sample_t> x;
  for (const double v : test_signal(static_cast<std::size_t>(state.range(0))))
    x.push_back(bsample<B>(0.5 * v));  // inside the Q31 full scale
  const std::span<const typename B::sample_t> in(x);
  std::vector<typename B::sample_t> out;
  std::vector<std::uint32_t> cum;
  out.reserve(kChunk + fir.delay() + 1);
  cum.reserve(kChunk);
  for (auto _ : state) {
    for (std::size_t i = 0; i < in.size(); i += kChunk) {
      out.clear();
      cum.clear();
      fir.process_chunk_counted(in.subspan(i, std::min(kChunk, in.size() - i)), out, cum);
      benchmark::DoNotOptimize(out.data());
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(B::kLanes));
}
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirChunk, dsp::DoubleBackend)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirChunk, dsp::Q31Backend)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirChunk, dsp::BatchBackend<4>)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingZeroPhaseFirChunk, dsp::BatchBackend<8>)->Arg(7500);

template <typename B>
void BM_StreamingMovingAverageTick(benchmark::State& state) {
  dsp::DenormalGuard guard;
  dsp::BasicStreamingMovingAverage<B> mwi(38);  // Pan-Tompkins MWI window
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    typename B::sample_t acc = bsample<B>(0.0);
    for (const double v : x) acc = acc + mwi.tick(bsample<B>(v));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(B::kLanes));
}
BENCHMARK_TEMPLATE(BM_StreamingMovingAverageTick, dsp::DoubleBackend)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingMovingAverageTick, dsp::BatchBackend<4>)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingMovingAverageTick, dsp::BatchBackend<8>)->Arg(7500);

template <typename B>
void BM_StreamingBaselineRemoverPush(benchmark::State& state) {
  dsp::DenormalGuard guard;
  dsp::BasicStreamingBaselineRemover<B> baseline(kFs);
  const auto x = test_signal(static_cast<std::size_t>(state.range(0)));
  std::vector<typename B::sample_t> out;
  out.reserve(x.size() + 256);
  for (auto _ : state) {
    out.clear();
    for (const double v : x) baseline.push(bsample<B>(v), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(B::kLanes));
}
BENCHMARK_TEMPLATE(BM_StreamingBaselineRemoverPush, dsp::DoubleBackend)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingBaselineRemoverPush, dsp::BatchBackend<4>)->Arg(7500);
BENCHMARK_TEMPLATE(BM_StreamingBaselineRemoverPush, dsp::BatchBackend<8>)->Arg(7500);

// ---------------------------------------------------------------------------
// Per-beat tail stages. These are the Amdahl denominator of the batch
// backend: the filter front runs in lockstep lanes, but delineation,
// quality screening, hemodynamics, and the ensemble fold stay per-lane
// scalar work drained after each front tick (see core/batch.h). Items
// are beats, so items/sec inverts to the us/beat each stage costs; the
// end-to-end tail figure gated in CI is BENCH_batch.json's
// profile.tail_us_per_beat, which these rows decompose.
// ---------------------------------------------------------------------------

struct TailWorkload {
  dsp::Signal icg;                ///< filtered ICG trace
  std::vector<std::size_t> r;     ///< R-peak sample indices
  std::vector<double> rr_s;       ///< per-beat R-R intervals
  double z0_ohm = 0.0;
};

const TailWorkload& tail_workload() {
  static const TailWorkload w = [] {
    const auto roster = synth::paper_roster();
    synth::RecordingConfig cfg;
    cfg.duration_s = 60.0;
    const auto src = generate_source(roster[0], cfg);
    const auto rec = measure_device(roster[0], src, 50e3, synth::Position::ArmsOutstretched);
    const core::BeatPipeline pipeline(kFs);
    const auto result = pipeline.process(rec.ecg_mv, rec.z_ohm);
    TailWorkload out;
    core::IcgConditionerStage icg_stage(kFs);
    std::vector<std::uint32_t> cum;
    icg_stage.process_chunk(rec.z_ohm, out.icg, cum);
    icg_stage.finish(out.icg);
    out.z0_ohm = result.z0_mean_ohm;
    for (const auto& beat : result.beats) {
      out.r.push_back(beat.points.r);
      out.rr_s.push_back(beat.rr_s);
    }
    return out;
  }();
  return w;
}

void BM_DelineateBeat(benchmark::State& state) {
  const TailWorkload& w = tail_workload();
  const core::IcgDelineator delineator(kFs);
  core::DelineationScratch scratch;
  scratch.reserve(static_cast<std::size_t>(2.0 * kFs));
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < w.r.size(); ++i)
      benchmark::DoNotOptimize(
          delineator.delineate(w.icg, w.r[i], w.r[i + 1], scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.r.size() - 1));
}
BENCHMARK(BM_DelineateBeat);

void BM_AssessBeatQuality(benchmark::State& state) {
  const TailWorkload& w = tail_workload();
  const core::IcgDelineator delineator(kFs);
  core::DelineationScratch scratch;
  scratch.reserve(static_cast<std::size_t>(2.0 * kFs));
  std::vector<core::BeatDelineation> points;
  for (std::size_t i = 0; i + 1 < w.r.size(); ++i)
    points.push_back(delineator.delineate(w.icg, w.r[i], w.r[i + 1], scratch));
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.size(); ++i)
      benchmark::DoNotOptimize(core::assess_beat(points[i], w.rr_s[i], kFs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_AssessBeatQuality);

void BM_BeatHemodynamics(benchmark::State& state) {
  const TailWorkload& w = tail_workload();
  const core::IcgDelineator delineator(kFs);
  core::DelineationScratch scratch;
  scratch.reserve(static_cast<std::size_t>(2.0 * kFs));
  std::vector<core::BeatDelineation> points;
  for (std::size_t i = 0; i + 1 < w.r.size(); ++i)
    points.push_back(delineator.delineate(w.icg, w.r[i], w.r[i + 1], scratch));
  for (auto _ : state) {
    for (std::size_t i = 0; i < points.size(); ++i)
      benchmark::DoNotOptimize(
          core::compute_beat_hemodynamics(points[i], w.rr_s[i], w.z0_ohm, kFs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_BeatHemodynamics);

void BM_EnsembleFold(benchmark::State& state) {
  const TailWorkload& w = tail_workload();
  for (auto _ : state) {
    core::EnsembleAverager ens(kFs);
    std::size_t accepted = 0;
    for (const std::size_t r : w.r) accepted += ens.add_beat(w.icg, r) ? 1 : 0;
    benchmark::DoNotOptimize(accepted);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(w.r.size()));
}
BENCHMARK(BM_EnsembleFold);

void BM_BeatTailFull(benchmark::State& state) {
  // The whole per-beat tail in stage order — delineate, screen, compute
  // hemodynamics — matching what SessionBatch drains per lane after a
  // front tick. items/sec inverts to the composite us/beat.
  const TailWorkload& w = tail_workload();
  const core::IcgDelineator delineator(kFs);
  core::DelineationScratch scratch;
  scratch.reserve(static_cast<std::size_t>(2.0 * kFs));
  for (auto _ : state) {
    for (std::size_t i = 0; i + 1 < w.r.size(); ++i) {
      const auto points = delineator.delineate(w.icg, w.r[i], w.r[i + 1], scratch);
      benchmark::DoNotOptimize(core::assess_beat(points, w.rr_s[i], kFs));
      benchmark::DoNotOptimize(
          core::compute_beat_hemodynamics(points, w.rr_s[i], w.z0_ohm, kFs));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(w.r.size() - 1));
}
BENCHMARK(BM_BeatTailFull);

void BM_Synthesis30s(benchmark::State& state) {
  const auto roster = synth::paper_roster();
  synth::RecordingConfig cfg;
  cfg.duration_s = 30.0;
  for (auto _ : state) benchmark::DoNotOptimize(generate_source(roster[1], cfg));
}
BENCHMARK(BM_Synthesis30s);

} // namespace

BENCHMARK_MAIN();
