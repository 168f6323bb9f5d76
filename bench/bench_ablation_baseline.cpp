// Ablation: morphological baseline removal vs FIR-only ECG cleaning
// (Section IV-A.1), run with the engine's own kernels. The paper stacks
// both stages. The 32nd-order FIR is designed at 0.05-40 Hz, but 33 taps
// cannot place a 0.05 Hz edge: at fs = 250 Hz its zero-phase response is
// 11-34 Hz at -3 dB, with a gain of 0.0002 at 1 Hz. So the FIR alone
// removes the 0.3 Hz wander, more completely than the morphology alone
// does, and it is also what flattens the R peaks.
#include "core/stream.h"
#include "dsp/fft.h"
#include "dsp/filtfilt.h"
#include "dsp/morphology.h"
#include "dsp/stats.h"
#include "ecg/pan_tompkins.h"
#include "report/table.h"
#include "repro_common.h"
#include "synth/artifacts.h"
#include "synth/ecg_synth.h"

#include <cmath>
#include <iostream>
#include <numbers>

namespace {

using namespace icgkit;

struct Variant {
  const char* name;
  bool morph, fir;
};

double detection_f1(const std::vector<double>& truth, const std::vector<double>& det) {
  std::vector<bool> used(det.size(), false);
  std::size_t tp = 0;
  for (const double t : truth) {
    for (std::size_t i = 0; i < det.size(); ++i) {
      if (!used[i] && std::abs(det[i] - t) <= 0.05) {
        used[i] = true;
        ++tp;
        break;
      }
    }
  }
  const double fn = static_cast<double>(truth.size() - tp);
  double fp = 0.0;
  for (const bool u : used)
    if (!u) fp += 1.0;
  fp += static_cast<double>(det.size() - used.size());
  return 2.0 * static_cast<double>(tp) / (2.0 * static_cast<double>(tp) + fn + fp);
}

} // namespace

int main() {
  const double fs = 250.0;
  // 60 s ECG with strong 0.3 Hz wander + noise.
  const auto gen = synth::synthesize_ecg(std::vector<double>(80, 0.8), fs);
  synth::Rng rng(7);
  dsp::Signal contaminated = gen.ecg_mv;
  const dsp::Signal noise = synth::white_noise(contaminated.size(), 0.05, rng);
  for (std::size_t i = 0; i < contaminated.size(); ++i) {
    const double t = static_cast<double>(i) / fs;
    contaminated[i] += 1.2 * std::sin(2.0 * std::numbers::pi * 0.3 * t) + noise[i];
  }

  const Variant variants[] = {
      {"raw (no cleaning)", false, false},
      {"FIR band-pass only", false, true},
      {"morphological only", true, false},
      {"full chain (paper)", true, true},
  };

  report::banner(std::cout,
                 "Ablation: ECG baseline removal (1.2 mV wander @ 0.3 Hz + noise)");
  report::Table table(
      {"Variant", "residual <0.5 Hz power", "R-peak F1", "R amp p99 (mV)"});
  const dsp::FirCoefficients fir = core::ecg_cleaner_fir_kernel(fs, {});
  double f1_full = 0.0, f1_fir = 0.0;
  for (const auto& v : variants) {
    dsp::Signal cleaned = contaminated;
    if (v.morph) cleaned = bench::filtered(dsp::StreamingBaselineRemover(fs), cleaned);
    if (v.fir) cleaned = bench::filtered(dsp::StreamingZeroPhaseFir(fir), cleaned);

    const dsp::Psd psd = dsp::welch_psd(cleaned, fs);
    const double wander = dsp::band_power(psd, 0.05, 0.5);

    const ecg::PanTompkins pt(fs);
    const auto det = pt.detect(cleaned);
    const double f1 = detection_f1(gen.r_times_s, ecg::r_peak_times(det, fs));
    if (v.morph && v.fir) f1_full = f1;
    if (!v.morph && v.fir) f1_fir = f1;

    table.row()
        .add(std::string(v.name))
        .add(wander, 5)
        .add(f1, 3)
        .add(dsp::percentile(cleaned, 99.9), 3);
  }
  table.print(std::cout);
  std::cout << "\n(The FIR's 0.05 Hz edge is a design value only -- 33 taps at 250 Hz\n"
               " pass 11-34 Hz at -3 dB, so the FIR alone removes the 0.3 Hz wander\n"
               " and also flattens the R peaks; the morphology alone leaves some\n"
               " wander but keeps the R amplitude.)\n";
  return (f1_full >= f1_fir - 1e-9 && f1_full > 0.97) ? 0 : 1;
}
