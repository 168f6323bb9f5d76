// Reproduces Fig 9a-b: characteristic ICG parameters (LVET, PEP) together
// with the heart rate for each subject, measured by the full beat-to-beat
// pipeline on touch-device recordings in the two worst-case positions
// (Positions 1 and 2, selected in the paper for their largest mutual
// error). Injection frequency 50 kHz per Section IV-B.
#include "core/pipeline.h"
#include "report/table.h"
#include "repro_common.h"

#include <iostream>

int main() {
  using namespace icgkit;
  const auto sessions = bench::study_sessions();
  const core::BeatPipeline pipeline(bench::kFs);

  bool ok = true;
  for (const auto pos : {synth::Position::HoldToChest, synth::Position::ArmsOutstretched}) {
    const auto idx = synth::index_of(pos);
    report::banner(std::cout,
                   "Fig 9: ICG parameters + HR, Position " + std::to_string(idx + 1));
    report::Table table({"Subject", "LVET (ms)", "PEP (ms)", "HR (bpm)",
                         "LVET truth", "PEP truth", "HR nominal", "beats"});
    for (const auto& s : sessions) {
      const synth::Recording rec = measure_device(s.subject, s.source, 50e3, pos);
      const core::PipelineResult res = pipeline.process(rec.ecg_mv, rec.z_ohm);

      dsp::Signal pep_truth, lvet_truth;
      for (const auto& b : rec.beats) {
        pep_truth.push_back(b.pep_s);
        lvet_truth.push_back(b.lvet_s);
      }
      table.row()
          .add(s.subject.name)
          .add(res.summary.lvet_s * 1000.0, 1)
          .add(res.summary.pep_s * 1000.0, 1)
          .add(res.summary.hr_bpm, 1)
          .add(dsp::mean(lvet_truth) * 1000.0, 1)
          .add(dsp::mean(pep_truth) * 1000.0, 1)
          .add(s.subject.rr.mean_hr_bpm, 1)
          .add(static_cast<long long>(res.summary.beats_used));
      ok = ok && res.summary.beats_used > 15 &&
           std::abs(res.summary.lvet_s - dsp::mean(lvet_truth)) < 0.035 &&
           std::abs(res.summary.pep_s - dsp::mean(pep_truth)) < 0.055 &&
           std::abs(res.summary.hr_bpm - s.subject.rr.mean_hr_bpm) < 5.0;
    }
    table.print(std::cout);
  }
  std::cout
      << "\nEstimates vs synthesis ground truth: "
      << (ok ? "WITHIN TOLERANCE (LVET +-35 ms, PEP +-55 ms, HR +-5 bpm)"
             : "OUT OF TOLERANCE")
      << "\n\nNote: the paper's Fig 9 reports the device's estimates without a\n"
         "reference; the truth columns here are a bonus the synthetic substrate\n"
         "provides. HR tracks the nominal rate to within 0.2 bpm. PEP reads\n"
         "below truth in 9 of 10 rows, by at most 9 ms. LVET reads 13-38 ms\n"
         "short in every row; Subject 3 in Position 1 is 38 ms short, outside\n"
         "the +-35 ms bound, which is why this bench exits non-zero.\n";
  return ok ? 0 : 1;
}
