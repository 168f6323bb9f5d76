// Reproduces Fig 5: one beat of synchronized ECG and ICG with the
// characteristic points (R on the ECG; B, C, X on the ICG), comparing the
// delineator's detections against the synthesis ground truth. Prints an
// ASCII rendering plus a CSV dump for plotting.
#include "core/delineator.h"
#include "core/pipeline.h"
#include "core/stream.h"
#include "report/table.h"
#include "repro_common.h"

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

int main() {
  using namespace icgkit;
  const auto sessions = bench::study_sessions();
  const auto& s = sessions[0];
  const synth::Recording rec = measure_thoracic(s.subject, s.source, 50e3);

  const core::BeatPipeline pipeline(bench::kFs);
  const core::PipelineResult res = pipeline.process(rec.ecg_mv, rec.z_ohm);
  const dsp::Signal ecg = bench::filtered(core::EcgCleanerStage(bench::kFs), rec.ecg_mv);
  const dsp::Signal icg = bench::filtered(core::IcgConditionerStage(bench::kFs), rec.z_ohm);

  // Pick a mid-recording usable beat.
  const core::BeatRecord* beat = nullptr;
  for (const auto& b : res.beats)
    if (b.usable() && b.points.r > 10 * bench::kFs) {
      beat = &b;
      break;
    }
  if (beat == nullptr) {
    std::cerr << "no usable beat found\n";
    return 1;
  }

  report::banner(std::cout, "Fig 5: ICG and ECG waveform with characteristic points");
  const std::size_t start = beat->points.r > 25 ? beat->points.r - 25 : 0;
  const std::size_t stop =
      std::min(icg.size(), beat->points.x + 50);

  // ASCII rendering: 24 rows, one column per two samples.
  const int rows = 16;
  double icg_min = 1e300, icg_max = -1e300;
  for (std::size_t i = start; i < stop; ++i) {
    icg_min = std::min(icg_min, icg[i]);
    icg_max = std::max(icg_max, icg[i]);
  }
  std::vector<std::string> canvas(rows + 1, std::string((stop - start) / 2 + 1, ' '));
  auto row_of = [&](double v) {
    return rows - static_cast<int>(std::lround((v - icg_min) / (icg_max - icg_min) * rows));
  };
  for (std::size_t i = start; i < stop; i += 2)
    canvas[static_cast<std::size_t>(row_of(icg[i]))][(i - start) / 2] = '*';
  auto mark = [&](std::size_t idx, char ch) {
    if (idx >= start && idx < stop)
      canvas[static_cast<std::size_t>(row_of(icg[idx]))][(idx - start) / 2] = ch;
  };
  mark(beat->points.b, 'B');
  mark(beat->points.c, 'C');
  mark(beat->points.x, 'X');
  std::cout << "ICG (-dZ/dt), one beat; B/C/X = detected points\n";
  for (const auto& line : canvas) std::cout << line << '\n';

  // Detection vs ground truth for this beat.
  const synth::BeatTruth* truth = nullptr;
  for (const auto& t : rec.beats) {
    if (std::abs(t.r_time_s - static_cast<double>(beat->points.r) / bench::kFs) < 0.1)
      truth = &t;
  }
  report::Table table({"Point", "Detected (s)", "Ground truth (s)", "Error (ms)"});
  auto add_row = [&](const char* name, std::size_t idx, double truth_s) {
    const double det_s = static_cast<double>(idx) / bench::kFs;
    table.row().add(std::string(name)).add(det_s, 4).add(truth_s, 4).add(
        (det_s - truth_s) * 1000.0, 1);
  };
  if (truth != nullptr) {
    add_row("B (valve opening)", beat->points.b, truth->b_time_s);
    add_row("C (peak flow)", beat->points.c, truth->c_time_s);
    add_row("X (valve closure)", beat->points.x, truth->x_time_s);
    std::cout << '\n';
    table.print(std::cout);
    std::cout << "\nBeat intervals: PEP = " << beat->hemo.pep_s * 1000.0
              << " ms (truth " << truth->pep_s * 1000.0 << "), LVET = "
              << beat->hemo.lvet_s * 1000.0 << " ms (truth " << truth->lvet_s * 1000.0
              << ")\n";
  }

  // CSV dump of the beat (ECG + ICG) for external plotting.
  std::cout << "\nCSV (t_s, ecg_mv, icg_ohm_per_s):\n";
  for (std::size_t i = start; i < stop; i += 2)
    std::cout << static_cast<double>(i) / bench::kFs << ',' << ecg[i] << ','
              << icg[i] << '\n';
  return 0;
}
