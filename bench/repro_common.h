// Shared helpers for the reproduction benches. Each bench regenerates one
// table or figure of the paper; the common code runs the study protocol
// of Section V: five subjects, 30 s recordings at fs = 250 Hz, injection
// frequencies {2, 10, 50, 100} kHz, three arm positions.
#pragma once

#include "dsp/stats.h"
#include "report/table.h"
#include "synth/recording.h"
#include "synth/subject.h"

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace icgkit::bench {

inline constexpr double kFs = 250.0;
inline constexpr double kDuration = 30.0;

struct StudySession {
  synth::SubjectProfile subject;
  synth::SourceActivity source;
};

/// One streaming stage or kernel over a whole recording, fed the way the
/// engine feeds it (one chunk, then finish()): the filtered trace,
/// index-aligned with the input. Pipeline stages take the chunk with
/// their per-sample output counts; bare kernels take samples.
template <typename Stage>
dsp::Signal filtered(Stage stage, dsp::SignalView x) {
  dsp::Signal out;
  if constexpr (requires(std::vector<std::uint32_t>& cum) { stage.process_chunk(x, out, cum); }) {
    std::vector<std::uint32_t> cum;
    stage.process_chunk(x, out, cum);
  } else {
    for (const double v : x) stage.push(v, out);
  }
  stage.finish(out);
  return out;
}

/// One 30 s session per roster subject (deterministic).
inline std::vector<StudySession> study_sessions() {
  std::vector<StudySession> sessions;
  for (const auto& subject : synth::paper_roster()) {
    synth::RecordingConfig cfg;
    cfg.duration_s = kDuration;
    cfg.fs = kFs;
    sessions.push_back({subject, generate_source(subject, cfg)});
  }
  return sessions;
}

/// Device-vs-thoracic Pearson correlation for one subject at one position,
/// averaged over the four injection frequencies (the paper's Tables II-IV
/// report one value per subject per position).
inline double device_thoracic_correlation(const StudySession& s, synth::Position pos) {
  double acc = 0.0;
  for (const double f : synth::kInjectionFrequenciesHz) {
    const synth::Recording thorax = measure_thoracic(s.subject, s.source, f);
    const synth::Recording device = measure_device(s.subject, s.source, f, pos);
    acc += dsp::pearson(thorax.z_ohm, device.z_ohm);
  }
  return acc / static_cast<double>(synth::kInjectionFrequenciesHz.size());
}

/// Prints one of Tables II-IV.
inline void print_correlation_table(synth::Position pos, const std::string& title,
                                    const std::string& paper_table) {
  report::banner(std::cout, title);
  report::Table table({"Subjects", "Correlation Coefficient", "Paper reports"});
  const auto sessions = study_sessions();
  double worst_dev = 0.0;
  for (const auto& s : sessions) {
    const double r = device_thoracic_correlation(s, pos);
    const double paper = s.subject.target_corr[synth::index_of(pos)];
    worst_dev = std::max(worst_dev, std::abs(r - paper));
    table.row().add(s.subject.name).add(r, 4).add(paper, 4);
  }
  table.print(std::cout);
  std::cout << "(reproduces paper " << paper_table
            << "; worst |measured - paper| = " << worst_dev << ")\n";
}

} // namespace icgkit::bench
