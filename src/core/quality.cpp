#include "core/quality.h"

namespace icgkit::core {

BeatFlaw assess_beat(const BeatDelineation& beat, double rr_s, dsp::SampleRate fs,
                     const QualityConfig& cfg) {
  BeatFlaw flaws = BeatFlaw::None;
  if (!beat.valid) return BeatFlaw::InvalidDelineation;

  const double pep = static_cast<double>(beat.b - beat.r) / fs;
  const double lvet = static_cast<double>(beat.x - beat.b) / fs;

  if (pep < cfg.min_pep_s || pep > cfg.max_pep_s) flaws = flaws | BeatFlaw::PepOutOfRange;
  if (lvet < cfg.min_lvet_s || lvet > cfg.max_lvet_s)
    flaws = flaws | BeatFlaw::LvetOutOfRange;
  if (beat.c_amplitude < cfg.min_dzdt || beat.c_amplitude > cfg.max_dzdt)
    flaws = flaws | BeatFlaw::AmplitudeOutOfRange;
  if (rr_s < cfg.min_rr_s || rr_s > cfg.max_rr_s) flaws = flaws | BeatFlaw::RrOutOfRange;
  return flaws;
}

BeatFlaw assess_signal(const SignalQuality& q, const QualityConfig& cfg) {
  BeatFlaw flaws = BeatFlaw::None;
  if (q.snr_db < cfg.min_snr_db) flaws = flaws | BeatFlaw::LowSnr;
  if (q.saturation_fraction > cfg.max_saturation_fraction)
    flaws = flaws | BeatFlaw::Saturated;
  if (q.flatline_fraction > cfg.max_flatline_fraction)
    flaws = flaws | BeatFlaw::Flatline;
  return flaws;
}

std::string describe_flaws(BeatFlaw flaws) {
  if (flaws == BeatFlaw::None) return "ok";
  std::string out;
  auto append = [&](const char* name) {
    if (!out.empty()) out += '|';
    out += name;
  };
  if (has_flaw(flaws, BeatFlaw::InvalidDelineation)) append("invalid-delineation");
  if (has_flaw(flaws, BeatFlaw::PepOutOfRange)) append("pep-range");
  if (has_flaw(flaws, BeatFlaw::LvetOutOfRange)) append("lvet-range");
  if (has_flaw(flaws, BeatFlaw::AmplitudeOutOfRange)) append("amplitude-range");
  if (has_flaw(flaws, BeatFlaw::RrOutOfRange)) append("rr-range");
  if (has_flaw(flaws, BeatFlaw::LowSnr)) append("low-snr");
  if (has_flaw(flaws, BeatFlaw::Saturated)) append("saturated");
  if (has_flaw(flaws, BeatFlaw::Flatline)) append("flatline");
  return out;
}

void QualitySummary::tally(BeatFlaw flaws, const SignalQuality& q, bool snr_measured) {
  ++beats;
  if (snr_measured) {
    if (snr_beats == 0 || q.snr_db < min_snr_db) min_snr_db = q.snr_db;
    ++snr_beats;
    sum_snr_db += q.snr_db;
  }
  if (flaws == BeatFlaw::None) {
    ++usable;
    return;
  }
  for (std::size_t bit = 0; bit < kBeatFlawCount; ++bit)
    if (has_flaw(flaws, static_cast<BeatFlaw>(std::uint32_t{1} << bit))) ++flaw_counts[bit];
}

} // namespace icgkit::core
