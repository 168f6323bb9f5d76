// Beat ensemble averaging -- the classical ICG noise-reduction technique
// (Kubicek 1966 onwards) and a natural extension of the paper's
// beat-to-beat processing: R-aligned beats are averaged so uncorrelated
// artifacts cancel as 1/sqrt(N) while the cardiac waveform is preserved.
// The paper's future work (larger cohorts, comparison against reference
// ICG systems) is exactly where ensemble averaging is standard practice.
//
// The averager is windowed (default 8 beats) and robust: beats whose
// correlation with the current template falls below a threshold (ectopics,
// motion bursts) are excluded from the average.
#pragma once

#include "core/delineator.h"
#include "dsp/types.h"

#include <cstddef>
#include <optional>
#include <vector>

namespace icgkit::core {

struct EnsembleConfig {
  std::size_t window_beats = 8;      ///< how many accepted beats to average
  double pre_r_s = 0.10;             ///< segment start before R
  double post_r_s = 0.60;            ///< segment end after R
  double min_template_corr = 0.6;    ///< acceptance threshold vs template
  std::size_t min_beats_for_gate = 3;///< gate only once a template exists
};

/// Windowed, correlation-gated ensemble averager over R-aligned beats.
class EnsembleAverager {
 public:
  EnsembleAverager(dsp::SampleRate fs, const EnsembleConfig& cfg = {});

  /// Adds the beat whose R peak is at `r_idx` of `icg`. Returns false if
  /// the segment is out of bounds or rejected by the correlation gate.
  bool add_beat(dsp::SignalView icg, std::size_t r_idx);

  /// The current ensemble template (empty until the first accepted beat).
  /// Sample 0 corresponds to R - pre_r_s; the R peak sits at r_offset().
  [[nodiscard]] dsp::Signal average() const;

  [[nodiscard]] std::size_t r_offset() const { return pre_samples_; }
  /// Length of one R-aligned segment (pre + post window) in samples.
  [[nodiscard]] std::size_t segment_samples() const { return len_samples_; }
  [[nodiscard]] std::size_t beats_in_window() const { return window_.size(); }
  [[nodiscard]] std::size_t beats_rejected() const { return rejected_; }

  /// Delineates the ensemble template itself (R at r_offset, bound at the
  /// template end). Returns nullopt until enough beats accumulated.
  [[nodiscard]] std::optional<BeatDelineation> delineate_average(
      const IcgDelineator& delineator) const;

  void reset();

  /// Serializes the beat window and rejection counter for
  /// core::Checkpoint round trips; load_state() rejects blobs whose
  /// segment length or window size disagrees with this instance's
  /// configuration.
  template <typename W>
  void save_state(W& w) const {
    w.u64(len_samples_);
    w.u64(window_.size());
    for (const dsp::Signal& beat : window_)
      for (const double v : beat) w.f64(v);
    w.u64(rejected_);
  }

  template <typename R>
  void load_state(R& r) {
    if (r.u64() != len_samples_) return r.fail("EnsembleAverager: segment length mismatch");
    const std::size_t n = r.u64();
    if (n > cfg_.window_beats) return r.fail("EnsembleAverager: beat window overflow");
    window_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      dsp::Signal beat(len_samples_);
      for (double& v : beat) v = r.f64();
      window_.push_back(std::move(beat));
    }
    rejected_ = r.u64();
  }

 private:
  dsp::SampleRate fs_;
  EnsembleConfig cfg_;
  std::size_t pre_samples_;
  std::size_t len_samples_;
  std::vector<dsp::Signal> window_;
  std::size_t rejected_ = 0;
};

} // namespace icgkit::core
