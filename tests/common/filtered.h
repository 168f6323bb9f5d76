// Runs one streaming stage or kernel over a whole signal, the way the
// engine feeds it (one chunk, then finish()), for the filter property
// tests.
#pragma once

#include "dsp/backend.h"
#include "dsp/types.h"

#include <cstdint>
#include <span>
#include <vector>

namespace icgkit::test {

/// The index-aligned output of `stage` over `x`, in real units. On the
/// Q31 backend each sample is divided by `fullscale` into Q1.31 range on
/// the way in and scaled back on the way out. Pipeline stages take the
/// chunk with its per-sample output counts; bare kernels take samples.
template <typename B = dsp::DoubleBackend, typename Stage>
dsp::Signal filtered(Stage stage, dsp::SignalView x, double fullscale = 1.0) {
  using sample_t = typename B::sample_t;
  std::vector<sample_t> in, out;
  for (const double v : x) in.push_back(B::from_real(v / fullscale));
  if constexpr (requires(std::vector<std::uint32_t>& cum) {
                  stage.process_chunk(std::span<const sample_t>(in), out, cum);
                }) {
    std::vector<std::uint32_t> cum;
    stage.process_chunk(in, out, cum);
  } else {
    for (const sample_t v : in) stage.push(v, out);
  }
  stage.finish(out);
  dsp::Signal y;
  for (const sample_t v : out) y.push_back(B::to_real(v) * fullscale);
  return y;
}

} // namespace icgkit::test
