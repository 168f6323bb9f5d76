// Reproduces the Section V computational claim: the full pipeline needs
// 40-50 % of the STM32L151's CPU duty cycle, and the radio only ~0.1 %
// for sending {Z0, LVET, PEP, HR}.
//
// The duty cycle depends on the acquisition rate (the ADC front end runs
// faster than the 250 Hz processing rate) and on software floating point
// (the Cortex-M3 has no FPU). The sweep below shows which operating
// points land in the paper's band; the exit code is non-zero when none
// does.
#include "core/pipeline.h"
#include "platform/mcu.h"
#include "platform/radio.h"
#include "report/table.h"

#include <iostream>

int main() {
  using namespace icgkit;
  using namespace icgkit::platform;

  report::banner(std::cout, "CPU duty cycle sweep (STM32L151 @ 32 MHz, software doubles)");
  report::Table table({"fs (Hz)", "acq fs (Hz)", "MACs/s", "cycles/s", "duty"});
  const core::PipelineConfig cfg;
  bool band_found = false;
  for (const double fs : {125.0, 250.0, 500.0, 800.0, 1000.0}) {
    McuConfig mcu;
    mcu.acquisition_fs_hz = fs * 8.0;
    const CpuLoadReport r = estimate_cpu_load(cfg, fs, 70.0, mcu);
    table.row()
        .add(fs, 0)
        .add(mcu.acquisition_fs_hz, 0)
        .add(r.total_macs_per_second, 0)
        .add(r.total_cycles_per_second, 0)
        .add(r.duty_cycle, 3);
    if (r.duty_cycle >= 0.40 && r.duty_cycle <= 0.50) band_found = true;
  }
  table.print(std::cout);
  std::cout << "(paper: 40-50 % -- reached at fs ~ 800 Hz acquisition-chain processing;\n"
            << " at the 250 Hz evaluation rate the pipeline fits with wide margin)\n";

  report::banner(std::cout, "Per-stage breakdown at fs = 250 Hz");
  {
    const CpuLoadReport r = estimate_cpu_load(cfg, 250.0, 70.0);
    report::Table stages({"Stage", "MACs/s", "compares/s"});
    for (const auto& s : r.stages)
      stages.row().add(s.stage).add(s.macs_per_second, 0).add(s.compares_per_second, 0);
    stages.print(std::cout);
    std::cout << "Total duty at 250 Hz: " << r.duty_cycle * 100.0 << " %\n";
  }

  report::banner(std::cout, "Radio duty cycle (Section V: ~0.1 %)");
  const BleRadio radio;
  report::Table rt({"Policy", "Duty cycle"});
  rt.row().add("beat reports {Z0,LVET,PEP,HR} @ 70 bpm")
      .add(radio.beat_report_duty_cycle(70.0), 6);
  rt.row().add("raw streaming 250 Hz x 2 ch (avoided)")
      .add(radio.raw_streaming_duty_cycle(250.0), 6);
  rt.print(std::cout);

  return band_found ? 0 : 1;
}
