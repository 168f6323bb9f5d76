#include "platform/components.h"
#include "platform/mcu.h"
#include "platform/power_model.h"
#include "platform/radio.h"

#include <gtest/gtest.h>

namespace icgkit::platform {
namespace {

TEST(ComponentsTest, TableOneCurrents) {
  // Verbatim Table I values.
  EXPECT_DOUBLE_EQ(component_current_ma(Component::EcgChip), 0.400);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::IcgChip), 0.900);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::McuActive), 10.500);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::McuStandby), 0.020);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::RadioTx), 11.000);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::RadioStandby), 0.002);
  EXPECT_DOUBLE_EQ(component_current_ma(Component::MotionSensors), 3.800);
}

TEST(ComponentsTest, NamesNonEmpty) {
  for (const Component c : kAllComponents) EXPECT_FALSE(component_name(c).empty());
}

TEST(PowerModelTest, PaperBatteryLifeClaim) {
  // Section V / VI: 50 % MCU duty, 1 % radio duty, 710 mAh -> 106 hours.
  DutyCycleProfile duty;
  duty.mcu_active = 0.50;
  duty.radio_tx = 0.01;
  duty.motion_sensors = 0.0;
  const PowerModel model(duty);
  // 0.4 + 0.9 + 0.5*10.5 + 0.5*0.02 + 0.01*11 + 0.99*0.002 = 6.67198 mA
  EXPECT_NEAR(model.average_current_ma(), 6.67198, 1e-9);
  EXPECT_NEAR(model.battery_life_hours(kPaperBatteryMah), 106.0, 1.0);
}

TEST(PowerModelTest, FourDaysOfOperation) {
  const PowerModel model(DutyCycleProfile{});
  EXPECT_GT(model.battery_life_hours(kPaperBatteryMah), 4.0 * 24.0);
}

TEST(PowerModelTest, FortyPercentDutyLastsLonger) {
  DutyCycleProfile d40, d50;
  d40.mcu_active = 0.40;
  d50.mcu_active = 0.50;
  EXPECT_GT(PowerModel(d40).battery_life_hours(710.0),
            PowerModel(d50).battery_life_hours(710.0));
}

TEST(PowerModelTest, MotionSensorsCostIsLarge) {
  DutyCycleProfile with, without;
  with.motion_sensors = 1.0;
  const double delta =
      PowerModel(with).average_current_ma() - PowerModel(without).average_current_ma();
  EXPECT_NEAR(delta, 3.8, 1e-12);
}

TEST(PowerModelTest, ComponentBreakdownSumsToTotal) {
  DutyCycleProfile duty;
  duty.mcu_active = 0.45;
  duty.radio_tx = 0.005;
  duty.motion_sensors = 0.2;
  const PowerModel model(duty);
  double sum = 0.0;
  for (const Component c : kAllComponents) sum += model.component_average_ma(c);
  EXPECT_NEAR(sum, model.average_current_ma(), 1e-12);
}

TEST(PowerModelTest, RejectsBadInput) {
  DutyCycleProfile duty;
  duty.mcu_active = 1.5;
  EXPECT_THROW(PowerModel{duty}, std::invalid_argument);
  EXPECT_THROW((void)PowerModel{}.battery_life_hours(-1.0), std::invalid_argument);
}

TEST(RadioTest, AirtimeScalesWithBytes) {
  const BleRadio radio;
  EXPECT_DOUBLE_EQ(radio.airtime_s(0), 0.0);
  EXPECT_GT(radio.airtime_s(40), radio.airtime_s(20));
  // 16 bytes in one packet: (16+17)*8 bits at 1 Mbps + 0.5 ms overhead.
  EXPECT_NEAR(radio.airtime_s(16), 33.0 * 8.0 / 1e6 + 0.0005, 1e-9);
}

TEST(RadioTest, BeatReportDutyCycleMatchesPaperOrder) {
  // Section V: sending Z0/LVET/PEP/HR uses ~0.1 % of the radio duty.
  const BleRadio radio;
  const double duty = radio.beat_report_duty_cycle(70.0);
  EXPECT_LT(duty, 0.005);
  EXPECT_GT(duty, 1e-5);
}

TEST(RadioTest, RawStreamingIsOrdersOfMagnitudeWorse) {
  const BleRadio radio;
  const double reports = radio.beat_report_duty_cycle(70.0);
  const double raw = radio.raw_streaming_duty_cycle(250.0);
  EXPECT_GT(raw, 10.0 * reports);
}

TEST(RadioTest, RejectsBadArgs) {
  const BleRadio radio;
  EXPECT_THROW((void)radio.duty_cycle(16, 0.0), std::invalid_argument);
  EXPECT_THROW((void)radio.beat_report_duty_cycle(0.0), std::invalid_argument);
  BleConfig cfg;
  cfg.bitrate_bps = 0.0;
  EXPECT_THROW(BleRadio{cfg}, std::invalid_argument);
}

TEST(McuTest, DutyCycleScalesWithSamplingRate) {
  const core::PipelineConfig cfg;
  McuConfig mcu;
  const double d250 = estimate_cpu_load(cfg, 250.0, 70.0, mcu).duty_cycle;
  mcu.acquisition_fs_hz = 4000.0;
  const double d500 = estimate_cpu_load(cfg, 500.0, 70.0, mcu).duty_cycle;
  EXPECT_GT(d500, d250);
}

TEST(McuTest, PaperDutyBandReachable) {
  // The paper reports 40-50 % CPU duty. With software floats on the
  // FPU-less Cortex-M3 and a fast acquisition front end, the model lands
  // in that band at fs ~ 750-1000 Hz.
  const core::PipelineConfig cfg;
  McuConfig mcu;
  mcu.acquisition_fs_hz = 6000.0;
  const double duty = estimate_cpu_load(cfg, 800.0, 70.0, mcu).duty_cycle;
  EXPECT_GT(duty, 0.35);
  EXPECT_LT(duty, 0.55);
}

TEST(McuTest, EvaluationRateIsComfortable) {
  // At the evaluation rate (250 Hz) the pipeline fits with big margin.
  const double duty =
      estimate_cpu_load(core::PipelineConfig{}, 250.0, 70.0, McuConfig{}).duty_cycle;
  EXPECT_LT(duty, 0.25);
}

TEST(McuTest, StageBreakdownSumsToTotal) {
  const CpuLoadReport r = estimate_cpu_load(core::PipelineConfig{}, 250.0, 70.0);
  double macs = 0.0;
  for (const auto& s : r.stages) macs += s.macs_per_second;
  EXPECT_NEAR(macs, r.total_macs_per_second, 1e-9);
  EXPECT_GT(r.stages.size(), 5u);
}

TEST(McuTest, RejectsBadArgs) {
  EXPECT_THROW(estimate_cpu_load(core::PipelineConfig{}, 0.0, 70.0), std::invalid_argument);
  EXPECT_THROW(estimate_cpu_load(core::PipelineConfig{}, 250.0, -1.0),
               std::invalid_argument);
}

} // namespace
} // namespace icgkit::platform
