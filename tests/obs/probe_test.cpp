// Probe: every event's encoding — the trace payload, the attribution
// ledger's cause or charge, the flight recorder's (type, code, a, b) and
// trigger, and the metrics — against the tables in docs/OBSERVABILITY.md.
#include "obs/probe.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "obs/sinks.hpp"

namespace dvs::obs {
namespace {

using hw::PowerState;
using workload::MediaType;

class ProbeTest : public ::testing::Test {
 protected:
  /// The sinks, with the trace capture attached first: the probe fixes its
  /// enabled set at construction.
  Probe::Sinks capture_sinks() {
    trace_.add_sink(std::make_unique<CallbackSink>(
        [this](const Event& e) { events_.push_back(e); }));
    return {&trace_, &metrics_, &ledger_, &flight_};
  }

  /// The one trace event recorded so far, as payload type T.
  template <typename T>
  const T& only_event() {
    EXPECT_EQ(events_.size(), 1u);
    const T* p = std::get_if<T>(&events_.back().payload);
    EXPECT_NE(p, nullptr) << "last event is "
                          << type_name(events_.back().payload);
    static const T kEmpty{};
    return p != nullptr ? *p : kEmpty;
  }

  /// Flight record `i` (oldest first).
  FlightRecord flight_at(std::size_t i) const {
    const std::vector<FlightRecord> snap = flight_.snapshot();
    EXPECT_LT(i, snap.size());
    return i < snap.size() ? snap[i] : FlightRecord{};
  }

  static void expect_record(const FlightRecord& r, FlightEventType type,
                            unsigned code, float a, float b) {
    EXPECT_EQ(r.type, static_cast<std::uint16_t>(type)) << to_string(type);
    EXPECT_EQ(r.code, code) << to_string(type);
    EXPECT_FLOAT_EQ(r.a, a) << to_string(type);
    EXPECT_FLOAT_EQ(r.b, b) << to_string(type);
  }

  std::vector<Event> events_;
  TraceRecorder trace_;
  MetricsRegistry metrics_;
  AttributionLedger ledger_;
  FlightRecorder flight_{64};
  Probe probe_{capture_sinks()};
};

TEST(ProbeMake, NullWhenEverySinkIsOff) {
  TraceRecorder no_sinks;
  EXPECT_EQ(Probe::make({}), nullptr);
  EXPECT_EQ(Probe::make({&no_sinks, nullptr, nullptr, nullptr}), nullptr);
  FlightRecorder flight{8};
  EXPECT_NE(Probe::make({nullptr, nullptr, nullptr, &flight}), nullptr);
}

TEST(ProbeMake, RegistersHistogramsButNoCounters) {
  MetricsRegistry reg;
  const Probe probe{{nullptr, &reg, nullptr, nullptr}};
  EXPECT_TRUE(reg.counters().empty());
  for (const char* name :
       {"frames.delay_s", "frames.decode_s", "frames.delay_over_target",
        "detector.detection_latency_s", "dpm.idle_period_s"}) {
    EXPECT_NE(reg.find_histogram(name), nullptr) << name;
  }
}

TEST_F(ProbeTest, FrameArrivalIsTraceOnly) {
  probe_.frame_arrival(Seconds{1.5}, 7, MediaType::Mp3Audio, 3);
  const auto& e = only_event<FrameArrival>();
  EXPECT_EQ(e.frame_id, 7u);
  EXPECT_EQ(e.media, "mp3-audio");
  EXPECT_EQ(e.queue_len, 3u);
  EXPECT_DOUBLE_EQ(events_.back().ts, 1.5);
  EXPECT_EQ(flight_.records_stored(), 0u);
}

TEST_F(ProbeTest, FrameDrop) {
  probe_.frame_drop(Seconds{2.0}, 9, MediaType::MpegVideo);
  const auto& e = only_event<FrameDrop>();
  EXPECT_EQ(e.frame_id, 9u);
  EXPECT_EQ(e.media, "mpeg-video");
  expect_record(flight_at(0), FlightEventType::FrameDrop, 1, 9.0F, 0.0F);
  EXPECT_EQ(flight_.triggers(), 0u);
}

TEST_F(ProbeTest, DecodeStartIsTraceOnly) {
  probe_.decode_start(Seconds{3.0}, 11, MediaType::MpegVideo, MegaHertz{103.2},
                      Seconds{150e-6});
  const auto& e = only_event<DecodeStart>();
  EXPECT_EQ(e.frame_id, 11u);
  EXPECT_EQ(e.media, "mpeg-video");
  EXPECT_DOUBLE_EQ(e.freq_mhz, 103.2);
  EXPECT_DOUBLE_EQ(e.switch_latency_s, 150e-6);
  EXPECT_EQ(flight_.records_stored(), 0u);
}

TEST_F(ProbeTest, DecodeDone) {
  probe_.decode_done(Seconds{4.0}, 12, MediaType::Mp3Audio, Seconds{0.02},
                     Seconds{0.3}, 2, Seconds{0.15});
  const auto& e = only_event<DecodeDone>();
  EXPECT_EQ(e.frame_id, 12u);
  EXPECT_EQ(e.media, "mp3-audio");
  EXPECT_DOUBLE_EQ(e.decode_s, 0.02);
  EXPECT_DOUBLE_EQ(e.delay_s, 0.3);
  EXPECT_EQ(e.queue_len, 2u);
  expect_record(flight_at(0), FlightEventType::DecodeDone, 0, 0.3F, 2.0F);
  ASSERT_EQ(ledger_.delay_entries().size(), 1u);
  EXPECT_EQ(ledger_.delay_entries()[0].media, "mp3-audio");
  EXPECT_EQ(ledger_.delay_entries()[0].cause, Cause::Nominal);
  EXPECT_DOUBLE_EQ(ledger_.total_delay_s(), 0.3);
  EXPECT_DOUBLE_EQ(metrics_.find_histogram("frames.delay_s")->mean(), 0.3);
  EXPECT_DOUBLE_EQ(metrics_.find_histogram("frames.decode_s")->mean(), 0.02);
  EXPECT_DOUBLE_EQ(
      metrics_.find_histogram("frames.delay_over_target")->mean(),
      2.0);
}

TEST_F(ProbeTest, DetectorSampleIsTraceOnly) {
  probe_.detector_sample(Seconds{5.0}, "arrival", "change-point",
                         Seconds{0.04}, Hertz{25.0});
  const auto& e = only_event<DetectorSample>();
  EXPECT_EQ(e.stream, "arrival");
  EXPECT_EQ(e.detector, "change-point");
  EXPECT_DOUBLE_EQ(e.interval_s, 0.04);
  EXPECT_DOUBLE_EQ(e.rate_hz, 25.0);
  EXPECT_TRUE(ledger_.empty());
  EXPECT_EQ(flight_.records_stored(), 0u);
}

TEST_F(ProbeTest, DetectorDecisionWithoutChange) {
  probe_.detector_decision(Seconds{6.0}, "service", -1.5, 4.0, false,
                           Hertz{30.0});
  const auto& e = only_event<DetectorDecision>();
  EXPECT_EQ(e.stream, "service");
  EXPECT_DOUBLE_EQ(e.ln_p_max, -1.5);
  EXPECT_DOUBLE_EQ(e.threshold, 4.0);
  EXPECT_FALSE(e.detected);
  EXPECT_DOUBLE_EQ(e.rate_hz, 30.0);
  EXPECT_EQ(ledger_.cause(), Cause::Nominal);
  EXPECT_EQ(metrics_.counter_value("detector.decisions"), 1u);
  EXPECT_EQ(metrics_.counters().count("detector.changes"), 0u);
  EXPECT_EQ(flight_.records_stored(), 0u);
}

TEST_F(ProbeTest, DetectedChangeFeedsCauseAndLatencyOnce) {
  probe_.rate_change(Seconds{10.0});
  probe_.detector_decision(Seconds{12.5}, "arrival", 9.0, 4.0, true,
                           Hertz{20.0});
  EXPECT_TRUE(only_event<DetectorDecision>().detected);
  EXPECT_EQ(ledger_.cause(), Cause::DetectorChange);
  EXPECT_EQ(metrics_.counter_value("detector.decisions"), 1u);
  EXPECT_EQ(metrics_.counter_value("detector.changes"), 1u);
  const HistogramMetric* latency =
      metrics_.find_histogram("detector.detection_latency_s");
  ASSERT_EQ(latency->count(), 1u);
  EXPECT_DOUBLE_EQ(latency->mean(), 2.5);
  // The rate change is acknowledged: a second declaration adds no sample.
  probe_.detector_decision(Seconds{20.0}, "arrival", 9.0, 4.0, true,
                           Hertz{20.0});
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_EQ(metrics_.counter_value("detector.changes"), 2u);
}

TEST_F(ProbeTest, FreqCommitMovesTheLedgerStep) {
  probe_.freq_commit(Seconds{7.0}, 5, MegaHertz{162.2}, Volts{1.2},
                     Seconds{150e-6});
  const auto& e = only_event<FreqCommit>();
  EXPECT_EQ(e.step, 5u);
  EXPECT_DOUBLE_EQ(e.freq_mhz, 162.2);
  EXPECT_DOUBLE_EQ(e.voltage_v, 1.2);
  EXPECT_DOUBLE_EQ(e.switch_latency_s, 150e-6);
  expect_record(flight_at(0), FlightEventType::FreqCommit, 5, 162.2F, 150e-6F);
  EXPECT_EQ(ledger_.freq_step(), 5u);
  EXPECT_EQ(ledger_.cause(), Cause::Nominal);
}

TEST_F(ProbeTest, WatchdogEscalateTriggersADump) {
  probe_.watchdog_escalate(Seconds{8.0}, Seconds{0.9}, 14.0, Seconds{2.0});
  const auto& e = only_event<WatchdogEscalate>();
  EXPECT_DOUBLE_EQ(e.delay_s, 0.9);
  EXPECT_DOUBLE_EQ(e.queue_len, 14.0);
  EXPECT_DOUBLE_EQ(e.backoff_s, 2.0);
  EXPECT_EQ(ledger_.cause(), Cause::WatchdogEscalate);
  expect_record(flight_at(0), FlightEventType::WatchdogEscalate, 0, 0.9F,
                14.0F);
  expect_record(flight_at(1), FlightEventType::Trigger, 0, 0.0F, 0.0F);
  EXPECT_EQ(flight_.first_trigger_reason(), "watchdog-escalate");
}

TEST_F(ProbeTest, WatchdogRecover) {
  probe_.watchdog_recover(Seconds{9.0}, Seconds{3.5});
  EXPECT_DOUBLE_EQ(only_event<WatchdogRecover>().time_degraded_s, 3.5);
  EXPECT_EQ(ledger_.cause(), Cause::WatchdogRecover);
  expect_record(flight_at(0), FlightEventType::WatchdogRecover, 0, 3.5F, 0.0F);
  EXPECT_EQ(flight_.triggers(), 0u);
}

TEST_F(ProbeTest, DpmIdleEnterWithAndWithoutHint) {
  probe_.dpm_idle_enter(Seconds{10.0}, Seconds{4.0});
  probe_.dpm_idle_enter(Seconds{11.0}, std::nullopt);
  ASSERT_EQ(events_.size(), 2u);
  EXPECT_DOUBLE_EQ(std::get<DpmIdleEnter>(events_[0].payload).hint_s, 4.0);
  EXPECT_DOUBLE_EQ(std::get<DpmIdleEnter>(events_[1].payload).hint_s, -1.0);
  expect_record(flight_at(0), FlightEventType::DpmIdleEnter, 0, 4.0F, 0.0F);
  expect_record(flight_at(1), FlightEventType::DpmIdleEnter, 0, -1.0F, 0.0F);
}

TEST_F(ProbeTest, DpmSleep) {
  probe_.dpm_sleep(Seconds{12.0}, PowerState::Standby);
  EXPECT_EQ(only_event<DpmSleepCommand>().state, "standby");
  EXPECT_EQ(ledger_.cause(), Cause::DpmSleep);
  expect_record(flight_at(0), FlightEventType::DpmSleep, 2, 0.0F, 0.0F);
}

TEST_F(ProbeTest, IdlePeriodEndChargesTheWakeupOnlyFromSleep) {
  probe_.idle_period_end(Seconds{3.0}, PowerState::Idle);
  EXPECT_EQ(ledger_.cause(), Cause::Nominal);
  probe_.idle_period_end(Seconds{40.0}, PowerState::Off);
  EXPECT_EQ(ledger_.cause(), Cause::DpmWakeup);
  EXPECT_EQ(metrics_.find_histogram("dpm.idle_period_s")->count(), 2u);
  EXPECT_TRUE(events_.empty());
  EXPECT_EQ(flight_.records_stored(), 0u);
}

TEST_F(ProbeTest, DpmWakeup) {
  probe_.dpm_wakeup(Seconds{13.0}, PowerState::Off, Seconds{0.4},
                    Seconds{40.0});
  const auto& e = only_event<DpmWakeup>();
  EXPECT_EQ(e.from_state, "off");
  EXPECT_DOUBLE_EQ(e.latency_s, 0.4);
  EXPECT_DOUBLE_EQ(e.idle_length_s, 40.0);
  expect_record(flight_at(0), FlightEventType::DpmWakeup, 3, 0.4F, 40.0F);
  // The cause switched at idle_period_end, not here.
  EXPECT_EQ(ledger_.cause(), Cause::Nominal);
}

TEST_F(ProbeTest, FaultKindsMapToCodesZeroToThree) {
  const char* kinds[] = {"wakeup_delay", "wakeup_fail", "freq_fail",
                         "rail_stuck"};
  for (unsigned code = 0; code < 4; ++code) {
    probe_.fault(Seconds{14.0 + code}, kinds[code], 0.25 * (code + 1));
    const auto& e = std::get<FaultInjected>(events_.back().payload);
    EXPECT_EQ(e.kind, kinds[code]);
    EXPECT_DOUBLE_EQ(e.magnitude, 0.25 * (code + 1));
    // Each fault is a record plus a trigger.
    expect_record(flight_at(2 * code), FlightEventType::FaultInjected, code,
                  0.25F * static_cast<float>(code + 1), 0.0F);
    expect_record(flight_at(2 * code + 1), FlightEventType::Trigger, code,
                  0.0F, 0.0F);
  }
  EXPECT_EQ(events_.size(), 4u);
  EXPECT_EQ(ledger_.cause(), Cause::Fault);
  EXPECT_EQ(flight_.triggers(), 4u);
  EXPECT_EQ(flight_.first_trigger_reason(), "fault-injected");
}

TEST_F(ProbeTest, ComponentState) {
  const std::string name = "dram";
  probe_.component_state(Seconds{15.0}, 2, name, PowerState::Idle,
                         PowerState::Active, MilliWatts{115.0});
  const auto& e = only_event<ComponentState>();
  EXPECT_EQ(e.component, "dram");
  EXPECT_EQ(e.from, "idle");
  EXPECT_EQ(e.to, "active");
  EXPECT_DOUBLE_EQ(e.power_mw, 115.0);
  expect_record(flight_at(0), FlightEventType::ComponentState, (2u << 8) | 0u,
                115.0F, 0.0F);
}

TEST_F(ProbeTest, AccrualChargesTheLedgerUnderTheCurrentKey) {
  probe_.freq_commit(Seconds{0.0}, 3, MegaHertz{103.2}, Volts{1.0},
                     Seconds{0.0});
  probe_.dpm_sleep(Seconds{0.0}, PowerState::Standby);
  const std::string name = "wlan";
  probe_.accrual(name, PowerState::Idle, false, Joules{0.5}, Seconds{2.0});
  probe_.accrual(name, PowerState::Idle, true, Joules{0.25}, Seconds{0.1});
  const std::vector<EnergyEntry> rows = ledger_.energy_entries();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].component, "wlan");
  EXPECT_EQ(rows[0].state, "idle");
  EXPECT_EQ(rows[0].freq_step, 3u);
  EXPECT_EQ(rows[0].cause, Cause::DpmSleep);
  EXPECT_DOUBLE_EQ(rows[0].energy_j, 0.5);
  EXPECT_DOUBLE_EQ(rows[0].time_s, 2.0);
  EXPECT_EQ(rows[1].state, "wake");
  EXPECT_DOUBLE_EQ(rows[1].energy_j, 0.25);
  EXPECT_DOUBLE_EQ(ledger_.total_energy_j(), 0.75);
}

}  // namespace
}  // namespace dvs::obs
