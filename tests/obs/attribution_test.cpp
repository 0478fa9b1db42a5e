// AttributionLedger unit behavior: charging under cause/step regimes,
// deterministic row order, and a JSON round trip through the same reader
// the report subcommand uses.
#include "obs/attribution.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace dvs::obs {
namespace {

/// The ledger as the report subcommand reads it: its write_json document.
json::ValuePtr ledger_doc(const AttributionLedger& l) {
  std::ostringstream os;
  l.write_json(os);
  return json::parse(os.str());
}

TEST(AttributionLedger, StartsEmptyAndNominal) {
  AttributionLedger l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.cause(), Cause::Nominal);
  EXPECT_EQ(l.freq_step(), 0u);
  EXPECT_DOUBLE_EQ(l.total_energy_j(), 0.0);
  EXPECT_DOUBLE_EQ(l.total_delay_s(), 0.0);
  EXPECT_EQ(l.total_frames(), 0u);
}

TEST(AttributionLedger, ChargesAccumulateIntoOneCellPerKey) {
  AttributionLedger l;
  l.charge_energy("CPU", "active", 1.0, 0.5);
  l.charge_energy("CPU", "active", 2.0, 0.25);
  l.charge_energy("CPU", "idle", 4.0, 3.0);

  const json::ValuePtr doc = ledger_doc(l);
  const auto& rows = doc->at("energy").as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->at("state").as_string(), "active");
  EXPECT_DOUBLE_EQ(rows[0]->at("energy_j").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(rows[0]->at("time_s").as_number(), 0.75);
  EXPECT_EQ(rows[1]->at("state").as_string(), "idle");
  EXPECT_DOUBLE_EQ(l.total_energy_j(), 7.0);
}

TEST(AttributionLedger, CauseAndStepSplitKeys) {
  AttributionLedger l;
  l.charge_energy("CPU", "active", 1.0, 1.0);
  l.set_cause(Cause::DetectorChange);
  l.charge_energy("CPU", "active", 2.0, 1.0);
  l.set_freq_step(3);
  l.charge_energy("CPU", "active", 4.0, 1.0);

  const json::ValuePtr doc = ledger_doc(l);
  const auto& rows = doc->at("energy").as_array();
  ASSERT_EQ(rows.size(), 3u);
  std::map<std::string, double> by_cause;
  for (const auto& r : rows) {
    by_cause[r->at("cause").as_string()] += r->at("energy_j").as_number();
  }
  EXPECT_DOUBLE_EQ(by_cause[to_string(Cause::Nominal)], 1.0);
  EXPECT_DOUBLE_EQ(by_cause[to_string(Cause::DetectorChange)], 6.0);
}

TEST(AttributionLedger, DelayChargesCountFrames) {
  AttributionLedger l;
  l.charge_delay("mp3", 0.1);
  l.charge_delay("mp3", 0.3);
  l.set_cause(Cause::WatchdogEscalate);
  l.charge_delay("mpeg", 0.5);

  EXPECT_DOUBLE_EQ(l.total_delay_s(), 0.9);
  EXPECT_EQ(l.total_frames(), 3u);
  const json::ValuePtr doc = ledger_doc(l);
  const auto& rows = doc->at("delay").as_array();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0]->at("media").as_string(), "mp3");
  EXPECT_EQ(rows[0]->at("frames").as_number(), 2.0);
  EXPECT_EQ(rows[1]->at("cause").as_string(), to_string(Cause::WatchdogEscalate));
}

TEST(AttributionCause, NamesAreStable) {
  EXPECT_STREQ(to_string(Cause::Nominal), "nominal");
  EXPECT_STREQ(to_string(Cause::DetectorChange), "detector-change");
  EXPECT_STREQ(to_string(Cause::WatchdogEscalate), "watchdog-escalate");
  EXPECT_STREQ(to_string(Cause::WatchdogRecover), "watchdog-recover");
  EXPECT_STREQ(to_string(Cause::DpmSleep), "dpm-sleep");
  EXPECT_STREQ(to_string(Cause::DpmWakeup), "dpm-wakeup");
  EXPECT_STREQ(to_string(Cause::Fault), "fault");
}

TEST(AttributionLedger, JsonRoundTripsThroughTheReportReader) {
  AttributionLedger l;
  l.set_freq_table({59.0, 73.8});
  l.charge_energy("CPU", "active", 0.123456789012345, 1.0);
  l.set_cause(Cause::DpmSleep);
  l.set_freq_step(1);
  l.charge_energy("CPU", "standby", 0.5, 2.0);
  l.charge_delay("mp3", 0.25);

  const json::ValuePtr doc = ledger_doc(l);
  EXPECT_EQ(doc->at("schema").as_string(), "dvs-ledger-v1");
  EXPECT_EQ(doc->at("totals").at("energy_j").as_number(), l.total_energy_j());
  EXPECT_EQ(doc->at("totals").at("delay_s").as_number(), l.total_delay_s());
  EXPECT_DOUBLE_EQ(doc->at("totals").at("frames").as_number(), 1.0);
  ASSERT_EQ(doc->at("freq_mhz").as_array().size(), 2u);

  const auto& energy = doc->at("energy").as_array();
  ASSERT_EQ(energy.size(), 2u);
  // %.17g emission: the doubles survive the round trip bit-exactly.
  EXPECT_EQ(energy[0]->at("energy_j").as_number(), 0.123456789012345);
  EXPECT_EQ(energy[1]->at("cause").as_string(), "dpm-sleep");
  EXPECT_DOUBLE_EQ(energy[1]->at("freq_step").as_number(), 1.0);

  const auto& delay = doc->at("delay").as_array();
  ASSERT_EQ(delay.size(), 1u);
  EXPECT_EQ(delay[0]->at("media").as_string(), "mp3");
  EXPECT_EQ(delay[0]->at("cause").as_string(), "dpm-sleep");
}

}  // namespace
}  // namespace dvs::obs
