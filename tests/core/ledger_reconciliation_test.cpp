// The attribution ledger's core contract: per-key sums equal the Metrics
// totals to 1e-9 relative, on single runs (DVS, DPM, faults, watchdog) and
// across the table3/table4 scenario sweeps under jobs=1 and jobs=8 — with
// the sweep CSVs byte-identical to the ledger-free baseline.  Plus the S1
// abort contract: a sink throwing mid-run still leaves finalized trace
// output and a flight-recorder dump.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "dpm/policy.hpp"
#include "obs/attribution.hpp"
#include "obs/sinks.hpp"
#include "obs/trace_recorder.hpp"
#include "workload/clips.hpp"
#include "workload/trace.hpp"

namespace dvs::core {
namespace {

const hw::Sa1100& cpu() {
  static const hw::Sa1100 instance;
  return instance;
}

workload::FrameTrace short_mp3_trace(std::uint64_t seed = 11,
                                     const std::string& labels = "A") {
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  Rng rng{seed};
  return workload::build_mp3_trace(workload::mp3_sequence(labels), dec, rng);
}

DetectorFactoryConfig& shared_detectors() {
  static DetectorFactoryConfig cfg = [] {
    DetectorFactoryConfig c;
    c.change_point.mc_windows = 1500;
    c.prepare();
    return c;
  }();
  return cfg;
}

/// |a - b| <= tol * max(|a|, |b|) — the ISSUE's 1e-9 relative contract.
void expect_rel_eq(double a, double b, double tol = 1e-9) {
  const double scale = std::max(std::abs(a), std::abs(b));
  EXPECT_LE(std::abs(a - b), tol * std::max(scale, 1e-300))
      << "a=" << a << " b=" << b;
}

/// The ledger as the report subcommand reads it: its write_json document.
json::ValuePtr ledger_doc(const obs::AttributionLedger& ledger) {
  std::ostringstream os;
  ledger.write_json(os);
  return json::parse(os.str());
}

/// Energy per cause name, summed in row order.
std::map<std::string, double> energy_by_cause_name(
    const obs::AttributionLedger& ledger) {
  std::map<std::string, double> by_cause;
  const json::ValuePtr doc = ledger_doc(ledger);
  for (const auto& row : doc->at("energy").as_array()) {
    by_cause[row->at("cause").as_string()] += row->at("energy_j").as_number();
  }
  return by_cause;
}

void check_reconciles(const obs::AttributionLedger& ledger, const Metrics& m) {
  expect_rel_eq(ledger.total_energy_j(), m.total_energy.value());
  // Delay total vs mean * count (the RunningStats mean is sum/n, so the
  // product reconstructs the sum to a few ulp).
  expect_rel_eq(ledger.total_delay_s(),
                m.mean_frame_delay.value() *
                    static_cast<double>(m.frames_decoded));
  EXPECT_EQ(ledger.total_frames(), m.frames_decoded);
  // Per-entry sums equal the grand totals exactly as doubles accumulate;
  // keep the same relative budget.
  double entry_sum = 0.0;
  const json::ValuePtr doc = ledger_doc(ledger);
  for (const auto& row : doc->at("energy").as_array()) {
    entry_sum += row->at("energy_j").as_number();
  }
  expect_rel_eq(entry_sum, ledger.total_energy_j());
}

TEST(LedgerReconciliation, PureDvsRun) {
  obs::AttributionLedger ledger;
  RunOptions opts;
  // Change-point detector over a multi-clip trace: the clip switches are
  // rate changes it must declare, so DetectorChange carries energy.
  opts.detector = DetectorKind::ChangePoint;
  opts.detector_cfg = &shared_detectors();
  opts.ledger = &ledger;
  const auto trace = short_mp3_trace(11, "ACE");
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const Metrics m = run_single_trace(trace, dec, opts);
  check_reconciles(ledger, m);
  EXPECT_FALSE(ledger.empty());
  auto by_cause = energy_by_cause_name(ledger);
  EXPECT_GT(by_cause[obs::to_string(obs::Cause::DetectorChange)],
            0.0);
}

TEST(LedgerReconciliation, DpmSessionChargesSleepAndWakeup) {
  obs::AttributionLedger ledger;
  SessionConfig scfg;
  scfg.cycles = 2;
  scfg.mpeg_segment = seconds(20.0);
  Session session = build_session(scfg, cpu());

  RunOptions opts;
  opts.detector = DetectorKind::ChangePoint;
  opts.ledger = &ledger;
  const dpm::DpmCostModel costs = dpm::smartbadge_cost_model(hw::SmartBadge{});
  DpmSpec spec;
  spec.kind = DpmKind::Timeout;
  opts.dpm_policy = make_dpm_policy(spec, costs, session.idle_model);
  const Metrics m = run_items(session.items, opts);
  check_reconciles(ledger, m);
  ASSERT_GT(m.dpm_sleeps, 0);
  auto by_cause = energy_by_cause_name(ledger);
  EXPECT_GT(by_cause[obs::to_string(obs::Cause::DpmSleep)], 0.0);
  EXPECT_GT(by_cause[obs::to_string(obs::Cause::DpmWakeup)], 0.0);
}

TEST(LedgerReconciliation, FaultAndWatchdogCausesAppear) {
  obs::AttributionLedger ledger;
  RunOptions opts;
  opts.detector = DetectorKind::ExpAverage;
  opts.ledger = &ledger;
  opts.hw_faults.freq_fail_prob = 0.4;
  opts.watchdog.enabled = true;
  opts.watchdog.violation_threshold = 1;
  const auto trace = short_mp3_trace(21);
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  const Metrics m = run_single_trace(trace, dec, opts);
  check_reconciles(ledger, m);
  ASSERT_GT(m.faults_injected, 0u);
  auto by_cause = energy_by_cause_name(ledger);
  EXPECT_GT(by_cause[obs::to_string(obs::Cause::Fault)], 0.0);
}

// ---- sweep-level reconciliation (table3 / table4, jobs 1 vs 8) -----------

struct SweepLedgers {
  std::mutex m;
  std::map<std::size_t, std::unique_ptr<obs::AttributionLedger>> by_point;
};

SweepResult run_with_ledgers(const ScenarioSpec& spec, int jobs,
                             SweepLedgers& ledgers) {
  SweepOptions sopts;
  sopts.jobs = jobs;
  sopts.configure_run = [&ledgers](const RunPoint& p, RunOptions& opts) {
    auto ledger = std::make_unique<obs::AttributionLedger>();
    opts.ledger = ledger.get();
    std::lock_guard<std::mutex> lk(ledgers.m);
    ledgers.by_point[p.index] = std::move(ledger);
  };
  return SweepRunner{sopts}.run(spec);
}

std::string csv_bytes(const SweepResult& res, bool cells) {
  const std::string path = ::testing::TempDir() + "ledger_sweep_csv.tmp";
  {
    CsvWriter csv{path};
    if (cells) {
      res.write_cells_csv(csv);
    } else {
      res.write_points_csv(csv);
    }
  }
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  std::remove(path.c_str());
  return os.str();
}

void check_scenario_reconciles(const char* scenario_name) {
  const ScenarioSpec* found = find_scenario(scenario_name);
  ASSERT_NE(found, nullptr);
  ScenarioSpec spec = *found;
  // Trim replicates so both scenarios x {serial, parallel, baseline} stay
  // in test-suite budget; the reconciliation math is per point and does not
  // care how many replicates surround it.
  spec.replicates = 2;

  SweepLedgers serial, parallel;
  const SweepResult r1 = run_with_ledgers(spec, 1, serial);
  const SweepResult r8 = run_with_ledgers(spec, 8, parallel);
  ASSERT_EQ(r1.points.size(), r8.points.size());
  ASSERT_EQ(serial.by_point.size(), r1.points.size());
  ASSERT_EQ(parallel.by_point.size(), r8.points.size());

  for (const PointResult& pr : r1.points) {
    check_reconciles(*serial.by_point.at(pr.point.index), pr.metrics);
  }
  for (const PointResult& pr : r8.points) {
    check_reconciles(*parallel.by_point.at(pr.point.index), pr.metrics);
  }

  // Ledgers themselves are deterministic across jobs: identical JSON bytes.
  for (const auto& [index, ledger] : serial.by_point) {
    std::ostringstream a, b;
    ledger->write_json(a);
    parallel.by_point.at(index)->write_json(b);
    EXPECT_EQ(a.str(), b.str()) << spec.name << " point " << index;
  }

  // Attaching ledgers must not perturb the results: CSVs byte-identical to
  // a ledger-free serial baseline.
  SweepOptions plain;
  plain.jobs = 1;
  const SweepResult base = SweepRunner{plain}.run(spec);
  EXPECT_EQ(csv_bytes(base, true), csv_bytes(r1, true));
  EXPECT_EQ(csv_bytes(base, false), csv_bytes(r1, false));
  EXPECT_EQ(csv_bytes(r1, true), csv_bytes(r8, true));
  EXPECT_EQ(csv_bytes(r1, false), csv_bytes(r8, false));
}

TEST(LedgerReconciliation, Table3SweepJobs1Vs8) {
  check_scenario_reconciles("table3");
}

TEST(LedgerReconciliation, Table4SweepJobs1Vs8) {
  check_scenario_reconciles("table4");
}

// ---- S1: aborted runs leave well-formed artifacts ------------------------

/// Throws on the Nth event it sees — simulates a sink dying mid-run.
class ThrowingSink final : public obs::TraceSink {
 public:
  explicit ThrowingSink(std::uint64_t after) : after_(after) {}
  void on_event(const obs::Event&) override {
    if (++seen_ >= after_) throw std::runtime_error("sink died");
  }

 private:
  std::uint64_t after_;
  std::uint64_t seen_ = 0;
};

TEST(AbortedRun, SinksAreFinalizedAndFlightRecorderDumps) {
  const std::string dump_path = ::testing::TempDir() + "abort_flight.txt";
  std::remove(dump_path.c_str());

  std::ostringstream jsonl_os, chrome_os;
  obs::TraceRecorder recorder;
  recorder.add_sink(std::make_unique<obs::JsonlSink>(jsonl_os));
  recorder.add_sink(std::make_unique<obs::ChromeTraceSink>(chrome_os));
  recorder.add_sink(std::make_unique<ThrowingSink>(500));

  RunOptions opts;
  opts.detector = DetectorKind::Max;
  opts.trace = &recorder;
  opts.flight_dump_path = dump_path;
  const auto trace = short_mp3_trace();
  const auto dec = workload::reference_mp3_decoder(cpu().max_frequency());
  EXPECT_THROW(run_single_trace(trace, dec, opts), std::runtime_error);

  // JSONL: every line written so far is a complete object.
  std::istringstream lines(jsonl_os.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_GT(n, 0u);

  // Chrome trace: the exception path flushed the sink, closing the array.
  const std::string chrome = chrome_os.str();
  ASSERT_FALSE(chrome.empty());
  const auto last = chrome.find_last_not_of(" \n\r\t");
  EXPECT_EQ(chrome[last], ']');

  // Flight recorder: the auto-dump fired with the exception reason and
  // parses back.
  std::ifstream dump_in(dump_path);
  ASSERT_TRUE(dump_in) << "no flight dump at " << dump_path;
  const obs::FlightDump dump = obs::parse_flight_dump(dump_in);
  EXPECT_EQ(dump.reason, "exception");
  EXPECT_GT(dump.records.size(), 0u);
  std::remove(dump_path.c_str());
}

}  // namespace
}  // namespace dvs::core
