// AttributionLedger: charges every Joule and every second of frame delay
// to a (component, power state, frequency step, cause) key.
//
// The existing Metrics struct reports energy and delay as opaque totals;
// the ledger decomposes them by *why* the system was in the state that
// consumed them.  "Cause" is the most recent policy decision class when the
// interval elapsed: a detector change-point, a watchdog escalation or
// recovery, a DPM sleep/wakeup transition, an injected fault — or Nominal
// when no decision has intervened since the run started.  The cause is
// sticky: a media switch does not reset it.
//
// Feeding happens at the hardware layer's energy-accrual points (through
// obs::Probe::accrual): the ledger receives the *identical*
// double-precision energy deltas that the Metrics totals are built from, so
// per-key sums reconcile with Metrics::total_energy to ~1e-15 relative —
// the 1e-9 contract in the reconciliation test has three orders of margin.
// Delay is charged once per decoded frame at the decode-done boundary with
// the same value the frame-delay RunningStats receives.
//
// The ledger is plain single-run state (no locks); in a parallel sweep each
// point attaches its own instance (SweepOptions::configure_run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace dvs::obs {

/// The policy-decision class an interval of time (and its energy/delay) is
/// charged to.  Updated by the probe's detector, watchdog, DPM and fault
/// events; every interval belongs to the most recent decision.
enum class Cause : std::uint8_t {
  Nominal = 0,       ///< no policy decision since the run started
  DetectorChange,    ///< a detector declared a workload change-point
  WatchdogEscalate,  ///< the watchdog clamped the governor to the top step
  WatchdogRecover,   ///< the watchdog handed control back to the policy
  DpmSleep,          ///< the DPM commanded a sleep transition
  DpmWakeup,         ///< a request woke the badge from a sleep state
  Fault,             ///< an injected hardware fault fired
};
constexpr std::size_t kNumCauses = 7;

/// Stable kebab-case name ("nominal", "detector-change", ...).
const char* to_string(Cause cause);

/// One row of the energy ledger.
struct EnergyEntry {
  std::string component;
  std::string state;  ///< "active"/"idle"/"standby"/"off"/"wake"
  std::size_t freq_step = 0;
  Cause cause = Cause::Nominal;
  double energy_j = 0.0;
  double time_s = 0.0;
};

/// One row of the delay ledger.
struct DelayEntry {
  std::string media;
  std::size_t freq_step = 0;
  Cause cause = Cause::Nominal;
  double delay_s = 0.0;
  std::uint64_t frames = 0;
};

class AttributionLedger {
 public:
  // ---- feeding (engine-internal) -----------------------------------------
  /// The cause every subsequent charge is attributed to.
  void set_cause(Cause cause) { cause_ = cause; }
  [[nodiscard]] Cause cause() const { return cause_; }

  /// The CPU frequency-step regime; callers update it *after* a commit so
  /// the interval accrued inside the commit still charges the old step.
  void set_freq_step(std::size_t step) { freq_step_ = step; }
  [[nodiscard]] std::size_t freq_step() const { return freq_step_; }

  /// Optional: the CPU's step -> MHz table, echoed into the JSON so reports
  /// can label steps with physical frequencies.
  void set_freq_table(std::vector<double> mhz) { freq_mhz_ = std::move(mhz); }

  /// Charges `energy_j` consumed over `dt_s` while `component` sat in
  /// `state` ("wake" for a wakeup transition) under the current cause/step.
  void charge_energy(const std::string& component, const std::string& state,
                     double energy_j, double dt_s);

  /// Charges one decoded frame's total delay under the current cause/step.
  void charge_delay(const std::string& media, double delay_s);

  // ---- reading ------------------------------------------------------------
  [[nodiscard]] double total_energy_j() const { return total_energy_; }
  [[nodiscard]] double total_delay_s() const { return total_delay_; }
  [[nodiscard]] std::uint64_t total_frames() const { return total_frames_; }

  /// Rows in deterministic (map) key order.
  [[nodiscard]] std::vector<EnergyEntry> energy_entries() const;
  [[nodiscard]] std::vector<DelayEntry> delay_entries() const;

  /// Energy rollup by cause alone (index = static_cast<size_t>(Cause)).
  [[nodiscard]] std::vector<double> energy_by_cause() const;

  [[nodiscard]] bool empty() const {
    return energy_.empty() && delay_.empty();
  }

  /// {"schema":"dvs-ledger-v1","totals":{...},"energy":[...],"delay":[...]}
  void write_json(std::ostream& os) const;

 private:
  struct EnergyKey {
    std::string component;
    std::string state;
    std::size_t freq_step;
    std::uint8_t cause;
    bool operator<(const EnergyKey& o) const {
      if (component != o.component) return component < o.component;
      if (state != o.state) return state < o.state;
      if (freq_step != o.freq_step) return freq_step < o.freq_step;
      return cause < o.cause;
    }
  };
  struct EnergyCell {
    double energy_j = 0.0;
    double time_s = 0.0;
  };
  struct DelayKey {
    std::string media;
    std::size_t freq_step;
    std::uint8_t cause;
    bool operator<(const DelayKey& o) const {
      if (media != o.media) return media < o.media;
      if (freq_step != o.freq_step) return freq_step < o.freq_step;
      return cause < o.cause;
    }
  };
  struct DelayCell {
    double delay_s = 0.0;
    std::uint64_t frames = 0;
  };

  Cause cause_ = Cause::Nominal;
  std::size_t freq_step_ = 0;
  std::vector<double> freq_mhz_;
  std::map<EnergyKey, EnergyCell> energy_;
  std::map<DelayKey, DelayCell> delay_;
  double total_energy_ = 0.0;
  double total_delay_ = 0.0;
  std::uint64_t total_frames_ = 0;
};

}  // namespace dvs::obs
