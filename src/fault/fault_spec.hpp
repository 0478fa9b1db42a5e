// Declarative fault specifications: named bundles of workload
// perturbations, hardware faults, and the watchdog configuration that
// should guard against them.
//
// A FaultSpec is the unit the scenario grid expands over (ScenarioSpec
// gains a `faults` axis) and the unit the CLI names (`--faults spike10x`).
// The default spec, "none", is the identity: no transforms, no hardware
// faults, watchdog disarmed — a scenario that never mentions faults runs
// exactly as before, point for point and seed for seed.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fault/hw_faults.hpp"
#include "fault/trace_transforms.hpp"
#include "policy/watchdog.hpp"

namespace dvs::fault {

struct FaultSpec {
  std::string name = "none";
  std::string description = "no faults (baseline)";
  /// Applied left-to-right to every playback item's trace.
  std::vector<TraceFault> trace_faults;
  /// Injected at the engine / power-manager boundary.
  HwFaultPlan hw;
  /// Graceful-degradation guard armed in every adaptive governor.
  policy::WatchdogConfig watchdog;

  /// True for the identity spec (watchdog state aside).
  [[nodiscard]] bool none() const { return trace_faults.empty() && !hw.any(); }
};

/// The built-in fault catalogue (first entry is "none").
std::span<const FaultSpec> builtin_faults();

/// Looks up a built-in spec by name; null when unknown.
const FaultSpec* find_fault(std::string_view name);

/// Parses a comma-separated list of built-in names ("none,spike10x,...").
/// Throws std::invalid_argument on an unknown name or empty list.
std::vector<FaultSpec> parse_fault_list(std::string_view csv);

/// One single-run spec from a non-empty list: every spec's trace faults in
/// list order; the first spec supplies the hardware plan and watchdog.
FaultSpec combine_faults(const std::vector<FaultSpec>& specs);

}  // namespace dvs::fault
