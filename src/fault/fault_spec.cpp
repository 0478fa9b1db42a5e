#include "fault/fault_spec.hpp"

#include <stdexcept>

namespace dvs::fault {

namespace {

policy::WatchdogConfig guarded() {
  policy::WatchdogConfig w;
  w.enabled = true;
  return w;
}

std::vector<FaultSpec> make_builtins() {
  std::vector<FaultSpec> specs;

  specs.push_back(FaultSpec{});  // "none"

  {
    FaultSpec s;
    s.name = "spike10x";
    s.description = "10x arrival-rate spike for 30 s, watchdog armed";
    s.trace_faults = {RateSpike{Seconds{20.0}, Seconds{30.0}, 10.0}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "step3x";
    s.description = "permanent 3x arrival-rate step at 30 s";
    s.trace_faults = {RateStep{Seconds{30.0}, 3.0}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "burst";
    s.description = "bursty arrivals: 60% coalesced, bursts up to 8 frames";
    s.trace_faults = {BurstArrivals{Seconds{0.0}, Seconds{1e9}, 0.6, 8}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "heavytail";
    s.description = "heavy-tailed decode work (mean-one Pareto, shape 1.5)";
    s.trace_faults = {HeavyTailWork{Seconds{0.0}, Seconds{1e9}, 1.5}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "corrupt";
    s.description = "2% of frames corrupted to 8x decode work";
    s.trace_faults = {CorruptWork{0.02, 8.0}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "truncate";
    s.description = "stream dies 45 s into each item";
    s.trace_faults = {TruncateTrace{Seconds{45.0}}};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "wakeup-flaky";
    s.description = "30% failed wakeups (+250 ms retry), 50% slow (+50 ms)";
    s.hw.wakeup_fail_prob = 0.3;
    s.hw.wakeup_retry_delay = Seconds{0.25};
    s.hw.wakeup_delay_prob = 0.5;
    s.hw.wakeup_extra_delay = Seconds{0.05};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "freq-stuck";
    s.description = "20% failed frequency transitions; rail stuck 30-50 s";
    s.hw.freq_fail_prob = 0.2;
    s.hw.rail_stuck_at = Seconds{30.0};
    s.hw.rail_stuck_duration = Seconds{20.0};
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  {
    FaultSpec s;
    s.name = "chaos";
    s.description = "rate spike + heavy tails + flaky wakeups + failing DVS";
    s.trace_faults = {RateSpike{Seconds{20.0}, Seconds{30.0}, 10.0},
                      HeavyTailWork{Seconds{0.0}, Seconds{1e9}, 1.6}};
    s.hw.wakeup_fail_prob = 0.2;
    s.hw.freq_fail_prob = 0.1;
    s.watchdog = guarded();
    specs.push_back(std::move(s));
  }
  return specs;
}

}  // namespace

std::span<const FaultSpec> builtin_faults() {
  static const std::vector<FaultSpec> specs = make_builtins();
  return specs;
}

const FaultSpec* find_fault(std::string_view name) {
  for (const FaultSpec& s : builtin_faults()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<FaultSpec> parse_fault_list(std::string_view csv) {
  std::vector<FaultSpec> out;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string_view name =
        csv.substr(pos, comma == std::string_view::npos ? csv.size() - pos
                                                        : comma - pos);
    if (!name.empty()) {
      const FaultSpec* spec = find_fault(name);
      if (spec == nullptr) {
        throw std::invalid_argument("unknown fault spec: " + std::string(name));
      }
      out.push_back(*spec);
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument("empty fault list");
  return out;
}

FaultSpec combine_faults(const std::vector<FaultSpec>& specs) {
  FaultSpec out = specs.front();
  for (std::size_t i = 1; i < specs.size(); ++i) {
    out.trace_faults.insert(out.trace_faults.end(),
                            specs[i].trace_faults.begin(),
                            specs[i].trace_faults.end());
  }
  return out;
}

}  // namespace dvs::fault
