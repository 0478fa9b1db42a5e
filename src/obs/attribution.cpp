#include "obs/attribution.hpp"

#include "common/json.hpp"

namespace dvs::obs {

const char* to_string(Cause cause) {
  switch (cause) {
    case Cause::Nominal: return "nominal";
    case Cause::DetectorChange: return "detector-change";
    case Cause::WatchdogEscalate: return "watchdog-escalate";
    case Cause::WatchdogRecover: return "watchdog-recover";
    case Cause::DpmSleep: return "dpm-sleep";
    case Cause::DpmWakeup: return "dpm-wakeup";
    case Cause::Fault: return "fault";
  }
  return "unknown";
}

void AttributionLedger::charge_energy(const std::string& component,
                                      const std::string& state,
                                      double energy_j, double dt_s) {
  EnergyCell& cell = energy_[EnergyKey{component, state, freq_step_,
                                       static_cast<std::uint8_t>(cause_)}];
  cell.energy_j += energy_j;
  cell.time_s += dt_s;
  total_energy_ += energy_j;
}

void AttributionLedger::charge_delay(const std::string& media, double delay_s) {
  DelayCell& cell = delay_[DelayKey{media, freq_step_,
                                    static_cast<std::uint8_t>(cause_)}];
  cell.delay_s += delay_s;
  ++cell.frames;
  total_delay_ += delay_s;
  ++total_frames_;
}

std::vector<EnergyEntry> AttributionLedger::energy_entries() const {
  std::vector<EnergyEntry> out;
  out.reserve(energy_.size());
  for (const auto& [key, cell] : energy_) {
    out.push_back(EnergyEntry{key.component, key.state, key.freq_step,
                              static_cast<Cause>(key.cause), cell.energy_j,
                              cell.time_s});
  }
  return out;
}

std::vector<DelayEntry> AttributionLedger::delay_entries() const {
  std::vector<DelayEntry> out;
  out.reserve(delay_.size());
  for (const auto& [key, cell] : delay_) {
    out.push_back(DelayEntry{key.media, key.freq_step,
                             static_cast<Cause>(key.cause), cell.delay_s,
                             cell.frames});
  }
  return out;
}

std::vector<double> AttributionLedger::energy_by_cause() const {
  std::vector<double> by_cause(kNumCauses, 0.0);
  for (const auto& [key, cell] : energy_) by_cause[key.cause] += cell.energy_j;
  return by_cause;
}

// Full round-trip precision: the JSON is the reconciliation surface, so the
// serialized sums must re-parse to the exact doubles the run produced.
using json::fmt17;

void AttributionLedger::write_json(std::ostream& os) const {
  os << "{\n  \"schema\": \"dvs-ledger-v1\",\n";
  os << "  \"totals\": {\"energy_j\": " << fmt17(total_energy_)
     << ", \"delay_s\": " << fmt17(total_delay_)
     << ", \"frames\": " << total_frames_ << "},\n";
  if (!freq_mhz_.empty()) {
    os << "  \"freq_mhz\": [";
    for (std::size_t i = 0; i < freq_mhz_.size(); ++i) {
      os << (i ? ", " : "") << fmt17(freq_mhz_[i]);
    }
    os << "],\n";
  }
  os << "  \"energy\": [\n";
  std::size_t i = 0;
  for (const auto& [key, cell] : energy_) {
    os << "    {\"component\": \"" << key.component << "\", \"state\": \""
       << key.state << "\", \"freq_step\": " << key.freq_step
       << ", \"cause\": \"" << to_string(static_cast<Cause>(key.cause))
       << "\", \"energy_j\": " << fmt17(cell.energy_j)
       << ", \"time_s\": " << fmt17(cell.time_s) << "}"
       << (++i < energy_.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"delay\": [\n";
  i = 0;
  for (const auto& [key, cell] : delay_) {
    os << "    {\"media\": \"" << key.media
       << "\", \"freq_step\": " << key.freq_step << ", \"cause\": \""
       << to_string(static_cast<Cause>(key.cause))
       << "\", \"delay_s\": " << fmt17(cell.delay_s)
       << ", \"frames\": " << cell.frames << "}"
       << (++i < delay_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace dvs::obs
