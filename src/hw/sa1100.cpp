#include "hw/sa1100.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace dvs::hw {
namespace {

/// Reconstructed Figure 3: 12 clock steps of 14.75 MHz.  The voltage curve
/// is mildly super-linear in frequency (as in the printed figure): a linear
/// term plus a small quadratic correction, snapped to sensible values.
std::vector<FrequencyStep> default_steps() {
  std::vector<FrequencyStep> steps;
  steps.reserve(12);
  for (int i = 0; i < 12; ++i) {
    const double f = 59.0 + 14.75 * i;  // 59.0 ... 221.2(5) MHz
    const double fn = (f - 59.0) / (221.25 - 59.0);
    const double v = 0.86 + 0.59 * fn + 0.20 * fn * fn;  // 0.86 V ... 1.65 V
    steps.push_back({megahertz(f), volts(v)});
  }
  return steps;
}

}  // namespace

Sa1100::Sa1100()
    : Sa1100(default_steps(), milliwatts(400.0), microseconds(150.0)) {}

Sa1100::Sa1100(std::vector<FrequencyStep> steps, MilliWatts active_power_at_max,
               Seconds frequency_switch_latency)
    : steps_(std::move(steps)),
      active_power_at_max_(active_power_at_max),
      switch_latency_(frequency_switch_latency) {
  validate();
}

void Sa1100::validate() const {
  DVS_CHECK_MSG(!steps_.empty(), "Sa1100: empty frequency table");
  DVS_CHECK_MSG(active_power_at_max_.value() > 0.0, "Sa1100: non-positive max power");
  DVS_CHECK_MSG(switch_latency_.value() >= 0.0, "Sa1100: negative switch latency");
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    DVS_CHECK_MSG(steps_[i].frequency.value() > 0.0, "Sa1100: non-positive frequency");
    DVS_CHECK_MSG(steps_[i].min_voltage.value() > 0.0, "Sa1100: non-positive voltage");
    if (i > 0) {
      DVS_CHECK_MSG(steps_[i].frequency > steps_[i - 1].frequency,
                    "Sa1100: frequencies must be strictly increasing");
      DVS_CHECK_MSG(steps_[i].min_voltage >= steps_[i - 1].min_voltage,
                    "Sa1100: voltage must be non-decreasing with frequency");
    }
  }
}

Volts Sa1100::voltage_at(std::size_t step) const {
  DVS_CHECK_MSG(step < steps_.size(), "Sa1100: step out of range");
  return steps_[step].min_voltage;
}

MegaHertz Sa1100::frequency_at(std::size_t step) const {
  DVS_CHECK_MSG(step < steps_.size(), "Sa1100: step out of range");
  return steps_[step].frequency;
}

Volts Sa1100::min_voltage_for(MegaHertz f) const {
  if (steps_.size() == 1) return steps_.front().min_voltage;
  std::vector<PiecewiseLinear::Point> pts;
  pts.reserve(steps_.size());
  for (const auto& s : steps_) pts.emplace_back(s.frequency.value(), s.min_voltage.value());
  return volts(PiecewiseLinear{std::move(pts)}(f.value()));
}

MilliWatts Sa1100::active_power(MegaHertz f, Volts v) const {
  const MegaHertz f_max = max_frequency();
  const Volts v_max = steps_.back().min_voltage;
  const double ratio = (v.value() / v_max.value()) * (v.value() / v_max.value()) *
                       (f.value() / f_max.value());
  return active_power_at_max_ * ratio;
}

MilliWatts Sa1100::active_power_at(std::size_t step) const {
  return active_power(frequency_at(step), voltage_at(step));
}

std::size_t Sa1100::step_at_or_above(MegaHertz f) const {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    if (steps_[i].frequency >= f) return i;
  }
  return steps_.size() - 1;
}

double Sa1100::energy_per_cycle_ratio(std::size_t step) const {
  const Volts v = voltage_at(step);
  const Volts v_max = steps_.back().min_voltage;
  return (v.value() / v_max.value()) * (v.value() / v_max.value());
}

}  // namespace dvs::hw
