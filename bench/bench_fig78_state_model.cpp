// Figures 7 & 8: the structure of the power manager's decision model.
//
// Figure 7 contrasts the naive 3-state system model with the time-indexed
// model (idle/sleep states split by time since idle entry); Figure 8
// expands the single active state into the family of (f, V) sub-states the
// DVS governor chooses among.  These are model diagrams rather than data
// plots, so this bench *instantiates* them: it prints the (f, V, P) active
// sub-state set of the SmartBadge and the concrete time-indexed policy the
// TISMDP plan search picks, sampled at a grid of elapsed idle times — i.e.
// the content the figures sketch.
#include <limits>

#include "bench_common.hpp"

using namespace dvs;

int main() {
  bench::print_header("Figures 7 & 8: time-indexed model and active-state expansion",
                      "Simunic et al., DAC'01, Figures 7-8 (model structure)");

  // ---- Figure 8: the expanded active state --------------------------------
  const hw::Sa1100& cpu = bench::cpu();
  TextTable active{"Figure 8: active-state (f, V) sub-states"};
  active.set_header({"Sub-state", "f (MHz)", "V (V)", "CPU P (mW)"});
  for (std::size_t s = 0; s < cpu.num_steps(); ++s) {
    active.add_row({"active[f" + std::to_string(s) + "]",
                    TextTable::num(cpu.frequency_at(s).value(), 2),
                    TextTable::num(cpu.voltage_at(s).value(), 3),
                    TextTable::num(cpu.active_power_at(s).value(), 1)});
  }
  active.print();

  // ---- Figure 7: time-indexed idle states and the policy over them --------
  hw::SmartBadge badge;
  const dpm::DpmCostModel costs = dpm::smartbadge_cost_model(badge);
  const auto idle = std::make_shared<dpm::ParetoIdle>(1.8, seconds(8.0));
  const dpm::SleepPlan plan =
      dpm::solve_tismdp_mix(costs, *idle,
                            Seconds{std::numeric_limits<double>::infinity()})
          .primary;
  const dpm::PlanEvaluation ev = dpm::evaluate_plan(plan, costs, *idle);

  std::printf("\nFigure 7: time-indexed idle states (Pareto idle, mean %.0f s)\n",
              idle->mean().value());
  TextTable t;
  t.set_header({"Elapsed idle time", "P(still idle)", "Commanded state"});
  for (const Seconds at : dpm::timeout_grid(seconds(200.0), 2)) {
    hw::PowerState state = hw::PowerState::Idle;
    for (const auto& step : plan.steps) {
      if (step.after <= at) state = step.state;
    }
    t.add_row({TextTable::num(at.value(), 3) + " s",
               TextTable::num(idle->survival(at), 3),
               std::string(hw::to_string(state))});
  }
  t.print();

  std::printf("\nplan:");
  for (const auto& step : plan.steps) {
    std::printf("  ->%s @ %.2f s", std::string(hw::to_string(step.state)).c_str(),
                step.after.value());
  }
  std::printf("\nexpected energy %.1f J/idle period, expected wakeup delay"
              " %.3f s\n", ev.expected_energy.value(), ev.expected_delay.value());

  std::printf("\nShape check: the time index is what makes the policy"
              " non-trivial — the commanded\nstate deepens with elapsed idle"
              " time exactly because the Pareto tail makes long\nidleness"
              " predict longer idleness; a memoryless model would collapse"
              " to a single\nthreshold at t=0.\n");
  return 0;
}
