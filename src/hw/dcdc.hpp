// DC-DC converter model.
//
// The SmartBadge is "powered by the batteries through a DC-DC converter";
// converter loss matters because DPM pushes the badge into very light loads
// where switching-converter efficiency collapses.  Efficiency is modelled as
// a piecewise-linear function of output power — a standard buck-converter
// curve: poor below ~5% load, flat ~90% near rated load.
#pragma once

#include "common/check.hpp"
#include "common/piecewise_linear.hpp"
#include "common/units.hpp"

namespace dvs::hw {

class DcDcConverter {
 public:
  /// Default converter rated for the ~3.5 W badge.
  DcDcConverter();

  /// Custom efficiency curve: (output power mW, efficiency in (0,1]) knots.
  explicit DcDcConverter(PiecewiseLinear efficiency_vs_load_mw);

  /// Efficiency at a given output (load) power.
  [[nodiscard]] double efficiency_at(MilliWatts load) const;

  /// Battery-side draw needed to deliver `load` at the output.
  [[nodiscard]] MilliWatts input_power(MilliWatts load) const;

 private:
  PiecewiseLinear efficiency_;
};

}  // namespace dvs::hw
