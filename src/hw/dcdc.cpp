#include "hw/dcdc.hpp"

namespace dvs::hw {

DcDcConverter::DcDcConverter()
    : efficiency_(PiecewiseLinear{{0.0, 0.40},
                                  {50.0, 0.60},
                                  {200.0, 0.78},
                                  {500.0, 0.85},
                                  {1500.0, 0.90},
                                  {4000.0, 0.90}}) {}

DcDcConverter::DcDcConverter(PiecewiseLinear efficiency_vs_load_mw)
    : efficiency_(std::move(efficiency_vs_load_mw)) {
  for (const auto& [x, y] : efficiency_.knots()) {
    DVS_CHECK_MSG(x >= 0.0, "DcDcConverter: negative load knot");
    DVS_CHECK_MSG(y > 0.0 && y <= 1.0, "DcDcConverter: efficiency must be in (0,1]");
  }
}

double DcDcConverter::efficiency_at(MilliWatts load) const {
  DVS_CHECK_MSG(load.value() >= 0.0, "DcDcConverter: negative load");
  return efficiency_(load.value());
}

MilliWatts DcDcConverter::input_power(MilliWatts load) const {
  if (load.value() == 0.0) return MilliWatts{0.0};
  return MilliWatts{load.value() / efficiency_at(load)};
}

}  // namespace dvs::hw
