// Frame-decode timing model.
//
// Decoding splits into a CPU-bound part that scales with clock frequency
// and a memory-stall part that does not: t(f) = W_cpu / f + T_mem.  The
// paper's Figures 4 and 5 are exactly this effect — "MP3 audio was decoded
// using slower SRAM ... performance improvements at high processor
// frequencies are memory-bound, and speedup is not linear.  MPEG video
// decode ran on much faster SDRAM and thus its performance curve is almost
// linear."
//
// A model is parameterized by the decode rate it achieves at the top
// frequency step and by the memory-bound fraction beta (share of the decode
// time spent stalled on memory when running at the top frequency).
#pragma once

#include <string>

#include "common/check.hpp"
#include "common/piecewise_linear.hpp"
#include "common/units.hpp"
#include "hw/sa1100.hpp"
#include "workload/media.hpp"

namespace dvs::workload {

class DecoderModel {
 public:
  /// rate_at_max: mean decode rate at `max_frequency` for work = 1.0.
  /// mem_fraction: beta in [0, 1); 0 = perfectly CPU-bound.
  DecoderModel(std::string name, MediaType type, Hertz rate_at_max,
               double mem_fraction, MegaHertz max_frequency);

  /// MP3 on the SmartBadge's slow SRAM: strongly memory-bound (beta 0.45).
  static DecoderModel mp3(Hertz rate_at_max, MegaHertz max_frequency);

  /// MPEG on fast SDRAM: nearly CPU-bound (beta 0.08).
  static DecoderModel mpeg(Hertz rate_at_max, MegaHertz max_frequency);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] MediaType type() const { return type_; }

  /// Time to decode a frame with the given work multiplier at frequency f.
  [[nodiscard]] Seconds decode_time(MegaHertz f, double work = 1.0) const;

  /// Mean decode rate at frequency f (work = 1.0).
  [[nodiscard]] Hertz mean_decode_rate(MegaHertz f) const;

  /// Performance ratio rate(f) / rate(f_max) in (0, 1].
  [[nodiscard]] double performance_ratio(MegaHertz f) const;

  /// The Figure 4/5 performance curve sampled at the CPU's frequency steps:
  /// knots (frequency MHz, performance ratio).  This is the curve the
  /// frequency-setting policy inverts ("piece-wise linear approximation
  /// based on the application frequency-performance tradeoff curve").
  [[nodiscard]] PiecewiseLinear performance_curve(const hw::Sa1100& cpu) const;

  /// Normalizes a decode time observed at frequency f to the equivalent
  /// decode time at the top frequency: t_max = t_obs * performance_ratio(f).
  /// The service-rate detector runs on these normalized samples so its
  /// estimate is independent of the frequency history.
  [[nodiscard]] Seconds normalize_to_max(Seconds observed, MegaHertz f) const;

  [[nodiscard]] double cpu_megacycles() const { return cpu_mcycles_; }
  [[nodiscard]] Seconds memory_stall() const { return mem_stall_; }
  [[nodiscard]] MegaHertz max_frequency() const { return f_max_; }

 private:
  std::string name_;
  MediaType type_;
  MegaHertz f_max_;
  double cpu_mcycles_;  ///< W_cpu: cycles (in millions) per mean frame.
  Seconds mem_stall_;   ///< T_mem: frequency-independent seconds per mean frame.
};

}  // namespace dvs::workload
