#include "workload/decoder_model.hpp"

#include <utility>

namespace dvs::workload {

DecoderModel::DecoderModel(std::string name, MediaType type, Hertz rate_at_max,
                           double mem_fraction, MegaHertz max_frequency)
    : name_(std::move(name)), type_(type), f_max_(max_frequency) {
  DVS_CHECK_MSG(rate_at_max.value() > 0.0, name_ + ": non-positive decode rate");
  DVS_CHECK_MSG(mem_fraction >= 0.0 && mem_fraction < 1.0,
                name_ + ": mem_fraction must be in [0, 1)");
  DVS_CHECK_MSG(max_frequency.value() > 0.0, name_ + ": non-positive max frequency");
  const double t_max = 1.0 / rate_at_max.value();  // mean decode time at f_max
  mem_stall_ = Seconds{mem_fraction * t_max};
  // W mega-cycles at f MHz take W/f seconds.
  cpu_mcycles_ = (1.0 - mem_fraction) * t_max * max_frequency.value();
}

DecoderModel DecoderModel::mp3(Hertz rate_at_max, MegaHertz max_frequency) {
  return DecoderModel{"mp3-decoder", MediaType::Mp3Audio, rate_at_max, 0.45,
                      max_frequency};
}

DecoderModel DecoderModel::mpeg(Hertz rate_at_max, MegaHertz max_frequency) {
  return DecoderModel{"mpeg-decoder", MediaType::MpegVideo, rate_at_max, 0.08,
                      max_frequency};
}

Seconds DecoderModel::decode_time(MegaHertz f, double work) const {
  DVS_CHECK_MSG(f.value() > 0.0, name_ + ": non-positive frequency");
  DVS_CHECK_MSG(work > 0.0, name_ + ": non-positive work");
  return Seconds{work * (cpu_mcycles_ / f.value() + mem_stall_.value())};
}

Hertz DecoderModel::mean_decode_rate(MegaHertz f) const {
  return rate(decode_time(f));
}

double DecoderModel::performance_ratio(MegaHertz f) const {
  return decode_time(f_max_).value() / decode_time(f).value();
}

PiecewiseLinear DecoderModel::performance_curve(const hw::Sa1100& cpu) const {
  std::vector<PiecewiseLinear::Point> pts;
  pts.reserve(cpu.num_steps());
  for (const auto& step : cpu.steps()) {
    pts.emplace_back(step.frequency.value(), performance_ratio(step.frequency));
  }
  return PiecewiseLinear{std::move(pts)};
}

Seconds DecoderModel::normalize_to_max(Seconds observed, MegaHertz f) const {
  return observed * performance_ratio(f);
}

}  // namespace dvs::workload
