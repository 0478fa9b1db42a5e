#include "workload/work_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dvs::workload {

Mp3Work::Mp3Work(double sigma) : sigma_(sigma) {
  DVS_CHECK_MSG(sigma >= 0.0 && sigma < 0.3, "Mp3Work: sigma out of sane range");
}

double Mp3Work::next(Rng& rng) {
  // Truncate at +/- 3 sigma; keeps the multiplier positive and the mean 1.
  const double raw = rng.normal(1.0, sigma_);
  return std::clamp(raw, 1.0 - 3.0 * sigma_, 1.0 + 3.0 * sigma_);
}

MpegWork::MpegWork(Weights w, double content_sigma)
    : weights_(w), content_sigma_(content_sigma) {
  DVS_CHECK_MSG(w.i > 0 && w.p > 0 && w.b > 0, "MpegWork: weights must be > 0");
  DVS_CHECK_MSG(content_sigma >= 0.0 && content_sigma < 1.0,
                "MpegWork: content sigma out of range");
  double sum = 0.0;
  for (char t : kGop) {
    sum += t == 'I' ? w.i : (t == 'P' ? w.p : w.b);
  }
  mean_ = sum / static_cast<double>(kGop.size());
}

double MpegWork::cv2() const {
  // GOP pattern: discrete distribution over the normalized weights.
  double sum_sq = 0.0;
  for (char t : kGop) {
    const double w =
        (t == 'I' ? weights_.i : (t == 'P' ? weights_.p : weights_.b)) / mean_;
    sum_sq += w * w;
  }
  const double cv2_gop = sum_sq / static_cast<double>(kGop.size()) - 1.0;
  // Unit-mean lognormal noise: cv2 = exp(sigma^2) - 1.
  const double cv2_noise = std::exp(content_sigma_ * content_sigma_) - 1.0;
  return (1.0 + cv2_gop) * (1.0 + cv2_noise) - 1.0;
}

double MpegWork::next(Rng& rng) {
  const char type = kGop[pos_];
  pos_ = (pos_ + 1) % kGop.size();
  const double base =
      (type == 'I' ? weights_.i : (type == 'P' ? weights_.p : weights_.b)) / mean_;
  // Lognormal with unit mean: exp(N(-s^2/2, s)).
  const double noise =
      content_sigma_ > 0.0
          ? std::exp(rng.normal(-0.5 * content_sigma_ * content_sigma_, content_sigma_))
          : 1.0;
  return base * noise;
}

}  // namespace dvs::workload
