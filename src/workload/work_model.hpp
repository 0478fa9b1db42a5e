// Per-frame decode-work variability.
//
// "There was very little variation on frame-by-frame basis in decoding rate
// within a given audio clip" (MP3), while "for MPEG video there is a large
// variation in decoding rates on frame-by-frame basis" — a factor of three
// in cycles across frame types [Bavier et al. 1998].  Both behaviours are
// modelled here as a stream of work multipliers with mean 1.0.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "common/rng.hpp"

namespace dvs::workload {

/// Interface: stream of per-frame decode-work multipliers, mean ~1.0.
class WorkModel {
 public:
  virtual ~WorkModel() = default;
  /// Multiplier for the next frame (> 0).
  virtual double next(Rng& rng) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Resets any internal position (e.g. GOP phase).
  virtual void reset() = 0;
  /// Squared coefficient of variation of the multiplier stream — the cv2
  /// the M/G/1 (Pollaczek-Khinchine) frequency policy consumes.
  [[nodiscard]] virtual double cv2() const = 0;
};

/// Constant work: every frame costs the clip mean (used by analytic tests).
class ConstantWork final : public WorkModel {
 public:
  double next(Rng&) override { return 1.0; }
  [[nodiscard]] std::string name() const override { return "constant"; }
  void reset() override {}
  [[nodiscard]] double cv2() const override { return 0.0; }
};

/// MP3: tight normal jitter around the mean, truncated to stay positive.
class Mp3Work final : public WorkModel {
 public:
  explicit Mp3Work(double sigma = 0.05);
  double next(Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "mp3-work"; }
  void reset() override {}
  /// ~sigma^2 (the +/-3 sigma truncation shaves a negligible amount).
  [[nodiscard]] double cv2() const override { return sigma_ * sigma_; }

 private:
  double sigma_;
};

/// MPEG: a repeating GOP (group of pictures) of I/P/B frame types with
/// type-dependent mean work plus lognormal content noise.  The default GOP
/// is the common IBBPBBPBBPBB pattern; weights give a ~3.5x span between an
/// I frame and a B frame, matching the variance reported in the paper's
/// references [15, 16].
class MpegWork final : public WorkModel {
 public:
  struct Weights {
    double i = 2.2;
    double p = 1.1;
    double b = 0.62;
  };

  MpegWork() : MpegWork(Weights{}, 0.12) {}
  explicit MpegWork(Weights w, double content_sigma = 0.12);

  double next(Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "mpeg-work"; }
  void reset() override { pos_ = 0; }

  /// Exact analytic cv2: GOP pattern variance composed with the lognormal
  /// content noise, (1 + cv2_gop)(1 + cv2_noise) - 1.
  [[nodiscard]] double cv2() const override;

 private:
  static constexpr std::array<char, 12> kGop = {'I', 'B', 'B', 'P', 'B', 'B',
                                                'P', 'B', 'B', 'P', 'B', 'B'};
  Weights weights_;
  double content_sigma_;
  double mean_;  ///< mean of the weighted GOP, used to normalize to 1.0
  std::size_t pos_ = 0;
};

}  // namespace dvs::workload
