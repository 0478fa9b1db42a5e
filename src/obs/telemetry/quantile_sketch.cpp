#include "obs/telemetry/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json.hpp"

namespace dvs::obs {

using json::fmt17;

namespace {

double parse_double(const std::string& tok, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (end == nullptr || *end != '\0' || tok.empty()) {
    throw std::runtime_error(std::string("QuantileSketch: bad ") + what +
                             " '" + tok + "'");
  }
  return v;
}

/// Linear interpolation of sorted samples at rank q (SampleQuantiles rule).
double sorted_quantile(const std::vector<double>& xs, double q) {
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/// Weighted quantile over (value, weight) points sorted by value: linear
/// interpolation on the cumulative-weight midpoint curve, so a weight-1
/// point set reproduces sorted_quantile exactly in the limit.
double weighted_quantile(const std::vector<std::pair<double, double>>& pts,
                         double total_weight, double q) {
  const double target = q * total_weight;
  double cum = 0.0;
  double prev_mid = 0.0;
  double prev_val = pts.front().first;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double mid = cum + pts[i].second * 0.5;
    if (target <= mid) {
      if (i == 0 || mid == prev_mid) return pts[i].first;
      const double frac = (target - prev_mid) / (mid - prev_mid);
      return prev_val + frac * (pts[i].first - prev_val);
    }
    prev_mid = mid;
    prev_val = pts[i].first;
    cum += pts[i].second;
  }
  return pts.back().first;
}

}  // namespace

const std::array<double, QuantileSketch::kMarkers>&
QuantileSketch::marker_probs() {
  // Extended-P² layout for targets {0.5, 0.9, 0.99}: endpoints, the targets,
  // and the midpoints between neighbouring targets (Raatikainen 1987).
  static const std::array<double, kMarkers> kProbs = {
      0.0, 0.25, 0.5, 0.7, 0.9, 0.945, 0.99, 0.995, 1.0};
  return kProbs;
}

QuantileSketch::QuantileSketch(std::size_t exact_capacity)
    : capacity_(std::max<std::size_t>(exact_capacity, kMarkers)) {}

void QuantileSketch::reset() { *this = QuantileSketch{capacity_}; }

void QuantileSketch::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  if (exact_) {
    samples_.push_back(x);
    if (samples_.size() > capacity_) collapse_to_p2();
    return;
  }
  p2_add(x);
}

double QuantileSketch::min() const {
  if (count_ == 0) throw std::logic_error("QuantileSketch::min(): empty");
  return min_;
}

double QuantileSketch::max() const {
  if (count_ == 0) throw std::logic_error("QuantileSketch::max(): empty");
  return max_;
}

void QuantileSketch::collapse_to_p2() {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto& probs = marker_probs();
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < kMarkers; ++i) {
    q_[i] = sorted_quantile(sorted, probs[i]);
    d_[i] = 1.0 + probs[i] * (n - 1.0);
    n_[i] = std::round(d_[i]);
  }
  fix_marker_positions(n);
  exact_ = false;
  samples_.clear();
  samples_.shrink_to_fit();
}

void QuantileSketch::fix_marker_positions(double n) {
  // Positions must stay strictly increasing (the parabolic update divides
  // by neighbour gaps) and end exactly at rank n.  Rounding can collide
  // neighbours when n is small; push up, pin the end, then push back down —
  // n >= kMarkers + 1 whenever this runs, so there is always room.
  for (std::size_t i = 1; i < kMarkers; ++i) {
    n_[i] = std::max(n_[i], n_[i - 1] + 1.0);
  }
  n_[kMarkers - 1] = n;
  for (std::size_t i = kMarkers - 1; i-- > 0;) {
    n_[i] = std::min(n_[i], n_[i + 1] - 1.0);
  }
}

void QuantileSketch::p2_add(double x) {
  const auto& probs = marker_probs();
  // Locate the containing cell, extending the extreme markers if needed.
  std::size_t k = 0;
  if (x < q_[0]) {
    q_[0] = x;
    k = 0;
  } else if (x >= q_[kMarkers - 1]) {
    q_[kMarkers - 1] = x;
    k = kMarkers - 2;
  } else {
    while (k + 1 < kMarkers - 1 && x >= q_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < kMarkers; ++i) n_[i] += 1.0;
  for (std::size_t i = 0; i < kMarkers; ++i) d_[i] += probs[i];

  // Nudge the interior markers toward their desired positions with the P²
  // parabolic formula, falling back to linear when the parabola would break
  // monotonicity.
  for (std::size_t i = 1; i + 1 < kMarkers; ++i) {
    const double delta = d_[i] - n_[i];
    if ((delta >= 1.0 && n_[i + 1] - n_[i] > 1.0) ||
        (delta <= -1.0 && n_[i - 1] - n_[i] < -1.0)) {
      const double s = delta >= 1.0 ? 1.0 : -1.0;
      const double np = n_[i + 1];
      const double nm = n_[i - 1];
      const double nc = n_[i];
      double qn = q_[i] + s / (np - nm) *
                              ((nc - nm + s) * (q_[i + 1] - q_[i]) / (np - nc) +
                               (np - nc - s) * (q_[i] - q_[i - 1]) / (nc - nm));
      if (qn <= q_[i - 1] || qn >= q_[i + 1]) {
        // Linear fallback toward the neighbour in the step direction.
        const std::size_t j = delta >= 1.0 ? i + 1 : i - 1;
        qn = q_[i] + s * (q_[j] - q_[i]) / (n_[j] - nc);
      }
      q_[i] = qn;
      n_[i] = nc + s;
    }
  }
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) throw std::logic_error("QuantileSketch::quantile(): empty");
  if (q < 0.0 || q > 1.0) {
    throw std::domain_error("QuantileSketch::quantile(): q in [0,1]");
  }
  if (count_ == 1) return min_;
  if (exact_) {
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    return sorted_quantile(sorted, q);
  }
  return p2_quantile(q);
}

double QuantileSketch::p2_quantile(double q) const {
  // Piecewise-linear interpolation over the (rank, height) marker curve.
  const double n = static_cast<double>(count_);
  const double target = 1.0 + q * (n - 1.0);
  if (target <= n_[0]) return q_[0];
  for (std::size_t i = 1; i < kMarkers; ++i) {
    if (target <= n_[i]) {
      const double span = n_[i] - n_[i - 1];
      if (span <= 0.0) return q_[i];
      const double frac = (target - n_[i - 1]) / span;
      return q_[i - 1] + frac * (q_[i] - q_[i - 1]);
    }
  }
  return q_[kMarkers - 1];
}

void QuantileSketch::extract_weighted(
    std::vector<std::pair<double, double>>* out) const {
  if (count_ == 0) return;
  if (exact_) {
    for (double v : samples_) out->emplace_back(v, 1.0);
    return;
  }
  // Resample the estimated inverse CDF at kMergeResolution evenly spaced
  // ranks; each point carries an equal share of the true count.
  const double w =
      static_cast<double>(count_) / static_cast<double>(kMergeResolution);
  for (std::size_t j = 0; j < kMergeResolution; ++j) {
    const double p = (static_cast<double>(j) + 0.5) /
                     static_cast<double>(kMergeResolution);
    out->emplace_back(p2_quantile(p), w);
  }
}

void QuantileSketch::init_markers_from_weighted(
    const std::vector<std::pair<double, double>>& pts, std::size_t n) {
  const auto& probs = marker_probs();
  double total = 0.0;
  for (const auto& p : pts) total += p.second;
  const auto nd = static_cast<double>(n);
  for (std::size_t i = 0; i < kMarkers; ++i) {
    q_[i] = weighted_quantile(pts, total, probs[i]);
    d_[i] = 1.0 + probs[i] * (nd - 1.0);
    n_[i] = std::round(d_[i]);
  }
  q_[0] = min_;
  q_[kMarkers - 1] = max_;
  for (std::size_t i = 1; i < kMarkers; ++i) {
    q_[i] = std::max(q_[i], q_[i - 1]);  // monotone heights
  }
  fix_marker_positions(nd);
  exact_ = false;
  samples_.clear();
  samples_.shrink_to_fit();
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    const std::size_t cap = capacity_;
    *this = other;
    capacity_ = std::max(cap, other.capacity_);
    return;
  }
  const double mn = std::min(min_, other.min_);
  const double mx = std::max(max_, other.max_);
  if (exact_ && other.exact_ && samples_.size() + other.samples_.size() <=
                                    std::max(capacity_, other.capacity_)) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    count_ += other.count_;
    min_ = mn;
    max_ = mx;
    capacity_ = std::max(capacity_, other.capacity_);
    return;
  }
  std::vector<std::pair<double, double>> pts;
  pts.reserve((exact_ ? samples_.size() : kMergeResolution) +
              (other.exact_ ? other.samples_.size() : kMergeResolution));
  extract_weighted(&pts);
  other.extract_weighted(&pts);
  std::sort(pts.begin(), pts.end());
  const std::size_t n = count_ + other.count_;
  min_ = mn;
  max_ = mx;
  init_markers_from_weighted(pts, n);
  count_ = n;
  capacity_ = std::max(capacity_, other.capacity_);
}

void QuantileSketch::write_text(std::ostream& os) const {
  os << "dvs-sketch-v1 mode=" << (exact_ ? "exact" : "p2")
     << " cap=" << capacity_ << " count=" << count_ << " min=" << fmt17(min_)
     << " max=" << fmt17(max_) << "\n";
  if (exact_) {
    os << samples_.size() << "\n";
    for (double v : samples_) os << fmt17(v) << "\n";
    return;
  }
  os << kMarkers << "\n";
  for (std::size_t i = 0; i < kMarkers; ++i) {
    os << fmt17(q_[i]) << " " << fmt17(n_[i]) << " " << fmt17(d_[i]) << "\n";
  }
}

QuantileSketch QuantileSketch::read_text(std::istream& is) {
  std::string magic;
  std::string mode_tok;
  std::string cap_tok;
  std::string count_tok;
  std::string min_tok;
  std::string max_tok;
  if (!(is >> magic >> mode_tok >> cap_tok >> count_tok >> min_tok >>
        max_tok) ||
      magic != "dvs-sketch-v1") {
    throw std::runtime_error("QuantileSketch: bad header (want dvs-sketch-v1)");
  }
  const auto field = [](std::string tok, const char* key) {
    const std::string prefix = std::string(key) + "=";
    if (tok.rfind(prefix, 0) != 0) {
      throw std::runtime_error("QuantileSketch: expected " + prefix +
                               "... got '" + tok + "'");
    }
    return tok.substr(prefix.size());
  };
  const std::string mode = field(mode_tok, "mode");
  if (mode != "exact" && mode != "p2") {
    throw std::runtime_error("QuantileSketch: unknown mode '" + mode + "'");
  }
  QuantileSketch s{static_cast<std::size_t>(
      std::strtoull(field(cap_tok, "cap").c_str(), nullptr, 10))};
  s.count_ = static_cast<std::size_t>(
      std::strtoull(field(count_tok, "count").c_str(), nullptr, 10));
  s.min_ = parse_double(field(min_tok, "min"), "min");
  s.max_ = parse_double(field(max_tok, "max"), "max");
  std::size_t rows = 0;
  if (!(is >> rows)) throw std::runtime_error("QuantileSketch: missing row count");
  if (mode == "exact") {
    s.exact_ = true;
    if (rows != s.count_) {
      throw std::runtime_error("QuantileSketch: exact row/count mismatch");
    }
    s.samples_.reserve(rows);
    for (std::size_t i = 0; i < rows; ++i) {
      std::string tok;
      if (!(is >> tok)) throw std::runtime_error("QuantileSketch: truncated samples");
      s.samples_.push_back(parse_double(tok, "sample"));
    }
    return s;
  }
  s.exact_ = false;
  if (rows != kMarkers) {
    throw std::runtime_error("QuantileSketch: p2 sketch needs 9 markers");
  }
  for (std::size_t i = 0; i < kMarkers; ++i) {
    std::string qt;
    std::string nt;
    std::string dt;
    if (!(is >> qt >> nt >> dt)) {
      throw std::runtime_error("QuantileSketch: truncated markers");
    }
    s.q_[i] = parse_double(qt, "marker height");
    s.n_[i] = parse_double(nt, "marker position");
    s.d_[i] = parse_double(dt, "marker desired position");
  }
  return s;
}

std::string sketch_text(const QuantileSketch& s) {
  if (s.empty()) return {};
  std::ostringstream os;
  s.write_text(os);
  return os.str();
}

QuantileSketch sketch_from_text(const std::string& text) {
  if (text.empty()) return QuantileSketch{};
  std::istringstream is(text);
  return QuantileSketch::read_text(is);
}

}  // namespace dvs::obs
