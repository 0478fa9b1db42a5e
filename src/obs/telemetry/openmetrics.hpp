// OpenMetrics text exporter: renders a MetricsRegistry in the
// OpenMetrics / Prometheus exposition format so external scrapers and CI
// linters consume runs unmodified (`dvs_sim ... --metrics-openmetrics`).
//
// Naming is stable and mechanical (docs/OBSERVABILITY.md "OpenMetrics
// naming"): every metric gets the `dvs_` prefix, dots and other
// non-[a-zA-Z0-9_] characters become underscores.  Counters render as
// counter families (sample name `<family>_total`), gauges as gauges, and
// histogram metrics as summaries: `{quantile="0.5|0.9|0.99"}` samples from
// the quantile sketch plus the exact `_count` / `_sum`, and a companion
// `<family>_clamped_total` counter of the samples outside the histogram's
// registered range (underflow + overflow).  Output ends with the mandatory
// `# EOF` marker and is validated in CI by scripts/check_openmetrics.py.
#pragma once

#include <ostream>
#include <string>

#include "obs/metrics_registry.hpp"

namespace dvs::obs {

/// "frames.delay_s" -> "dvs_frames_delay_s".
std::string openmetrics_name(const std::string& name);

void write_openmetrics(const MetricsRegistry& reg, std::ostream& os);

/// Renders to `path + ".tmp"` and renames over `path`, so a concurrent
/// scraper always reads a complete exposition (the serve daemon rewrites
/// its `metrics.om` while Prometheus-style collectors poll it).  Throws
/// std::runtime_error when the temp file cannot be written or renamed.
void write_openmetrics_atomic(const MetricsRegistry& reg,
                              const std::string& path);

}  // namespace dvs::obs
