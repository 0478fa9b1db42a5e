// SpanProfiler: nested hierarchical wall-time spans for the simulator's
// own hot path — a tree of handler timings, where the engine's
// `wall.engine_run_s` gauge is one number for the whole event loop.
//
// Each node of the span tree carries total ticks, call count, and (after
// finalize) self time = total − children.  Instrumented code pre-registers
// its tree nodes once (`node(parent, name)`) and then pays only a
// timestamp + two stores per enter/exit; an engine without a profiler pays
// a single pointer test per site, the same null-sink fast path the trace
// recorder and flight recorder use (docs/PERF.md).
//
// Timestamps are raw TSC reads on x86-64 (calibrated against
// steady_clock between start() and finalize()) and steady_clock elsewhere:
// the ~30 ns budget per frame (5% of the engine hot path) rules out two
// syscall-backed clock reads per handler.
//
// finalize() freezes the tree; write_collapsed() emits the standard
// collapsed-stack flamegraph format ("root;child;leaf <self_us>"), one
// line per node, followed by "# calls <stack> <n>" comment lines that
// `dvs_sim report --self-profile` uses to rebuild call counts (external
// flamegraph tools skip unparseable lines).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define DVS_SPAN_TSC 1
#endif

namespace dvs::obs {

class SpanProfiler {
 public:
  struct Node {
    std::string name;
    int parent = -1;          ///< -1 only for the root
    std::uint64_t ticks = 0;  ///< total (inclusive) ticks
    std::uint64_t calls = 0;
    std::uint64_t self_ticks = 0;  ///< filled by finalize()
  };

  static constexpr std::size_t kMaxDepth = 64;

  SpanProfiler();

  /// Get-or-create a child of `parent` (node ids are dense ints; the root
  /// is node 0, named "engine").  Registration is not on the hot path.
  int node(int parent, const std::string& name);
  [[nodiscard]] int root() const { return 0; }

  /// Hot path: O(1), no allocation, no branch beyond the depth guard.
  void enter(int id) {
    if (depth_ >= kMaxDepth) return;
    stack_[depth_].id = id;
    stack_[depth_].t0 = now_ticks();
    ++depth_;
  }
  void exit() {
    if (depth_ == 0) return;
    --depth_;
    Node& n = nodes_[static_cast<std::size_t>(stack_[depth_].id)];
    n.ticks += now_ticks() - stack_[depth_].t0;
    ++n.calls;
  }

  /// Closes any open spans, computes self times, and calibrates the
  /// tick -> seconds scale.  Idempotent; required before the accessors
  /// below report seconds.
  void finalize();

  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] double seconds_per_tick() const { return seconds_per_tick_; }
  [[nodiscard]] double node_total_s(int id) const;
  [[nodiscard]] double node_self_s(int id) const;
  /// Dotted path from the root, ';'-separated ("engine;arrival").
  [[nodiscard]] std::string stack_of(int id) const;

  /// Collapsed-stack flamegraph emission (see file header).
  void write_collapsed(std::ostream& os) const;

  static std::uint64_t now_ticks() {
#ifdef DVS_SPAN_TSC
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
  }

 private:
  struct Frame {
    int id = 0;
    std::uint64_t t0 = 0;
  };

  std::vector<Node> nodes_;
  Frame stack_[kMaxDepth];
  std::size_t depth_ = 0;
  bool finalized_ = false;
  double seconds_per_tick_ = 0.0;
  std::uint64_t calib_ticks_;
  std::chrono::steady_clock::time_point calib_wall_;
};

/// RAII span; a null profiler makes it a no-op (the fast path).
class ScopedSpan {
 public:
  ScopedSpan(SpanProfiler* p, int id) : p_(p) {
    if (p_ != nullptr) p_->enter(id);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (p_ != nullptr) p_->exit();
  }

 private:
  SpanProfiler* p_;
};

}  // namespace dvs::obs
