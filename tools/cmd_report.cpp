// `dvs_sim report`: offline analyzer over artifacts the other subcommands
// wrote — metrics JSON (--metrics-json), attribution-ledger JSON
// (--ledger-json), structured JSONL traces (--trace-jsonl),
// flight-recorder dumps (--flight-dump), telemetry snapshot series
// (--telemetry-jsonl), collapsed-stack span profiles (--self-profile)
// and serve daemon trees (--serve-root: lifecycle event timeline plus
// per-job rollups from done/<id>.out/job_summary.json).  Any subset of
// inputs may be given; each renders its own section.  Exit codes:
// 0 = report rendered, 1 = an input failed to parse, 2 = usage error.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "obs/flight_recorder.hpp"
#include "serve/event_log.hpp"
#include "serve/status.hpp"

namespace dvs::cli {

namespace {

std::string pct(double part, double whole) {
  if (whole <= 0.0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", 100.0 * part / whole);
  return buf;
}

// ---- ledger section -------------------------------------------------------

/// One parsed ledger cell, shared by the energy and delay tables.
struct LedgerRow {
  std::string component;  // or media for delay rows
  std::string state;      // empty for delay rows
  int freq_step = -1;
  std::string cause;
  double value = 0.0;  // energy_j or delay_s
  double weight = 0.0; // time_s or frames
};

std::vector<LedgerRow> parse_rows(const json::Value& arr, bool energy) {
  std::vector<LedgerRow> rows;
  for (const json::ValuePtr& e : arr.as_array()) {
    LedgerRow r;
    r.component = e->at(energy ? "component" : "media").as_string();
    if (energy) r.state = e->at("state").as_string();
    r.freq_step = static_cast<int>(e->at("freq_step").as_number());
    r.cause = e->at("cause").as_string();
    r.value = e->at(energy ? "energy_j" : "delay_s").as_number();
    r.weight = e->at(energy ? "time_s" : "frames").as_number();
    rows.push_back(std::move(r));
  }
  return rows;
}

/// Sums `value` grouped by a caller-chosen key, descending by value.
std::vector<std::pair<std::string, double>> group_by(
    const std::vector<LedgerRow>& rows,
    const std::function<std::string(const LedgerRow&)>& key) {
  std::map<std::string, double> acc;
  for (const LedgerRow& r : rows) acc[key(r)] += r.value;
  std::vector<std::pair<std::string, double>> out(acc.begin(), acc.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void render_breakdown(const std::string& title,
                      const std::vector<std::pair<std::string, double>>& groups,
                      double total, const char* value_header) {
  TextTable t{title};
  t.set_header({"key", value_header, "share"});
  for (const auto& [key, value] : groups) {
    t.add_row({key, TextTable::num(value, 4), pct(value, total)});
  }
  t.print();
  std::printf("\n");
}

int report_ledger(const std::string& path) {
  const json::ValuePtr doc = json::parse_file(path);
  const std::string schema = doc->string_or("schema", "?");
  if (schema != "dvs-ledger-v1") {
    std::fprintf(stderr, "report: %s: unexpected schema \"%s\"\n", path.c_str(),
                 schema.c_str());
    return 1;
  }
  const json::Value& totals = doc->at("totals");
  const double energy = totals.at("energy_j").as_number();
  const double delay = totals.at("delay_s").as_number();
  const double frames = totals.at("frames").as_number();
  std::printf("== attribution ledger (%s) ==\n", path.c_str());
  std::printf("total energy %.4f J, total frame delay %.4f s over %.0f frames\n\n",
              energy, delay, frames);

  std::vector<double> freq_mhz;
  if (const json::Value* freqs = doc->find("freq_mhz")) {
    for (const json::ValuePtr& f : freqs->as_array()) {
      freq_mhz.push_back(f->as_number());
    }
  }
  auto step_label = [&freq_mhz](int step) {
    if (step < 0) return std::string("-");
    std::string label = "step " + std::to_string(step);
    if (static_cast<std::size_t>(step) < freq_mhz.size()) {
      label += " (" + TextTable::num(freq_mhz[static_cast<std::size_t>(step)], 1) +
               " MHz)";
    }
    return label;
  };

  const std::vector<LedgerRow> erows = parse_rows(doc->at("energy"), true);
  render_breakdown("energy by component", group_by(erows, [](const LedgerRow& r) {
                     return r.component;
                   }),
                   energy, "energy_j");
  render_breakdown("energy by cause",
                   group_by(erows, [](const LedgerRow& r) { return r.cause; }),
                   energy, "energy_j");
  render_breakdown("energy by power state", group_by(erows, [](const LedgerRow& r) {
                     return r.state;
                   }),
                   energy, "energy_j");
  render_breakdown("energy by cpu step", group_by(erows, [&](const LedgerRow& r) {
                     return step_label(r.freq_step);
                   }),
                   energy, "energy_j");

  const std::vector<LedgerRow> drows = parse_rows(doc->at("delay"), false);
  if (!drows.empty()) {
    render_breakdown("frame delay by cause",
                     group_by(drows, [](const LedgerRow& r) { return r.cause; }),
                     delay, "delay_s");
    render_breakdown("frame delay by cpu step",
                     group_by(drows, [&](const LedgerRow& r) {
                       return step_label(r.freq_step);
                     }),
                     delay, "delay_s");
  }
  return 0;
}

// ---- metrics section ------------------------------------------------------

int report_metrics(const std::string& path) {
  const json::ValuePtr doc = json::parse_file(path);
  std::printf("== metrics (%s) ==\n", path.c_str());

  const json::Value& gauges = doc->at("gauges");
  const json::Value& counters = doc->at("counters");
  std::printf(
      "energy %.2f J over %.1f s (avg %.1f mW), %.0f frames decoded, "
      "mean delay %.4f s\n\n",
      gauges.number_or("energy_j", 0.0), gauges.number_or("duration_s", 0.0),
      gauges.number_or("avg_power_mw", 0.0),
      counters.number_or("frames_decoded", 0.0),
      gauges.number_or("mean_frame_delay_s", 0.0));

  TextTable hist{"delay percentiles"};
  hist.set_header({"histogram", "count", "mean", "p50", "p90", "p99", "max",
                   "outside"});
  std::vector<std::pair<std::string, double>> range_warnings;
  for (const auto& [name, h] : doc->at("histograms").as_object()) {
    const double count = h->number_or("count", 0.0);
    if (count == 0.0) {
      hist.add_row({name, "0"});
      continue;
    }
    // Samples outside the registered range; the sketch-backed quantile
    // columns are unaffected.
    const double outside =
        h->number_or("underflow", 0.0) + h->number_or("overflow", 0.0);
    hist.add_row({name, TextTable::num(count, 0),
                  TextTable::num(h->number_or("mean", 0.0), 5),
                  TextTable::num(h->number_or("p50", 0.0), 5),
                  TextTable::num(h->number_or("p90", 0.0), 5),
                  TextTable::num(h->number_or("p99", 0.0), 5),
                  TextTable::num(h->number_or("max", 0.0), 5),
                  outside > 0.0 ? pct(outside, count) : "-"});
    if (outside > 0.01 * count) {
      range_warnings.emplace_back(name, outside / count);
    }
  }
  hist.print();
  std::printf("\n");
  for (const auto& [name, frac] : range_warnings) {
    std::printf("WARNING: %.1f%% of histogram %s's samples fell outside its"
                " registered range; its quantiles are unaffected\n",
                frac * 100.0, name.c_str());
  }
  if (!range_warnings.empty()) std::printf("\n");

  TextTable cnt{"counters"};
  cnt.set_header({"counter", "value"});
  for (const auto& [name, v] : counters.as_object()) {
    cnt.add_row({name, TextTable::num(v->as_number(), 0)});
  }
  cnt.print();
  std::printf("\n");
  return 0;
}

// ---- decision timeline (JSONL trace + flight dump) ------------------------

struct TimelineEntry {
  double ts = 0.0;
  std::string source;  // "trace" | "flight"
  std::string text;
};

/// Decision-relevant JSONL event types -> one timeline line each.
bool timeline_line_from_trace(const json::Value& ev, TimelineEntry& out) {
  const std::string type = ev.string_or("type", "?");
  char buf[160];
  if (type == "detector_decision") {
    if (ev.find("detected") == nullptr || !ev.at("detected").as_bool()) {
      return false;  // non-detections are detector noise, not decisions
    }
    std::snprintf(buf, sizeof buf, "detector change-point on %s -> %.2f Hz",
                  ev.string_or("stream", "?").c_str(),
                  ev.number_or("rate_hz", 0.0));
  } else if (type == "freq_commit") {
    std::snprintf(buf, sizeof buf, "freq commit step %.0f -> %.1f MHz",
                  ev.number_or("step", -1.0), ev.number_or("freq_mhz", 0.0));
  } else if (type == "dpm_sleep") {
    std::snprintf(buf, sizeof buf, "dpm sleep -> %s",
                  ev.string_or("state", "?").c_str());
  } else if (type == "dpm_wakeup") {
    std::snprintf(buf, sizeof buf, "dpm wakeup from %s (%.3f s latency, %.2f s idle)",
                  ev.string_or("from", "?").c_str(),
                  ev.number_or("latency_s", 0.0), ev.number_or("idle_s", 0.0));
  } else if (type == "fault_injected") {
    std::snprintf(buf, sizeof buf, "fault %s (magnitude %.3g)",
                  ev.string_or("kind", "?").c_str(),
                  ev.number_or("magnitude", 0.0));
  } else if (type == "watchdog_escalate") {
    std::snprintf(buf, sizeof buf, "watchdog ESCALATE (delay %.3f s, backoff %.1f s)",
                  ev.number_or("delay_s", 0.0), ev.number_or("backoff_s", 0.0));
  } else if (type == "watchdog_recover") {
    std::snprintf(buf, sizeof buf, "watchdog recover (degraded %.2f s)",
                  ev.number_or("degraded_s", 0.0));
  } else {
    return false;
  }
  out.text = buf;
  out.ts = ev.number_or("ts", 0.0);
  out.source = "trace";
  return true;
}

int load_trace_timeline(const std::string& path,
                        std::vector<TimelineEntry>& timeline) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "report: cannot open %s\n", path.c_str());
    return 1;
  }
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    json::ValuePtr ev;
    try {
      ev = json::parse(line);
    } catch (const json::ParseError& e) {
      std::fprintf(stderr, "report: %s:%zu: %s\n", path.c_str(), lineno,
                   e.what());
      return 1;
    }
    TimelineEntry entry;
    if (timeline_line_from_trace(*ev, entry)) timeline.push_back(std::move(entry));
  }
  return 0;
}

bool timeline_line_from_flight(const obs::FlightRecord& r, TimelineEntry& out) {
  using obs::FlightEventType;
  char buf[160];
  switch (static_cast<FlightEventType>(r.type)) {
    case FlightEventType::FreqCommit:
      std::snprintf(buf, sizeof buf, "freq commit step %u -> %.1f MHz", r.code,
                    static_cast<double>(r.a));
      break;
    case FlightEventType::DpmSleep:
      std::snprintf(buf, sizeof buf, "dpm sleep -> state %u", r.code);
      break;
    case FlightEventType::DpmWakeup:
      std::snprintf(buf, sizeof buf,
                    "dpm wakeup from state %u (%.3f s latency, %.2f s idle)",
                    r.code, static_cast<double>(r.a), static_cast<double>(r.b));
      break;
    case FlightEventType::WatchdogEscalate:
      std::snprintf(buf, sizeof buf, "watchdog ESCALATE (delay %.3f s, queue %.0f)",
                    static_cast<double>(r.a), static_cast<double>(r.b));
      break;
    case FlightEventType::WatchdogRecover:
      std::snprintf(buf, sizeof buf, "watchdog recover (degraded %.2f s)",
                    static_cast<double>(r.a));
      break;
    case FlightEventType::FaultInjected:
      std::snprintf(buf, sizeof buf, "fault code %u (magnitude %.3g)", r.code,
                    static_cast<double>(r.a));
      break;
    case FlightEventType::Trigger:
      std::snprintf(buf, sizeof buf, "** dump trigger **");
      break;
    default:
      return false;
  }
  out.ts = r.ts;
  out.source = "flight";
  out.text = buf;
  return true;
}

int report_flight(const std::string& path,
                  std::vector<TimelineEntry>& timeline) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "report: cannot open %s\n", path.c_str());
    return 1;
  }
  obs::FlightDump dump;
  try {
    dump = obs::parse_flight_dump(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "report: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  std::printf("== flight recorder (%s) ==\n", path.c_str());
  std::printf("reason: %s; %llu events recorded, ring capacity %zu, "
              "%zu in dump window\n",
              dump.reason.c_str(),
              static_cast<unsigned long long>(dump.recorded), dump.capacity,
              dump.records.size());
  // Event-type census of the window: what the system was doing going in.
  std::map<std::string, std::size_t> census;
  for (const obs::FlightRecord& r : dump.records) {
    census[std::string(obs::to_string(
        static_cast<obs::FlightEventType>(r.type)))]++;
  }
  TextTable t{"dump window census"};
  t.set_header({"event", "count"});
  for (const auto& [name, n] : census) {
    t.add_row({name, std::to_string(n)});
  }
  t.print();
  std::printf("\n");

  for (const obs::FlightRecord& r : dump.records) {
    TimelineEntry entry;
    if (timeline_line_from_flight(r, entry)) timeline.push_back(std::move(entry));
  }
  return 0;
}

void render_timeline(std::vector<TimelineEntry>& timeline) {
  if (timeline.empty()) return;
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const TimelineEntry& a, const TimelineEntry& b) {
                     return a.ts < b.ts;
                   });
  std::printf("== decision timeline (%zu decisions) ==\n", timeline.size());
  for (const TimelineEntry& e : timeline) {
    std::printf("%12.4f s  [%s]  %s\n", e.ts, e.source.c_str(), e.text.c_str());
  }
  std::printf("\n");
}

// ---- telemetry snapshot series --------------------------------------------

/// Renders the --telemetry-jsonl snapshot series: headline live readings and
/// the frames.delay_s quantile trajectory, downsampled to at most 16 rows so
/// long runs stay readable.  Works for both engine (sim-time t) and sweep
/// (wall-time t) series.
int report_telemetry(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "report: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<json::ValuePtr> snaps;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      snaps.push_back(json::parse(line));
    } catch (const json::ParseError& e) {
      std::fprintf(stderr, "report: %s:%zu: %s\n", path.c_str(), lineno,
                   e.what());
      return 1;
    }
  }
  std::printf("== telemetry snapshots (%s) ==\n", path.c_str());
  if (snaps.empty()) {
    std::printf("(empty series)\n\n");
    return 0;
  }
  const std::string source = snaps.front()->string_or("source", "?");
  std::printf("%zu snapshots, source %s, t %.3f .. %.3f s\n\n", snaps.size(),
              source.c_str(), snaps.front()->number_or("t", 0.0),
              snaps.back()->number_or("t", 0.0));

  auto live = [](const json::Value& s, const char* key) {
    const json::Value* l = s.find("live");
    return l != nullptr ? l->number_or(key, 0.0) : 0.0;
  };
  auto quant = [](const json::Value& s, const char* key) {
    const json::Value* q = s.find("quantiles");
    if (q == nullptr) return 0.0;
    const json::Value* h = q->find("frames.delay_s");
    return h != nullptr ? h->number_or(key, 0.0) : 0.0;
  };
  const bool sweep = source == "sweep";
  TextTable t{"series (downsampled)"};
  if (sweep) {
    t.set_header({"wall t (s)", "done", "point", "energy (kJ)", "delay p50",
                  "delay p90", "delay p99"});
  } else {
    t.set_header({"sim t (s)", "frames", "cpu MHz", "power (mW)", "queue",
                  "delay p50", "delay p90", "delay p99"});
  }
  const std::size_t max_rows = 16;
  const std::size_t step = (snaps.size() + max_rows - 1) / max_rows;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (i % step != 0 && i + 1 != snaps.size()) continue;  // keep last row
    const json::Value& s = *snaps[i];
    if (sweep) {
      t.add_row({TextTable::num(s.number_or("t", 0.0), 3),
                 TextTable::num(live(s, "done"), 0),
                 TextTable::num(live(s, "point"), 0),
                 TextTable::num(live(s, "energy_kj"), 3),
                 TextTable::num(quant(s, "p50"), 4),
                 TextTable::num(quant(s, "p90"), 4),
                 TextTable::num(quant(s, "p99"), 4)});
    } else {
      t.add_row({TextTable::num(s.number_or("t", 0.0), 1),
                 TextTable::num(live(s, "frames_decoded"), 0),
                 TextTable::num(live(s, "cpu_mhz"), 0),
                 TextTable::num(live(s, "avg_power_mw"), 0),
                 TextTable::num(live(s, "queue_frames"), 0),
                 TextTable::num(quant(s, "p50"), 4),
                 TextTable::num(quant(s, "p90"), 4),
                 TextTable::num(quant(s, "p99"), 4)});
    }
  }
  t.print();
  std::printf("\n");
  return 0;
}

// ---- self-profile (collapsed-stack span tree) ------------------------------

struct ProfileNode {
  std::string stack;  // full ;-joined path
  double self_us = 0.0;
  double total_us = 0.0;  // self + descendants
  std::uint64_t calls = 0;
};

/// Parses the --self-profile collapsed-stack file (lines `stack self_us`,
/// plus `# calls stack n` comments) and renders the span tree with per-node
/// self/total time and call counts.
int report_self_profile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "report: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<ProfileNode> nodes;  // file order == pre-order
  auto find_node = [&nodes](const std::string& stack) -> ProfileNode* {
    for (ProfileNode& n : nodes) {
      if (n.stack == stack) return &n;
    }
    return nullptr;
  };
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls{line};
    if (line[0] == '#') {
      std::string hash, word, stack;
      std::uint64_t n = 0;
      if (!(ls >> hash >> word >> stack >> n) || word != "calls") continue;
      if (ProfileNode* node = find_node(stack)) node->calls = n;
      continue;
    }
    ProfileNode node;
    if (!(ls >> node.stack >> node.self_us)) {
      std::fprintf(stderr, "report: %s:%zu: not a collapsed-stack line\n",
                   path.c_str(), lineno);
      return 1;
    }
    nodes.push_back(std::move(node));
  }
  if (nodes.empty()) {
    std::fprintf(stderr, "report: %s: no samples\n", path.c_str());
    return 1;
  }
  // total = self + every descendant's self (descendant == stack prefix).
  for (ProfileNode& n : nodes) {
    n.total_us = n.self_us;
    for (const ProfileNode& m : nodes) {
      if (m.stack.size() > n.stack.size() &&
          m.stack.compare(0, n.stack.size(), n.stack) == 0 &&
          m.stack[n.stack.size()] == ';') {
        n.total_us += m.self_us;
      }
    }
  }
  const double root_total = nodes.front().total_us;
  std::printf("== self-profile (%s) ==\n", path.c_str());
  std::printf("%zu span nodes, %.3f ms total\n\n", nodes.size(),
              root_total / 1e3);
  TextTable t{"span tree"};
  t.set_header({"span", "calls", "total (ms)", "self (ms)", "total share"});
  for (const ProfileNode& n : nodes) {
    const std::size_t depth =
        static_cast<std::size_t>(std::count(n.stack.begin(), n.stack.end(), ';'));
    const std::size_t leaf = n.stack.rfind(';');
    const std::string name =
        leaf == std::string::npos ? n.stack : n.stack.substr(leaf + 1);
    t.add_row({std::string(2 * depth, ' ') + name,
               TextTable::num(static_cast<double>(n.calls), 0),
               TextTable::num(n.total_us / 1e3, 3),
               TextTable::num(n.self_us / 1e3, 3),
               pct(n.total_us, root_total)});
  }
  t.print();
  std::printf("\n");
  return 0;
}

// ---- serve daemon tree -----------------------------------------------------


constexpr const char* kWallFormat = "%Y-%m-%d %H:%M:%S";

/// Renders the --serve-root section: the daemon's lifecycle event
/// timeline (dvs-events-v1 — the intact prefix; a SIGKILL-torn tail is
/// simply absent) and per-job rollups from done/<id>.out/job_summary.json
/// plus failed/ error files, folded in sorted stem order.
int report_serve_root(const std::string& root) {
  std::vector<serve::ServeEvent> events;
  try {
    events = serve::load_events(root + "/events.jsonl");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "report: %s\n", e.what());
    return 1;
  }
  std::printf("== serve daemon (%s) ==\n", root.c_str());
  if (events.empty()) {
    std::printf("(no lifecycle events at %s/events.jsonl)\n\n", root.c_str());
  } else {
    std::printf("%zu lifecycle events, %s .. %s\n\n", events.size(),
                fmt_local_time(events.front().ts, kWallFormat).c_str(),
                fmt_local_time(events.back().ts, kWallFormat).c_str());
    TextTable t{"event timeline"};
    t.set_header({"seq", "time", "event", "job", "detail"});
    for (const serve::ServeEvent& ev : events) {
      t.add_row({std::to_string(ev.seq), fmt_local_time(ev.ts, kWallFormat),
                 ev.type, ev.job, serve::event_detail(ev)});
    }
    t.print();
    std::printf("\n");
  }

  const serve::DoneJobs done = serve::load_done_jobs(root);
  if (!done.empty()) {
    TextTable t{"completed jobs"};
    t.set_header({"job", "kind", "units", "restored", "frames", "dropped",
                  "energy (J)", "delay p50", "delay p99"});
    for (const auto& [stem, summary] : done) {
      if (!summary) {
        t.add_row({stem, "?", "-", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      const serve::JobSummary& s = *summary;
      // Run/sweep jobs carry a per-frame delay sketch; fleet jobs carry a
      // per-device mean-delay sketch.  Show whichever is populated.
      const obs::QuantileSketch& sk = s.frame_delay_sketch.empty()
                                          ? s.device_delay_sketch
                                          : s.frame_delay_sketch;
      t.add_row({s.job_id, s.kind, std::to_string(s.executed) + "/" +
                     std::to_string(s.units_total),
                 std::to_string(s.restored),
                 std::to_string(static_cast<unsigned long long>(
                     s.frames_decoded)),
                 std::to_string(static_cast<unsigned long long>(
                     s.frames_dropped)),
                 TextTable::num(s.energy_j, 2),
                 sk.empty() ? "-" : TextTable::num(sk.quantile(0.5), 4),
                 sk.empty() ? "-" : TextTable::num(sk.quantile(0.99), 4)});
    }
    t.print();
    std::printf("\n");
  }

  const std::vector<std::string> failed = serve::job_stems(root + "/failed");
  if (!failed.empty()) {
    TextTable t{"failed jobs"};
    t.set_header({"job", "error"});
    for (const std::string& stem : failed) {
      std::string first_line = "(no error file)";
      std::ifstream err(root + "/failed/" + stem + ".error.txt");
      if (err) std::getline(err, first_line);
      t.add_row({stem, first_line});
    }
    t.print();
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int cmd_report(const CliOptions& o) {
  if (o.metrics_json.empty() && o.ledger_json.empty() &&
      o.trace_jsonl.empty() && o.flight_dump.empty() &&
      o.telemetry_jsonl.empty() && o.self_profile.empty() &&
      o.serve_root.empty()) {
    usage("report needs at least one of --metrics-json, --ledger-json, "
          "--trace-jsonl, --flight-dump, --telemetry-jsonl, --self-profile, "
          "--serve-root");
  }
  if (o.metrics_json == "-" || o.ledger_json == "-" ||
      o.telemetry_jsonl == "-" || o.self_profile == "-" ||
      o.serve_root == "-") {
    usage("report reads files; \"-\" is not a valid input path");
  }
  try {
    if (!o.serve_root.empty()) {
      if (const int rc = report_serve_root(o.serve_root); rc != 0) return rc;
    }
    if (!o.ledger_json.empty()) {
      if (const int rc = report_ledger(o.ledger_json); rc != 0) return rc;
    }
    if (!o.metrics_json.empty()) {
      if (const int rc = report_metrics(o.metrics_json); rc != 0) return rc;
    }
    if (!o.telemetry_jsonl.empty()) {
      if (const int rc = report_telemetry(o.telemetry_jsonl); rc != 0) {
        return rc;
      }
    }
    if (!o.self_profile.empty()) {
      if (const int rc = report_self_profile(o.self_profile); rc != 0) {
        return rc;
      }
    }
    std::vector<TimelineEntry> timeline;
    if (!o.flight_dump.empty()) {
      if (const int rc = report_flight(o.flight_dump, timeline); rc != 0) {
        return rc;
      }
    }
    if (!o.trace_jsonl.empty()) {
      if (const int rc = load_trace_timeline(o.trace_jsonl, timeline); rc != 0) {
        return rc;
      }
    }
    render_timeline(timeline);
  } catch (const json::ParseError& e) {
    std::fprintf(stderr, "report: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace dvs::cli
