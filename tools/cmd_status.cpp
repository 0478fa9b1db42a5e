// `dvs_sim status <root>`: one-shot view of a serve daemon's status.json
// (human table by default, the raw dvs-serve-status-v1 document with
// --json).  Works on a live daemon — the snapshot is atomically replaced,
// so there is never a torn read — and on a stopped one (state "stopped").
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_common.hpp"
#include "common/table.hpp"
#include "serve/status.hpp"

namespace dvs::cli {

namespace {

std::string fmt_s(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1fs", v);
  return buf;
}

std::string fmt_progress(const serve::JobStatus& j) {
  if (j.units_total == 0) return "-";
  char buf[96];
  std::snprintf(buf, sizeof buf, "%zu/%zu", j.units_done, j.units_total);
  return buf;
}

}  // namespace

int cmd_status(int argc, char** argv, int first) {
  std::string root;
  bool json = false;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      if (!root.empty()) usage("status takes one serve root directory");
      root = a;
    }
    else if (a == "--json") { json = true; }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown status option " + a).c_str()); }
  }
  if (root.empty()) {
    usage("status needs a serve root (dvs_sim status <root>)");
  }

  const std::string path = root + "/status.json";
  serve::ServeStatus s;
  try {
    s = serve::load_status(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvs_sim status: %s\n", e.what());
    return 1;
  }
  if (json) {
    // The file already is the machine API; echo it verbatim once it has
    // validated, so a missing/foreign file is an error, not silent garbage.
    std::ifstream in(path);
    std::cout << in.rdbuf();
    return 0;
  }

  std::printf("daemon: %s (pid %d), uptime %s, last event seq %llu\n",
              s.state.c_str(), s.pid, fmt_s(s.uptime_s).c_str(),
              static_cast<unsigned long long>(s.last_seq));
  std::printf("jobs: %zu done, %zu failed, %zu queued\n", s.jobs_done,
              s.jobs_failed, s.queue_depth);
  std::printf(
      "caches: threshold-table %llu hits / %llu misses (%zu entries), "
      "tismdp %llu hits / %llu misses (%zu entries)\n",
      static_cast<unsigned long long>(s.table_cache.hits),
      static_cast<unsigned long long>(s.table_cache.misses),
      s.table_cache.entries,
      static_cast<unsigned long long>(s.solve_cache.hits),
      static_cast<unsigned long long>(s.solve_cache.misses),
      s.solve_cache.entries);

  if (!s.jobs.empty()) {
    std::printf("\n");
    TextTable t;
    t.set_header({"Job", "Kind", "State", "Progress", "Elapsed", "ETA"});
    for (const serve::JobStatus& j : s.jobs) {
      t.add_row({j.id, j.kind.empty() ? "-" : j.kind, j.state,
                 fmt_progress(j),
                 j.state == "running" ? fmt_s(j.elapsed_s) : "-",
                 j.state == "running" && j.eta_s >= 0.0 ? fmt_s(j.eta_s)
                                                        : "-"});
    }
    t.print();
  }
  std::printf("\nfollow events with: dvs_sim tail %s\n", root.c_str());
  return 0;
}

}  // namespace dvs::cli
