// `dvs_sim tail <root>`: follow a serve daemon's lifecycle event log
// (<root>/events.jsonl, dvs-events-v1).  Prints one line per event as it
// lands — the writer flushes per record — and exits 0 when a daemon_stop
// event arrives (or is already the latest), so scripted use never hangs
// on a finished daemon.  `--no-follow` dumps the intact prefix and exits;
// `--since N` starts after sequence number N; `--events a,b` filters by
// event type.
#include <cstdio>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "serve/event_log.hpp"

namespace dvs::cli {

namespace {

void print_event(const serve::ServeEvent& ev) {
  const std::string detail = serve::event_detail(ev);
  std::printf("#%llu %s %-16s %s%s%s\n",
              static_cast<unsigned long long>(ev.seq),
              fmt_local_time(ev.ts, "%H:%M:%S").c_str(), ev.type.c_str(),
              ev.job.c_str(), ev.job.empty() || detail.empty() ? "" : " ",
              detail.c_str());
  std::fflush(stdout);
}

}  // namespace

int cmd_tail(int argc, char** argv, int first) {
  std::string root;
  std::uint64_t since = 0;
  bool follow = true;
  std::set<std::string> wanted;
  const auto need = [&](int i) { return flag_value(argc, argv, i); };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      if (!root.empty()) usage("tail takes one serve root directory");
      root = a;
    }
    else if (a == "--since") { since = parse_count(a, need(i), UINT64_MAX); ++i; }
    else if (a == "--no-follow") { follow = false; }
    else if (a == "--events") {
      std::stringstream ss(need(i)); ++i;
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) wanted.insert(item);
      }
    }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown tail option " + a).c_str()); }
  }
  if (root.empty()) usage("tail needs a serve root (dvs_sim tail <root>)");

  const std::string path = root + "/events.jsonl";
  std::uint64_t last_printed = since;
  // Re-loading the whole log each poll keeps the reader trivially correct
  // against the torn-tail contract (a torn line simply is not there yet);
  // lifecycle logs are small — this is an operator surface, not a hot path.
  while (true) {
    std::vector<serve::ServeEvent> events;
    try {
      events = serve::load_events(path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dvs_sim tail: %s\n", e.what());
      return 1;
    }
    bool stopped = false;
    for (const serve::ServeEvent& ev : events) {
      if (ev.seq > last_printed &&
          (wanted.empty() || wanted.count(ev.type) > 0)) {
        print_event(ev);
        last_printed = ev.seq;
      }
      if (ev.seq > since) stopped = ev.type == "daemon_stop";
    }
    if (!follow) {
      if (events.empty()) {
        std::fprintf(stderr, "dvs_sim tail: no events at %s\n", path.c_str());
        return 1;
      }
      return 0;
    }
    // A daemon_stop as the newest event means the writer is gone; exit
    // cleanly so `tail` composes with `serve --drain` in scripts and CI.
    if (stopped) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

}  // namespace dvs::cli
