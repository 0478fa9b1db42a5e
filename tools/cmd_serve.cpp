// `dvs_sim serve <dir>`: the long-running job-queue daemon (src/serve/).
// Jobs are dvs-job-v1 JSON files dropped into <dir>/queue/; see
// docs/SERVING.md for the queue lifecycle and checkpoint semantics.
#include <climits>
#include <cstdint>
#include <string>

#include "cli_common.hpp"
#include "serve/daemon.hpp"

namespace dvs::cli {

int cmd_serve(int argc, char** argv, int first) {
  serve::DaemonOptions opts;
  const auto need = [&](int i) { return flag_value(argc, argv, i); };
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] != '-') {
      if (!opts.root.empty()) usage("serve takes one queue directory");
      opts.root = a;
    }
    else if (a == "--jobs") {
      opts.jobs = static_cast<int>(parse_count(a, need(i), INT_MAX)); ++i;
    }
    else if (a == "--poll-ms") {
      opts.poll_ms = static_cast<int>(parse_count(a, need(i), INT_MAX)); ++i;
    }
    else if (a == "--drain") { opts.drain = true; }
    else if (a == "--max-jobs") {
      opts.max_jobs = static_cast<std::size_t>(
          parse_count(a, need(i), SIZE_MAX)); ++i;
    }
    else if (a == "--help" || a == "-h") { usage("help requested"); }
    else { usage(("unknown serve option " + a).c_str()); }
  }
  if (opts.root.empty()) {
    usage("serve needs a queue directory (dvs_sim serve <dir>)");
  }
  if (opts.poll_ms <= 0) usage("--poll-ms must be > 0");
  return serve::run_daemon(opts);
}

}  // namespace dvs::cli
