#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep_paper|fleet_mix|serve_stream
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout.  It builds the simulator libraries, the
dvs-sim binary and the in-process driver from source into .bench_build/,
generates the workload's inputs from --seed, measures for --seconds, checks
every output, prints a human report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  See perfbench/README.md for the workloads and metrics.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(REPO, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DVS_SIM = os.path.join(BUILD, "dvs_tools", "dvs-sim")
DIGESTS = os.path.join(BENCH_DIR, "digests.json")

DEFAULT_SEED = 1
WORKLOADS = ("sweep_paper", "fleet_mix", "serve_stream")
# Fresh processes (or daemons) whose warm-up is timed besides the measuring
# one; set-up time is their median.
SETUP_REPEATS = 7
# serve_stream runs this many streams, each on a fresh daemon and spool,
# and pools their samples; the daemon CPU per job is the median over
# CPU_WINDOWS windows of each stream.
SERVE_STREAMS = 3
CPU_WINDOWS = 4

# serve_stream: an open loop of independent users at a fixed mean rate.
# At 20 jobs/s a shared host slowed 2-3x by other tenants pushed the daemon
# to ~95% busy (~47 ms per job) and half the runs saturated; 10 jobs/s keeps
# it below ~50% busy even then.
SERVE_RATE = 10.0  # jobs/s
SERVE_MIN_JOBS = 200  # >= 10 samples beyond p95
# Saturation guard: a run whose generator fell behind, or whose queue kept
# growing, measured the backlog rather than the daemon; it is invalid.
LATE_LIMIT_MS = 100.0  # generator lateness, p99: half the 200 ms poll
BACKLOG_LIMIT = 40  # deepest queue/ seen at a drop
SERVE_EXIT_TIMEOUT_S = 90.0

# The serve job mix, one cycle: 6/8 run (mp3 clip A), 1/8 sweep quick,
# 1/8 fleet_smoke at 64 devices in shards of 16.
MIX = ("run", "run", "run", "sweep", "run", "run", "run", "fleet")


def log(msg):
    print(msg, flush=True)


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


def quantile(values, q):
    """Linear interpolation between closest ranks (0 for no samples)."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


# ---- build ------------------------------------------------------------------


def build():
    for need in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(REPO, need)):
            fail("no simulator sources here (%s missing); run from the root "
                 "of a full checkout" % need, code=2)
    os.makedirs(BUILD, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % BENCH_DIR not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
                os.makedirs(BUILD)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_driver", "dvs_sim_cli"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(cmd[:2]))


def driver(*args):
    out = subprocess.run([DRIVER, *map(str, args)], stdout=subprocess.PIPE,
                         text=True)
    if out.returncode != 0:
        fail("driver %s exited %d" % (args[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


# ---- output check -----------------------------------------------------------


def load_pins():
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)


def check_pins(workload, digests, seed, quick, write_pins):
    """Compares the run's digests with the pinned ones for the default seed.
    Returns the names that differ."""
    if seed != DEFAULT_SEED or quick:
        return []
    pins = load_pins()
    if write_pins:
        pins[workload] = digests
        with open(DIGESTS, "w") as f:
            json.dump(pins, f, indent=2, sort_keys=True)
            f.write("\n")
        log("pinned %d digests for %s" % (len(digests), workload))
        return []
    pinned = pins.get(workload)
    if pinned is None:
        fail("no pinned digests for %s in %s" % (workload, DIGESTS))
    return sorted(k for k in set(pinned) | set(digests)
                  if pinned.get(k) != digests.get(k))


# ---- sweep_paper / fleet_mix ------------------------------------------------


def run_inprocess(args, work):
    quick = ["--quick"] if args.quick else []
    setups = [driver("setup", args.workload, "--seed", args.seed, *quick)["setup_s"]
              for _ in range(0 if args.quick else SETUP_REPEATS)]
    res = driver("measure", args.workload, "--seed", args.seed,
                 "--seconds", args.seconds, "--trace", args.trace,
                 "--out", work, *quick)
    setups.append(res["setup_s"])
    first = os.path.join(work, "first")
    digests = {name: sha(os.path.join(first, name))
               for name in sorted(os.listdir(first))}
    res["setup_s"] = statistics.median(setups)
    res["setup_samples"] = len(setups)
    return res, digests


# ---- serve_stream -----------------------------------------------------------


def serve_specs(seed):
    """The fixed set of job specs the stream cycles through.  The run jobs
    take their seeds from the workload seed; the sweep and fleet jobs keep
    their scenarios' own seeds, so that every stream does the same amount
    of simulation (fleet_mix varies the population instead)."""
    rng = random.Random("serve_stream/%d" % seed)
    specs = []
    for kind in MIX:
        doc = {"schema": "dvs-job-v1", "kind": kind}
        if kind == "run":
            doc["seed"] = rng.randrange(1, 2**31)
            doc["run"] = {"media": "mp3", "sequence": "A"}
        elif kind == "sweep":
            doc["sweep"] = {"scenario": "quick"}
        else:
            doc["fleet"] = {"name": "fleet_smoke", "devices": 64,
                            "shard_size": 16}
        specs.append(json.dumps(doc, sort_keys=True) + "\n")
    return specs


def drop(queue, stem, text):
    """Enqueue the way users do: write a dotfile, rename it into queue/."""
    tmp = os.path.join(queue, "." + stem + ".tmp")
    with open(tmp, "w") as f:
        f.write(text)
    os.rename(tmp, os.path.join(queue, stem + ".json"))


def read_events(root):
    path = os.path.join(root, "events.jsonl")
    events = []
    if not os.path.exists(path):
        return events
    with open(path) as f:
        for line in f:
            try:
                ev = json.loads(line)
            except ValueError:
                break  # torn tail
            if "event" in ev:
                events.append(ev)
    return events


def proc_hwm_mb(pid):
    """Peak resident set (VmHWM).  The rusage ru_maxrss of an exec'd child
    also counts this process's memory from before the exec."""
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for pid %d" % pid)


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Daemon:
    """One `dvs-sim serve` subprocess on its own spool root, always reaped."""

    def __init__(self, root, max_jobs, drain):
        self.root = root
        for d in ("queue", "done", "failed"):
            os.makedirs(os.path.join(root, d), exist_ok=True)
        self.max_jobs = max_jobs
        self.drain = drain
        self.proc = None
        self.spawned = 0.0
        self.rusage = None

    def start(self):
        cmd = [DVS_SIM, "serve", self.root, "--jobs", "1",
               "--max-jobs", str(self.max_jobs)]
        if self.drain:
            cmd.append("--drain")
        self.log = open(os.path.join(self.root, "daemon.log"), "w")
        self.spawned = time.time()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_finished(self, ids, timeout):
        """Unix time the last of `ids` finished, from events.jsonl."""
        deadline = time.time() + timeout
        while time.time() < deadline:
            done = {e["job"]: e["ts"] for e in read_events(self.root)
                    if e["event"] in ("job_finished", "job_failed")}
            if all(i in done for i in ids):
                return max(done[i] for i in ids)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("jobs did not finish: daemon exited or timed out")

    def reap(self, timeout):
        """Waits for the exit; kills on timeout.  Returns the exit status."""
        deadline = time.time() + timeout
        while True:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self.rusage = ru
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.time() > deadline:
                self.proc.send_signal(signal.SIGKILL)
                _, status, ru = os.wait4(self.proc.pid, 0)
                self.rusage = ru
                self.proc.returncode = -9
                break
            time.sleep(0.01)
        self.log.close()
        return self.proc.returncode

    def kill(self):
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGKILL)
            self.reap(10.0)


def warm_up(daemon, specs):
    """Drops one job of each kind before the daemon starts; returns the
    daemon's set-up time: spawn to the last warm-up landing in done/."""
    ids = []
    for kind in ("run", "sweep", "fleet"):
        k = MIX.index(kind)
        stem = "a-warm-%d-%s" % (k, kind)
        drop(os.path.join(daemon.root, "queue"), stem, specs[k])
        ids.append(stem)
    daemon.start()
    return daemon.wait_finished(ids, 60.0) - daemon.spawned, ids


def job_csvs(out_dir):
    return sorted(n for n in os.listdir(out_dir) if n.endswith(".csv"))


def run_stream(root, specs, offsets, setups):
    """One stream: a fresh daemon on an empty spool root, its warm-up, then
    the scheduled drops.  Returns the raw observations."""
    # One spare job of budget: the daemon must outlive the stream so its
    # peak RSS can be read before it exits.
    daemon = Daemon(root, 3 + len(offsets) + 1, drain=False)
    try:
        setup_s, warm_ids = warm_up(daemon, specs)
        setups.append(setup_s)
        pid = daemon.proc.pid
        cpu_at_setup = proc_cpu_s(pid)
        queue = os.path.join(root, "queue")
        drops = []  # (stem, spec index, due, dropped, depth, daemon cpu s)
        t0 = time.time() + 0.05
        for i, off in enumerate(offsets):
            due = t0 + off
            wait = due - time.time()
            if wait > 0:
                time.sleep(wait)
            k = i % len(MIX)
            stem = "s%06d-spec%d" % (i, k)
            drop(queue, stem, specs[k])
            dropped = time.time()
            depth = sum(1 for n in os.listdir(queue) if not n.startswith("."))
            drops.append((stem, k, due, dropped, depth, proc_cpu_s(pid)))
        daemon.wait_finished([d[0] for d in drops], SERVE_EXIT_TIMEOUT_S)
        rss_mb = proc_hwm_mb(pid)
        daemon.proc.send_signal(signal.SIGTERM)
        if daemon.reap(30.0) != 0:
            log("serve: daemon exited with %d" % daemon.proc.returncode)
    finally:
        daemon.kill()
    ru = daemon.rusage
    events = read_events(root)
    return {
        "root": root, "warm_ids": warm_ids, "drops": drops, "rss_mb": rss_mb,
        "cpu_s": ru.ru_utime + ru.ru_stime - cpu_at_setup,
        "claimed": {e["job"]: e["ts"] for e in events
                    if e["event"] == "job_claimed"},
        "finished": {e["job"]: e["ts"] for e in events
                     if e["event"] == "job_finished"},
    }


def saturation(drops, caught_up):
    """Reasons this stream measured a backlog rather than the daemon.
    `caught_up` holds the times the daemon finished a job with none queued."""
    late = [1e3 * (dropped - due) for _, _, due, dropped, *_ in drops]
    depths = [d[4] for d in drops]
    half = drops[len(drops) // 2][3]
    why = []
    if quantile(late, 0.99) > LATE_LIMIT_MS:
        why.append("generator p99 lateness %.1f ms > %.0f ms"
                   % (quantile(late, 0.99), LATE_LIMIT_MS))
    if max(depths) > BACKLOG_LIMIT:
        why.append("backlog reached %d > %d" % (max(depths), BACKLOG_LIMIT))
    if not any(t > half for t in caught_up):
        why.append("backlog grew: the daemon never emptied the queue in the "
                   "second half of a stream")
    return why, late, depths


def run_serve(args, work):
    specs = serve_specs(args.seed)
    spec_dir = os.path.join(work, "specs")
    os.makedirs(spec_dir)
    for k, text in enumerate(specs):
        with open(os.path.join(spec_dir, "spec%d.json" % k), "w") as f:
            f.write(text)
    n_jobs = 16 if args.quick else max(SERVE_MIN_JOBS,
                                       int(round(SERVE_RATE * args.seconds)))
    n_streams = 1 if args.quick else SERVE_STREAMS
    rng = random.Random("serve_stream/schedule/%d" % args.seed)

    setups = []
    for r in range(0 if args.quick else SETUP_REPEATS + 1 - n_streams):
        d = Daemon(os.path.join(work, "setup%d" % r), 3, drain=True)
        try:
            setups.append(warm_up(d, specs)[0])
            d.reap(30.0)
        finally:
            d.kill()
    streams = []
    for s in range(n_streams):
        per = n_jobs // n_streams + (1 if s < n_jobs % n_streams else 0)
        span = per / SERVE_RATE
        # A Poisson process conditioned on `per` arrivals in [0, span].
        offsets = sorted(rng.uniform(0.0, span) for _ in range(per))
        streams.append(run_stream(os.path.join(work, "spool%d" % s), specs,
                                  offsets, setups))

    # Output check: every job of one spec writes the same bytes.
    reference, digests = {}, {}
    attempted = failed = 0
    turnaround, queue_wait, bookkeeping, idle, late, depths = [], [], [], [], [], []
    cpu_windows, exec_ms, saturated = [], {}, []
    frames = busy = cpu_s = 0.0
    for st in streams:
        drops, claimed, finished = st["drops"], st["claimed"], st["finished"]
        done = os.path.join(st["root"], "done")
        jobs = [(stem, int(stem.split("-")[2])) for stem in st["warm_ids"]]
        jobs += [(stem, k) for stem, k, *_ in drops]
        attempted += len(jobs)
        for stem, k in jobs:
            out_dir = os.path.join(done, stem + ".out")
            if stem not in finished or not os.path.isdir(out_dir):
                failed += 1
                continue
            got = {n: sha(os.path.join(out_dir, n)) for n in job_csvs(out_dir)}
            if k not in reference:
                reference[k] = got
                for n, h in got.items():
                    digests["spec%d/%s" % (k, n)] = h
            elif got != reference[k]:
                failed += 1

        ok = [d for d in drops if d[0] in claimed and d[0] in finished]
        turnaround += [1e3 * (finished[s] - due) for s, _, due, *_ in ok]
        queue_wait += [1e3 * (claimed[s] - dropped) for s, _, _, dropped, *_ in ok]
        # The daemon's own rate: the stream jobs' simulated frames over its
        # busy time, their claim-to-finish intervals.  Unlike the stream's
        # wall time, this does not follow the offered load below saturation.
        for s, k, *_ in ok:
            exec_ms.setdefault(MIX[k], []).append(1e3 * (finished[s] - claimed[s]))
            busy += finished[s] - claimed[s]
            with open(os.path.join(done, s + ".out", "job_summary.json")) as f:
                summary = json.load(f)
            frames += summary["frames_decoded"] + summary["frames_dropped"]
        # Gaps between one job's finish and the next claim, split by whether
        # the next job was already waiting (bookkeeping) or not (idle poll).
        order = sorted((claimed[s], s, dropped) for s, _, _, dropped, *_ in ok)
        caught_up = []
        for (_, prev, _), (c, _, dropped) in zip(order, order[1:]):
            gap = 1e3 * (c - finished[prev])
            if dropped < finished[prev]:
                bookkeeping.append(gap)
            else:
                idle.append(gap)
                caught_up.append(finished[prev])
        why, st_late, st_depths = saturation(drops, caught_up)
        saturated += why
        late += st_late
        depths += st_depths
        # Daemon CPU per job over windows of drops, from the /proc samples
        # and the jobs that finished between each window's ends.
        ends = [round(w * (len(drops) - 1) / CPU_WINDOWS)
                for w in range(CPU_WINDOWS + 1)]
        for a, b in zip(ends, ends[1:]):
            t_a, t_b = drops[a][3], drops[b][3]
            n = sum(1 for t in finished.values() if t_a < t <= t_b)
            if n:
                cpu_windows.append(1e3 * (drops[b][5] - drops[a][5]) / n)
        cpu_s += st["cpu_s"]
        st["wall"] = (max(finished[s] for s, *_ in ok) -
                      min(claimed[s] for s, *_ in ok))
        st["jobs"] = len(ok)

    n_done = len(turnaround)
    res = {
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "frames_per_s": frames / busy if busy > 0 else 0.0,
        "serve.busy_s": busy,
        "job_turnaround_p50_ms": quantile(turnaround, 0.5),
        "job_turnaround_p95_ms": quantile(turnaround, 0.95),
        "job_turnaround_samples": n_done,
        "cpu_ms_per_job": statistics.median(cpu_windows),
        "cpu_ms_per_job_whole_streams": 1e3 * cpu_s / max(1, n_done),
        "cpu_windows": len(cpu_windows),
        "peak_rss_mb": max(st["rss_mb"] for st in streams),
        "streams": len(streams),
        "attempted": attempted,
        "failed": failed,
        "serve.queue_wait_ms_p50": quantile(queue_wait, 0.5),
        "serve.queue_wait_ms_p95": quantile(queue_wait, 0.95),
        "serve.queue_wait_samples": len(queue_wait),
        "serve.bookkeeping_ms_p50": quantile(bookkeeping, 0.5),
        "serve.bookkeeping_ms_p95": quantile(bookkeeping, 0.95),
        "serve.bookkeeping_samples": len(bookkeeping),
        "serve.idle_gaps": len(idle),
        "loadgen.late_ms_p99": quantile(late, 0.99),
        "loadgen.backlog_max": max(depths),
        "saturated": saturated,
    }
    for kind, v in sorted(exec_ms.items()):
        res["serve.exec_ms_p50." + kind] = quantile(v, 0.5)
        res["serve.exec_samples." + kind] = len(v)

    if args.trace:
        probe = driver("serve-probe", "--root", streams[-1]["root"],
                       "--jobs-dir", spec_dir, "--out", work)
        res.update(probe)
        # Each stream's timeline from its first stream claim to its last
        # finish, against the layers that fill it.  The engine share is the
        # traced in-process replay of one mix cycle, once per cycle run.
        stream_wall = sum(st["wall"] for st in streams)
        cycles = sum(st["jobs"] for st in streams) / len(MIX)
        engine_s = cycles * probe["bench.replay_layer_sum_s"]
        layer_s = engine_s + (sum(bookkeeping) + sum(idle)) / 1e3
        res["bench.stream_wall_s"] = stream_wall
        res["bench.engine_s"] = engine_s
        res["bench.bookkeeping_s"] = sum(bookkeeping) / 1e3
        res["bench.idle_s"] = sum(idle) / 1e3
        res["bench.residual_pct"] = 100.0 * (stream_wall - layer_s) / stream_wall
    return res, digests


# ---- report -----------------------------------------------------------------


def report(workload, res, digests, metrics):
    log("== perfbench %s" % workload)
    for name, value in sorted(res.items()):
        if isinstance(value, (int, float)):
            unit = metrics.get(name, {}).get("unit", "")
            log("  %-40s %16.6g %s" % (name, value, unit))
        elif isinstance(value, str):
            log("  %-40s %s" % (name, value))
    for name, h in sorted(digests.items()):
        log("  digest %-33s %s" % (name, h))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes for the smoke test; no pinned digests")
    ap.add_argument("--write-pins", action="store_true",
                    help="re-pin the default seed's output digests")
    args = ap.parse_args()

    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    build()
    work = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                      os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        if args.workload == "serve_stream":
            res, digests = run_serve(args, work)
        else:
            res, digests = run_inprocess(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatched = check_pins(args.workload, digests, args.seed, args.quick,
                            args.write_pins)
    attempted = int(res["attempted"])
    failed = attempted if mismatched else int(res["failed"])
    for name in mismatched:
        log("output check: %s differs from its pinned digest" % name)
    res["failed_frac"] = failed / attempted if attempted else 1.0

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    report(args.workload, res, digests, units)
    saturated = res.get("saturated", [])
    for why in saturated:
        log("INVALID: %s; latencies not reported" % why)
    metrics = {}
    for m in wanted:
        if saturated and m["name"].startswith("job_turnaround"):
            continue
        if m["name"] not in res:
            fail("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": res[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0 and not saturated,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
