#!/usr/bin/env python3
"""End-to-end smoke test for the dvs_sim CLI observability surface.

Runs the binary (path in argv[1]) on a change-point + TISMDP workload with
--metrics-json - and --chrome-trace, then checks that:
  * stdout is a single valid JSON document (human report goes to stderr),
  * counters report a sane run (frames decoded, detector active),
  * the Chrome trace is valid JSON with monotonically non-decreasing
    timestamps and contains governor, detector, and DPM activity.
"""

import json
import subprocess
import sys
import tempfile
import os


def fail(msg):
    print("FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def main():
    if len(sys.argv) != 2:
        fail("usage: cli_smoke_test.py <path-to-dvs-sim>")
    binary = sys.argv[1]

    with tempfile.TemporaryDirectory() as tmp:
        chrome = os.path.join(tmp, "trace.json")
        cmd = [
            binary, "run",
            "--media", "mp3",
            "--sequence", "AC",
            "--seconds", "30",
            "--detector", "change-point",
            "--dpm", "tismdp",
            "--metrics-json", "-",
            "--chrome-trace", chrome,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"exit code {proc.returncode}\nstderr:\n{proc.stderr}")

        # stdout must be pure JSON (the human report went to stderr).
        try:
            metrics = json.loads(proc.stdout)
        except json.JSONDecodeError as e:
            fail(f"stdout is not valid JSON: {e}\nstdout:\n{proc.stdout[:2000]}")
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                fail(f"metrics JSON missing section {section!r}")

        counters = metrics["counters"]
        if counters.get("frames_decoded", 0) <= 0:
            fail(f"frames_decoded not positive: {counters}")
        if counters.get("frames_arrived", 0) < counters["frames_decoded"]:
            fail("more frames decoded than arrived")
        if counters.get("detector.decisions", 0) <= 0:
            fail("change-point detector never evaluated a decision")
        if counters.get("trace.events_recorded", 0) <= 0:
            fail("trace recorder saw no events despite an attached sink")
        if metrics["gauges"].get("energy_j", 0.0) <= 0.0:
            fail("energy gauge not positive")
        if "frames.delay_s" not in metrics["histograms"]:
            fail("frame-delay histogram missing")
        if "mean frame delay" not in proc.stderr:
            fail("human-readable report did not go to stderr")

        # Chrome trace: valid JSON, monotone timestamps, expected content.
        with open(chrome) as f:
            trace = json.load(f)
        events = trace if isinstance(trace, list) else trace["traceEvents"]
        if not events:
            fail("chrome trace is empty")
        ts = [e["ts"] for e in events]
        if any(b < a for a, b in zip(ts, ts[1:])):
            fail("chrome trace timestamps are not monotonically non-decreasing")
        names = {e["name"] for e in events}
        for needed in ("freq_commit", "cpu_mhz", "decode", "idle_enter",
                       "wakeup"):
            if needed not in names:
                fail(f"chrome trace missing expected event name {needed!r}; "
                     f"saw {sorted(names)}")
        if not any(n.startswith("sleep:") for n in names):
            fail("chrome trace has no DPM sleep commands")
        if not any(n.startswith("rate_") for n in names):
            fail("chrome trace has no detector rate activity")

    # Kernel events per decoded frame: a frame's arrival and its decode
    # completion are its only kernel events (WLAN on/off, decode start and
    # the memory release keep their kernel position off the heap, and the
    # DPM idle filter is not scheduled when the pending arrival would
    # cancel it), so the default runs of both media read about 2.0.
    for media in ("mp3", "mpeg"):
        proc = subprocess.run(
            [binary, "run", "--media", media, "--metrics-json", "-"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"`run --media {media}` exit code {proc.returncode}\n"
                 f"{proc.stderr}")
        run_counters = json.loads(proc.stdout)["counters"]
        decoded = run_counters.get("frames_decoded", 0)
        scheduled = run_counters.get("sim.events_scheduled", 0)
        if decoded <= 0:
            fail(f"`run --media {media}` decoded no frames: {run_counters}")
        if scheduled / decoded > 2.1:
            fail(f"`run --media {media}` scheduled {scheduled} kernel events "
                 f"for {decoded} frames ({scheduled / decoded:.2f} per frame, "
                 f"limit 2.1)")
        cancelled = run_counters.get("sim.events_cancelled", 0)
        if media == "mp3" and cancelled / decoded > 0.01:
            fail(f"`run --media mp3` cancelled {cancelled} kernel events "
                 f"for {decoded} frames ({cancelled / decoded:.3f} per frame, "
                 f"limit 0.01)")

    # A small sweep through the scenario runner, parallel, with CSV export
    # and metrics emission.
    with tempfile.TemporaryDirectory() as tmp:
        csv_base = os.path.join(tmp, "quick")
        cmd = [
            binary, "sweep", "quick",
            "--jobs", "2",
            "--metrics-json", "-",
            "--sweep-csv", csv_base,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"`sweep quick` exit code {proc.returncode}\n{proc.stderr}")
        try:
            sweep_metrics = json.loads(proc.stdout)
        except json.JSONDecodeError as e:
            fail(f"sweep metrics JSON invalid: {e}\n{proc.stdout[:2000]}")
        if sweep_metrics["counters"].get("sweep.points", 0) <= 0:
            fail(f"sweep.points counter missing: {sweep_metrics['counters']}")
        if "Change Point" not in proc.stderr:
            fail(f"sweep cell table did not list the detector:\n{proc.stderr}")
        for suffix in ("_cells.csv", "_points.csv"):
            path = csv_base + suffix
            if not os.path.exists(path):
                fail(f"--sweep-csv did not write {path}")
            with open(path) as f:
                lines = [l for l in f.read().splitlines() if l]
            if len(lines) < 2:
                fail(f"{path} has no data rows")

    # Faulted sweep: the fault axis replaces the scenario's, the cell table
    # grows a Faults column, and the points CSV carries degradation columns.
    with tempfile.TemporaryDirectory() as tmp:
        csv_base = os.path.join(tmp, "faulted")
        cmd = [
            binary, "sweep", "quick",
            "--faults", "spike10x",
            "--jobs", "2",
            "--metrics-json", "-",
            "--sweep-csv", csv_base,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"faulted sweep exit code {proc.returncode}\n{proc.stderr}")
        fault_metrics = json.loads(proc.stdout)
        if fault_metrics["counters"].get("sweep.recoveries", 0) <= 0:
            fail(f"spike10x sweep reported no watchdog recoveries: "
                 f"{fault_metrics['counters']}")
        if "spike10x" not in proc.stderr:
            fail(f"sweep cell table did not show the fault column:\n"
                 f"{proc.stderr}")
        with open(csv_base + "_points.csv") as f:
            header = f.readline().strip().split(",")
        for col in ("faults", "faults_injected", "escalations", "recoveries",
                    "time_degraded_s"):
            if col not in header:
                fail(f"points CSV missing column {col!r}: {header}")

    # Single-run fault injection: perturbations + watchdog on one trace.
    proc = subprocess.run(
        [binary, "run", "--media", "mp3", "--sequence", "A",
         "--detector", "change-point", "--faults", "spike10x"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"single-run --faults exit code {proc.returncode}\n{proc.stderr}")
    if "watchdog" not in proc.stdout:
        fail(f"single-run fault report missing watchdog line:\n{proc.stdout}")

    # Unknown fault names must fail loudly.
    proc = subprocess.run([binary, "sweep", "quick",
                           "--faults", "no-such-fault"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("--faults no-such-fault unexpectedly succeeded")

    # ---- subcommand surface (`dvs_sim run|sweep|fleet|serve|report|list`) --

    # `list scenarios` / `list faults` enumerate the registries.
    proc = subprocess.run([binary, "list", "scenarios"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"`list scenarios` exit code {proc.returncode}\n{proc.stderr}")
    for name in ("table3", "table5", "quick"):
        if name not in proc.stdout:
            fail(f"`list scenarios` output missing {name!r}:\n{proc.stdout}")
    proc = subprocess.run([binary, "list", "faults"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"`list faults` exit code {proc.returncode}\n{proc.stderr}")
    for name in ("none", "spike10x", "wakeup-flaky", "chaos"):
        if name not in proc.stdout:
            fail(f"`list faults` output missing {name!r}:\n{proc.stdout}")
    # Bare `list` prints both tables.
    proc = subprocess.run([binary, "list"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or "table3" not in proc.stdout \
            or "spike10x" not in proc.stdout:
        fail(f"bare `list` did not print both tables:\n{proc.stdout}")

    # Bad subcommand surface: unknown commands are a usage error (exit 2)
    # whose message names the real subcommands — the legacy flag-only
    # spelling is gone and must not silently run anything.
    for bad in (["frobnicate"],
                ["--media", "mp3", "--sequence", "A"],
                ["--scenario", "quick"]):
        proc = subprocess.run([binary] + bad,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 2:
            fail(f"unknown invocation {bad} should exit 2, "
                 f"got {proc.returncode}")
        err = proc.stderr
        for word in ("run", "sweep", "fleet", "serve", "report", "list"):
            if word not in err:
                fail(f"usage error for {bad} does not name {word!r}:\n{err}")
    # Malformed numbers and unknown clip names are usage errors (exit 2)
    # naming the flag — not an uncaught exception (exit 134), a silently
    # truncated value, a wrapped-around seed, or a substituted clip.
    for args, flag in ((["run", "--seconds", "abc"], "--seconds"),
                       (["run", "--session", "--cycles", "3x"], "--cycles"),
                       (["run", "--seed", "-1"], "--seed"),
                       (["run", "--delay", "0.1s"], "--delay"),
                       (["run", "--telemetry-every", "nan"],
                        "--telemetry-every"),
                       (["sweep", "quick", "--jobs", "2.5"], "--jobs"),
                       (["run", "--media", "mpeg", "--clip", "fooball"],
                        "fooball"),
                       # Values the job validator rejects: the run would
                       # otherwise die on an engine check (exit 134).
                       (["run", "--sequence", "XYZ"], "XYZ"),
                       (["run", "--sequence", ""], "sequence"),
                       (["run", "--session", "--cycles", "0"], "cycles"),
                       (["run", "--cv2", "-1"], "cv2"),
                       (["run", "--dpm", "tismdp", "--dpm-delay", "-1"],
                        "dpm_delay")):
        proc = subprocess.run([binary] + args,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 2 or flag not in proc.stderr:
            fail(f"`{' '.join(args)}` should be a usage error naming {flag} "
                 f"(exit 2), got {proc.returncode}\n{proc.stderr}")
    # An unknown --dpm kind is a usage error that lists the known kinds.
    proc = subprocess.run([binary, "run", "--dpm", "tismdp-dp"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 2 or "tismdp-dp" not in proc.stderr \
            or "adaptive" not in proc.stderr:
        fail(f"`run --dpm tismdp-dp` should be a usage error listing the "
             f"known kinds (exit 2), got {proc.returncode}\n{proc.stderr}")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([binary, "tail", tmp, "--since", "x1"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 2 or "--since" not in proc.stderr:
            fail(f"`tail --since x1` should be a usage error (exit 2), "
                 f"got {proc.returncode}\n{proc.stderr}")
    proc = subprocess.run([binary, "sweep"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("`sweep` with no scenario unexpectedly succeeded")
    proc = subprocess.run([binary, "sweep", "no-such"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("`sweep no-such` unexpectedly succeeded")

    # `list schemas` names every versioned artifact schema.
    proc = subprocess.run([binary, "list", "schemas"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"`list schemas` exit code {proc.returncode}\n{proc.stderr}")
    for schema in ("dvs-job-v1", "dvs-checkpoint-v1", "dvs-metrics-v1",
                   "dvs-ledger-v1", "dvs-sketch-v1", "dvs-events-v1",
                   "dvs-serve-status-v1", "dvs-job-summary-v1"):
        if schema not in proc.stdout:
            fail(f"`list schemas` output missing {schema!r}:\n{proc.stdout}")

    # ---- serve: file-drop job queue, drain mode ----------------------------

    # A valid job travels queue/ -> done/ with artifacts; a malformed one
    # lands in failed/ with an error note.
    with tempfile.TemporaryDirectory() as tmp:
        queue = os.path.join(tmp, "queue")
        os.makedirs(queue)
        with open(os.path.join(queue, "ok.json"), "w") as f:
            json.dump({"schema": "dvs-job-v1", "kind": "run",
                       "run": {"media": "mp3", "sequence": "A",
                               "detector": "max"}}, f)
        with open(os.path.join(queue, "broken.json"), "w") as f:
            f.write("{not json")
        proc = subprocess.run([binary, "serve", tmp, "--drain"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"`serve --drain` exit code {proc.returncode}\n{proc.stderr}")
        if not os.path.exists(os.path.join(tmp, "done", "ok.json")):
            fail("serve did not move the valid job to done/")
        run_csv = os.path.join(tmp, "done", "ok.out", "run.csv")
        if not os.path.exists(run_csv):
            fail("serve did not write run.csv for the completed job")
        with open(run_csv) as f:
            if len([l for l in f.read().splitlines() if l]) != 2:
                fail("serve run.csv is not header + one data row")
        if not os.path.exists(os.path.join(tmp, "failed", "broken.json")):
            fail("serve did not move the malformed job to failed/")
        if not os.path.exists(os.path.join(tmp, "failed",
                                           "broken.error.txt")):
            fail("serve did not leave an error note for the failed job")

        # Telemetry plane: the drained daemon leaves a readable status
        # snapshot, event log, and metrics scrape behind.
        proc = subprocess.run([binary, "status", tmp, "--json"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"`status --json` exit {proc.returncode}\n{proc.stderr}")
        status = json.loads(proc.stdout)
        if status.get("schema") != "dvs-serve-status-v1":
            fail(f"status.json schema is {status.get('schema')!r}")
        if status.get("state") != "stopped":
            fail(f"drained daemon status not 'stopped': {status}")
        proc = subprocess.run([binary, "status", tmp],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0 or "daemon: stopped" not in proc.stdout:
            fail(f"human `status` missing daemon line:\n{proc.stdout}")
        proc = subprocess.run([binary, "tail", tmp, "--no-follow"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"`tail --no-follow` exit {proc.returncode}\n{proc.stderr}")
        for event in ("daemon_start", "job_finished", "job_failed",
                      "daemon_stop"):
            if event not in proc.stdout:
                fail(f"`tail` output missing {event!r}:\n{proc.stdout}")
        if not os.path.exists(os.path.join(tmp, "metrics.om")):
            fail("serve did not write metrics.om")
        summary = os.path.join(tmp, "done", "ok.out", "job_summary.json")
        if not os.path.exists(summary):
            fail("serve did not write job_summary.json for the done job")

    # A run job and its `dvs-sim run` spelling make the same run: the CLI
    # parses its flags into the same dvs-job-v1 request and resolves it
    # the same way.  The three workload shapes of the obs_golden configs.
    shapes = (
        ({"media": "mp3", "sequence": "A", "detector": "change-point",
          "dpm": "tismdp"},
         ["--media", "mp3", "--sequence", "A", "--detector", "change-point",
          "--dpm", "tismdp"]),
        ({"media": "mpeg", "clip": "football", "seconds": 30,
          "faults": "spike10x"},
         ["--media", "mpeg", "--clip", "football", "--seconds", "30",
          "--faults", "spike10x"]),
        ({"session": True, "cycles": 1, "seconds": 20, "dpm": "tismdp",
          "faults": "wakeup-flaky,freq-stuck"},
         ["--session", "--cycles", "1", "--seconds", "20", "--dpm", "tismdp",
          "--faults", "wakeup-flaky,freq-stuck"]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        queue = os.path.join(tmp, "queue")
        os.makedirs(queue)
        for i, (run, _) in enumerate(shapes):
            with open(os.path.join(queue, f"shape{i}.json"), "w") as f:
                json.dump({"schema": "dvs-job-v1", "kind": "run",
                           "run": run}, f)
        proc = subprocess.run([binary, "serve", tmp, "--drain"],
                              capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"`serve --drain` of run shapes exit {proc.returncode}\n"
                 f"{proc.stderr}")
        for i, (_, flags) in enumerate(shapes):
            with open(os.path.join(tmp, "done", f"shape{i}.out",
                                   "job_summary.json")) as f:
                job = json.load(f)
            proc = subprocess.run([binary, "run"] + flags +
                                  ["--metrics-json", "-"],
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                fail(f"`run {' '.join(flags)}` exit {proc.returncode}\n"
                     f"{proc.stderr}")
            cli = json.loads(proc.stdout)
            # The summary keeps %.17g; the metrics JSON prints %.9g.
            got = (cli["counters"]["frames_decoded"],
                   cli["counters"]["frames_dropped"],
                   cli["gauges"]["energy_j"])
            want = (job["frames_decoded"], job["frames_dropped"],
                    float("%.9g" % job["energy_j"]))
            if got != want:
                fail(f"run job and `run {' '.join(flags)}` disagree: "
                     f"job {want}, cli {got}")

    # serve usage errors: missing root and unknown flags exit 2.
    proc = subprocess.run([binary, "serve"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"bare `serve` should exit 2, got {proc.returncode}")
    # Non-numeric and negative counts are usage errors too, not an uncaught
    # exception (exit 134) or a silent wrap-around.  --drain keeps a daemon
    # that wrongly starts from serving forever.
    with tempfile.TemporaryDirectory() as tmp:
        for flag, value in (("--poll-ms", "abc"), ("--jobs", "x"),
                            ("--max-jobs", "-1")):
            proc = subprocess.run([binary, "serve", tmp, "--drain", flag,
                                   value],
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 2 or flag not in proc.stderr:
                fail(f"`serve {flag} {value}` should be a usage error "
                     f"(exit 2), got {proc.returncode}\n{proc.stderr}")

    # ---- observability surface: ledger, flight recorder, report ------------

    # S2: with --metrics-json - every other textual output must stay off
    # stdout — prose, saved-trace notes, and the ledger all go elsewhere.
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "run.ledger.json")
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "A",
             "--seconds", "20", "--detector", "change-point",
             "--metrics-json", "-", "--ledger-json", ledger_path],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"run with stdout metrics exit {proc.returncode}\n"
                 f"{proc.stderr}")
        try:
            json.loads(proc.stdout)
        except json.JSONDecodeError as e:
            fail(f"--ledger-json note polluted stdout JSON: {e}\n"
                 f"{proc.stdout[:2000]}")
        if "ledger json ->" not in proc.stderr:
            fail("ledger-written note missing from stderr")

        # --save-trace short-circuits the run; its note must follow the
        # metrics stream off stdout too.
        saved = os.path.join(tmp, "saved.trace")
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "A",
             "--metrics-json", "-", "--save-trace", saved],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"--save-trace exit {proc.returncode}\n{proc.stderr}")
        if proc.stdout.strip():
            fail(f"--save-trace wrote prose onto the JSON stdout stream:\n"
                 f"{proc.stdout[:500]}")
        if "wrote" not in proc.stderr:
            fail("saved-trace note missing from stderr")

    # Two JSON documents cannot share stdout: that is a usage error.
    proc = subprocess.run(
        [binary, "run", "--media", "mp3", "--sequence", "A",
         "--metrics-json", "-", "--ledger-json", "-"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"--metrics-json - --ledger-json - should exit 2, "
             f"got {proc.returncode}")

    # Full artifact run -> `report` renders every section.
    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "run.ledger.json")
        metrics_path = os.path.join(tmp, "run.metrics.json")
        jsonl_path = os.path.join(tmp, "run.trace.jsonl")
        flight_path = os.path.join(tmp, "run.flight.txt")
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "AC",
             "--seconds", "30", "--detector", "change-point",
             "--dpm", "tismdp", "--ledger-json", ledger_path,
             "--metrics-json", metrics_path, "--trace-jsonl", jsonl_path,
             "--flight-dump", flight_path],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"artifact run exit {proc.returncode}\n{proc.stderr}")

        # The ledger reconciles with the metrics totals (the C++ suite pins
        # 1e-9; this guards the serialized artifacts end to end).
        with open(ledger_path) as f:
            ledger = json.load(f)
        if ledger.get("schema") != "dvs-ledger-v1":
            fail(f"ledger schema wrong: {ledger.get('schema')!r}")
        with open(metrics_path) as f:
            run_metrics = json.load(f)
        total_e = ledger["totals"]["energy_j"]
        gauge_e = run_metrics["gauges"]["energy_j"]
        if abs(total_e - gauge_e) > 1e-6 * max(abs(total_e), abs(gauge_e)):
            fail(f"ledger energy {total_e} != metrics gauge {gauge_e}")
        if sum(row["energy_j"] for row in ledger["energy"]) <= 0.0:
            fail("ledger has no positive energy rows")

        proc = subprocess.run(
            [binary, "report", "--ledger-json", ledger_path,
             "--metrics-json", metrics_path, "--trace-jsonl", jsonl_path],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"report exit {proc.returncode}\n{proc.stderr}")
        for section in ("== attribution ledger", "== metrics",
                        "== decision timeline", "by cause",
                        "delay percentiles"):
            if section not in proc.stdout:
                fail(f"report output missing {section!r}:\n"
                     f"{proc.stdout[:3000]}")

        # A clean run must not auto-dump the flight recorder.
        if os.path.exists(flight_path):
            fail("flight recorder dumped on a healthy run")

    # Fault scenario: the watchdog/fault trigger auto-dumps the flight
    # recorder, and the dump replays through `report`.
    with tempfile.TemporaryDirectory() as tmp:
        flight_path = os.path.join(tmp, "fault.flight.txt")
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "A",
             "--detector", "change-point", "--faults", "spike10x",
             "--flight-dump", flight_path],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"faulted run exit {proc.returncode}\n{proc.stderr}")
        if not os.path.exists(flight_path):
            fail("fault run did not auto-dump the flight recorder")
        with open(flight_path) as f:
            head = f.read(4096)
        if not head.startswith("# dvs-flight-recorder-v1"):
            fail(f"flight dump header wrong:\n{head[:200]}")
        if "watchdog-escalate" not in head and "fault-injected" not in head:
            fail(f"flight dump reason not an anomaly:\n{head[:200]}")

        proc = subprocess.run(
            [binary, "report", "--flight-dump", flight_path],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"report --flight-dump exit {proc.returncode}\n{proc.stderr}")
        if "== flight recorder" not in proc.stdout:
            fail(f"flight report missing section:\n{proc.stdout[:2000]}")
        if "== decision timeline" not in proc.stdout:
            fail("flight report produced no timeline")

    # Corrupt inputs fail loudly with exit 1, not a crash or silence.
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        with open(bad, "w") as f:
            f.write("{\"schema\": \"dvs-ledger-v1\", \"totals\": ")
        proc = subprocess.run([binary, "report", "--ledger-json", bad],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 1:
            fail(f"report on corrupt JSON should exit 1, "
                 f"got {proc.returncode}")
    # `report` with no inputs is a usage error.
    proc = subprocess.run([binary, "report"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"bare `report` should exit 2, got {proc.returncode}")

    # Sweep progress stream: one telemetry snapshot per executed point,
    # done running 1..N to the total.  --telemetry-every is a run-only
    # cadence, so it must not thin the sweep's records.
    with tempfile.TemporaryDirectory() as tmp:
        tel = os.path.join(tmp, "progress.jsonl")
        proc = subprocess.run(
            [binary, "sweep", "quick", "--jobs", "2", "--telemetry-jsonl",
             tel, "--telemetry-every", "1000"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"sweep --telemetry-jsonl exit {proc.returncode}\n"
                 f"{proc.stderr}")
        with open(tel) as f:
            live = [json.loads(l)["live"] for l in f.read().splitlines() if l]
        if not live:
            fail("sweep progress stream is empty")
        if len(live) != live[-1]["total"]:
            fail(f"{len(live)} progress records for {live[-1]['total']} points")
        if live[-1]["done"] != live[-1]["total"]:
            fail(f"final sweep progress record incomplete: {live[-1]}")
        if [r["done"] for r in live] != list(range(1, len(live) + 1)):
            fail("sweep progress done counts are not 1..N")

    # ---- streaming telemetry: snapshots, OpenMetrics, self-profile ---------

    lint = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "scripts", "check_openmetrics.py")

    with tempfile.TemporaryDirectory() as tmp:
        tel = os.path.join(tmp, "run.telemetry.jsonl")
        om = os.path.join(tmp, "run.om.txt")
        prof = os.path.join(tmp, "run.profile.txt")
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "AC",
             "--seconds", "30", "--detector", "change-point",
             "--dpm", "tismdp", "--metrics-json", "-",
             "--telemetry-jsonl", tel, "--telemetry-every", "0.5",
             "--metrics-openmetrics", om, "--self-profile", prof],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"telemetry run exit {proc.returncode}\n{proc.stderr}")
        json.loads(proc.stdout)  # stdout stayed pure JSON

        # Snapshot JSONL: self-contained lines on the sim-time cadence,
        # monotone t, sketch-backed frame-delay quantiles present.
        with open(tel) as f:
            snaps = [json.loads(l) for l in f.read().splitlines() if l]
        if len(snaps) < 10:
            fail(f"expected a snapshot every 0.5 sim-s, got {len(snaps)}")
        ts = [s["t"] for s in snaps]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            fail("telemetry snapshot times are not strictly increasing")
        for s in snaps:
            if s.get("source") != "engine":
                fail(f"unexpected snapshot source: {s.get('source')!r}")
            if "cpu_mhz" not in s.get("live", {}):
                fail(f"snapshot missing live cpu_mhz: {s}")
        last = snaps[-1]
        q = last.get("quantiles", {}).get("frames.delay_s")
        if not q or not (q["p50"] <= q["p90"] <= q["p99"]):
            fail(f"final snapshot lacks ordered delay quantiles: {q}")

        # OpenMetrics exposition passes the linter, dvs_ prefix required.
        proc = subprocess.run(
            [sys.executable, lint, "--require-prefix", "dvs_", om],
            capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            fail(f"check_openmetrics rejected the exporter output:\n"
                 f"{proc.stderr}")

        # Self-profile: collapsed stacks rooted at the engine span.
        with open(prof) as f:
            stacks = [l for l in f.read().splitlines()
                      if l and not l.startswith("#")]
        if not stacks:
            fail("self-profile has no stack lines")
        for line in stacks:
            stack, _, value = line.rpartition(" ")
            if not stack.startswith("engine") or not value.isdigit():
                fail(f"bad collapsed-stack line: {line!r}")

        # `report` renders both new sections from the artifacts.
        proc = subprocess.run(
            [binary, "report", "--telemetry-jsonl", tel,
             "--self-profile", prof],
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"telemetry report exit {proc.returncode}\n{proc.stderr}")
        for section in ("== telemetry snapshots", "== self-profile",
                        "delay p50"):
            if section not in proc.stdout:
                fail(f"report missing {section!r}:\n{proc.stdout[:3000]}")

    # OpenMetrics on stdout: pure exposition, lintable, report on stderr.
    proc = subprocess.run(
        [binary, "run", "--media", "mp3", "--sequence", "A",
         "--seconds", "20", "--detector", "change-point",
         "--metrics-openmetrics", "-"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"--metrics-openmetrics - exit {proc.returncode}\n{proc.stderr}")
    lint_proc = subprocess.run(
        [sys.executable, lint, "--require-prefix", "dvs_", "-"],
        input=proc.stdout, capture_output=True, text=True, timeout=60)
    if lint_proc.returncode != 0:
        fail(f"stdout OpenMetrics failed the linter:\n{lint_proc.stderr}")
    if "mean frame delay" not in proc.stderr:
        fail("human report did not move to stderr for OpenMetrics stdout")

    # Two documents cannot share stdout; a JSONL stream cannot go there.
    proc = subprocess.run(
        [binary, "run", "--media", "mp3", "--sequence", "A",
         "--metrics-json", "-", "--metrics-openmetrics", "-"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"two stdout documents should exit 2, got {proc.returncode}")
    proc = subprocess.run(
        [binary, "run", "--media", "mp3", "--sequence", "A",
         "--telemetry-jsonl", "-"],
        capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"--telemetry-jsonl - should exit 2, got {proc.returncode}")

    # Sweep telemetry: one snapshot per finished point, wall-clock t.
    with tempfile.TemporaryDirectory() as tmp:
        tel = os.path.join(tmp, "sweep.telemetry.jsonl")
        csv_base = os.path.join(tmp, "quick")
        proc = subprocess.run(
            [binary, "sweep", "quick", "--jobs", "2",
             "--telemetry-jsonl", tel, "--sweep-csv", csv_base],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"sweep telemetry exit {proc.returncode}\n{proc.stderr}")
        with open(tel) as f:
            snaps = [json.loads(l) for l in f.read().splitlines() if l]
        if not snaps or any(s.get("source") != "sweep" for s in snaps):
            fail(f"sweep snapshots missing or mis-sourced ({len(snaps)})")
        if snaps[-1]["live"].get("done") != snaps[-1]["live"].get("total"):
            fail(f"final sweep snapshot incomplete: {snaps[-1]}")
        # The cells CSV carries the merged-sketch delay percentiles.
        with open(csv_base + "_cells.csv") as f:
            header = f.readline().strip().split(",")
        for col in ("delay_p50", "delay_p90", "delay_p99"):
            if col not in header:
                fail(f"cells CSV missing column {col!r}: {header}")

    # ---- governor policies: `list policies` and --policy round-trips -------

    # `list policies` enumerates the factory registry.
    proc = subprocess.run([binary, "list", "policies"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"`list policies` exit {proc.returncode}\n{proc.stderr}")
    for name in ("paper", "max", "qdpm"):
        if name not in proc.stdout:
            fail(f"`list policies` output missing {name!r}:\n{proc.stdout}")

    # run --policy selects the governor: pinned-max must burn more CPU
    # energy than the paper's adaptive governor on the same light trace.
    def run_energy(policy):
        proc = subprocess.run(
            [binary, "run", "--media", "mp3", "--sequence", "A",
             "--detector", "change-point", "--policy", policy,
             "--metrics-json", "-"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"run --policy {policy} exit {proc.returncode}\n{proc.stderr}")
        return json.loads(proc.stdout)["gauges"]["energy_j"]

    if run_energy("max") <= run_energy("paper"):
        fail("run --policy max did not cost more energy than paper")

    # sweep --policy replaces the scenario's policy axis; the cells CSV
    # carries the policy column and the oracle's competitive_ratio column.
    with tempfile.TemporaryDirectory() as tmp:
        csv_base = os.path.join(tmp, "pol")
        proc = subprocess.run(
            [binary, "sweep", "quick", "--jobs", "2", "--policy", "qdpm",
             "--sweep-csv", csv_base],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            fail(f"sweep --policy exit {proc.returncode}\n{proc.stderr}")
        import csv as csv_mod
        with open(csv_base + "_cells.csv") as f:
            rows = list(csv_mod.DictReader(f))
        if not rows:
            fail("policy sweep produced no cells")
        if any(r["policy"] != "qdpm" for r in rows):
            fail(f"--policy qdpm did not replace the policy axis: "
                 f"{[r['policy'] for r in rows]}")
        if "competitive_ratio" not in rows[0]:
            fail(f"cells CSV missing competitive_ratio: {list(rows[0])}")

    # Unknown policies fail loudly on both run and sweep.
    for args in (["run", "--media", "mp3", "--policy", "no-such"],
                 ["sweep", "quick", "--policy", "no-such"]):
        proc = subprocess.run([binary] + args,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            fail(f"--policy no-such unexpectedly succeeded for {args[0]}")
        if "paper" not in proc.stderr:
            fail(f"unknown-policy error did not list known policies:\n"
                 f"{proc.stderr}")

    # `list metrics` enumerates the registry with OpenMetrics names.
    proc = subprocess.run([binary, "list", "metrics"],
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"`list metrics` exit {proc.returncode}\n{proc.stderr}")
    for needle in ("frames_decoded", "dvs_frames_decoded_total",
                   "frames.delay_s", "quantile="):
        if needle not in proc.stdout:
            fail(f"`list metrics` output missing {needle!r}:\n"
                 f"{proc.stdout[:2000]}")

    # ---- fleet populations: `fleet` subcommand + `list fleets` -------------

    # `list fleets` enumerates the built-in fleet specs.
    proc = subprocess.run([binary, "list", "fleets"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"`list fleets` exit {proc.returncode}\n{proc.stderr}")
    for name in ("fleet_smoke", "fleet_city"):
        if name not in proc.stdout:
            fail(f"`list fleets` output missing {name!r}:\n{proc.stdout}")

    # A small fleet run: summary table, CSV artifact, progress stream, and
    # the jobs=1 vs jobs=3 CSVs byte-identical (the determinism contract).
    with tempfile.TemporaryDirectory() as tmp:
        def run_fleet(jobs, base):
            tel = base + ".telemetry.jsonl"
            proc = subprocess.run(
                [binary, "fleet", "fleet_smoke", "--devices", "300",
                 "--jobs", str(jobs), "--shard-size", "64",
                 "--fleet-csv", base, "--telemetry-jsonl", tel],
                capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                fail(f"fleet jobs={jobs} exit {proc.returncode}\n"
                     f"{proc.stderr}")
            return proc, base + "_fleet.csv", tel

        proc, csv1, tel1 = run_fleet(1, os.path.join(tmp, "j1"))
        for needle in ("devices", "fleet total", "Workload", "p99"):
            if needle not in proc.stdout:
                fail(f"fleet summary missing {needle!r}:\n{proc.stdout}")

        # Progress: one record per shard, monotone, ending at every shard
        # and every device.
        with open(tel1) as f:
            live = [json.loads(l)["live"] for l in f.read().splitlines() if l]
        dones = [r["done"] for r in live]
        devices = [r["devices_done"] for r in live]
        if (not live or dones != list(range(1, 6)) or live[-1]["total"] != 5
                or devices != sorted(devices) or devices[-1] != 300):
            fail(f"fleet progress wrong: done {dones}, devices {devices}")

        _, csv3, _ = run_fleet(3, os.path.join(tmp, "j3"))
        with open(csv1, "rb") as f:
            bytes1 = f.read()
        with open(csv3, "rb") as f:
            bytes3 = f.read()
        if not bytes1 or bytes1 != bytes3:
            fail("fleet CSV differs between --jobs 1 and --jobs 3")
        header = bytes1.decode().splitlines()[0].split(",")
        for col in ("workload", "policy", "energy_j", "delay_p99_s"):
            if col not in header:
                fail(f"fleet CSV missing column {col!r}: {header}")

    # Unknown fleet names fail loudly.
    proc = subprocess.run([binary, "fleet", "no-such-fleet"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode == 0:
        fail("`fleet no-such-fleet` unexpectedly succeeded")
    # Bare `fleet` is a usage error.
    proc = subprocess.run([binary, "fleet"],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 2:
        fail(f"bare `fleet` should exit 2, got {proc.returncode}")

    print("OK: frames_decoded =", counters["frames_decoded"],
          "| trace events =", len(events))


if __name__ == "__main__":
    main()
