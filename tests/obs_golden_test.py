#!/usr/bin/env python3
"""Golden instrumentation artifacts: four `dvs-sim run` configs must write
the same traces, ledgers, metrics, flight dumps and telemetry, byte for byte.

Each config attaches every run-level sink (--trace-jsonl, --trace-csv,
--chrome-trace, --ledger-json, --metrics-json, --metrics-openmetrics,
--flight-dump, --telemetry-jsonl).  Between them they emit every trace event
type except frame_drop, and two of them trip a flight-recorder dump.  The
artifacts are megabytes each, so the reference is one SHA-256 per artifact
in tests/golden/obs_digests.json rather than the files themselves.

Wall-clock readings (the `wall.*` gauges, `dvs_wall_*` in OpenMetrics) are
the only run-to-run differences; they are removed before hashing.

One `dvs-sim sweep` config covers the merged-registry path: the sweep folds
every point's metrics registry into one (MetricsRegistry::merge_from), so
its --metrics-json must hash to SWEEP_DIGEST at every worker count in
SWEEP_JOBS.  Its `sweep.wall_seconds` and `sweep.jobs` gauges are removed
before hashing as well.

Regenerate the digests only for an intentional change to the output (the
same rule as perfbench's --write-pins), and say why in the change log:

    python3 tests/obs_golden_test.py build/tools/dvs-sim --write
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                       "obs_digests.json")

# (config name, dvs-sim run arguments)
CONFIGS = [
    ("a_mp3_change_point_tismdp",
     ["--media", "mp3", "--sequence", "A", "--detector", "change-point",
      "--dpm", "tismdp"]),
    ("b_mpeg_football_spike",
     ["--media", "mpeg", "--clip", "football", "--seconds", "30",
      "--faults", "spike10x"]),
    ("c_session_hw_faults",
     ["--session", "--cycles", "1", "--seconds", "20", "--dpm", "tismdp",
      "--faults", "wakeup-flaky,freq-stuck"]),
    ("d_mp3_qdpm_tismdp",
     ["--media", "mp3", "--sequence", "A", "--policy", "qdpm",
      "--dpm", "tismdp"]),
]

# The merged-registry config: `dvs-sim sweep` arguments, the worker counts
# that must agree, and the digest of their --metrics-json.
SWEEP_ARGS = ["table4", "--replicates", "1"]
SWEEP_JOBS = [1, 4]
SWEEP_DIGEST = "30e1c77f186ad289c87b1dddf8dbdf3a200be268025214406411c94cb34c995e"

# (artifact file name, flag that writes it)
ARTIFACTS = [
    ("trace.jsonl", "--trace-jsonl"),
    ("trace.csv", "--trace-csv"),
    ("chrome.json", "--chrome-trace"),
    ("ledger.json", "--ledger-json"),
    ("metrics.json", "--metrics-json"),
    ("metrics.om", "--metrics-openmetrics"),
    ("flight.txt", "--flight-dump"),
    ("telemetry.jsonl", "--telemetry-jsonl"),
]

# A JSON member `"wall.<name>": <number>` (or a sweep's wall-time or worker
# count gauge) with its separator, and an OpenMetrics line about a dvs_wall_*
# series.
WALL_JSON = re.compile(
    rb'"(wall\.[A-Za-z0-9_.]+|sweep\.wall_seconds|sweep\.jobs)":'
    rb'\s*[-+0-9.eE]+,?[ \t]*\n?')
WALL_OM = re.compile(rb"^(# [A-Z]+ )?dvs_wall_[^\n]*\n", re.MULTILINE)


def fail(msg):
    print("FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def digest(path):
    with open(path, "rb") as f:
        data = f.read()
    data = WALL_OM.sub(b"", WALL_JSON.sub(b"", data))
    return hashlib.sha256(data).hexdigest()


def run_config(binary, tmp, name, args):
    out = os.path.join(tmp, name)
    os.makedirs(out)
    cmd = [binary, "run"] + args
    for fname, flag in ARTIFACTS:
        cmd += [flag, os.path.join(out, fname)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail("config %s: `%s` exit code %d\n%s" %
             (name, " ".join(cmd), proc.returncode, proc.stderr))
    return {fname: digest(os.path.join(out, fname))
            for fname, _ in ARTIFACTS
            if os.path.exists(os.path.join(out, fname))}


def run_sweep(binary, tmp, jobs):
    out = os.path.join(tmp, "sweep_jobs%d.json" % jobs)
    cmd = [binary, "sweep"] + SWEEP_ARGS + ["--jobs", str(jobs),
                                            "--metrics-json", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail("`%s` exit code %d\n%s" %
             (" ".join(cmd), proc.returncode, proc.stderr))
    return digest(out)


def main():
    args = sys.argv[1:]
    write = "--write" in args
    args = [a for a in args if a != "--write"]
    if len(args) != 1:
        fail("usage: obs_golden_test.py <path-to-dvs-sim> [--write]")
    binary = args[0]

    with tempfile.TemporaryDirectory() as tmp:
        actual = {name: run_config(binary, tmp, name, cfg)
                  for name, cfg in CONFIGS}
        sweeps = {jobs: run_sweep(binary, tmp, jobs) for jobs in SWEEP_JOBS}

    if write:
        print("sweep %s metrics.json digest: %s (SWEEP_DIGEST in this file)" %
              (" ".join(SWEEP_ARGS), sweeps[SWEEP_JOBS[0]]))
        os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
        with open(DIGESTS, "w") as f:
            json.dump(actual, f, indent=2, sort_keys=True)
            f.write("\n")
        print("wrote", DIGESTS)
        return
    if not os.path.exists(DIGESTS):
        fail("missing reference %s" % DIGESTS)
    with open(DIGESTS) as f:
        golden = json.load(f)

    mismatches = []
    for name, cfg in CONFIGS:
        want, got = golden.get(name, {}), actual[name]
        for fname in sorted(set(want) | set(got)):
            if want.get(fname) != got.get(fname):
                mismatches.append("config %s (dvs-sim run %s): %s %s" % (
                    name, " ".join(cfg), fname,
                    "missing" if fname not in got else
                    "unexpected" if fname not in want else "differs"))
    for jobs, got in sorted(sweeps.items()):
        if got != SWEEP_DIGEST:
            mismatches.append("dvs-sim sweep %s --jobs %d: metrics.json differs"
                              % (" ".join(SWEEP_ARGS), jobs))
    if mismatches:
        fail("%d artifact(s) changed:\n  %s" %
             (len(mismatches), "\n  ".join(mismatches)))
    print("obs golden: %d artifacts byte-identical" %
          (sum(len(d) for d in actual.values()) + len(sweeps)))


if __name__ == "__main__":
    main()
