#!/usr/bin/env python3
"""Smoke test of the repo benchmark itself (about two minutes after the build).

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at a tiny size (--quick), untraced and
traced, and checks that the last line names every metric of the matching
BENCHMARK.json list with its unit, that nothing failed, and that a directory
holding only the benchmark (no simulator sources) exits non-zero without a
result.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            tag = "%s --trace %d" % (w["name"], trace)
            p = run(["--workload", w["name"], "--quick", "--seconds", "1",
                     "--trace", str(trace)], REPO)
            if p.returncode != 0:
                problems.append("%s: exit %d\n%s" % (tag, p.returncode,
                                                     p.stderr[-2000:]))
                continue
            res = json.loads(p.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (tag, sorted(res)))
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s failed=%s" % (
                    tag, res["correct"], res["attempted"], res["failed"]))
            for m in wanted:
                got = res["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s: metric %s printed as %r" % (
                        tag, m["name"], got))
            print("ok  %s" % tag, flush=True)

    bare = os.path.join(REPO, ".bench_build", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), bare)
    p = run(["--workload", bench["workloads"][0]["name"]], bare)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r" % (
            p.returncode, p.stdout[-200:]))
    else:
        print("ok  bare directory exits %d" % p.returncode, flush=True)

    for line in problems:
        print("FAIL " + line, flush=True)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
