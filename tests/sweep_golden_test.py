#!/usr/bin/env python3
"""Golden engine numbers: two small sweeps must reproduce committed CSVs.

Runs the dvs-sim binary (path in argv[1]) on

  * `sweep quick`                  (mp3, change-point and max), and
  * `sweep table4 --replicates 1`  (mpeg, every detector),

and compares both `<base>_points.csv` and `<base>_cells.csv` byte for byte
against the reference files in tests/golden/.  The CSV header tests and the
jobs=1-vs-N contracts cannot see a hot-path change that shifts a result;
this test can, so a refactor of the engine, detectors or governor that is
meant to be bit-identical is checked by ctest, not only by a full perfbench
run.

Regenerate the references only for an intentional change to results (the
same rule as perfbench's --write-pins), and say why in the change log:

    python3 tests/sweep_golden_test.py build/tools/dvs-sim --write
"""

import filecmp
import os
import subprocess
import sys
import tempfile

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# (csv base name, dvs-sim arguments)
SWEEPS = [
    ("quick", ["sweep", "quick"]),
    ("table4", ["sweep", "table4", "--replicates", "1"]),
]
SUFFIXES = ("_points.csv", "_cells.csv")


def fail(msg):
    print("FAIL:", msg, file=sys.stderr)
    sys.exit(1)


def first_difference(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        a, b = fa.read().splitlines(), fb.read().splitlines()
    for i, (la, lb) in enumerate(zip(a, b)):
        if la != lb:
            return "line %d:\n  golden: %s\n  actual: %s" % (i + 1, la, lb)
    return "line count %d (golden) vs %d (actual)" % (len(a), len(b))


def main():
    args = sys.argv[1:]
    write = "--write" in args
    args = [a for a in args if a != "--write"]
    if len(args) != 1:
        fail("usage: sweep_golden_test.py <path-to-dvs-sim> [--write]")
    binary = args[0]

    with tempfile.TemporaryDirectory() as tmp:
        for base, sweep in SWEEPS:
            out = os.path.join(tmp, base)
            proc = subprocess.run([binary] + sweep + ["--sweep-csv", out],
                                  capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                fail("`%s` exit code %d\n%s" % (" ".join(sweep),
                                                proc.returncode, proc.stderr))
            for suffix in SUFFIXES:
                actual = out + suffix
                golden = os.path.join(GOLDEN_DIR, base + suffix)
                if write:
                    os.makedirs(GOLDEN_DIR, exist_ok=True)
                    with open(actual, "rb") as src, open(golden, "wb") as dst:
                        dst.write(src.read())
                    print("wrote", golden)
                    continue
                if not os.path.exists(golden):
                    fail("missing reference %s" % golden)
                if not filecmp.cmp(golden, actual, shallow=False):
                    fail("%s%s differs from %s at %s" %
                         (base, suffix, golden, first_difference(golden, actual)))
    if not write:
        print("sweep golden: %d CSVs byte-identical" % (2 * len(SWEEPS)))


if __name__ == "__main__":
    main()
