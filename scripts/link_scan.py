#!/usr/bin/env python3
"""Fail on any library translation unit that no product binary links.

The products are the binaries the repo ships: `dvs-sim` (tools/), every
`bench_*` program (bench/), every example (examples/) and the repo
benchmark's `perfbench_driver` (perfbench/).  Test binaries are not
products: a file only a test links is dead code with a test around it.

The scan configures a fresh Release build of the repo and of
perfbench/CMakeLists.txt with `-Wl,-Map=<dir>`, so GNU ld (2.37 or newer)
writes one `<dir>/<binary>.map` per linked binary.  It builds only the
product targets, then collects every `libdvs_*.a(member)` the maps name.
An archive member (`ar t`) that no map names is a whole translation unit
no product reaches; each one is printed and the exit status is 1.

With --members the build also compiles with -ffunction-sections and links
with --gc-sections, so a product keeps only the functions it reaches, and
the scan prints, as advice that never changes the exit status, each
library function (`nm -C`, defined text symbols) that no product binary
defines.  That list over-reports: a member the compiler inlined into every
caller has no symbol of its own in the binaries.
See docs/ARCHITECTURE.md, "Dead-code scans".

Usage: link_scan.py [--build-dir DIR] [--jobs N] [--members]
Exit status: 0 every member linked, 1 unlinked members, 2 build failure.
"""

import argparse
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
# CMake files whose executables are products, and the spellings that
# declare one there.
PRODUCT_LISTS = ("tools/CMakeLists.txt", "bench/CMakeLists.txt",
                 "examples/CMakeLists.txt")
TARGET_RE = re.compile(
    r"^\s*(?:add_executable|dvs_add_bench|dvs_add_example)\((\w+)", re.M)
MEMBER_RE = re.compile(r"(lib(dvs_\w+)\.a)\(([^)]+)\)")


def product_targets():
    targets = []
    for rel in PRODUCT_LISTS:
        targets += TARGET_RE.findall((REPO / rel).read_text())
    return targets


def fail(msg):
    print(f"link_scan: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    if subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode != 0:
        fail(f"command failed: {' '.join(map(str, cmd))}")


def build(source, build_dir, maps, targets, jobs, gc_sections):
    cxx_flags, ld_flags = "", f"-Wl,-Map={maps}"
    if gc_sections:
        cxx_flags, ld_flags = "-ffunction-sections", ld_flags + " -Wl,--gc-sections"
    run(["cmake", "-S", source, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         f"-DCMAKE_CXX_FLAGS={cxx_flags}", f"-DCMAKE_EXE_LINKER_FLAGS={ld_flags}"])
    run(["cmake", "--build", build_dir, "-j", str(jobs), "--target", *targets])


def archive_members(build_dir):
    """{(archive name, member)} of every libdvs_*.a under build_dir."""
    members = set()
    for lib in sorted(build_dir.rglob("libdvs_*.a")):
        out = subprocess.run(["ar", "t", lib], check=True, text=True,
                             capture_output=True).stdout
        members |= {(lib.name, m) for m in out.split()}
    return members


def linked_members(maps):
    linked = set()
    for path in maps:
        for m in MEMBER_RE.finditer(path.read_text(errors="replace")):
            linked.add((m.group(1), m.group(3)))
    return linked


def defined_functions(path):
    out = subprocess.run(["nm", "-C", "--defined-only", path], text=True,
                         capture_output=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in ("T", "W"):
            names.add(parts[2])
    return names


def unkept_functions(build_dir, binaries):
    in_products = set()
    for b in binaries:
        in_products |= defined_functions(b)
    unkept = {}
    for lib in sorted(build_dir.rglob("libdvs_*.a")):
        for name in sorted(defined_functions(lib) - in_products):
            if name.startswith("dvs::"):
                unkept.setdefault(lib.name, []).append(name)
    return unkept


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", type=pathlib.Path,
                    help="build tree to (re)use; default a temporary one")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--members", action="store_true",
                    help="also print library functions no product defines")
    args = ap.parse_args()

    root = args.build_dir or pathlib.Path(tempfile.mkdtemp(prefix="link_scan."))
    root = root.resolve()
    # Kept across reruns in --build-dir: a binary that does not relink
    # keeps the map of the link that made it.
    maps = root / "maps"
    maps.mkdir(parents=True, exist_ok=True)
    try:
        targets = product_targets()
        build(REPO, root / "repo", maps, targets, args.jobs, args.members)
        build(REPO / "perfbench", root / "perfbench", maps,
              ["perfbench_driver"], args.jobs, args.members)
        # CMake's dvs_sim_cli target writes the binary dvs-sim.  Other maps
        # in the directory come from CMake's own compiler checks.
        expected = (set(targets) - {"dvs_sim_cli"}) | {"dvs-sim", "perfbench_driver"}
        product_maps = [maps / f"{name}.map" for name in sorted(expected)]
        missing = [p.stem for p in product_maps if not p.is_file()]
        if missing:
            fail(f"no link map for {missing}"
                 " (GNU ld >= 2.37 writes one per binary into -Map=<dir>)")

        members = archive_members(root / "repo")
        linked = linked_members(product_maps)
        unlinked = sorted(members - linked)
        print(f"link_scan: {len(product_maps)} product links, {len(members)} "
              f"library members, {len(unlinked)} in no product link")
        for lib, member in unlinked:
            print(f"  unlinked: {lib}({member})")

        if args.members:
            binaries = [p for p in (root / "repo").rglob("*")
                        if p.is_file() and p.suffix == "" and p.name in expected
                        and os.access(p, os.X_OK)]
            binaries.append(root / "perfbench" / "perfbench_driver")
            for lib, names in unkept_functions(root / "repo", binaries).items():
                print(f"advisory: {lib}: {len(names)} functions no product defines")
                for name in names:
                    print(f"  {name}")
    finally:
        if args.build_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main())
