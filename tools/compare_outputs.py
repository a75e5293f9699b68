#!/usr/bin/env python3
"""Prove that two builds of the simulator produce byte-identical outputs.

Runs a fixed list of `simulate` recipes (fault-free IOR writes and reads,
data-server crashes, revives and restarts, mirror and erasure-coded kills
and transient outages, and seeded chaos storms, each on all five
architectures where it applies, plus native-PVFS list I/O with and
without a daemon restart) through each tree's
`build/examples/simulate`, and byte-compares per recipe the exit code,
stdout, the `--metrics-out` document and the `--flight-out` dump.  The
`trace-*` recipes repeat the fault-free IOR write and the first chaos
storm of every architecture with `--trace-out` and `--verbose`, so the
Chrome trace export (spans plus the sampler's counter tracks) and the
per-node traffic table are compared too.  Then it
runs each tree's full `bench_fig6_write` and `bench_fig7_read` and compares
their stdout byte for byte and their BENCH files point by point (figure,
architecture, clients, value, unit and host mark; other keys are ignored,
so trees that write richer records still compare).  Last, it byte-compares
the stdout of every other deterministic bench: the four Fig 8 benches,
`bench_sshbuild` and the layout, cache, aggregation and redundancy
ablations at `--quick`, and `bench_ablation_listio` at `--smoke` and at
`--sweep-regions`.  A refactor that claims "same outputs" (same wire bytes,
same same-seed results, same figure numbers) should pass this unchanged.

Both trees must already be built (`cmake --build <tree>/build`).  Every
run happens in its own scratch directory under a temporary root, with the
same relative output paths, so stdout lines that echo those paths match.

Usage:
  compare_outputs.py PARENT_TREE CHANGE_TREE [--no-bench] [--keep=DIR]

`--no-bench` skips every bench and runs the `simulate` recipes only.

Exit status: 0 when every recipe and bench matches, 1 otherwise (each
differing recipe or bench is named), 2 on usage errors.
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile

# Sized so the run outlasts the scripted fault times: about 1-3 s of
# simulated time, and chaos storms (200-2200 ms) fit inside their runs.
SMALL = ["--clients=2", "--storage-nodes=4", "--bytes=33554432"]
CHAOS = ["--clients=2", "--storage-nodes=4", "--bytes=67108864"]

ARCHS = ("direct", "pvfs", "2tier", "3tier", "nfs")

# (name, simulate arguments).  Names are stable: they key the scratch
# directories and the report.  Fault-free runs first: every architecture's
# plain metrics and flight documents.
RECIPES = [
    (f"{_wl}-{_arch}", [f"--arch={_arch}", f"--workload={_wl}", *SMALL])
    for _wl in ("ior-write", "ior-read") for _arch in ARCHS
]
RECIPES += [
    # Stripe layout, one data server's NFS service down.
    ("ds-crash-ior-write", ["--workload=ior-write", *SMALL, "--fault-ds-crash=1",
                            "--fault-at-ms=300"]),
    ("ds-crash-ior-read", ["--workload=ior-read", *SMALL, "--fault-ds-crash=1",
                           "--fault-at-ms=300"]),
    ("ds-revive-ior-write", ["--workload=ior-write", *SMALL, "--fault-ds-crash=1",
                             "--fault-at-ms=300", "--fault-revive-ms=900"]),
    ("ds-revive-ior-read", ["--workload=ior-read", *SMALL, "--fault-ds-crash=1",
                            "--fault-at-ms=300", "--fault-revive-ms=900"]),
    ("ds-restart-ior-write", ["--workload=ior-write", *SMALL,
                              "--fault-ds-restart=1", "--fault-at-ms=300"]),
    ("ds-restart-ior-read", ["--workload=ior-read", *SMALL,
                             "--fault-ds-restart=1", "--fault-at-ms=300"]),
    ("strided-crash", ["--workload=strided", *SMALL, "--fault-ds-crash=1",
                       "--fault-at-ms=50"]),
    ("strided-restart", ["--workload=strided", *SMALL, "--fault-ds-restart=1",
                         "--fault-at-ms=50"]),
    ("oltp-crash", ["--workload=oltp", *SMALL, "--txns=200", "--fault-ds-crash=1",
                    "--fault-at-ms=100"]),
    ("oltp-restart", ["--workload=oltp", *SMALL, "--txns=200",
                      "--fault-ds-restart=1", "--fault-at-ms=300"]),
    # Redundant layouts: permanent kills (with rebuild spares) and transient
    # outages.
    ("mirror-kill-write", ["--workload=ior-write", "--clients=2",
                           "--storage-nodes=4", "--bytes=4194304",
                           "--redundancy=mirror", "--fault-ds-kill=1",
                           "--fault-at-ms=50"]),
    ("mirror-kill-read", ["--workload=ior-read", "--clients=2",
                          "--storage-nodes=4", "--bytes=4194304",
                          "--redundancy=mirror", "--fault-ds-kill=1",
                          "--fault-at-ms=50"]),
    ("mirror-kill-spare", ["--workload=ior-write", "--clients=2",
                           "--storage-nodes=4", "--bytes=4194304",
                           "--redundancy=mirror", "--spares=1",
                           "--fault-ds-kill=1", "--fault-at-ms=50",
                           "--rebuild-after-ms=300"]),
    ("ec-kill-write", ["--workload=ior-write", "--clients=2",
                       "--storage-nodes=6", "--bytes=4194304",
                       "--stripe=262144", "--redundancy=ec",
                       "--fault-ds-kill=1", "--fault-at-ms=50"]),
    ("ec-kill-read", ["--workload=ior-read", "--clients=2",
                      "--storage-nodes=6", "--bytes=4194304",
                      "--stripe=262144", "--redundancy=ec",
                      "--fault-ds-kill=1", "--fault-at-ms=50"]),
    ("ec-kill-spare", ["--workload=ior-write", "--clients=2",
                       "--storage-nodes=7", "--bytes=4194304",
                       "--stripe=262144", "--redundancy=ec", "--spares=1",
                       "--fault-ds-kill=1", "--fault-at-ms=50",
                       "--rebuild-after-ms=300"]),
    ("mirror-restart", ["--workload=ior-write", "--clients=2",
                        "--storage-nodes=4", "--bytes=4194304",
                        "--redundancy=mirror", "--fault-ds-restart=1",
                        "--fault-at-ms=50"]),
    ("mirror-revive-read", ["--workload=ior-read", "--clients=2",
                            "--storage-nodes=4", "--bytes=4194304",
                            "--redundancy=mirror", "--fault-ds-crash=1",
                            "--fault-at-ms=50", "--fault-revive-ms=400"]),
    ("ec-restart", ["--workload=ior-write", "--clients=2",
                    "--storage-nodes=6", "--bytes=4194304",
                    "--stripe=262144", "--redundancy=ec",
                    "--fault-ds-restart=1", "--fault-at-ms=50"]),
    ("ec-revive-read", ["--workload=ior-read", "--clients=2",
                        "--storage-nodes=6", "--bytes=4194304",
                        "--stripe=262144", "--redundancy=ec",
                        "--fault-ds-crash=1", "--fault-at-ms=50",
                        "--fault-revive-ms=400"]),
    # An erasure-coding geometry wider than the active storage nodes.
    ("ec-too-wide", ["--workload=ior-write", *SMALL, "--redundancy=ec"]),
]
for _arch in ARCHS:
    for _seed in (1, 2, 3):
        RECIPES.append((f"chaos-{_arch}-{_seed}",
                        [f"--arch={_arch}", "--workload=ior-write", *CHAOS,
                         f"--chaos-seed={_seed}"]))
for _seed in (4, 5, 6, 7):
    RECIPES.append((f"chaos-ior-read-{_seed}",
                    ["--workload=ior-read", *CHAOS, f"--chaos-seed={_seed}"]))
# The trace export and the traffic table, fault-free and under chaos.
TRACE = ["--trace-out=trace.json", "--verbose"]
for _arch in ARCHS:
    RECIPES.append((f"trace-ior-write-{_arch}",
                    [f"--arch={_arch}", "--workload=ior-write", *SMALL, *TRACE]))
    RECIPES.append((f"trace-chaos-{_arch}-1",
                    [f"--arch={_arch}", "--workload=ior-write", *CHAOS,
                     "--chaos-seed=1", *TRACE]))
RECIPES += [
    ("chaos-oltp", ["--workload=oltp", *SMALL, "--txns=600", "--chaos-seed=8"]),
    ("chaos-strided", ["--workload=strided", *SMALL, "--chaos-seed=9"]),
]
# Native PVFS with 16 MiB blocks: several stripes of one dfile per request,
# so the client sends list I/O (kReadv, kWritev), and a daemon restart
# makes it replay its retained extents as list writes.
for _wl in ("ior-write", "ior-read"):
    RECIPES.append((f"pvfs-listio-{_wl}",
                    ["--arch=pvfs", f"--workload={_wl}", *SMALL,
                     "--block=16777216"]))
    RECIPES.append((f"pvfs-listio-restart-{_wl}",
                    ["--arch=pvfs", f"--workload={_wl}", *SMALL,
                     "--block=16777216", "--fault-ds-restart=1",
                     "--fault-at-ms=300"]))

BENCHES = [("bench_fig6_write", "BENCH_fig6_write.json"),
           ("bench_fig7_read", "BENCH_fig7_read.json")]

# (name, bench executable, arguments): benches whose stdout alone is
# compared.  Names key the scratch directories and the report.
STDOUT_BENCHES = [
    (f"{_exe}--quick", _exe, ["--quick"])
    for _exe in ("bench_fig8a_atlas", "bench_fig8b_btio", "bench_fig8c_oltp",
                 "bench_fig8d_postmark", "bench_sshbuild",
                 "bench_ablation_layout", "bench_ablation_cache",
                 "bench_ablation_aggregation", "bench_ablation_redundancy")
]
STDOUT_BENCHES += [
    (f"bench_ablation_listio{_flag}", "bench_ablation_listio", [_flag])
    for _flag in ("--smoke", "--sweep-regions")
]


def run_recipe(tree, args, workdir):
    """Runs one recipe in `workdir` (stdout kept as stdout.txt); returns
    (exit code, stdout bytes)."""
    os.makedirs(workdir, exist_ok=True)
    exe = os.path.join(tree, "build", "examples", "simulate")
    proc = subprocess.run(
        [exe, *args, "--metrics-out=metrics.json", "--flight-out=flight.json"],
        cwd=workdir, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=False)
    with open(os.path.join(workdir, "stdout.txt"), "wb") as f:
        f.write(proc.stdout)
    return proc.returncode, proc.stdout


def same_file(a, b):
    if not os.path.exists(a) or not os.path.exists(b):
        return os.path.exists(a) == os.path.exists(b)
    return filecmp.cmp(a, b, shallow=False)


def compare_recipe(trees, name, args, root):
    """Returns the list of outputs that differ for one recipe."""
    dirs = [os.path.join(root, side, name) for side in ("parent", "change")]
    results = [run_recipe(tree, args, d) for tree, d in zip(trees, dirs)]
    diffs = []
    if results[0][0] != results[1][0]:
        diffs.append(f"exit {results[0][0]} vs {results[1][0]}")
    if results[0][1] != results[1][1]:
        diffs.append("stdout")
    for out in ("metrics.json", "flight.json", "trace.json"):
        if not same_file(*(os.path.join(d, out) for d in dirs)):
            diffs.append(out)
    return diffs


BENCH_KEYS = ("figure", "architecture", "clients", "value", "unit", "host")


def bench_points(path):
    """The gate-visible fields of every record, or None if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            records = json.load(f)["records"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return [tuple(r.get(k) for k in BENCH_KEYS) for r in records]


def run_bench(trees, name, exe, args, root):
    """Runs one bench per tree in matching scratch directories; returns the
    directories and whether the two stdouts (exit codes too) are identical."""
    dirs = [os.path.join(root, side, name) for side in ("parent", "change")]
    outputs = []
    for tree, d in zip(trees, dirs):
        os.makedirs(d, exist_ok=True)
        proc = subprocess.run([os.path.join(tree, "build", "bench", exe),
                               *args],
                              cwd=d, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        with open(os.path.join(d, "stdout.txt"), "wb") as f:
            f.write(proc.stdout)
        outputs.append((proc.returncode, proc.stdout))
    return dirs, outputs[0] == outputs[1]


def compare_bench(trees, exe, out, root):
    """Returns the list of outputs that differ for one figure bench."""
    dirs, same_stdout = run_bench(trees, exe, exe, [], root)
    diffs = [] if same_stdout else ["stdout"]
    points = [bench_points(os.path.join(d, out)) for d in dirs]
    if points[0] is None or points[0] != points[1]:
        diffs.append(out)
    return diffs


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = [a for a in argv[1:] if a.startswith("--")]
    keep = None
    for f in flags:
        if f.startswith("--keep="):
            keep = f.split("=", 1)[1]
        elif f != "--no-bench":
            print(f"unknown option {f}", file=sys.stderr)
            return 2
    if len(args) != 2:
        print("usage: compare_outputs.py PARENT_TREE CHANGE_TREE [--no-bench] "
              "[--keep=DIR]", file=sys.stderr)
        return 2
    trees = [os.path.abspath(t) for t in args]
    for tree in trees:
        if not os.access(os.path.join(tree, "build", "examples", "simulate"),
                         os.X_OK):
            print(f"{tree}: no build/examples/simulate; build the tree first",
                  file=sys.stderr)
            return 2

    root = keep or tempfile.mkdtemp(prefix="compare_outputs.")
    differing = []
    for name, recipe in RECIPES:
        diffs = compare_recipe(trees, name, recipe, root)
        print(f"{'DIFF' if diffs else 'same'}  {name}"
              + (f"  ({', '.join(diffs)})" if diffs else ""))
        if diffs:
            differing.append(name)
    if "--no-bench" not in flags:
        for exe, out in BENCHES:
            diffs = compare_bench(trees, exe, out, root)
            print(f"{'DIFF' if diffs else 'same'}  {exe}"
                  + (f"  ({', '.join(diffs)})" if diffs else ""))
            if diffs:
                differing.append(exe)
        for name, exe, bench_args in STDOUT_BENCHES:
            _, same_stdout = run_bench(trees, name, exe, bench_args, root)
            print(f"{'same' if same_stdout else 'DIFF'}  {name}"
                  + ("" if same_stdout else "  (stdout)"))
            if not same_stdout:
                differing.append(name)

    print(f"\n{len(differing)} differing: {' '.join(differing) or '-'}")
    if keep:
        print(f"outputs kept in {keep}")
    else:
        shutil.rmtree(root, ignore_errors=True)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
