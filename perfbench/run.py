#!/usr/bin/env python3
"""Build and run the host-time benchmark.

One workload, as the benchmark contract runs it (the last stdout line
is the JSON result):

    python3 perfbench/run.py --workload md24k_native --seed 11 --seconds 25 --trace 0

Every workload, one row each, every metric with its unit:

    python3 perfbench/run.py --all [--seed 11] [--seconds 25] [--trace 0|1]

Each workload on --seed and on the seed after it, compared against
the bounds in BENCHMARK.json:

    python3 perfbench/run.py --seed-check [--seed 11] [--seconds 25]

The benchmark is built from source first (cargo, offline), into
$CARGO_TARGET_DIR or perfbench/target.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["md24k_native", "md12k_pme_native", "serve240_chaos"]


def build():
    """Build the benchmark binary; exit 1 if that fails."""
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_one(binary, workload, seed, seconds, trace):
    """Run one workload in its own process; return (metrics, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if p.returncode != 0:
        sys.exit(f"perfbench: {workload} seed {seed} failed (exit {p.returncode})")
    lines = p.stdout.splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric: "):
            name, value, unit = line[len("metric: "):].split()
            metrics[name] = (float(value), unit)
    return metrics, json.loads(lines[-1])


def table(binary, seed, seconds, trace):
    """Print every workload's metrics, one row per workload."""
    rows = {w: run_one(binary, w, seed, seconds, trace)[0] for w in WORKLOADS}
    names = []
    for m in rows.values():
        names += [n for n in m if n not in names]
    print(f"# seed {seed}, {seconds} s per workload, trace {trace}")
    print("\t".join(["workload"] + [f"{n} [{next(m[n][1] for m in rows.values() if n in m)}]"
                                      for n in names]))
    for w, m in rows.items():
        print("\t".join([w] + [f"{m[n][0]:.6g}" if n in m else "n/a" for n in names]))


def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def seed_check(binary, seed, seconds):
    """Each workload on `seed` and `seed + 1`; every end-to-end metric within its bound."""
    second_seed = seed + 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    print("workload\tmetric\tunit\tseed %d\tseed %d\tworse by\tbound\tverdict" % (seed, second_seed))
    for w in WORKLOADS:
        a = run_one(binary, w, seed, seconds, 0)[1]["metrics"]
        b = run_one(binary, w, second_seed, seconds, 0)[1]["metrics"]
        for m in spec["end_to_end"]:
            name = m["name"]
            worse = worse_by(a[name]["value"], b[name]["value"], m["better"])
            passed = worse <= m["bound"]
            ok &= passed
            print(f"{w}\t{name}\t{m['unit']}\t{a[name]['value']:.6g}\t{b[name]['value']:.6g}"
                  f"\t{worse:+.3f}\t{m['bound']}\t{'ok' if passed else 'OUT OF BOUND'}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, allow_abbrev=False,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--all", action="store_true", help="run every workload, one row each")
    ap.add_argument("--seed-check", action="store_true",
                    help="compare --seed and the seed after it against the bounds")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, rest = ap.parse_known_args()
    binary = build()
    if args.seed_check:
        sys.exit(0 if seed_check(binary, args.seed, args.seconds) else 1)
    if args.all:
        table(binary, args.seed, args.seconds, args.trace)
        return
    # One workload: hand every flag to the benchmark binary as given.
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
