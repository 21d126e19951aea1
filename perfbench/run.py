#!/usr/bin/env python3
"""Build and run the anoncmp benchmark, or compare two sets of its results.

Run one workload (from the repository root; builds on first use):

    python3 perfbench/run.py --workload study --seed 1 --seconds 20 --trace 0

Alternate parent and change runs from two checkouts, then compare:

    python3 perfbench/run.py pairs --parent ../parent --change . \\
        --workload serve_zipf --seeds 1-10 --out-dir /tmp/pairs
    python3 perfbench/run.py compare /tmp/pairs/parent.jsonl /tmp/pairs/change.jsonl

The binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` in the current directory). Any failure to build exits non-zero
without printing a result.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BIN = "anoncmp-perfbench"


def build(root):
    """Builds the benchmark of the checkout at `root`; returns the binary path."""
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (exit {done.returncode})")
    return os.path.join(target, "release", BIN)


def run_once(root, binary, workload, seed, seconds, trace):
    """One benchmark run in `root`; returns its result object."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} seed {seed} failed (exit {done.returncode})")
    return json.loads(lines[-1])


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def flags(argv):
    out = {}
    it = iter(argv)
    for flag in it:
        if not flag.startswith("--"):
            sys.exit(f"perfbench: unexpected argument {flag!r}")
        out[flag[2:]] = next(it, None)
    return out


def bench_config(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def pairs(argv):
    """Runs parent and change alternately, switching which goes first."""
    opts = flags(argv)
    parent, change = os.path.abspath(opts["parent"]), os.path.abspath(opts["change"])
    seconds = bench_config(change)["run_seconds"]
    binaries = {parent: build(parent), change: build(change)}
    os.makedirs(opts["out-dir"], exist_ok=True)
    files = {side: open(os.path.join(opts["out-dir"], f"{name}.jsonl"), "a")
             for side, name in ((parent, "parent"), (change, "change"))}
    for i, seed in enumerate(parse_seeds(opts["seeds"])):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for side in order:
            result = run_once(side, binaries[side], opts["workload"], seed, seconds, "0")
            files[side].write(json.dumps(
                {"workload": opts["workload"], "seed": seed, "result": result}) + "\n")
            files[side].flush()
    for f in files.values():
        f.close()


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                runs[(row["workload"], row["seed"])] = row["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def verdict(parent, change, better, bound):
    """choosing-metrics §8 over paired (parent, change) values."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p25, pmed, p75 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = sign * (cmed - pmed)
    spread = p75 - p25
    if wins >= 0.9 * len(parent) and gap > spread:
        return "improved", wins
    if pmed and -gap > bound * abs(pmed):
        return "regressed", wins
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pmed and spread > bound * abs(pmed) and not all_better:
        return "unresolved", wins
    return "unchanged within bound", wins


def compare(argv):
    if len(argv) != 2:
        sys.exit("usage: run.py compare PARENT.jsonl CHANGE.jsonl")
    parent, change = load(argv[0]), load(argv[1])
    metrics = {m["name"]: m for m in bench_config(os.path.dirname(HERE))["end_to_end"]}
    keys = sorted(set(parent) & set(change))
    workloads = sorted({w for w, _ in keys})
    print(f"{'workload':<12} {'metric':<14} {'pairs':>5} {'wins':>4} "
          f"{'parent q1/med/q3':>30} {'change med':>12}  verdict")
    for workload in workloads:
        seeds = [s for w, s in keys if w == workload]
        for name, meta in metrics.items():
            p = [parent[(workload, s)]["metrics"][name]["value"] for s in seeds
                 if name in parent[(workload, s)]["metrics"]]
            c = [change[(workload, s)]["metrics"][name]["value"] for s in seeds
                 if name in change[(workload, s)]["metrics"]]
            if not p or len(p) != len(c):
                continue
            outcome, wins = verdict(p, c, meta["better"], meta["bound"])
            q1, med, q3 = quartiles(p)
            print(f"{workload:<12} {name:<14} {len(p):>5} {wins:>4} "
                  f"{q1:>9.4g} /{med:>9.4g} /{q3:>9.4g} {statistics.median(c):>12.4g}  {outcome}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("pairs", "compare"):
        {"pairs": pairs, "compare": compare}[argv[0]](argv[1:])
        return
    binary = build(os.getcwd())
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    main()
