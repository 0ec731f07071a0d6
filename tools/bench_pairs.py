"""Alternating perfbench runs of two checkouts, summarised against the
bounds that BENCHMARK.json fixes for its end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload symmetric \\
        [--pairs 3] [--seconds 30] [--seed 1] [--tiny]

PARENT and CHANGE are checkout directories. Unless their ``perfbench/``
files (``out/`` and ``__pycache__/`` aside) and their ``BENCHMARK.json``
are byte-identical, the tool names the first difference and exits 1
having run nothing. Otherwise each pair runs each side's own
``perfbench/run.py`` once, parent first in odd pairs and change first in
even ones, and prints every run's metrics. A run that exits non-zero, is
not ``correct`` or has failed operations is printed and makes the tool
exit 1. For each end-to-end metric it then prints both sides' median and
quartiles, the change's wins and ties over the pairs (by the metric's
``better``), the relative difference of the medians, and a verdict:
"unresolved" when the parent's own spread (quartile distance over its
median) exceeds the bound and not every change run beats every parent
run, else "worse beyond bound" or "within bound".

Each side's ``src/`` is compiled to bytecode first, as a run would leave
it, and the runs write no bytecode, so nothing is written under either
``perfbench/`` but ``run.py``'s own ``out/``.
"""

from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import statistics
import subprocess
import sys


def _benchmark_files(root: str) -> list[str]:
    """The paths, relative to root, of BENCHMARK.json and of the files
    under perfbench/ that are not its output or bytecode."""
    found = ["BENCHMARK.json"]
    bench = os.path.join(root, "perfbench")
    for here, dirs, files in os.walk(bench):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__"
                         and not (here == bench and d == "out"))
        found += sorted(os.path.relpath(os.path.join(here, f), root)
                        for f in files)
    return found


def _difference(parent: str, change: str) -> str | None:
    """The first way the two checkouts' benchmarks differ, or None."""
    ours, theirs = _benchmark_files(parent), _benchmark_files(change)
    if ours != theirs:
        return f"files in one only: {sorted(set(ours) ^ set(theirs))}"
    for rel in ours:
        left, right = os.path.join(parent, rel), os.path.join(change, rel)
        if not (os.path.isfile(left) and os.path.isfile(right)
                and filecmp.cmp(left, right, shallow=False)):
            return f"{rel} differs"
    return None


def _run(root: str, args, env: dict) -> tuple[dict | None, str]:
    """One untraced perfbench run in root: its result, or None with the
    reason it failed."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode or result is None:
        return None, (f"exit {proc.returncode}: "
                      f"{proc.stderr.strip().splitlines()[-1:]}")
    if not result.get("correct") or result.get("failed"):
        return None, (f"correct={result.get('correct')} "
                      f"failed={result.get('failed')} "
                      f"of {result.get('attempted')}")
    return result, ""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _verdict(parent: list[float], change: list[float], metric: dict
             ) -> tuple[int, int, float, str]:
    """(change wins, ties, relative median difference, verdict)."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    q1, med, q3 = _quartiles(parent)
    rel = (statistics.median(change) - med) / med if med else 0.0
    spread = (q3 - q1) / med if med else 0.0
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > metric["bound"] and not beats_all:
        verdict = "unresolved"
    elif sign * rel > metric["bound"]:
        verdict = "worse beyond bound"
    else:
        verdict = "within bound"
    return wins, ties, rel, verdict


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=3)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    problem = _difference(sides["parent"], sides["change"])
    if problem:
        print(f"bench_pairs: refused, the benchmarks differ: {problem}",
              file=sys.stderr)
        return 1
    with open(os.path.join(sides["parent"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    failures = 0
    for root in sides.values():
        compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        results = {}
        for side in order:
            result, why = _run(sides[side], args, env)
            if result is None:
                failures += 1
                print(f"pair {pair} {side}: FAILED {why}")
                continue
            results[side] = result
            shown = " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                for m in metrics)
            print(f"pair {pair} {side}: {shown}", flush=True)
        if len(results) == 2:  # a pair counts only when both sides ran
            for side, result in results.items():
                for m in metrics:
                    values[side][m["name"]].append(
                        result["metrics"][m["name"]]["value"])
    complete = len(values["parent"][metrics[0]["name"]])
    print(f"{args.workload}: {complete} of {args.pairs} pairs complete, "
          f"{args.seconds:g} s runs, seed {args.seed}")
    for m in metrics:
        parent, change = (values[side][m["name"]] for side in sides)
        if not parent:
            print(f"{m['name']}: no complete pair")
            continue
        wins, ties, rel, verdict = _verdict(parent, change, m)
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (_quartiles(parent),
                                              _quartiles(change))
        print(f"{m['name']} ({m['unit']}, {m['better']} is better, bound "
              f"{m['bound']:.0%}): parent {pmed:.6g} [{pq1:.6g}-{pq3:.6g}] "
              f"change {cmed:.6g} [{cq1:.6g}-{cq3:.6g}]; change won "
              f"{wins} of {complete}, {ties} tied; {rel:+.1%}; {verdict}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
