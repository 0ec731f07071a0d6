"""Benchmark of coverstab's stability decision, run in-process through the
user entry point ``coverstab.cli.run``.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

A run repeats whole rounds of its workload's operations (see
workloads.py) until ``--seconds`` have passed, checks every output against
facts computed apart from the program (checks.py), and prints one JSON
object as its last line of output. ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run
(spans.py). The exit status is 0 only when every operation succeeded and
passed its check. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("census8", "families", "symmetric")
SETUP_SAMPLES = 7
# Times other than setup_s are scaled to a machine that runs _reference()
# in REFERENCE_S, its median on the 2-core machine of README.md, so that
# the machine's own drift in speed does not show as a change of program.
REFERENCE_S = 0.0018
REFERENCE_EVERY_S = 0.05
# op_tail_ms is the highest percentile with this many operations beyond it.
TAIL_BEYOND = 10


def _import_program() -> None:
    """Put the checkout's sources first on the path, so that the program
    measured is the one next to this file, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "coverstab", "cli.py")):
        sys.exit(f"perfbench: no coverstab sources in {SRC}")
    sys.path.insert(0, SRC)
    import coverstab
    if os.path.dirname(os.path.dirname(coverstab.__file__)) != SRC:
        sys.exit(f"perfbench: imported coverstab from {coverstab.__file__}")


def _reference() -> float:
    """Seconds taken by a fixed pure-Python loop: a sample of how fast
    this machine runs Python at the moment."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    return time.perf_counter() - start


def _run_op(cli, op) -> tuple[float, int, str]:
    """Time one command line; returns (seconds, exit status, output): its
    stdout, or on failure its stderr. An exception counts as exit status
    -1, with its message as output."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.run(op.argv)
    except Exception as exc:  # an operation that raises is a failed one
        status = -1
        err.write(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return elapsed, status, err.getvalue() if status else out.getvalue()


def _pool_size(op) -> int:
    """Worker processes the operation starts (census --threads N > 1)."""
    if "--threads" not in op.argv:
        return 0
    threads = int(op.argv[op.argv.index("--threads") + 1])
    return threads if threads > 1 else 0


def _rounds(cli, ops, seconds: float):
    """Whole rounds of ops until ``seconds`` have passed (at least one).

    Returns the summed operation time of each round, per-op lists of
    (seconds, status, stdout), and the machine's speed factor: REFERENCE_S
    over the median reference sample. Samples are taken after each
    operation, one per REFERENCE_EVERY_S it ran, so that they cover the run
    in proportion to time. Operations that keep every core busy with a
    process pool run at another speed than a one-process reference sees;
    they take no samples, and a run of only such operations is unscaled.
    """
    results = [[] for _ in ops]
    round_times, samples = [], []
    start = time.perf_counter()
    while True:
        total = 0.0
        for op, res in zip(ops, results):
            res.append(_run_op(cli, op))
            total += res[-1][0]
            if not _pool_size(op):
                samples.extend(_reference() for _ in range(
                    1 + int(res[-1][0] / REFERENCE_EVERY_S)))
        round_times.append(total)
        if time.perf_counter() - start >= seconds:
            speed = (REFERENCE_S / statistics.median(samples) if samples
                     else 1.0)
            return round_times, results, speed


def _verdicts(ops, results) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation run."""
    from checks import check

    attempted = failed = 0
    problems = []
    for op, res in zip(ops, results):
        for _, status, out in res:
            attempted += 1
            why = (f"exit status {status}: {out.strip()[-200:]}" if status
                   else check(op, out))
            if why is not None:
                failed += 1
                problems.append(f"{op.label}: {why}")
    return attempted, failed, problems


def _setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import the program and
    build the workload's inputs, which is what precedes the first timed
    operation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(1 if args.tiny else SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _tail(times: list[float], per_round: int) -> float:
    """The quantile of ``times`` that leaves TAIL_BEYOND of a round's
    ``per_round`` operations beyond it, interpolated over the samples of
    every round. With fewer than 4 * TAIL_BEYOND operations a round there
    is no such tail, and the slowest operation stands in for it."""
    ordered = sorted(times)
    if per_round < 4 * TAIL_BEYOND:
        return ordered[-1]
    x = (1 - TAIL_BEYOND / per_round) * (len(ordered) - 1)
    i = int(x)
    if i + 1 == len(ordered):
        return ordered[i]
    return ordered[i] + (ordered[i + 1] - ordered[i]) * (x - i)


def measure(args) -> dict:
    """End-to-end metrics of one untraced run."""
    import workloads
    from coverstab import cli

    ops = workloads.build(args.workload, args.seed, tiny=args.tiny)
    round_times, results, speed = _rounds(cli, ops, args.seconds)
    # Peak memory is read before anything but the program has run: setup
    # samples and the checker's imports come later. The census pool's
    # workers are children; each is counted at the largest one's peak.
    workers = max(_pool_size(op) for op in ops)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workers
               * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    setup = _setup_seconds(args)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"times-{args.workload}-seed{args.seed}.json"),
              "w") as f:
        json.dump({"speed": speed, "times": {
            op.label: [t for t, _, _ in res]
            for op, res in zip(ops, results)}}, f)
    attempted, failed, problems = _verdicts(ops, results)
    times = [t for res in results for t, _, _ in res]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (speed * statistics.median(round_times), "s"),
        "op_p50_ms": (1000 * speed * statistics.median(times), "ms"),
        "op_tail_ms": (1000 * speed * _tail(times, len(ops)), "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return _result(attempted, failed, problems, metrics, speed=speed,
                   round_s=round_times, ops=len(ops))


def traced(args) -> dict:
    """Per-layer metrics of one traced run, per round of the workload plus
    the one-off building of its inputs."""
    import workloads
    from spans import Tracer
    from coverstab import cli

    tracer = Tracer()
    tracer.install()
    try:
        ops = workloads.build(args.workload, args.seed, tiny=args.tiny,
                              traced=True)
        mark = len(tracer.layer)
        yields_before = list(tracer.yields)
        round_times, results, speed = _rounds(cli, ops, args.seconds)
    finally:
        tracer.uninstall()
    rounds = len(round_times)
    build, per_run = tracer.totals(0, mark), tracer.totals(mark)

    def per_round(total):
        value = total / rounds
        return int(value) if value == int(value) else value

    metrics = {}
    for i, layer in enumerate(tracer.layers):
        # A generator's span count is its calls plus the items it yielded.
        round_yields = tracer.yields[i] - yields_before[i]
        metrics[f"{layer}.calls"] = (build["spans"][layer] + per_round(
            per_run["spans"][layer] - round_yields), "count")
        metrics[f"{layer}.self_s"] = (speed * (
            build["self_s"][layer] + per_run["self_s"][layer] / rounds), "s")
    gen = tracer.layers.index("census.enumerate_graphs")
    accepted = per_round(tracer.yields[gen] - yields_before[gen])
    labellings = per_round(per_run["labellings"])
    metrics["census.generate.labellings"] = (labellings, "count")
    metrics["census.generate.accepted"] = (accepted, "count")
    metrics["census.generate.accept_ratio"] = (
        accepted / labellings if labellings else 0.0, "ratio")
    metrics["trace.round_s"] = (speed * statistics.mean(round_times), "s")
    attempted, failed, problems = _verdicts(ops, results)
    expected = sum(op.expect.get("graphs", 0) for op in ops)
    if accepted != expected:
        problems.append(f"generation accepted {accepted} graphs, "
                        f"expected {expected}")
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(
        OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz"))
    return _result(attempted, failed, problems, metrics, speed=speed,
                   round_s=round_times, ops=len(ops))


def _result(attempted, failed, problems, metrics, **info) -> dict:
    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {json.dumps(info)}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-check sizes: small inputs, same checks")
    p.add_argument("--selfcheck", action="store_true",
                   help="one tiny round of every workload, untraced and "
                        "traced")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p


def _selfcheck() -> int:
    """One tiny round of every workload, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0,
                                      trace=trace, tiny=True)
            result = (traced if trace else measure)(args)
            passed = result["correct"] and not result["failed"]
            ok = ok and passed
            print(f"selfcheck {workload} trace={trace}: "
                  f"{'PASS' if passed else 'FAIL'} "
                  f"({result['attempted']} operations)")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _import_program()
    if args.selfcheck:
        return _selfcheck()
    if args.setup_only:
        import workloads
        workloads.build(args.workload, args.seed, tiny=args.tiny)
        return 0
    result = (traced if args.trace else measure)(args)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
