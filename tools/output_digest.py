"""One sha256 over everything coverstab reports for a fixed set of inputs,
so that two checkouts can be shown to give byte-identical outputs.

    python3 tools/output_digest.py --max-order 8

The inputs are every graph of order 1..N from ``census.enumerate_graphs``
followed by the perfbench families and symmetric inputs at seed 1. For
each input the digest covers its graph6, and of the graph parsed back
from it the canonical graph6, relabelling, group order and generators,
``stability_report(g).as_dict()`` and the ``as_dict()`` of every
``criteria_summary(g)`` verdict, one JSON line per input. The last line
of output is the hex digest and the number of inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _inputs(max_order: int):
    """graph6 of the census graphs of order 1..max_order, then of the
    families and symmetric operations at seed 1."""
    from coverstab import census, graph_core
    for n in range(1, max_order + 1):
        for g in census.enumerate_graphs(n):
            yield graph_core.write_graph6(g)
    sys.dont_write_bytecode = True  # the benchmark's files are only read
    sys.path.insert(1, PERFBENCH)
    import workloads
    for name in ("families", "symmetric"):
        for op in workloads.build(name, seed=1):
            yield op.argv[-1]


def _record(g6: str) -> str:
    from coverstab import aut, cover, criteria, graph_core
    g = graph_core.parse_graph6(g6)
    cf = aut.canonical_form(g)
    return json.dumps([
        g6, cf.canonical_graph6, cf.relabeling, str(cf.aut_order),
        cf.aut_generators, cover.stability_report(g).as_dict(),
        [v.as_dict() for v in criteria.criteria_summary(g)]])


def digest(max_order: int) -> tuple[str, int]:
    """The hex sha256 over the inputs' records, and their number."""
    h, count = hashlib.sha256(), 0
    for g6 in _inputs(max_order):
        h.update(_record(g6).encode("ascii") + b"\n")
        count += 1
    return h.hexdigest(), count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-order", type=int, default=8,
                    help="largest census order included (default 8)")
    args = ap.parse_args(argv)
    # the checkout's sources first, never an installed copy
    sys.path.insert(0, SRC)
    import coverstab
    if os.path.dirname(os.path.dirname(coverstab.__file__)) != SRC:
        sys.exit(f"output_digest: imported {coverstab.__file__}")
    hexdigest, count = digest(args.max_order)
    print(f"{hexdigest} {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
