"""Command-line interface: analyze / cover / iso / family / census over
graph6 inputs.

Machine-readable output (JSON, CSV, graph6) goes to stdout; diagnostics to
stderr. Exit codes: 0 success, 1 usage or domain error, 2 input parse
error, 3 soundness inconsistency (a criterion contradicted the direct
stability computation, which always means an implementation bug).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import ExitStack
from typing import Optional, Sequence

from .graph_core import Graph, GraphParseError, parse_graph6, write_graph6
from .aut import are_isomorphic
from .cover import double_cover, stability_report
from .criteria import SoundnessError, criteria_summary
from .families import extend_xab, johnson, lexcycle
from .census import census_row

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SOUNDNESS = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that raises instead of exiting with status 2."""

    def error(self, message):
        raise _UsageError(message)


def _read_graph(arg: str) -> Graph:
    if arg == "-":
        arg = sys.stdin.readline()
        if not arg.strip():
            raise GraphParseError("no graph6 record on standard input")
    return parse_graph6(arg.strip())


def _cmd_analyze(args) -> int:
    g = _read_graph(args.graph)
    report = stability_report(g)
    payload = report.as_dict()
    if args.criteria:
        verdicts = criteria_summary(g)
        payload["criteria"] = [v.as_dict() for v in verdicts]
    print(json.dumps(payload))
    human = (f"n={report.n} |Aut(X)|={payload['aut_x_order']} "
             f"|Aut(BX)|={payload['aut_bx_order']} -> {report.classification}")
    if report.reasons:
        human += " (" + ", ".join(report.reasons) + ")"
    if not report.stable:
        human += f", instability index {payload['index']}"
    print(human, file=sys.stderr)
    return EXIT_OK


def _cmd_cover(args) -> int:
    g = _read_graph(args.graph)
    print(write_graph6(double_cover(g)))
    return EXIT_OK


def _cmd_iso(args) -> int:
    g = _read_graph(args.left)
    h = _read_graph(args.right)
    print("true" if are_isomorphic(g, h) else "false")
    return EXIT_OK


def _parse_vertex_list(text: Optional[str]) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(int(tok) for tok in text.split(",") if tok.strip() != "")


def _cmd_family(args) -> int:
    if args.family == "johnson":
        print(write_graph6(johnson(args.n, args.k)))
    elif args.family == "lexcycle":
        h = _read_graph(args.h)
        print(write_graph6(lexcycle(args.m, h)))
    elif args.family == "xab":
        base = _read_graph(args.base)
        ext = extend_xab(base, _parse_vertex_list(args.a),
                         _parse_vertex_list(args.b))
        print(write_graph6(ext.result))
    return EXIT_OK


def _cmd_census(args) -> int:
    if (args.stream and args.emit_ntu and os.path.exists(args.emit_ntu)
            and os.path.samefile(args.stream, args.emit_ntu)):
        raise ValueError(f"--emit-ntu {args.emit_ntu} is the --stream file, "
                         "which writing the ntu graphs would empty")
    with ExitStack() as stack:
        # Both files are opened before the census runs, so a bad path
        # fails at once; the output is opened for appending and emptied
        # only once the row is in hand, so a refused census leaves it as
        # it was. latin-1 decodes every byte, so parse_graph6 reports a
        # non-ASCII byte as malformed input with its line number.
        source = (stack.enter_context(
            open(args.stream, "r", encoding="latin-1"))
            if args.stream else None)
        out = (stack.enter_context(open(args.emit_ntu, "a", encoding="ascii"))
               if args.emit_ntu else None)
        row = census_row(args.n, source=source, threads=args.threads)
        if args.csv:
            print("n,cnbtf,ntu,xab")
            print(row.as_csv())
        else:
            print(f"{'n':>4} {'cnbtf':>10} {'ntu':>8} {'xab':>8}")
            print(f"{row.n:>4} {row.count_cnbtf:>10} {row.count_ntu:>8} "
                  f"{row.count_xab:>8}")
        if out is not None:
            if os.path.isfile(args.emit_ntu):  # not a device or a pipe
                out.truncate(0)
            out.writelines(line + "\n" for line in row.ntu)
            print(f"wrote {len(row.ntu)} graphs to {args.emit_ntu}",
                  file=sys.stderr)
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged, and
    a parser per call left argparse's reference cycles to the collector,
    which runs less often as the commands allocate less."""
    parser = _Parser(prog="coverstab",
                     description="Graph stability via canonical double covers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability report for one graph")
    p.add_argument("graph", help="graph6 record, or - for stdin")
    p.add_argument("--criteria", action="store_true",
                   help="append criterion verdicts")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("cover", help="emit the canonical double cover")
    p.add_argument("graph", help="graph6 record, or - for stdin")
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("iso", help="canonical-form isomorphism test")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("family", help="emit a named family member")
    fam = p.add_subparsers(dest="family", required=True)
    pj = fam.add_parser("johnson")
    pj.add_argument("--n", type=int, required=True)
    pj.add_argument("--k", type=int, required=True)
    pl = fam.add_parser("lexcycle")
    pl.add_argument("--m", type=int, required=True)
    pl.add_argument("--h", required=True, help="graph6 of the second factor")
    px = fam.add_parser("xab")
    px.add_argument("--base", required=True, help="graph6 of the base graph")
    px.add_argument("--a", default="", help="comma-separated vertices of A")
    px.add_argument("--b", default="", help="comma-separated vertices of B")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("census", help="census counts for one order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stream", help="graph6 file with the order-n graphs")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--emit-ntu", metavar="FILE",
                   help="write non-trivially unstable representatives")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_census)
    return parser


def run(argv: Sequence[str]) -> int:
    """Dispatch a command line; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except SoundnessError as exc:
        print(f"soundness inconsistency: {exc}", file=sys.stderr)
        return EXIT_SOUNDNESS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
