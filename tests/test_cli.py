import decimal
import gc
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from coverstab.graph_core import Graph, parse_graph6, write_graph6
from coverstab.aut import are_isomorphic
from coverstab.families import complete_graph, cycle, johnson, petersen
from coverstab.cli import run, EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_SOUNDNESS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subprocess_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ,
            "PYTHONPATH": src if not path else src + os.pathsep + path}


class TestAnalyze:
    def test_triangle_stable(self, capsys):
        code, out, err = invoke(capsys, "analyze", "Bw")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["stable"] is True
        assert payload["aut_x_order"] == "6"
        assert payload["aut_bx_order"] == "12"
        assert payload["index"] == "1"

    def test_criteria_flag(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "--criteria",
                              write_graph6(johnson(7, 2)))
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["stable"] is True
        names = {v["criterion"]: v["applies"] for v in payload["criteria"]}
        assert names["common-neighbor-separation"] is True

    @pytest.mark.parametrize("g6, aut_x, aut_bx, classification", [
        ("@", "1", "2", "stable"),                             # K1
        ("A?", "2", "24", "trivially_unstable"),               # E2
        ("HwCGGCP", "72", "10368", "trivially_unstable"),      # K3 + C6
    ])
    def test_component_inputs(self, capsys, g6, aut_x, aut_bx,
                              classification):
        code, out, _ = invoke(capsys, "analyze", g6)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["aut_x_order"], payload["aut_bx_order"]) == (
            aut_x, aut_bx)
        assert payload["classification"] == classification
        assert int(payload["index"]) == int(aut_bx) // (2 * int(aut_x))
        assert ("disconnected" in payload["reasons"]) == (g6 != "@")

    def test_large_edgeless_graph(self, capsys):
        # |Aut(BX)| = 2400! has more digits than str(int) prints by default;
        # the second run is under the lowest digit limit Python accepts and
        # in a one-digit decimal context that traps any rounding
        limit = sys.get_int_max_str_digits()
        payloads = []
        for constrained in (False, True):
            with decimal.localcontext() as ctx:
                if constrained:
                    sys.set_int_max_str_digits(640)
                    ctx.prec = 1
                    ctx.traps[decimal.Inexact] = True
                    ctx.traps[decimal.Rounded] = True
                try:
                    code, out, err = invoke(capsys, "analyze",
                                            write_graph6(Graph(1200)))
                finally:
                    sys.set_int_max_str_digits(limit)
            assert code == EXIT_OK and "Traceback" not in err
            payloads.append(json.loads(out))
        sys.set_int_max_str_digits(0)
        try:
            for payload in payloads:
                assert payload["aut_x_order"] == str(math.factorial(1200))
                assert payload["aut_bx_order"] == str(math.factorial(2400))
        finally:
            sys.set_int_max_str_digits(limit)

    def test_deep_search_under_a_low_recursion_limit(self):
        # 30 shuffled C5s put 60 individualizations on the search's first
        # path, which a search recursing once per level cannot take under
        # a limit of 60 frames
        script = textwrap.dedent("""
            import math, random, sys
            from coverstab.aut import canonical_form
            from coverstab.cli import run
            from coverstab.graph_core import Graph, write_graph6
            images = list(range(150))
            random.Random(5).shuffle(images)
            g = Graph(150, [(images[5 * k + i], images[5 * k + (i + 1) % 5])
                            for k in range(30) for i in range(5)])
            sys.setrecursionlimit(60)
            print(canonical_form(g).aut_order, file=sys.stderr)
            sys.exit(run(["analyze", write_graph6(g)]))
            """)
        proc = subprocess.run([sys.executable, "-c", script],
                              env=subprocess_env(), capture_output=True,
                              text=True, timeout=60)
        order = str(10 ** 30 * math.factorial(30))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[0] == order
        assert json.loads(proc.stdout)["aut_x_order"] == order

    def test_repeated_commands_share_one_parser(self, capsys):
        # options of one call do not leak into the next, and no call after
        # the first, which builds the parser, leaves reference cycles for
        # the collector
        invoke(capsys, "analyze", "Bw")
        gc.collect()
        for argv in (["analyze", "--criteria", "Bw"], ["analyze", "Bw"]):
            code, out, _ = invoke(capsys, *argv)
            assert code == EXIT_OK
            assert gc.collect() == 0
        assert "criteria" not in json.loads(out)

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = invoke(capsys, "analyze", "-")
        assert code == EXIT_OK and json.loads(out)["n"] == 3

    def test_parse_error_exit_code(self, capsys):
        code, out, err = invoke(capsys, "analyze", "!!!")
        assert code == EXIT_PARSE
        assert not out and "parse error" in err

    def test_graph6_header_accepted(self, capsys):
        code, out, _ = invoke(capsys, "analyze", ">>graph6<<Bw")
        assert code == EXIT_OK
        assert out == invoke(capsys, "analyze", "Bw")[1]

    @pytest.mark.parametrize("arg, message", [
        (">>graph6<<", "empty graph6 record"),
        (">>graph6<<D", "record too short"),
    ])
    def test_graph6_header_without_a_record(self, capsys, arg, message):
        code, out, err = invoke(capsys, "analyze", arg)
        assert code == EXIT_PARSE
        assert not out and message in err

    def test_non_ascii_record_is_a_parse_error(self, capsys):
        code, out, err = invoke(capsys, "analyze", "B\u00e9")
        assert code == EXIT_PARSE
        assert not out and "non-ASCII" in err


class TestCover:
    def test_triangle_cover_is_hexagon(self, capsys):
        code, out, _ = invoke(capsys, "cover", "Bw")
        assert code == EXIT_OK
        assert are_isomorphic(parse_graph6(out.strip()), cycle(6))


class TestIso:
    def test_true_false(self, capsys):
        j62 = write_graph6(johnson(6, 2))
        j64 = write_graph6(johnson(6, 4))
        code, out, _ = invoke(capsys, "iso", j62, j64)
        assert code == EXIT_OK and out.strip() == "true"
        code, out, _ = invoke(capsys, "iso", "Bw", "Bg")
        assert out.strip() == "false"

    def test_large_edgeless_graphs(self, capsys):
        # the canonical form of E1200 searches one quotient vertex
        e1200 = write_graph6(Graph(1200))
        code, out, _ = invoke(capsys, "iso", e1200, e1200)
        assert code == EXIT_OK and out.strip() == "true"


class TestFamily:
    def test_johnson(self, capsys):
        code, out, _ = invoke(capsys, "family", "johnson", "--n", "6", "--k", "2")
        assert code == EXIT_OK
        assert parse_graph6(out.strip()) == johnson(6, 2)

    def test_lexcycle(self, capsys):
        code, out, _ = invoke(capsys, "family", "lexcycle", "--m", "8",
                              "--h", "A_")
        assert code == EXIT_OK
        assert parse_graph6(out.strip()).n == 16

    def test_lexcycle_hypothesis_error(self, capsys):
        code, out, err = invoke(capsys, "family", "lexcycle", "--m", "7",
                                "--h", "A_")
        assert code == EXIT_USAGE and "m = 7 < 8" in err

    def test_xab(self, capsys):
        code, out, _ = invoke(capsys, "family", "xab", "--base", "Bw",
                              "--a", "0", "--b", "")
        assert code == EXIT_OK
        g = parse_graph6(out.strip())
        assert g.n == 7 and g.edge_count() == 7

    def test_johnson_domain_error(self, capsys):
        code, _, err = invoke(capsys, "family", "johnson", "--n", "2", "--k", "5")
        assert code == EXIT_USAGE and "error" in err

    @pytest.mark.parametrize("k, code", [(1, EXIT_OK), (20, EXIT_USAGE)])
    def test_johnson_on_forty_points(self, k, code):
        # J(40, k) has C(40, k) vertices, so neither call may walk the 2^40
        # subsets: J(40, 1) = K40 comes back at once, and J(40, 20), with
        # more vertices than graph6 can encode, is refused up front (run in
        # a subprocess so that a slow build fails on the timeout)
        proc = subprocess.run(
            [sys.executable, "-m", "coverstab.cli", "family", "johnson",
             "--n", "40", "--k", str(k)], env=subprocess_env(),
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == code, proc.stderr
        if code == EXIT_OK:
            assert parse_graph6(proc.stdout.strip()) == complete_graph(40)
        else:
            assert not proc.stdout and "vertices" in proc.stderr

    @pytest.mark.parametrize("argv, order", [
        (["lexcycle", "--m", "50000", "--h", "EhEG"], "300000"),
        (["johnson", "--n", "20", "--k", "10"], "184756")],
        ids=["lexcycle", "johnson"])
    def test_lexcycle_too_large_is_refused_before_building(self, argv, order):
        # C50000[EhEG] has 300000 vertices and J(20,10) 184756; their rows
        # alone would take gigabytes, so the order must be refused before
        # any is built. The address-space limit makes a regression fail
        # fast.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "coverstab.cli", "family", *argv],
            env=subprocess_env(), capture_output=True, text=True, timeout=30,
            preexec_fn=limit_memory)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert not proc.stdout and order in proc.stderr


class TestCensus:
    def test_table_row_csv(self, capsys):
        code, out, _ = invoke(capsys, "census", "--n", "5", "--csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "n,cnbtf,ntu,xab"
        assert lines[1] == "5,10,1,1"

    def test_aligned_table(self, capsys):
        code, out, _ = invoke(capsys, "census", "--n", "4")
        assert code == EXIT_OK
        assert out.split()[4:] == ["4", "2", "0", "0"]

    def test_stream_and_emit(self, capsys, tmp_path):
        from coverstab.census import enumerate_graphs
        stream = tmp_path / "g5.g6"
        stream.write_text("\n".join(write_graph6(g)
                                    for g in enumerate_graphs(5)) + "\n")
        out_file = tmp_path / "ntu.g6"
        code, out, err = invoke(capsys, "census", "--n", "5",
                                "--stream", str(stream), "--csv",
                                "--emit-ntu", str(out_file))
        assert code == EXIT_OK
        assert out.strip().splitlines()[1] == "5,10,1,1"
        emitted = out_file.read_text().strip().splitlines()
        assert len(emitted) == 1
        from coverstab.cover import stability_report
        assert (stability_report(parse_graph6(emitted[0])).classification
                == "nontrivially_unstable")

    def test_stream_with_graph6_headers(self, capsys, tmp_path):
        # each line as networkx writes it, '>>graph6<<' header included,
        # gives the row and the ntu line of the header-free stream
        nx = pytest.importorskip("networkx")
        from coverstab.census import enumerate_graphs
        plain, headed = tmp_path / "g5.g6", tmp_path / "g5nx.g6"
        graphs = list(enumerate_graphs(5))
        plain.write_text("\n".join(map(write_graph6, graphs)) + "\n")
        with open(headed, "wb") as f:
            for g in graphs:
                h = nx.Graph()
                h.add_nodes_from(range(g.n))
                h.add_edges_from(g.edges())
                f.write(nx.to_graph6_bytes(h))
        assert headed.read_text().count(">>graph6<<") == 34
        emitted = []
        for stream in (plain, headed):
            out_file = tmp_path / f"ntu-{stream.stem}.g6"
            code, out, err = invoke(capsys, "census", "--n", "5",
                                    "--stream", str(stream), "--csv",
                                    "--emit-ntu", str(out_file))
            assert code == EXIT_OK
            assert out.strip().splitlines()[1] == "5,10,1,1"
            emitted.append(out_file.read_text().strip().splitlines())
        assert len(emitted[0]) == 1 and emitted[1] == emitted[0]

    def test_emit_onto_the_stream_is_refused(self, capsys, tmp_path):
        # opening the output would truncate the input before it is read
        from coverstab.census import enumerate_graphs
        stream = tmp_path / "g5.g6"
        stream.write_text("\n".join(write_graph6(g)
                                    for g in enumerate_graphs(5)) + "\n")
        before = stream.read_bytes()
        code, out, err = invoke(capsys, "census", "--n", "5",
                                "--stream", str(stream),
                                "--emit-ntu", str(tmp_path / "." / "g5.g6"))
        assert code == EXIT_USAGE
        assert not out and "--stream" in err
        assert stream.read_bytes() == before

    def test_threads_deterministic(self, capsys):
        code1, out1, _ = invoke(capsys, "census", "--n", "5", "--csv")
        code2, out2, _ = invoke(capsys, "census", "--n", "5", "--csv",
                                "--threads", "2")
        assert code1 == code2 == EXIT_OK and out1 == out2

    def test_parse_error_in_stream(self, capsys, tmp_path):
        stream = tmp_path / "bad.g6"
        stream.write_text("D??\nZZZZZZ$\n")
        code, _, err = invoke(capsys, "census", "--n", "5",
                              "--stream", str(stream))
        assert code == EXIT_PARSE and "line" in err

    def test_stream_record_of_another_order(self, capsys, tmp_path):
        # refused like a malformed record, with the line it is on
        stream = tmp_path / "mixed.g6"
        stream.write_text("Dhc\n\nBw\n")
        code, out, err = invoke(capsys, "census", "--n", "5",
                                "--stream", str(stream))
        assert code == EXIT_PARSE and not out
        assert err == "parse error: line 3: graph has order 3, expected 5\n"

    def test_non_ascii_stream_is_a_parse_error(self, capsys, tmp_path):
        stream = tmp_path / "bad.g6"
        stream.write_text("Bw\nB\u00e9\n", encoding="utf-8")
        code, out, err = invoke(capsys, "census", "--n", "3",
                                "--stream", str(stream))
        assert code == EXIT_PARSE
        assert not out and "line 2" in err and "non-ASCII" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_order_beyond_builtin_points_to_stream(self, capsys, monkeypatch,
                                                   threads):
        # The order is checked before any graph is generated, so a pooled
        # run does not build the order-8 roots first. The stub stops a run
        # that would generate at its first call, not after order 10.
        from coverstab import census
        calls = []

        def augment(g):
            calls.append(g.n)
            raise AssertionError("generation started")

        monkeypatch.setattr(census, "_augment", augment)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        code, out, err = invoke(capsys, "census", "--n", "10",
                                "--threads", threads)
        assert code == EXIT_USAGE
        assert not out and "--stream" in err
        assert not calls

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_order_below_one_is_a_usage_error(self, capsys, n):
        code, out, err = invoke(capsys, "census", "--n", n)
        assert code == EXIT_USAGE
        assert not out
        assert f"must be at least 1, not {n}" in err
        assert "--stream" not in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_streamed_order_below_one_is_a_usage_error(self, capsys,
                                                       tmp_path, n):
        # a stream supplies the graphs, not the order, so an empty stream
        # must not turn a meaningless order into a row of zeros
        stream = tmp_path / "empty.g6"
        stream.write_text("")
        code, out, err = invoke(capsys, "census", "--n", n,
                                "--stream", str(stream), "--csv")
        assert code == EXIT_USAGE
        assert not out
        assert f"must be at least 1, not {n}" in err

    def test_unwritable_emit_path_fails_before_the_census(
            self, capsys, monkeypatch, tmp_path):
        # The output file is opened before any graph is generated, so a
        # bad path costs no census and prints no table.
        from coverstab import census
        calls = []
        real = census._augment

        def augment(g):
            calls.append(g.n)
            return real(g)

        monkeypatch.setattr(census, "_augment", augment)
        code, out, err = invoke(capsys, "census", "--n", "6", "--emit-ntu",
                                str(tmp_path / "missing" / "ntu.g6"))
        assert code == EXIT_USAGE
        assert not out and "ntu.g6" in err
        assert not calls

    @pytest.mark.parametrize("argv, code", [
        (["--n", "0", "--stream", "empty.g6"], EXIT_USAGE),
        (["--n", "12"], EXIT_USAGE),
        (["--n", "6", "--threads", "0"], EXIT_USAGE),
        (["--n", "5", "--stream", "bad.g6"], EXIT_PARSE),
    ])
    def test_refused_census_keeps_the_emit_file(self, capsys, monkeypatch,
                                                tmp_path, argv, code):
        # the output is emptied only once the row is in hand
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.g6").write_text("")
        (tmp_path / "bad.g6").write_text("D??\nZZZZZZ$\n")
        out_file = tmp_path / "keep.g6"
        out_file.write_bytes(b"Bw\n")
        got, out, _ = invoke(capsys, "census", *argv,
                             "--emit-ntu", str(out_file))
        assert got == code
        assert out_file.read_bytes() == b"Bw\n"

    def test_emit_replaces_a_longer_file(self, capsys, tmp_path):
        out_file = tmp_path / "ntu.g6"
        out_file.write_text("Bw\n" * 100)
        code, out, _ = invoke(capsys, "census", "--n", "6", "--csv",
                              "--emit-ntu", str(out_file))
        assert code == EXIT_OK
        ntu = int(out.splitlines()[1].split(",")[2])
        emitted = out_file.read_text().splitlines()
        assert len(emitted) == ntu and "Bw" not in emitted
        from coverstab.cover import stability_report
        assert all(stability_report(parse_graph6(line)).classification
                   == "nontrivially_unstable" for line in emitted)

    def test_emit_to_a_device(self, capsys):
        # a device has nothing to empty and refuses to be truncated
        code, _, err = invoke(capsys, "census", "--n", "5",
                              "--emit-ntu", os.devnull)
        assert code == EXIT_OK and "wrote 1 graphs" in err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_thread_count_below_one_rejected(self, capsys, threads):
        code, out, err = invoke(capsys, "census", "--n", "4",
                                "--threads", threads)
        assert code == EXIT_USAGE
        assert not out and "threads" in err


class TestUsage:
    def test_unknown_command(self, capsys):
        code, _, err = invoke(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_missing_argument(self, capsys):
        code, _, err = invoke(capsys, "census")
        assert code == EXIT_USAGE

    def test_soundness_inconsistency_exit_code(self, capsys, monkeypatch):
        import coverstab.cli as cli_mod
        from coverstab.criteria import SoundnessError

        def explode(_):
            raise SoundnessError("forced for the exit-code test")

        monkeypatch.setattr(cli_mod, "criteria_summary", explode)
        code, out, err = invoke(capsys, "analyze", "--criteria", "Bw")
        assert code == EXIT_SOUNDNESS
        assert "soundness" in err


# Each case breaks one fact, then runs a command line under ``python -O``
# (which strips assert statements); a soundness check must still fire.
FORCED_FAILURES = {
    "cover order not divisible by 2|Aut(X)|": ("""
        real = cover.canonical_form
        cover.canonical_form = lambda g, p=None, seeds=(): (
            dataclasses.replace(real(g, p, seeds), aut_order=3) if g.n == 10
            else real(g, p, seeds))
        """, ["analyze", "Dhc"]),
    "lifted seed off the cover's automorphisms": ("""
        real = cover.canonical_form
        cover.canonical_form = lambda g, p=None, seeds=(): real(
            g, p, tuple(s[::-1] for s in seeds))
        """, ["analyze", "Dhc"]),
    "lifted seed with a repeated image": ("""
        real = cover.canonical_form
        cover.canonical_form = lambda g, p=None, seeds=(): real(
            g, p, tuple(s[:-1] + s[-2:-1] for s in seeds))
        """, ["analyze", "Dhc"]),
    "lifted seed with a negative image": ("""
        real = cover.canonical_form
        cover.canonical_form = lambda g, p=None, seeds=(): real(
            g, p, tuple(s[:-1] + (-1,) for s in seeds))
        """, ["analyze", "Dhc"]),
    "Schreier-Sims order off the search order": ("""
        perms.group_from_generators = lambda gens, n: Order(5)
        cli.stability_report = lambda g: aut.automorphism_group(g)
        """, ["analyze", "Bw"]),
    "census graph escaping its classification": ("""
        real = census.stability_report
        census.stability_report = lambda g: dataclasses.replace(
            real(g), stable=False, classification="trivially_unstable")
        """, ["census", "--n", "4"]),
    "non-trivially unstable srg without lambda = mu > 0": ("""
        # K4 x K4 is srg(16, 6, 2, 2) and non-trivially unstable; with k <= mu
        # and lambda != mu no stability criterion applies to it first
        real = criteria.srg_params
        criteria.srg_params = lambda g: real(g) and dataclasses.replace(
            real(g), k=real(g).mu, lambda_=real(g).mu + 1)
        """, ["analyze", "--criteria", "O~`HW}GPHDaNaGPCcPWaN"]),
    "srg-triangle-free without triangle-free-diameter-2": ("""
        criteria.check_triangle_free_diam2 = lambda g: criteria.CriterionVerdict(
            "triangle-free-diameter-2", False, ("forced",))
        """, ["analyze", "--criteria", write_graph6(petersen())]),
    "distance-regular-growth without triangle-distance-growth": ("""
        criteria.check_triangle_distance_growth = (
            lambda g: criteria.CriterionVerdict(
                "triangle-distance-growth", False, ("forced",)))
        """, ["analyze", "--criteria", write_graph6(johnson(8, 4))]),
    "generated graph count off the published one": ("""
        census.KNOWN_GRAPH_COUNTS[4] = 12
        """, ["census", "--n", "4"]),
    "generated graph count off the published one, in the pool": ("""
        import os
        os.sched_getaffinity = lambda pid: {0, 1}
        census.KNOWN_GRAPH_COUNTS[4] = 12
        """, ["census", "--n", "4", "--threads", "2"]),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_soundness_checks_survive_optimize(case):
    setup, argv = FORCED_FAILURES[case]
    script = textwrap.dedent("""
        import dataclasses
        import sys
        from coverstab import aut, census, cli, cover, criteria, perms

        class Order:
            def __init__(self, value):
                self.value = value

            def order(self):
                return self.value
        """) + textwrap.dedent(setup) + textwrap.dedent(f"""
        sys.exit(cli.run({argv!r}) if sys.flags.optimize else 99)
        """)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_SOUNDNESS, proc.stderr
    assert "soundness inconsistency" in proc.stderr
