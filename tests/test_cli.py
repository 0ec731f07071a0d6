import io
import json
import os
import resource
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from coverstab.graph_core import parse_graph6, write_graph6
from coverstab.aut import are_isomorphic
from coverstab.families import complete_graph, cycle, johnson
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

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
        code, out, _ = invoke(capsys, "analyze", "-")
        assert code == EXIT_OK and json.loads(out)["n"] == 3

    def test_parse_error_exit_code(self, capsys):
        code, out, err = invoke(capsys, "analyze", "!!!")
        assert code == EXIT_PARSE
        assert not out and "parse error" in err

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

    def test_non_ascii_stream_is_a_parse_error(self, capsys, tmp_path):
        stream = tmp_path / "bad.g6"
        stream.write_text("Bw\nB\u00e9\n", encoding="utf-8")
        code, out, err = invoke(capsys, "census", "--n", "3",
                                "--stream", str(stream))
        assert code == EXIT_PARSE
        assert not out and "line 2" in err and "non-ASCII" in err

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_order_beyond_builtin_points_to_stream(self, capsys, threads):
        code, out, err = invoke(capsys, "census", "--n", "10",
                                "--threads", threads)
        assert code == EXIT_USAGE
        assert not out and "--stream" in err

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
        cover.canonical_form = lambda g, p=None: (
            dataclasses.replace(real(g, p), aut_order=3) if g.n == 6
            else real(g, p))
        """, ["analyze", "Bw"]),
    "Schreier-Sims order off the search order": ("""
        perms.group_from_generators = lambda gens, n: Order(5)
        cli.stability_report = lambda g: aut.automorphism_group(g)
        """, ["analyze", "Bw"]),
    "census graph escaping its classification": ("""
        real = census.stability_report
        census.stability_report = lambda g: dataclasses.replace(
            real(g), stable=False, classification="trivially_unstable")
        """, ["census", "--n", "4"]),
    "generated graph count off the published one": ("""
        census.KNOWN_GRAPH_COUNTS[4] = 12
        """, ["census", "--n", "4"]),
}


@pytest.mark.parametrize("case", sorted(FORCED_FAILURES))
def test_soundness_checks_survive_optimize(case):
    setup, argv = FORCED_FAILURES[case]
    script = textwrap.dedent("""
        import dataclasses
        import sys
        from coverstab import aut, census, cli, cover, perms

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
