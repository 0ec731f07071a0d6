import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"


def checkout_copy(dest):
    """The files a perfbench run reads: src/, perfbench/, BENCHMARK.json."""
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def bench_pairs(*args):
    return subprocess.run([sys.executable, str(TOOL), *map(str, args),
                           "--tiny", "--seconds", "0", "--pairs", "1",
                           "--workload", "symmetric"],
                          capture_output=True, text=True, timeout=300)


@pytest.fixture
def copies(tmp_path):
    return checkout_copy(tmp_path / "a"), checkout_copy(tmp_path / "b")


def test_one_row_per_end_to_end_metric(copies):
    proc = bench_pairs(*copies)
    assert proc.returncode == 0, proc.stderr
    names = [m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    runs = [line for line in proc.stdout.splitlines()
            if line.startswith("pair 1 ")]
    assert sorted(line.split()[2] for line in runs) == ["change:", "parent:"]
    rows = [line for line in proc.stdout.splitlines()
            if line.split(" ", 1)[0] in names]
    assert [row.split(" ", 1)[0] for row in rows] == names
    assert all(row.endswith(("within bound", "worse beyond bound",
                             "unresolved")) for row in rows)
    # bytecode went elsewhere: only run.py's out/ is new under perfbench/
    for copy in copies:
        assert not list((copy / "perfbench").rglob("__pycache__"))


def test_differing_benchmarks_are_refused(copies):
    workloads = copies[1] / "perfbench" / "workloads.py"
    workloads.write_bytes(workloads.read_bytes() + b"\n")
    proc = bench_pairs(*copies)
    assert proc.returncode == 1
    assert not proc.stdout and "perfbench/workloads.py" in proc.stderr
    assert not [copy for copy in copies if (copy / "perfbench" / "out").exists()]
