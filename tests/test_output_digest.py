import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"


def test_digest_repeats_over_the_order_6_inputs():
    # 208 graphs of order 1..6 plus the 84 families and symmetric inputs
    lines = []
    for _ in range(2):
        done = subprocess.run([sys.executable, str(TOOL), "--max-order", "6"],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        lines.append(done.stdout.strip().splitlines()[-1])
    assert lines[0] == lines[1]
    assert re.fullmatch(r"[0-9a-f]{64} 292", lines[0])
