"""README.md's fenced python blocks run as they stand, so the documented
entry points cannot drift from the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})
