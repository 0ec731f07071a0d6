import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "coverstab"


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a soundness check written as
    # one would vanish; such checks raise SoundnessError instead
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found
