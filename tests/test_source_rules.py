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


GROUP_NAMES = {"group_from_generators", "PermGroup"}


def _group_references(path):
    """Lines of path that name a Schreier-Sims group, outside the body of
    aut.automorphism_group."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    if path.name == "aut.py":
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "automorphism_group"):
                allowed = {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name in GROUP_NAMES and id(node) not in allowed:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_schreier_sims_only_in_the_order_cross_check():
    # orders, orbits and expectedness all come from the canonical-form
    # search; a permutation group is built only by perms itself and by
    # aut.automorphism_group, which cross-checks the search's order
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "perms.py"]
    assert modules
    found = [ref for path in modules for ref in _group_references(path)]
    assert not found
