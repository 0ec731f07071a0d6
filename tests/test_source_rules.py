import ast
from pathlib import Path

import pytest

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


def _outside(path, owner):
    """The AST nodes of path outside the body of owner, written as
    module.function or module.Class.method ("" for none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    allowed = set()
    module, *cls, func = owner.split(".") if owner else ("", "")
    if path.stem == module:
        scope = tree.body if not cls else [
            inner for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls[0]
            for inner in node.body]
        for node in scope:
            if isinstance(node, ast.FunctionDef) and node.name == func:
                allowed = {id(inner) for inner in ast.walk(node)}
    return [node for node in ast.walk(tree) if id(node) not in allowed]


def _name(node):
    """The name a Name, Attribute or import alias node spells, else None."""
    return (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else node.name if isinstance(node, ast.alias) else None)


def _references(path, names, owner):
    """Lines of path that name one of names, outside the body of owner,
    written as module.function or module.Class.method ("" for none)."""
    return [f"{path.name}:{node.lineno} {_name(node)}"
            for node in _outside(path, owner) if _name(node) in names]


def test_schreier_sims_only_in_the_order_cross_check():
    # orders, orbits and expectedness all come from the canonical-form
    # search; a permutation group is built only by perms itself and by
    # aut.automorphism_group, which cross-checks the search's order
    modules = [p for p in sorted(PACKAGE.rglob("*.py")) if p.name != "perms.py"]
    assert modules
    names = {"group_from_generators", "PermGroup"}
    found = [ref for path in modules
             for ref in _references(path, names, "aut.automorphism_group")]
    assert not found


def _defines_or_names(path, name):
    """Lines of path that define name, or name it in code, in an import
    or as a quoted annotation."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if _name(node) == name
            or getattr(node, "name", None) == name
            or (isinstance(node, ast.Constant) and node.value == name)]


def test_automorphisms_are_image_tuples():
    # an automorphism is its image tuple everywhere in the package, so no
    # permutation class may come back: perms keeps the tuple arithmetic
    # and the Schreier-Sims group of aut.automorphism_group's cross-check
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [ref for path in modules
             for ref in _defines_or_names(path, "Permutation")]
    assert not found
    tree = ast.parse((PACKAGE / "perms.py").read_text(encoding="utf-8"))
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    defined = {node.name for node in tree.body if isinstance(node, defs)}
    defined |= {t.id for node in tree.body
                if isinstance(node, (ast.Assign, ast.AnnAssign))
                for t in ast.walk(node)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
    assert defined == {"_mul", "_inv", "PermGroup", "group_from_generators"}


def test_search_runs_only_behind_the_twin_quotient():
    # canonical_form collapses twins before it searches; a search built
    # anywhere else would bypass the quotient
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [ref for path in modules
             for ref in _references(path, {"_Search"}, "aut.canonical_form")]
    assert not found


def test_orbits_only_from_the_search_union_find():
    # every orbit comes from aut._merge: the search's own union-find, and
    # orbit_roots running it for vertex_orbits and generation
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert _references(PACKAGE / "aut.py", {"_merge", "_root"}, "")
    found = [ref for path in modules if path.name != "aut.py"
             for ref in _references(path, {"_merge", "_root"}, "")]
    found += [ref for path in modules
              for ref in _references(path, {"orbit_of"}, "")]
    assert not found


def test_graph6_encoded_only_by_its_accessor():
    # the IR search compares leaves by their relabelled rows; graph6 is
    # encoded only when a caller reads CanonicalForm.canonical_graph6
    aut_py = PACKAGE / "aut.py"
    names = {"graph6_payload"}
    assert _references(aut_py, names, "")  # the accessor itself
    assert not _references(aut_py, names,
                           "aut.CanonicalForm.canonical_graph6")


@pytest.mark.parametrize("names, owner", [
    ({"_augment"}, "census._descendants"),
    ({"multiprocessing"}, "census.census_row"),
], ids=["generator", "pool"])
def test_census_has_one_generator_and_one_pool(names, owner):
    # generation is one depth-first descent, which the serial census, the
    # pool's roots and its workers all walk; census_row owns the one pool
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert _references(PACKAGE / "census.py", names, "")
    found = [ref for path in modules
             for ref in _references(path, names, owner)]
    assert not found


def _seeded_calls(path, owner):
    """Lines of path, outside the body of owner, that call canonical_form
    with a third argument, a seeds keyword, or unpacked arguments."""
    return [f"{path.name}:{node.lineno}" for node in _outside(path, owner)
            if isinstance(node, ast.Call)
            and _name(node.func) == "canonical_form"
            and (len(node.args) > 2
                 or any(isinstance(a, ast.Starred) for a in node.args)
                 or any(k.arg in ("seeds", None) for k in node.keywords))]


def test_only_the_layered_cover_search_passes_seeds():
    # canonical_form trusts a checked seed as an automorphism; the lifts
    # of X's generators into its layered cover are the one source of seeds
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert _seeded_calls(PACKAGE / "cover.py", "")
    found = [ref for path in modules
             for ref in _seeded_calls(path, "cover._layered_cover_form")]
    assert not found
