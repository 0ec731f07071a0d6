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


def _split(path, owner):
    """The AST nodes of path inside and outside the body of owner, written
    as module.function or module.Class.method ("" for none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = []
    module, *cls, func = owner.split(".") if owner else ("", "")
    if path.stem == module:
        scope = tree.body if not cls else [
            inner for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls[0]
            for inner in node.body]
        for node in scope:
            if isinstance(node, ast.FunctionDef) and node.name == func:
                inside = list(ast.walk(node))
    allowed = set(map(id, inside))
    return inside, [node for node in ast.walk(tree) if id(node) not in allowed]


def _outside(path, owner):
    """The AST nodes of path outside the body of owner."""
    return _split(path, owner)[1]


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
    # encoded only when a caller reads CanonicalForm.canonical_graph6,
    # through the one writer, with no graph6 helper of aut's own
    aut_py = PACKAGE / "aut.py"
    names = {"write_graph6"}
    assert _references(aut_py, names, "")  # the accessor itself
    assert not _references(aut_py, names,
                           "aut.CanonicalForm.canonical_graph6")
    tree = ast.parse(aut_py.read_text(encoding="utf-8"), filename=str(aut_py))
    assert not [node.lineno for node in ast.walk(tree)
                if (_name(node) or getattr(node, "name", None) or ""
                    ).startswith("graph6_")]


def test_graph6_alphabet_in_one_place():
    # graph6 is base64 with another alphabet: graph_core defines the
    # translation tables once, and only parse_graph6 and write_graph6 use
    # them and the base64 codec
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    names = {"base64", "b64encode", "b64decode", "maketrans", "_GRAPH6",
             "_BASE64", "_TO_BASE64", "_FROM_BASE64"}
    users = {owner for path in modules for owner, node in _owned_names(path)
             if _name(node) in names}
    assert users == {"graph_core", "graph_core.parse_graph6",
                     "graph_core.write_graph6"}
    # at module level, only the import and the tables' definitions
    tree = ast.parse((PACKAGE / "graph_core.py").read_text(encoding="utf-8"))
    assert {type(node) for node in tree.body
            if not isinstance(node, ast.FunctionDef)
            and any(_name(inner) in names for inner in ast.walk(node))
            } == {ast.Import, ast.Assign}


@pytest.mark.parametrize("names, owner", [
    ({"_augment"}, "census._descendants"),
    ({"multiprocessing"}, "census.census_row"),
], ids=["generator", "pool"])
def test_census_has_one_generator_and_one_pool(names, owner):
    # generation is one depth-first descent, which the serial census, the
    # pool's roots and its workers all walk; census_row owns the one pool,
    # and every census task walks _descendants from its root, with no
    # second kind of task that generates a whole order itself
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert _references(PACKAGE / "census.py", names, "")
    found = [ref for path in modules
             for ref in _references(path, names, owner)]
    assert not found
    task = _split(PACKAGE / "census.py", "census._census_task")[0]
    assert any(_name(node) == "_descendants" for node in task)
    assert not [node.lineno for node in task
                if _name(node) == "enumerate_graphs"
                or (isinstance(node, ast.Constant) and node.value is None)]


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


def test_cells_enter_the_search_only_checked():
    # a coloured search takes plain cells, which canonical_form passes
    # through the one check aut._checked_cells; the partition class and the
    # two-search key of a bipartite component stay gone
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [ref for path in modules
             for name in ("OrderedPartition", "_bipartite_part")
             for ref in _defines_or_names(path, name)]
    assert not found
    aut_py = PACKAGE / "aut.py"
    assert _defines_or_names(aut_py, "_checked_cells")
    everywhere = len(_references(aut_py, {"_checked_cells"}, ""))
    assert (len(_references(aut_py, {"_checked_cells"}, "aut.canonical_form"))
            < everywhere)


def test_no_private_copies_of_the_standard_library():
    # orders are written by decimal, the verdict JSON comes from the
    # dataclass fields, seed cells are compared as sets, and graph6 is
    # parsed from str only
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    found = [ref for path in modules
             for name in ("_decimal", "_DIGITS", "_mask")
             for ref in _defines_or_names(path, name)]
    assert not found
    criteria_py = PACKAGE / "criteria.py"
    inside = _split(criteria_py, "criteria.CriterionVerdict.as_dict")[0]
    assert inside
    fields = {"criterion", "applies", "failed_hypotheses", "implied",
              "constraint", "detail"}
    assert not [node.lineno for node in inside
                if isinstance(node, ast.Constant) and node.value in fields]
    inside = _split(PACKAGE / "graph_core.py", "graph_core.parse_graph6")[0]
    assert inside
    assert not [node.lineno for node in inside
                if isinstance(node, ast.Call)
                and _name(node.func) == "isinstance"
                and "bytes" in {_name(n) for n in ast.walk(node)}]


def _lowest_bit_walks(nodes):
    """Lines among nodes that isolate a lowest set bit, as x & -x."""
    return [node.lineno for node in nodes
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
            and isinstance(node.right, ast.UnaryOp)
            and isinstance(node.right.op, ast.USub)
            and ast.dump(node.left) == ast.dump(node.right.operand)]


def test_relabelling_reads_memoized_neighbour_lists():
    # Graph.relabel, the leaf certificates and the automorphism check all
    # sum a bit table over graph_core.neighbour_lists, memoized by
    # graph_core.memoized under its own name with no hand-written memo
    # beside it, and none walks a row bit by bit; _refine keeps its own walk
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    graph_core_py, aut_py = PACKAGE / "graph_core.py", PACKAGE / "aut.py"
    tree = ast.parse(graph_core_py.read_text(encoding="utf-8"))
    [owner] = [node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "neighbour_lists"]
    assert [_name(node) for node in owner.decorator_list] == ["memoized"]
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in _outside(path, "")
             if isinstance(node, ast.Constant)
             and node.value in ("nbrs", "neighbour_lists")]
    assert not found
    for path, user in ((graph_core_py, "graph_core.Graph.relabel"),
                       (aut_py, "aut._Search._cert"),
                       (aut_py, "aut._Search.add_automorphism")):
        body = _split(path, user)[0]
        assert body
        assert any(_name(node) == "neighbour_lists" for node in body)
        assert not _lowest_bit_walks(body)
    assert _lowest_bit_walks(_split(aut_py, "aut._refine")[0])


def test_one_record_of_the_four_vertex_extension():
    # extend_xab builds and is_xab_realizable finds the same record, whose
    # vertices and sets are plain fields, so instability_witness certifies
    # an occurrence however it was obtained
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert not [ref for path in modules
                for ref in _defines_or_names(path, "XabWitness")]
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    owners = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, defs) and node.name in (
                    "XabExtension", "extend_xab", "is_xab_realizable"):
                owners.setdefault(node.name, []).append(path.name)
    assert owners == {name: ["families.py"] for name in
                      ("XabExtension", "extend_xab", "is_xab_realizable")}
    tree = ast.parse((PACKAGE / "families.py").read_text(encoding="utf-8"))
    [record] = [node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "XabExtension"]
    assert not [node.lineno for node in ast.walk(record)
                if isinstance(node, ast.FunctionDef)
                and {"property", "cached_property"}
                & {_name(d) for d in node.decorator_list}]
    fields = [node.target.id for node in record.body
              if isinstance(node, ast.AnnAssign)]
    assert fields == ["result", "a1", "a2", "b1", "b2", "A", "B"]


def _function(path, name):
    """The module-level definition of function name in path."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    [node] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == name]
    return node


def test_the_cover_is_a_graph():
    # double_cover returns a plain Graph and the verification API takes the
    # base graph, so no record pairs a graph with its cover
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    assert not [ref for path in modules
                for name in ("DoubleCover", "is_base_automorphism")
                for ref in _defines_or_names(path, name)]
    cover_py = PACKAGE / "cover.py"
    assert _name(_function(cover_py, "double_cover").returns) == "Graph"
    for name in ("lift", "tau", "is_cover_automorphism",
                 "is_fiber_preserving", "is_expected"):
        first = _function(cover_py, name).args.args[0]
        assert _name(first.annotation) == "Graph", name


def test_census_rows_carry_their_ntu_graphs():
    # the row holds the non-trivially unstable graph6 lines; census_row
    # fills no list a caller passes in
    args = _function(PACKAGE / "census.py", "census_row").args
    params = args.posonlyargs + args.args + args.kwonlyargs
    assert params and "collect_ntu" not in [a.arg for a in params]


def test_twin_quotient_is_an_induced_subgraph():
    # one round of the twin quotient keeps the least vertex of each class,
    # so its graph comes from induced_subgraph, not rows built by hand
    body = _split(PACKAGE / "aut.py", "aut._twin_round")[0]
    names = {_name(node) for node in body}
    assert "induced_subgraph" in names and "_unchecked" not in names


def test_one_automorphism_check_on_the_support():
    # canonical_form's seed check and the search's sibling and leaf checks
    # test an image tuple through one method, which reads only the rows of
    # the vertices it moves and is the only one that records a generator;
    # nothing in aut relabels a graph to compare it, and the search keeps
    # no per-row or per-generator state beside its generators
    aut_py = PACKAGE / "aut.py"
    tree = ast.parse(aut_py.read_text(encoding="utf-8"), filename=str(aut_py))
    accessor = "aut.CanonicalForm.canonical_graph6"
    inside, outside = _split(aut_py, accessor)
    assert not [node.lineno for node in outside if _name(node) == "relabel"]
    # the one relabelling encodes the canonical form and compares nothing
    assert any(_name(node) == "relabel" for node in inside)
    assert not [node.lineno for node in inside
                if isinstance(node, ast.Compare)]
    checkers = {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                for inner in ast.walk(node) if isinstance(inner, ast.Compare)
                for side in [inner.left, *inner.comparators]
                if isinstance(side, ast.Subscript)
                and _name(side.value) == "adj"}
    assert checkers == {"add_automorphism"}
    for user in ("aut.canonical_form", "aut._Search.run",
                 "aut._Search._match"):
        body = _split(aut_py, user)[0]
        assert any(isinstance(node, ast.Call)
                   and _name(node.func) == "add_automorphism"
                   for node in body), user
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and node.name == "add_generator"]
    fields = {node.attr for node in _split(aut_py, "aut._Search.__init__")[0]
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)}
    assert fields == {"g", "n", "gens", "zeta", "rho", "order", "jump_to"}


def _owned_names(path):
    """(owner, node) for each node of path, where owner is the innermost
    enclosing module.function or module.Class.method ("" for none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    stack = [(tree, path.stem)]
    while stack:
        node, owner = stack.pop()
        yield owner, node
        for child in ast.iter_child_nodes(node):
            inner = (f"{owner}.{child.name}" if isinstance(child, defs)
                     else owner)
            stack.append((child, inner))


def test_cache_written_only_by_memoized_and_canonical_form():
    # every cached fact of a graph is kept by graph_core.memoized under its
    # function's name, apart from the canonical form; no hand-written table,
    # such as one of every vertex's BFS layers, may come back beside them
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    owners = ("graph_core.memoized", "aut.canonical_form",
              "graph_core.Graph.__init__", "graph_core.Graph._unchecked")
    users = {owner for path in modules
             for owner, node in _owned_names(path)
             if _name(node) == "_cache"}
    assert {owner for owner in owners
            if any(user.startswith(owner) for user in users)} == set(owners)
    assert not [user for user in users
                if not any(user == owner or user.startswith(owner + ".")
                           for owner in owners)]
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and node.value == "layers"]
    assert not found
