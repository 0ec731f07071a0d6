import pytest

from coverstab.graph_core import Graph
from coverstab.census import enumerate_graphs


@pytest.fixture(scope="session")
def graphs_by_order():
    """One representative per isomorphism class, orders 1..7."""
    return {n: list(enumerate_graphs(n)) for n in range(1, 8)}


@pytest.fixture(scope="session")
def rook_4x4():
    """4x4 rook's graph: a (16,6,2,2) strongly regular graph."""
    return Graph(16, [(4 * i + j, 4 * k + l)
                      for i in range(4) for j in range(4)
                      for k in range(4) for l in range(4)
                      if 4 * i + j < 4 * k + l and (i == k or j == l)])


@pytest.fixture(scope="session")
def shrikhande():
    """The other (16,6,2,2) strongly regular graph, as a Cayley graph on
    Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = []
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u, v = 4 * a + b, 4 * ((a + da) % 4) + ((b + db) % 4)
                if u < v:
                    edges.append((u, v))
    return Graph(16, edges)


@pytest.fixture(scope="session")
def clebsch():
    """The Clebsch graph, a (16,5,0,2) strongly regular graph: the 4-bit
    words, adjacent when they differ in one bit or in all four."""
    return Graph(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                      if (u ^ v).bit_count() in (1, 4)])
