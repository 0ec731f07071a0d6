"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and separate from the package's code
paths: image tuples from cycle notation, string-based graph6 encoding,
edge-set relabelling, bit-by-bit leaf certificates, literal permutation
filtering, breadth-first closures, textbook distance matrices, labeled
enumeration, the four-vertex extension's six conditions on vertex
tuples.
Three lean on the package: ``expected_group`` takes membership in the
expected group from the package's Schreier-Sims, which no decision path
uses, ``enumerate_graphs_naive`` deduplicates labeled graphs by
canonical form, to check canonical-augmentation generation, and
``refine`` reads the partition the search's refinement stops at, which
``colour_refinement`` checks.
"""

from itertools import permutations

from coverstab.graph_core import Graph
from coverstab.aut import _checked_cells, _equitable, canonical_form
from coverstab.cover import lift, tau
from coverstab.perms import group_from_generators


def from_cycles(n, cycles):
    """The image tuple on 0..n-1 of the product of cycles, applied left
    to right, each cycle mapping every entry to the next."""
    images = list(range(n))
    for cyc in cycles:
        step = list(range(n))
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            step[a] = b
        images = [step[x] for x in images]
    return tuple(images)


def ref_encode_graph6(n, edges):
    """graph6 encoding straight from the format description, via strings."""
    if n < 63:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63),
               chr((n & 63) + 63)]
    edge_set = {frozenset(e) for e in edges}
    bitstring = ""
    for col in range(1, n):
        for row in range(col):
            bitstring += "1" if frozenset((row, col)) in edge_set else "0"
    while len(bitstring) % 6:
        bitstring += "0"
    for i in range(0, len(bitstring), 6):
        out.append(chr(int(bitstring[i:i + 6], 2) + 63))
    return "".join(out)


def naive_johnson(n, k):
    """J(n, k) by scanning every subset of the n-set and comparing every
    pair of k-subsets; vertices numbered by ascending bitmask."""
    masks = [m for m in range(1 << n) if bin(m).count("1") == k]
    edges = [(i, j) for i, a in enumerate(masks) for j, b in enumerate(masks)
             if i < j and bin(a & b).count("1") == k - 1]
    return Graph(len(masks), edges)


def naive_relabel(g, images):
    """g with vertex v renamed to images[v], rebuilt from its edge set."""
    return Graph(g.n, [(images[u], images[v]) for u, v in g.edges()])


def lowbit_certificate(adj, lab):
    """The rows, as bitsets of positions, of the graph with adjacency adj
    relabelled so that lab[i] becomes i, each built by walking the lowest
    set bit of a row: the search's leaf certificate, computed bit by bit."""
    pos = {v: i for i, v in enumerate(lab)}
    rows = []
    for v in lab:
        row, rest = 0, adj[v]
        while rest:
            low = rest & -rest
            row |= 1 << pos[low.bit_length() - 1]
            rest ^= low
        rows.append(row)
    return tuple(rows)


def brute_force_automorphisms(g):
    """All edge-preserving permutations, by filtering every permutation."""
    edges = list(g.edges())
    adj = g.adj
    found = []
    for p in permutations(range(g.n)):
        if all((adj[p[u]] >> p[v]) & 1 for u, v in edges):
            found.append(p)
    return found


def brute_force_aut_count(g):
    edges = list(g.edges())
    adj = g.adj
    count = 0
    for p in permutations(range(g.n)):
        if all((adj[p[u]] >> p[v]) & 1 for u, v in edges):
            count += 1
    return count


def backtrack_aut_count(g):
    """Exact automorphism count by DFS image assignment in BFS order.

    Independent of the refinement engine; practical well beyond n = 8
    because candidates are constrained through an already-assigned
    neighbour.
    """
    n = g.n
    adj = g.adj
    if n == 0:
        return 1
    order = []
    seen = [False] * n
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in range(n):
                if (adj[v] >> u) & 1 and not seen[u]:
                    seen[u] = True
                    queue.append(u)
    pos = {v: i for i, v in enumerate(order)}
    parent = {}
    for v in order:
        for u in range(n):
            if (adj[v] >> u) & 1 and pos[u] < pos[v]:
                if v not in parent or pos[u] < pos[parent[v]]:
                    parent[v] = u
    degs = [adj[v].bit_count() for v in range(n)]
    count = 0
    img = [-1] * n
    used = [False] * n

    def dfs(i):
        nonlocal count
        if i == n:
            count += 1
            return
        v = order[i]
        if v in parent:
            cands = [u for u in range(n) if (adj[img[parent[v]]] >> u) & 1]
        else:
            cands = range(n)
        av = adj[v]
        for w in cands:
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for j in range(i):
                u = order[j]
                if ((av >> u) & 1) != ((adj[w] >> img[u]) & 1):
                    ok = False
                    break
            if ok:
                img[v] = w
                used[w] = True
                dfs(i + 1)
                used[w] = False
        img[v] = -1

    dfs(0)
    return count


def enumerate_graphs_naive(n):
    """All graphs of order n, one per isomorphism class: every labeled
    graph, deduplicated by canonical form. Exponential in n**2; usable to
    n = 6."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen = {}
    for mask in range(1 << len(pairs)):
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        seen.setdefault(canonical_form(g).canonical_graph6, g)
    return list(seen.values())


def expected_group(g):
    """Schreier-Sims group of the layer swap and the lifts of Aut(X)'s
    generators on the cover of g: the reference for expected-automorphism
    membership. Its order must be 2|Aut(X)|."""
    cf = canonical_form(g)
    gens = [tau(g)] + [lift(g, phi) for phi in cf.aut_generators]
    grp = group_from_generators(gens, 2 * g.n)
    assert grp.order() == 2 * cf.aut_order
    return grp


def refine(g, cells):
    """The package's equitable refinement of the ordered cells, checked as
    a coloured search checks them, each cell sorted; the order of the
    cells does not depend on the labels."""
    lab, cellof, cend, _ = _equitable(g.adj, _checked_cells(cells, g.n), [])
    return tuple(tuple(sorted(lab[s:cend[s]])) for s in sorted(set(cellof)))


def colour_refinement(g, cells):
    """The coarsest equitable partition refining cells, as a set of
    frozensets: recolour every vertex by its colour and the multiset of its
    neighbours' colours until the number of colours stops growing."""
    colour = {v: i for i, cell in enumerate(cells) for v in cell}
    count = len(set(colour.values()))
    while True:
        sig = {v: (colour[v], tuple(sorted(colour[u] for u in range(g.n)
                                           if g.has_edge(u, v))))
               for v in range(g.n)}
        rank = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        colour = {v: rank[sig[v]] for v in range(g.n)}
        if len(rank) == count:
            break
        count = len(rank)
    classes = {}
    for v, c in colour.items():
        classes.setdefault(c, set()).add(v)
    return {frozenset(c) for c in classes.values()}


def naive_closure(gens, n):
    """Every element of the generated group, by breadth-first products."""
    start = tuple(range(n))
    seen = {start}
    frontier = [start]
    gens = [tuple(p) for p in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q[x] for x in p)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def naive_all_pairs_distances(g):
    """Floyd-Warshall distances; None for unreachable."""
    n = g.n
    inf = float("inf")
    dist = [[0 if i == j else (1 if g.has_edge(i, j) else inf)
             for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik == inf:
                continue
            row_k = dist[k]
            row_i = dist[i]
            for j in range(n):
                alt = dik + row_k[j]
                if alt < row_i[j]:
                    row_i[j] = alt
    return dist


def complement(g):
    full = (1 << g.n) - 1
    rows = [(full ^ row) & ~(1 << v) for v, row in enumerate(g.adj)]
    return Graph.from_rows(rows)


def line_graph(g):
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    edges = list(g.edges())
    le = []
    for i, e in enumerate(edges):
        for j in range(i + 1, len(edges)):
            if set(e) & set(edges[j]):
                le.append((i, j))
    return Graph(len(edges), le)


def random_graph(rng, n, p=0.5):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def cube(d):
    return Graph(1 << d, [(v, v ^ 1 << b) for v in range(1 << d)
                          for b in range(d) if v < v ^ 1 << b])


def paley(p):
    squares = {x * x % p for x in range(1, p)}
    return Graph(p, [(i, j) for i in range(p) for j in range(i + 1, p)
                     if (j - i) % p in squares])


def shuffled(g, rng):
    images = list(range(g.n))
    rng.shuffle(images)
    return g.relabel(images)


def neighbour_sets(g):
    """Each vertex's neighbours as a set, read off the edge list."""
    nbr = [set() for _ in range(g.n)]
    for u, v in g.edges():
        nbr[u].add(v)
        nbr[v].add(u)
    return nbr


def xab_conditions(nbr, a1, a2, b1, b2):
    """The six conditions of the four-vertex extension on distinct a1, a2,
    b1, b2 of the graph with neighbour_sets nbr: among the four, a1 sees
    only b1, a2 only b2, b1 only a1 and b2 only a2; outside them, a1 and
    a2 see the same vertices, and so do b1 and b2."""
    four = {a1, a2, b1, b2}
    return (len(four) == 4
            and nbr[a1] & four == {b1} and nbr[a2] & four == {b2}
            and nbr[b1] & four == {a1} and nbr[b2] & four == {a2}
            and nbr[a1] - four == nbr[a2] - four
            and nbr[b1] - four == nbr[b2] - four)


def xab_occurrence_naive(g):
    """The first ordered 4-tuple (a1, a2, b1, b2) of distinct vertices that
    meets the six conditions, or None. The tuples are taken as pairs of
    arcs a1->b1, a2->b2, since the conditions require both edges, and
    each is first tested for the non-edges a1-a2, a1-b2, b1-a2 and b1-b2
    that they also require."""
    nbr = neighbour_sets(g)
    arcs = [(a, b) for a, b in permutations(range(g.n), 2) if b in nbr[a]]
    return next(((a1, a2, b1, b2) for a1, b1 in arcs for a2, b2 in arcs
                 if a2 not in nbr[a1] and b2 not in nbr[a1]
                 and a2 not in nbr[b1] and b2 not in nbr[b1]
                 and xab_conditions(nbr, a1, a2, b1, b2)), None)
