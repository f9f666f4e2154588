"""Test oracles for r, the largest near-complete subgraph order, its
certificate, and the critical exponent r - 2 of a chordal graph, each
computed by a route that shares no code with GraphAnalysis.near_complete;
for the 4-cycle of
GraphAnalysis.even_cycle, by a scan that shares none with its search; for
chordality, by a subset search that shares none with Lex-BFS; for the clique
tree, by rescanning neighbor sets in place of the Lex-BFS lists; for the
edge-list parser, by the earlier two-pass parser; for the numeric CE walk,
by classifying every power of its grid; for the random tree, by the earlier
Pruefer decoder's sorted leaf list; and for pattern conformance, by a scan of
every vertex pair."""

import bisect
import itertools
import re

import numpy as np

from hadamard_powers import exponents
from hadamard_powers.chordal import _bron_kerbosch, _lex_bfs
from hadamard_powers.cones import as_symmetric
from hadamard_powers.graphs import Graph, GraphParseError, path


def _adjacency_masks(g):
    masks = [0] * (g.n + 1)
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def max_near_complete_order(g):
    """Largest r such that some r vertices span at least C(r,2) - 1 edges.

    Exhaustive over vertex subsets, so only feasible for small n. By
    convention the empty graph on two vertices counts, so r >= 2 whenever
    n >= 2.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    masks = _adjacency_masks(g)
    for r in range(g.n, 1, -1):
        need = r * (r - 1) // 2 - 1
        for subset in itertools.combinations(range(1, g.n + 1), r):
            picked = 0
            count = 0
            for v in subset:
                count += (masks[v] & picked).bit_count()
                picked |= 1 << v
            if count >= need:
                return r
    return 2


def clique_formula(g):
    """Critical exponent of a chordal pattern from its maximal cliques:
    max(clique number - 2, largest overlap of two maximal cliques), the
    overlap 0 when there are no two cliques.

    In a chordal graph two maximal cliques meet inside every separator on
    the clique-tree path between them, and each separator is the overlap
    of two cliques, so the largest overlap is the largest separator.
    """
    cliques = _bron_kerbosch(g)
    overlap = max((len(a & b) for a, b in itertools.combinations(cliques, 2)), default=0)
    return max(max(map(len, cliques)) - 2, overlap)


def near_complete_by_pair_walk(g):
    """GraphAnalysis.near_complete by walking every non-adjacent pair with a
    common neighbor, u < v in label order, each rescanning the maximal
    cliques for the largest intersection with the pair's common
    neighborhood. The first largest clique is split unless a pair reaches a
    larger r; then it is the first pair reaching the best r, with the first
    largest such intersection. O(open pairs x maximal cliques)."""
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    cliques = _bron_kerbosch(g)
    verts = sorted(max(cliques, key=len))
    if len(verts) < 2:
        verts = [1, 2]
    best = (len(verts), verts[0], tuple(verts[1:-1]), verts[-1])
    for u in g.vertices:
        near = g.neighbors(u)
        second = set().union(*(g.neighbors(w) for w in near)) - near
        for v in sorted(x for x in second if x > u):
            common = near & g.neighbors(v)
            if len(common) + 2 > best[0]:
                s = max((c & common for c in cliques), key=len)
                if len(s) + 2 > best[0]:
                    best = (len(s) + 2, u, tuple(sorted(s)), v)
    return best


def least_four_cycle(g):
    """[a, c, b, d], lexicographically least over the vertex pairs a < b
    with two common neighbors, c < d the two least of them; None when no
    pair has two. Over all vertex pairs, so quadratic in n."""
    best = None
    for a, b in itertools.combinations(g.vertices, 2):
        common = sorted(g.neighbors(a) & g.neighbors(b))
        if len(common) >= 2:
            cand = [a, common[0], b, common[1]]
            if best is None or cand < best:
                best = cand
    return best


def is_chordal_by_subsets(g):
    """True iff no vertex subset of size >= 4 induces a cycle: each of its
    vertices has two neighbors in it, and it is connected. Over all
    subsets, so only feasible for small n."""
    masks = _adjacency_masks(g)
    for k in range(4, g.n + 1):
        for subset in itertools.combinations(range(1, g.n + 1), k):
            inside = sum(1 << v for v in subset)
            if any((masks[v] & inside).bit_count() != 2 for v in subset):
                continue
            reached = frontier = 1 << subset[0]
            while frontier:
                grown = 0
                for v in subset:
                    if frontier >> v & 1:
                        grown |= masks[v] & inside
                frontier = grown & ~reached
                reached |= grown
            if reached == inside:
                return False
    return True


def clique_tree_by_neighbor_scans(g):
    """GraphAnalysis.clique_tree of a chordal graph, from the Lex-BFS visit
    order alone: each vertex's count of neighbors visited before it and the
    last of them come from scanning its neighbor set, as does each clique
    and separator."""
    visit = _lex_bfs(g)[0]
    pos = {v: k for k, v in enumerate(visit)}

    def visited_before(v):
        return [u for u in g.neighbors(v) if pos[u] < pos[v]]

    earlier, parent = {}, {}
    for v in visit:
        seen = visited_before(v)
        earlier[v] = len(seen)
        parent[v] = max(seen, key=pos.__getitem__, default=0)
    extends = dict.fromkeys(visit, 0)
    starts = []
    for v in visit:
        p = parent[v]
        if p and not extends[p] and earlier[v] == earlier[p] + 1:
            extends[p] = v
        else:
            starts.append(v)
    cliques, seps = [], []
    for h in starts:
        seps.append(frozenset(visited_before(h)))
        while extends[h]:
            h = extends[h]
        cliques.append(frozenset([h, *visited_before(h)]))
    return tuple(cliques), tuple(seps)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _strict_int(token):
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def parse_edge_list(text):
    """graphs.parse_edge_list as it was before it became one pass: collect
    the pairs with their line numbers, check them against the vertex count
    in a second loop, and build the graph by Graph.from_edges. Labels and
    the count are read by a regular expression, an optional sign and ASCII
    digits."""
    pairs = []
    n_declared = None
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if first_data_line and tokens[0] == "n":
            if len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n <count>'")
            try:
                n_declared = _strict_int(tokens[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if n_declared < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            first_data_line = False
            continue
        first_data_line = False
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'i j', got {line!r}")
        try:
            i, j = _strict_int(tokens[0]), _strict_int(tokens[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer vertex label in {line!r}") from None
        if i <= 0 or j <= 0:
            raise GraphParseError(f"line {lineno}: vertex labels must be positive")
        if i == j:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {i}")
        pairs.append((lineno, i, j))

    n = n_declared if n_declared is not None else max((max(i, j) for _, i, j in pairs), default=0)
    for lineno, i, j in pairs:
        if i > n or j > n:
            raise GraphParseError(f"line {lineno}: label exceeds declared vertex count {n}")
    return Graph.from_edges(n, [(i, j) for _, i, j in pairs])


def estimate_ce_by_full_walk(g, family="plain", budget=None, seed=0):
    """exponents.estimate_ce_numeric by its earlier walk: the list of every
    non-integer multiple of GRID_STEP in (0, n - 2], each classified from the
    top down and searched where expected_hset leaves it unknown, the proven
    powers above the search included. exponents.find_counterexample is read
    at each call, so a test wrapping it sees this walk's searches too."""
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    hi = float(g.n - 2)
    grid = []
    k = 1
    while k * exponents.GRID_STEP <= hi + 1e-12:
        a = k * exponents.GRID_STEP
        if abs(a - round(a)) > 1e-9:
            grid.append(a)
        k += 1
    if not grid:
        return 0.0, 0.0
    known = exponents.expected_hset(g, family)
    rng = exponents._LazyGenerator(seed)
    point_budget = budget if budget is not None else 120
    prev_above = None
    for a in reversed(grid):
        proof = known.classify(a)
        if proof == "out" or (proof == "unknown" and exponents.find_counterexample(
                g, a, family, point_budget, seed=rng) is not None):
            return a, prev_above if prev_above is not None else hi
        prev_above = a
    return 0.0, grid[0]


def random_tree_by_sorted_leaves(n, seed=0):
    """graphs.random_tree by its earlier decoder: the leaves kept in a sorted
    list, the least popped off its front."""
    if n <= 2:
        return path(n)
    rng = np.random.default_rng(seed)
    pruefer = rng.integers(1, n + 1, size=n - 2)
    degree = {v: 1 for v in range(1, n + 1)}
    for v in pruefer:
        degree[int(v)] += 1
    edges = []
    leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
    for v in pruefer:
        v = int(v)
        edges.append((leaves.pop(0), v))
        degree[v] -= 1
        if degree[v] == 1:
            bisect.insort(leaves, v)
    edges.append((leaves[0], leaves[1]))
    return Graph.from_edges(n, edges)


def conforms_by_pair_scan(m, g):
    """cones.conforms_to_pattern by its earlier loop over every vertex pair."""
    m = as_symmetric(m)
    if m.shape[0] != g.n:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[0]} but graph has {g.n} vertices")
    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            if m[i - 1, j - 1] != 0.0 and not g.has_edge(i, j):
                return False
    return True
