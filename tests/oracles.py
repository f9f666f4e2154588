"""Test oracles for r, the largest near-complete subgraph order, its
certificate, and the critical exponent r - 2 of a chordal graph, each
computed by a route that shares no code with GraphAnalysis.near_complete;
for the 4-cycle of
GraphAnalysis.even_cycle, by a scan that shares none with its search; for
chordality, by a subset search that shares none with Lex-BFS; for the clique
tree, by rescanning neighbor sets in place of the Lex-BFS lists; for the
whole chordal analysis, by the earlier Lex-BFS and parent test over
per-vertex frozensets; for the edge-list parser, by the earlier two-pass
parser and the one-pass parser that built no neighbor lists; for the
numeric CE walk,
by classifying every power of its grid; for the random tree, by the earlier
Pruefer decoder's sorted leaf list; for the random chordal graph, by one numpy
call per draw; for the random graph, by one numpy draw per vertex pair; for
pattern conformance, by a scan of every vertex pair; for witness reports
kept on their support, by the dense n x n report, its verification and the
bordered and signed-cycle matrices its searches built; for the flat
power-set record, by the nested HSet it replaced; and for the perfect-ordering
check, by a scan of every earlier clique per separator."""

from __future__ import annotations

import bisect
import itertools
import math
import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from hadamard_powers import exponents
from hadamard_powers.chordal import _lex_bfs, _visited_before
from hadamard_powers.cones import (
    FAMILIES,
    as_symmetric,
    bordered_factor,
    certify_not_psd,
    entrywise_power,
    factor_gram,
    is_psd,
    matrix_from_json,
    matrix_to_json,
)
from hadamard_powers.graphs import (
    Graph,
    GraphParseError,
    _read_integer,
    graph_from_json,
    graph_to_json,
    path,
)


def _adjacency_masks(g):
    masks = [0] * (g.n + 1)
    for i, j in g.edges:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


def neighbor_sets(g):
    """{v: frozenset of v's neighbors} for v in 1..n, from the neighbor
    lists, iterating as the sets of the removed Graph.neighbors did."""
    return dict(zip(g.vertices, map(frozenset, g._adjacency[1:])))


def bron_kerbosch(g):
    """Maximal cliques of any graph by one pivoting Bron-Kerbosch search
    over the whole graph and its neighbor frozensets, sorted; with no work
    limit, so only for small graphs."""
    nbrs = neighbor_sets(g)
    cliques = []
    stack = [(frozenset(), frozenset(g.vertices), frozenset())]
    while stack:
        r, p, x = stack.pop()
        if not p and not x:
            cliques.append(r)
            continue
        pivot = max(p | x, key=lambda u: len(nbrs[u] & p))
        for v in sorted(p - nbrs[pivot]):
            stack.append((r | {v}, p & nbrs[v], x & nbrs[v]))
            p = p - {v}
            x = x | {v}
    return tuple(sorted(cliques, key=sorted))


def least_face_pair_by_intersection(near, pos, count, starts, k):
    """chordal._least_face_pair as it was: each face's members by
    intersecting the whole neighbor lists of its vertices, and each face a
    tuple in a set, k = 1 too."""
    if not k:
        return None
    seen = set()
    best = None
    for b in starts:
        if count[b] != k:
            continue
        face = tuple(_visited_before(near, pos, b))
        if face in seen:
            continue
        seen.add(face)
        members = near[face[0]] if k == 1 else sorted(
            set(near[face[0]]).intersection(*(near[s] for s in face[1:])))
        if len(members) > 1:
            found = members[0], members[1], face
            if best is None or found < best:
                best = found
    return best


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
    cliques = bron_kerbosch(g)
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
    cliques = bron_kerbosch(g)
    verts = sorted(max(cliques, key=len))
    if len(verts) < 2:
        verts = [1, 2]
    best = (len(verts), verts[0], tuple(verts[1:-1]), verts[-1])
    nbrs = neighbor_sets(g)
    for u in g.vertices:
        near = nbrs[u]
        second = set().union(*(nbrs[w] for w in near)) - near
        for v in sorted(x for x in second if x > u):
            common = near & nbrs[v]
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
    nbrs = neighbor_sets(g)
    for a, b in itertools.combinations(g.vertices, 2):
        common = sorted(nbrs[a] & nbrs[b])
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
        return [u for u in g._adjacency[v] if pos[u] < pos[v]]

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


def lex_bfs_by_neighbor_sets(g):
    """chordal._lex_bfs as it was over the frozensets of neighbor_sets: the
    same partition refinement, returning (visit, before) with before[v] the
    list of v's neighbors visited before it, in visit order. Ties follow
    the frozensets' iteration order."""
    nbrs = neighbor_sets(g).__getitem__
    n = g.n
    visit = list(g.vertices)
    pos = list(range(-1, n))
    cell = [0] * (n + 1)
    before = [[] for _ in range(n + 1)]
    start, made, split = [0], [-1], [0]
    for i in range(n):
        v = visit[i]
        start[cell[v]] += 1
        for w in nbrs(v):
            j = pos[w]
            if j <= i:
                continue
            before[w].append(v)
            c = cell[w]
            d = split[c]
            if made[d] != i:
                d = len(start)
                start.append(start[c])
                made.append(i)
                split.append(0)
                split[c] = d
            k = start[c]
            u = visit[k]
            visit[k], visit[j] = w, u
            pos[w], pos[u] = k, j
            start[c] = k + 1
            cell[w] = d
    return visit, before


def parent_test_by_neighbor_sets(g, later):
    """chordal._parent_test as it was: each later[v], listed from the back
    of the order, is a clique iff all but its last lie in the frozenset of
    neighbors of the last."""
    nbrs = neighbor_sets(g).__getitem__
    return all(nbrs(ws[-1]).issuperset(ws[:-1]) for ws in later if ws)


def analysis_by_neighbor_sets(g):
    """GraphAnalysis's is_chordal, clique_tree, maximal_cliques,
    clique_number and near_complete (None below 2 vertices) as they were
    computed from lex_bfs_by_neighbor_sets: the chains, cliques and
    separators from its lists, the faces' members by intersecting
    frozensets, and Bron-Kerbosch for every non-chordal graph."""
    visit, before = lex_bfs_by_neighbor_sets(g)
    chordal = parent_test_by_neighbor_sets(g, before)
    tree = None
    if chordal:
        extends = [0] * len(before)
        cliques, seps = [], []
        for v in visit:
            earlier = before[v]
            if earlier:
                p = earlier[-1]
                if not extends[p] and len(earlier) == len(before[p]) + 1:
                    extends[p] = v
                    continue
            seps.append(frozenset(earlier))
            cliques.append(v)
        for k, h in enumerate(cliques):
            while extends[h]:
                h = extends[h]
            cliques[k] = frozenset([h, *before[h]])
        tree = tuple(cliques), tuple(seps)
        cliques = tuple(sorted(cliques, key=sorted))
    else:
        cliques = bron_kerbosch(g)
    omega = max(map(len, cliques), default=0)
    near_complete = None
    if g.n >= 2:
        nbrs = neighbor_sets(g).__getitem__
        if chordal:
            faces = {s for s in tree[1] if len(s) == omega - 1 and s}
            members = [frozenset.intersection(*map(nbrs, s)) for s in faces]
        else:
            faces = {}
            for c in cliques:
                if len(c) == omega:
                    for x in c:
                        faces.setdefault(c - {x}, []).append(x)
            members = faces.values()
        pair = min((sorted(m)[:2] for m in members if len(m) > 1), default=None)
        if pair is None:
            verts = min(sorted(c) for c in cliques if len(c) == omega)
            if len(verts) < 2:
                verts = [1, 2]
            near_complete = len(verts), verts[0], tuple(verts[1:-1]), verts[-1]
        else:
            v1, v2 = pair
            common = nbrs(v1) & nbrs(v2)
            if not chordal:
                common = max((c & common for c in cliques), key=len)
            near_complete = omega + 1, v1, tuple(sorted(common)), v2
    return SimpleNamespace(is_chordal=chordal, clique_tree=tree, maximal_cliques=cliques,
                           clique_number=omega, near_complete=near_complete)


def parse_edge_list_to_edge_set(text):
    """graphs.parse_edge_list as it was before it filled neighbor lists:
    one pass collecting the canonical pairs into a set."""
    edges = set()
    n_declared = None
    over = None  # the first line with a label above n_declared
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0]
        tokens = content.split()
        if not tokens:
            continue
        if first_data_line and tokens[0] == "n":
            if len(tokens) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n <count>'")
            try:
                n_declared = _read_integer(tokens[1])
            except ValueError:
                raise GraphParseError(f"line {lineno}: bad vertex count {tokens[1]!r}") from None
            if n_declared < 0:
                raise GraphParseError(f"line {lineno}: negative vertex count")
            first_data_line = False
            continue
        first_data_line = False
        if len(tokens) != 2:
            raise GraphParseError(f"line {lineno}: expected 'i j', got {content.strip()!r}")
        try:
            i, j = _read_integer(tokens[0]), _read_integer(tokens[1])
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer vertex label in {content.strip()!r}") from None
        if i > j:
            i, j = j, i
        if i <= 0:
            raise GraphParseError(f"line {lineno}: vertex labels must be positive")
        if i == j:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {i}")
        if n_declared is not None and j > n_declared and over is None:
            over = lineno
        edges.add((i, j))
    if over is not None:
        raise GraphParseError(f"line {over}: label exceeds declared vertex count {n_declared}")
    n = n_declared if n_declared is not None else max((j for _, j in edges), default=0)
    return Graph.from_edges(n, edges)


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
    """The walk of exponents.critical_exponent by its earlier form: the list
    of every non-integer multiple of GRID_STEP in (0, n - 2], each
    classified from the top down and searched where expected_hset leaves it
    unknown, the proven powers above the search included.
    exponents.find_counterexample is read at each call, so a test wrapping
    it sees this walk's searches too."""
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


def random_chordal_by_numpy_calls(n, density=0.5, seed=0):
    """graphs.random_chordal as it was: one Generator.integers, .binomial and
    .choice call per vertex, a clique tuple kept per vertex, and the graph
    built by Graph.from_edges."""
    rng = np.random.default_rng(seed)
    edges = []
    cliques = [(1,)]
    for v in range(2, n + 1):
        base = cliques[int(rng.integers(len(cliques)))]
        k = 1 + int(rng.binomial(len(base) - 1, density)) if len(base) > 1 else 1
        chosen = rng.choice(len(base), size=k, replace=False)
        attach = tuple(sorted(base[int(i)] for i in chosen))
        edges.extend((u, v) for u in attach)
        cliques.append(attach + (v,))
    return Graph.from_edges(n, edges)


def random_graph_by_pair_draws(n, edge_prob=0.5, seed=0):
    """graphs.random_graph as it was: one Generator.random call per vertex
    pair, the pairs in lexicographic order."""
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < edge_prob]
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


# --- witness reports in the dense form ---------------------------------------


def dense_report_json(report, g):
    """The JSON of a report on g as written before reports were kept on
    their support: the whole graph, the n x n matrix, and a certificate
    whose factor and test vector are padded to n rows, "0" off the
    support."""
    out = {"graph": graph_to_json(g), "alpha": report.alpha, "family": report.family,
           "matrix": matrix_to_json(report.dense()),
           "image_min_eigenvalue": report.image_min_eigenvalue,
           "construction": report.construction}
    cert = report.certificate
    if cert is not None:
        rows = np.asarray(report.support) - 1
        factor = np.zeros((g.n, cert.factor.shape[1]))
        factor[rows] = cert.factor
        x = ["0"] * g.n
        for r, v in zip(rows, cert.test_vector):
            x[r] = v
        out["certificate"] = {"factor": factor.T.tolist(), "test_vector": x,
                              "digits": cert.digits}
    return out


def verify_dense(data):
    """WitnessReport.verify on the dense JSON form, as it ran on n x n
    reports: the matrix has the graph's order; with a certificate, it is
    the float Gram of the n x 2 factor bit for bit, each factor column lies
    on a clique, the factor is nonnegative in the plain family and the
    interval bound is negative; without one, it conforms, is PSD and its
    image clears the witness threshold."""
    g, m = graph_from_json(data["graph"]), matrix_from_json(data["matrix"])
    alpha, family = float(data["alpha"]), data["family"]
    if m.shape[0] != g.n:
        return False
    if data.get("certificate") is not None:
        cert = exponents.IntervalCertificate.from_json(data["certificate"])
        f = cert.factor
        if f.shape != (g.n, 2) or len(cert.test_vector) != g.n or not np.isfinite(f).all():
            return False
        if factor_gram(f).tobytes() != m.tobytes():
            return False
        for col in f.T:
            if not all(g.has_edge(a + 1, b + 1)
                       for a, b in itertools.combinations(np.flatnonzero(col), 2)):
                return False
        if family not in FAMILIES or family == "plain" and (f < 0).any() or not np.isfinite(alpha):
            return False
        if not 1 <= cert.digits <= exponents.CERTIFICATE_MAX_DIGITS:
            return False
        try:
            return cert.upper_bound(alpha, family) < 0
        except (ValueError, ArithmeticError):
            return False
    if not conforms_by_pair_scan(m, g) or not is_psd(m).is_psd:
        return False
    try:
        image = entrywise_power(m, alpha, family)
    except ValueError:
        return False
    return certify_not_psd(image) is not None


def dense_witness_matrix(g, alpha, family):
    """The n x n matrix of the bordered or signed-cycle witness of
    find_counterexample, built as its searches built it in n rows: the
    closed-form bordered factor on the rows (v1, S[:m], v2), u = 1 and
    v = BORDER_SCALE * linspace(1, 2, m), or linspace(-0.7, 2, m) at an
    integer power, below r - 2 and off the family's lattice; then the
    signed cycle. None where both strategies give up."""
    r, v1, s, v2 = g.analysis.near_complete
    integer = float(alpha).is_integer() and alpha >= 1
    m = max(1, math.floor(alpha) + 1)
    lattice = {"plain": "naturals", "odd": "odd", "even": "even"}[family]
    if r - 2 >= 1 and alpha < r - 2 and not exponents._lattice_contains(lattice, alpha):
        index = [v1 - 1, *(x - 1 for x in s[:m]), v2 - 1]
        y = np.linspace(-0.7 if integer else 1.0, 2.0, m)
        u, v = np.ones(m), exponents.BORDER_SCALE * y
        return factor_gram(bordered_factor(u, v, g.n, index))
    cyc = g.analysis.even_cycle
    if family != "even" or alpha <= 0 or cyc is None:
        return None
    x_psd = 1.0 / (2.0 * math.cos(math.pi / len(cyc)))
    if alpha >= math.log(2.0) / math.log(1.0 / x_psd):
        return None
    x = math.sqrt(0.5 ** (1.0 / alpha) * x_psd)
    matrix = np.zeros((g.n, g.n))
    for k, vert in enumerate(cyc):
        nxt = cyc[(k + 1) % len(cyc)]
        matrix[vert - 1, vert - 1] = 1.0
        matrix[vert - 1, nxt - 1] = matrix[nxt - 1, vert - 1] = -x if nxt == cyc[0] else x
    return matrix


@dataclass(frozen=True)
class NestedHSet:
    """The power-set record as two nested sets: a partial set carries an
    inner bound (known to be contained) and an outer bound (known to
    contain), each an exact set, and copies the outer one's lattice and
    ray at its top level."""

    lattice: str
    ray_start: float
    exact: bool = True
    inner: NestedHSet | None = None
    outer: NestedHSet | None = None
    exclusions: tuple[float, ...] = ()

    @classmethod
    def partial(cls, inner, outer, exclusions=()):
        return cls(lattice=outer.lattice, ray_start=outer.ray_start, exact=False,
                   inner=inner, outer=outer, exclusions=tuple(float(x) for x in exclusions))

    def contains(self, alpha):
        if not self.exact:
            raise ValueError("membership of a partial set is not decidable; use classify")
        return alpha >= self.ray_start or exponents._lattice_contains(self.lattice, alpha)

    def classify(self, alpha):
        if self.exact:
            return "in" if self.contains(alpha) else "out"
        if any(abs(alpha - x) < 1e-12 for x in self.exclusions):
            return "out"
        if self.inner.contains(alpha):
            return "in"
        if not self.outer.contains(alpha):
            return "out"
        return "unknown"

    def describe(self):
        if self.exact:
            return exponents._shape_str(self.lattice, self.ray_start)
        txt = (f"contains {self.inner.describe()}, "
               f"contained in {self.outer.describe()}")
        if self.exclusions:
            txt += ", excludes {" + ", ".join(f"{x:g}" for x in self.exclusions) + "}"
        return txt

    def to_json(self):
        return {
            "lattice": self.lattice,
            "ray_start": float(self.ray_start),
            "exact": self.exact,
            "inner": self.inner.to_json() if self.inner is not None else None,
            "outer": self.outer.to_json() if self.outer is not None else None,
            "exclusions": list(self.exclusions),
        }


def nested_hset(h):
    """The flat record h (exponents.HSet) as a NestedHSet."""
    if h.exact:
        return NestedHSet(h.lattice, h.ray_start)
    return NestedHSet.partial(inner=NestedHSet(h.lattice, h.inner_ray),
                              outer=NestedHSet(h.lattice, h.ray_start),
                              exclusions=h.exclusions)


def check_perfect_ordering_by_clique_scans(g, cliques):
    """chordal.check_perfect_ordering as it first ran: each separator is
    looked for in every earlier clique, quadratic in the number of cliques."""
    cliques = [frozenset(c) for c in cliques]
    history = set()
    for i, c in enumerate(cliques):
        sep = c & history
        if i > 0 and sep and not any(sep <= cliques[j] for j in range(i)):
            return False
        for a, b in itertools.combinations(sorted(sep), 2):
            if not g.has_edge(a, b):
                return False
        history |= c
    return True
