"""Chordal graph machinery.

Maximum cardinality search, perfect elimination orderings, maximal clique
enumeration, perfect orderings of the maximal cliques with their histories,
residuals and separators, and clique-separator decompositions (A, C, B).
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graphs import is_connected


class NotChordalError(ValueError):
    """Raised for operations that require a chordal graph.

    Carries a chordless cycle (length >= 4) certifying the failure.
    """

    def __init__(self, cycle, hint=None):
        self.cycle = list(cycle) if cycle else None
        detail = f"chordless cycle {self.cycle}" if self.cycle else "no chordless cycle recorded"
        message = f"graph is not chordal ({detail})"
        if hint:
            message += f"; {hint}"
        super().__init__(message)


def mcs_order(g):
    """Elimination ordering from maximum cardinality search.

    Vertices are visited by descending count of already-visited neighbors,
    ties broken by smallest label; the returned order is the reversed visit
    order, which is a perfect elimination ordering iff the graph is chordal.
    """
    return list(g.analysis.order)


def is_perfect_elimination_order(g, order):
    """Check that each vertex's later neighbors form a clique."""
    if sorted(order) != list(g.vertices):
        raise ValueError("order must be a permutation of the vertices")
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        for a, b in itertools.combinations(later, 2):
            if not g.has_edge(a, b):
                return False
    return True


def is_chordal(g):
    """True iff every cycle of length >= 4 has a chord."""
    return g.analysis.is_chordal


def find_chordless_cycle(g):
    """Some chordless cycle of length >= 4, or None if the graph is chordal.

    For each vertex v with two non-adjacent neighbors x, y, a shortest x-y
    path avoiding the rest of N[v] closes up with v into a chordless cycle.
    """
    for v in g.vertices:
        nbrs = sorted(g.neighbors(v))
        for x, y in itertools.combinations(nbrs, 2):
            if g.has_edge(x, y):
                continue
            blocked = (g.neighbors(v) | {v}) - {x, y}
            path = _shortest_path_avoiding(g, x, y, blocked)
            if path is not None:
                return [v] + path
    return None


def _shortest_path_avoiding(g, source, target, blocked):
    prev = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            path = []
            while u is not None:
                path.append(u)
                u = prev[u]
            return path[::-1]
        for w in sorted(g.neighbors(u)):
            if w not in prev and w not in blocked:
                prev[w] = u
                queue.append(w)
    return None


def _require_chordal(g):
    if not is_chordal(g):
        raise NotChordalError(find_chordless_cycle(g))


def maximal_cliques_chordal(g):
    """Maximal cliques of a chordal graph (at most n of them), sorted."""
    _require_chordal(g)
    return list(g.analysis.maximal_cliques)


def maximal_cliques_general(g):
    """All maximal cliques of any graph, sorted; see GraphAnalysis."""
    return list(g.analysis.maximal_cliques)


def clique_number(g):
    return g.analysis.clique_number


# ---------------------------------------------------------------------------
# per-graph analysis

#: Work limit of general clique enumeration, in Bron-Kerbosch expansions.
#: Pivoting keeps the count near the number of maximal cliques, at most
#: 3^(n/3) (Moon-Moser), so sparse graphs of any size pass and dense ones
#: fail loudly instead of slowly.
MAX_CLIQUE_EXPANSIONS = 100_000


class GraphAnalysis:
    """Clique facts of one graph, each computed on first use and kept as
    long as the graph (reached as `g.analysis`): chordality, the MCS order
    and clique tree, the maximal cliques, the clique number, the
    largest near-complete subgraph with its certificate. Nothing is kept
    per vertex pair.
    """

    def __init__(self, g):
        self.graph = g

    @cached_property
    def _search(self):
        """One maximum cardinality search: the visit order, and the maximal
        cliques in a perfect order with their separators.

        Visits by descending count of visited neighbors, ties to the smallest
        label. A clique starts at each vertex with no more visited neighbors
        than the vertex visited just before it (so at the first vertex); it
        holds that vertex, its visited neighbors (the separator: its
        intersection with all earlier cliques) and the vertices visited after
        it up to the next start (Blair-Peyton 1993, An introduction to
        chordal graphs and clique trees, section 4). The cliques and
        separators hold only for a chordal graph; read them via clique_tree.
        """
        nbrs = self.graph.neighbors
        weight = dict.fromkeys(self.graph.vertices, 0)
        heap = [(0, v) for v in self.graph.vertices]
        visited = set()
        visit, cliques, separators = [], [], []
        previous = 0
        while heap:
            w, v = heapq.heappop(heap)
            # v's entry with its current weight sorts before its stale ones
            if v in visited:
                continue
            if -w <= previous:
                separators.append(frozenset(nbrs(v) & visited))
                cliques.append([*separators[-1], v])
            else:
                cliques[-1].append(v)
            previous = -w
            visited.add(v)
            visit.append(v)
            for u in nbrs(v):
                if u not in visited:
                    weight[u] += 1
                    heapq.heappush(heap, (-weight[u], u))
        return tuple(visit), tuple(map(frozenset, cliques)), tuple(separators)

    @cached_property
    def order(self):
        """Elimination ordering: the reversed visit order of the search."""
        return self._search[0][::-1]

    @cached_property
    def is_chordal(self):
        return is_perfect_elimination_order(self.graph, self.order)

    @property
    def clique_tree(self):
        """(cliques, separators): the maximal cliques of a chordal graph in a
        perfect order, each with its intersection with the cliques before it.

        Raises NotChordalError for any other graph.
        """
        _require_chordal(self.graph)
        return self._search[1:]

    @cached_property
    def maximal_cliques(self):
        """All maximal cliques as frozensets, sorted by their sorted labels.

        The one place choosing the route: the clique tree of a chordal graph,
        else Bron-Kerbosch.
        """
        if not self.is_chordal:
            return _bron_kerbosch(self.graph)
        return tuple(sorted(self.clique_tree[0], key=sorted))

    @cached_property
    def clique_number(self):
        return max((len(c) for c in self.maximal_cliques), default=0)

    @cached_property
    def near_complete(self):
        """(r, v1, S, v2): r is the largest number of vertices spanning at
        least C(r,2) - 1 edges, and the certificate has S an (r-2)-clique and
        v1 != v2 outside S, joined to all of S (the v1-v2 edge is irrelevant:
        the bordered witness puts a zero there either way).

        The certificate splits the first largest maximal clique, unless a
        non-adjacent pair does better: then it is the first such pair in
        label order reaching the best r, with S the first largest clique in
        its common neighborhood (a largest intersection of it with a maximal
        clique). Any m-subset of S certifies m + 2 the same way.
        """
        g = self.graph
        if g.n < 2:
            raise ValueError(f"need at least 2 vertices, got {g.n}")
        verts = sorted(max(self.maximal_cliques, key=len))
        if len(verts) < 2:
            verts = [1, 2]
        best = (len(verts), verts[0], tuple(verts[1:-1]), verts[-1])
        for v1, v2, common in self._open_pairs():
            if len(common) + 2 > best[0]:
                s = max((c & common for c in self.maximal_cliques), key=len)
                if len(s) + 2 > best[0]:
                    best = (len(s) + 2, v1, tuple(sorted(s)), v2)
        return best

    @property
    def near_complete_order(self):
        """r, the order of near_complete."""
        return self.near_complete[0]

    @cached_property
    def even_cycle(self):
        """A shortest even cycle as an ordered vertex list, or None.

        4-cycles come from common-neighborhood pairs; longer even lengths,
        up to 12, from bounded depth-first search (the cycle need not be
        induced).
        """
        g = self.graph
        best4 = None
        for a, b in itertools.combinations(g.vertices, 2):
            common = sorted(g.neighbors(a) & g.neighbors(b))
            if len(common) >= 2:
                cand = [a, common[0], b, common[1]]
                if best4 is None or cand < best4:
                    best4 = cand
        if best4 is not None:
            return best4
        for length in range(6, 13, 2):
            cyc = _simple_cycle_of_length(g, length)
            if cyc is not None:
                return cyc
        return None

    def _open_pairs(self):
        """Non-adjacent pairs (u, v), u < v, with a common neighbor, in label
        order, each with its common neighborhood."""
        g = self.graph
        for u in g.vertices:
            near = g.neighbors(u)
            second = set().union(*(g.neighbors(w) for w in near)) - near
            for v in sorted(x for x in second if x > u):
                yield u, v, near & g.neighbors(v)


def _bron_kerbosch(g):
    """Maximal cliques of any graph by Bron-Kerbosch with pivoting, sorted.

    Raises ValueError after MAX_CLIQUE_EXPANSIONS expansions.
    """
    cliques = []
    stack = [(frozenset(), frozenset(g.vertices), frozenset())]
    expansions = 0
    while stack:
        expansions += 1
        if expansions > MAX_CLIQUE_EXPANSIONS:
            raise ValueError(
                f"general clique enumeration stopped at the work limit of "
                f"{MAX_CLIQUE_EXPANSIONS} Bron-Kerbosch expansions "
                f"(MAX_CLIQUE_EXPANSIONS) on a {g.n}-vertex graph")
        r, p, x = stack.pop()
        if not p and not x:
            cliques.append(r)
            continue
        pivot = max(p | x, key=lambda u: len(g.neighbors(u) & p))
        for v in sorted(p - g.neighbors(pivot)):
            stack.append((r | {v}, p & g.neighbors(v), x & g.neighbors(v)))
            p = p - {v}
            x = x | {v}
    return tuple(sorted(cliques, key=sorted))


def _simple_cycle_of_length(g, length, step_cap=500_000):
    steps = 0
    for start in g.vertices:
        stack = [(start, [start])]
        while stack:
            steps += 1
            if steps > step_cap:
                return None
            v, path_ = stack.pop()
            if len(path_) == length:
                if start in g.neighbors(v):
                    return path_
                continue
            for u in sorted(g.neighbors(v), reverse=True):
                if u > start and u not in path_:
                    stack.append((u, path_ + [u]))
    return None


# ---------------------------------------------------------------------------
# perfect orderings of the maximal cliques


@dataclass(frozen=True)
class CliqueOrdering:
    """Ordered maximal cliques C_1..C_k with derived set sequences.

    history_j  = C_1 | ... | C_j
    residual_j = C_j - history_{j-1}
    separator_j = history_{j-1} & C_j        (history_0 = empty)
    """

    cliques: tuple[frozenset[int], ...]

    @property
    def histories(self):
        out = []
        acc = frozenset()
        for c in self.cliques:
            acc = acc | c
            out.append(acc)
        return tuple(out)

    @property
    def residuals(self):
        out = []
        acc = frozenset()
        for c in self.cliques:
            out.append(c - acc)
            acc = acc | c
        return tuple(out)

    @property
    def separators(self):
        out = []
        acc = frozenset()
        for c in self.cliques:
            out.append(acc & c)
            acc = acc | c
        return tuple(out)

    def to_json(self):
        return {
            "cliques": [sorted(c) for c in self.cliques],
            "separators": [sorted(s) for s in self.separators],
            "residuals": [sorted(r) for r in self.residuals],
        }


def check_perfect_ordering(g, cliques):
    """Independent check of the two perfect-ordering conditions.

    (1) each separator is contained in some earlier clique;
    (2) each separator induces a complete subgraph.
    """
    cliques = [frozenset(c) for c in cliques]
    history = frozenset()
    for i, c in enumerate(cliques):
        sep = history & c
        if i > 0 and sep and not any(sep <= cliques[j] for j in range(i)):
            return False
        for a, b in itertools.combinations(sorted(sep), 2):
            if not g.has_edge(a, b):
                return False
        history = history | c
    return True


def perfect_ordering(g):
    """A perfect ordering of the maximal cliques of a chordal graph: the
    order in which maximum cardinality search completes them."""
    cliques, _ = g.analysis.clique_tree
    return CliqueOrdering(cliques=cliques)


# ---------------------------------------------------------------------------
# decompositions


@dataclass(frozen=True)
class Decomposition:
    """Partition (A, C, B): C a clique separating the nonempty sides A, B."""

    side_a: frozenset[int]
    separator: frozenset[int]
    side_b: frozenset[int]

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise ValueError("both separated sides must be nonempty")
        if (self.side_a & self.separator or self.side_a & self.side_b
                or self.separator & self.side_b):
            raise ValueError("decomposition parts must be disjoint")

    def vertices(self):
        return self.side_a | self.separator | self.side_b


def decompose(g):
    """Split a connected chordal graph along the last separator of a perfect
    ordering: A = V - C_k, C = S_k, B = C_k - S_k (the residual R_k; A is
    H_{k-1} - S_k, as the cliques cover V). None if complete."""
    _require_chordal(g)
    if not is_connected(g):
        raise ValueError("decompose requires a connected graph")
    cliques, separators = g.analysis.clique_tree
    if len(cliques) == 1:
        return None
    last, sep = cliques[-1], separators[-1]
    return Decomposition(side_a=frozenset(g.vertices) - last, separator=sep,
                         side_b=last - sep)


def check_decomposition(g, d):
    """True iff the separator induces a complete subgraph and every path
    between the two sides meets it."""
    verts = d.vertices()
    if any(v < 1 or v > g.n for v in verts):
        raise ValueError(f"decomposition vertices out of range 1..{g.n}")
    for a, b in itertools.combinations(sorted(d.separator), 2):
        if not g.has_edge(a, b):
            return False
    # BFS from side A in the graph with the separator deleted
    reached = set(d.side_a)
    queue = deque(sorted(d.side_a))
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            if u not in reached and u not in d.separator:
                reached.add(u)
                queue.append(u)
    return not (reached & d.side_b)
