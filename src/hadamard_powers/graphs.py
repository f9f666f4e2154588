"""Simple undirected graphs with 1-based vertex labels.

Provides the edge-list / JSON codecs and the named graph generators used by
the critical-exponent machinery. Derived clique facts (chordality, maximal
cliques, the largest near-complete subgraph) live on `Graph.analysis`.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphParseError(ValueError):
    """Malformed edge-list input; the message carries the line number."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    Edges are stored once, as (i, j) pairs with i < j. Instances are
    immutable and hashable, so derived quantities can be cached.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, n, edges):
        """The graph on 1..n with the given (i, j) edges, in either order and
        repeated or not. n and every label must be integers (Python or numpy,
        not bool); ValueError otherwise, or for a self-loop or a label
        outside 1..n."""
        n = _integer(n)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        canon = set()
        for i, j in edges:
            if type(i) is not int or type(j) is not int:
                i, j = _integer(i), _integer(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            canon.add((i, j) if i < j else (j, i))
        return cls(n=n, edges=frozenset(canon))

    @cached_property
    def _adjacency(self):
        """{v: frozenset of its neighbors} for v in 1..n, from one pass over
        the edges."""
        near = [[] for _ in range(self.n + 1)]
        for i, j in self.edges:
            near[i].append(j)
            near[j].append(i)
        return dict(zip(self.vertices, map(frozenset, near[1:])))

    @cached_property
    def analysis(self):
        """Chordality, maximal cliques and near-complete subgraphs of this
        graph (chordal.GraphAnalysis), each computed once, on first use."""
        from .chordal import GraphAnalysis

        return GraphAnalysis(self)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def neighbors(self, v):
        return self._adjacency[v]

    def degree(self, v):
        return len(self._adjacency[v])

    def has_edge(self, i, j):
        return (min(i, j), max(i, j)) in self.edges

    def sorted_edges(self):
        return sorted(self.edges)


def _integer(x):
    """x as an int, for a Python or numpy integer other than a bool;
    ValueError for anything else (a float, a string, None)."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"expected an integer, got {x!r}")


def _read_integer(token):
    """int(token) for an optional sign and ASCII digits; ValueError for the
    other tokens int() reads too, with underscores ("1_0") or non-ASCII
    digits (an Arabic-Indic three)."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_edge_list(text):
    """Parse "i j" lines into a Graph.

    Blank lines and '#' comments are skipped. An optional first line
    "n <count>" fixes the vertex count; otherwise n is the largest label.
    Labels and the count are an optional sign and ASCII digits. A line
    with a label above the declared count is reported only when no line
    has any other error.
    """
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
    return Graph(n=n, edges=frozenset(edges))


def to_edge_list(g):
    """Serialize a Graph to the edge-list text format (with 'n' header)."""
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def graph_to_json(g):
    return {"n": g.n, "edges": [[i, j] for i, j in g.sorted_edges()]}


def graph_from_json(data):
    """The graph of graph_to_json, {"n": count, "edges": [[i, j], ...]}, the
    count and every label a JSON integer (no bool, float or string);
    ValueError("bad graph JSON: ...") for anything else."""
    try:
        return Graph.from_edges(data["n"], [(i, j) for i, j in data["edges"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad graph JSON: {exc}") from None


def connected_components(g):
    """Vertex sets of the connected components, each sorted, in label order."""
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(sorted(comp))
    return comps


def is_connected(g):
    return g.n <= 1 or len(connected_components(g)) == 1


def induced_subgraph(g, subset):
    """Induced subgraph on `subset`, relabeled 1..|subset| in sorted order.

    Returns (subgraph, mapping) where mapping sends old labels to new ones.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > g.n:
        raise ValueError(f"subset out of range 1..{g.n}")
    mapping = {old: new for new, old in enumerate(subset, start=1)}
    edges = [(mapping[i], mapping[j]) for i, j in g.edges if i in mapping and j in mapping]
    return Graph.from_edges(len(subset), edges), mapping


# ---------------------------------------------------------------------------
# generators


def complete(n):
    if n < 1:
        raise ValueError(f"complete graph needs n >= 1, got {n}")
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def near_complete(n):
    """Complete graph on n vertices with the edge {1, 2} removed."""
    if n < 2:
        raise ValueError(f"near-complete graph needs n >= 2, got {n}")
    edges = set(itertools.combinations(range(1, n + 1), 2)) - {(1, 2)}
    return Graph.from_edges(n, edges)


def cycle(n):
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edges(n, edges)


def path(n):
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def random_tree(n, seed=0):
    """Uniform random labeled tree (via a random Pruefer sequence)."""
    if n < 1:
        raise ValueError(f"tree needs n >= 1, got {n}")
    if n <= 2:
        return path(n)
    rng = np.random.default_rng(seed)
    pruefer = rng.integers(1, n + 1, size=n - 2).tolist()
    degree = [0] + [1] * n
    for v in pruefer:
        degree[v] += 1
    # each step joins the least leaf: a pointer sweeps the labels upwards,
    # and a vertex that becomes a leaf below the pointer is the next one
    edges = []
    leaf = ptr = degree.index(1)
    for v in pruefer:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = ptr = degree.index(1, ptr + 1)
    edges.append((leaf, n))
    return Graph.from_edges(n, edges)


def complete_bipartite(a, b):
    if a < 1 or b < 1:
        raise ValueError(f"complete bipartite graph needs a, b >= 1, got {a}, {b}")
    edges = [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    return Graph.from_edges(a + b, edges)


def band(n, d):
    """Edge {i, j} iff 0 < |i - j| <= d."""
    if n < 1 or d < 0 or d > n:
        raise ValueError(f"band graph needs n >= 1 and 0 <= d <= n, got n={n}, d={d}")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, min(i + d, n) + 1)]
    return Graph.from_edges(n, edges)


def split_graph(clique_size, independent_size, attach_degrees, seed=0):
    """Clique on 1..c plus an independent set, each vertex wired to a random
    subset of the clique.

    Attachment degrees at most clique_size - 1, so the clique stays maximal.
    `attach_degrees` is an int (same for every independent vertex) or a
    sequence of length independent_size.
    """
    c, m = clique_size, independent_size
    if c < 1 or m < 0:
        raise ValueError("split graph needs clique_size >= 1 and independent_size >= 0")
    if isinstance(attach_degrees, int):
        degs = [attach_degrees] * m
    else:
        degs = [int(d) for d in attach_degrees]
        if len(degs) != m:
            raise ValueError(f"need {m} attachment degrees, got {len(degs)}")
    for d in degs:
        if not (0 <= d <= c - 1):
            raise ValueError(f"attachment degree {d} outside 0..{c - 1}")
    rng = np.random.default_rng(seed)
    edges = list(itertools.combinations(range(1, c + 1), 2))
    for k, d in enumerate(degs):
        v = c + 1 + k
        targets = rng.choice(np.arange(1, c + 1), size=d, replace=False)
        edges.extend((int(t), v) for t in targets)
    return Graph.from_edges(c + m, edges)


def apollonian(n, seed=0):
    """Stacked triangulation: start from a triangle, repeatedly subdivide a
    random face with a new degree-3 vertex.

    One representative of the family per (n, seed).
    """
    if n < 3:
        raise ValueError(f"apollonian graph needs n >= 3, got {n}")
    rng = np.random.default_rng(seed)
    edges = [(1, 2), (1, 3), (2, 3)]
    faces = [(1, 2, 3)]
    for v in range(4, n + 1):
        k = int(rng.integers(len(faces)))
        a, b, c = faces.pop(k)
        edges.extend([(a, v), (b, v), (c, v)])
        faces.extend([(a, b, v), (a, c, v), (b, c, v)])
    return Graph.from_edges(n, edges)


def max_outerplanar(n):
    """Fan triangulation of the n-gon (one maximal outerplanar graph)."""
    if n < 3:
        raise ValueError(f"maximal outerplanar graph needs n >= 3, got {n}")
    edges = cycle(n).sorted_edges() + [(1, k) for k in range(3, n)]
    return Graph.from_edges(n, edges)


def random_chordal(n, density=0.5, seed=0):
    """Random connected chordal graph grown one simplicial vertex at a time.

    Each new vertex attaches to a random subset of a previously recorded
    clique, so the reversed insertion order is a perfect elimination
    ordering by construction. `density` in [0, 1] biases subset sizes.
    """
    if n < 1:
        raise ValueError(f"random chordal graph needs n >= 1, got {n}")
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
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


def random_graph(n, edge_prob=0.5, seed=0):
    """Erdos-Renyi style sample, mainly for cross-checking oracles."""
    if n < 0:
        raise ValueError(f"random graph needs n >= 0, got {n}")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    edges = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < edge_prob]
    return Graph.from_edges(n, edges)


FAMILY_GENERATORS = {
    "complete": complete,
    "near_complete": near_complete,
    "cycle": cycle,
    "path": path,
    "tree": random_tree,
    "complete_bipartite": complete_bipartite,
    "band": band,
    "split": split_graph,
    "apollonian": apollonian,
    "max_outerplanar": max_outerplanar,
    "random_chordal": random_chordal,
}


def generate(family, **params):
    """Build a named family member, e.g. generate("band", n=5, d=2)."""
    try:
        gen = FAMILY_GENERATORS[family]
    except KeyError:
        known = ", ".join(sorted(FAMILY_GENERATORS))
        raise ValueError(f"unknown family {family!r}; known: {known}") from None
    return gen(**params)
