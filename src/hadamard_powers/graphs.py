"""Simple undirected graphs with 1-based vertex labels.

Provides the edge-list / JSON codecs and the named graph generators used by
the critical-exponent machinery. Derived clique facts (chordality, maximal
cliques, the largest near-complete subgraph) live on `Graph.analysis`.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import operator
import re
from functools import cache, cached_property

from ._lazy_numpy import np


class GraphParseError(ValueError):
    """Malformed edge-list input; the message carries the line number."""


class Graph:
    """Simple undirected graph on vertices 1..n.

    The one store is `_adjacency`, [[], N(1), ..., N(n)]: each vertex's
    neighbors as a list in ascending label order, with m, the number of
    edges. The constructor takes lists already in that form; build graphs
    with from_edges, parse_edge_list or a generator, which keep one int
    object per label however many lists hold it. Instances are immutable,
    and equality and hashing are on (n, lists), so derived quantities can
    be cached.
    """

    def __init__(self, n, adjacency, m):
        self.__dict__.update(n=n, _adjacency=adjacency, m=m)

    def __setattr__(self, name, value):
        raise AttributeError(f"Graph is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Graph is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adjacency == other._adjacency

    def __hash__(self):
        return hash((self.n, tuple(map(tuple, self._adjacency))))

    def __repr__(self):
        return f"Graph.from_edges({self.n}, {self.sorted_edges()})"

    @classmethod
    def from_edges(cls, n, edges):
        """The graph on 1..n with the given (i, j) edges, in either order and
        repeated or not. n and every label must be integers (Python or numpy,
        not bool); ValueError otherwise, or for a self-loop or a label
        outside 1..n."""
        n = _integer(n)
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        label = list(range(n + 1))  # one int object per vertex, however often it is stored
        near = [[] for _ in label]
        for i, j in edges:
            if type(i) is not int or type(j) is not int:
                i, j = _integer(i), _integer(j)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge ({i}, {j}) out of range 1..{n}")
            near[i].append(label[j])
            near[j].append(label[i])
        for nb in near:
            if len(nb) > 1:
                nb.sort()
                if len(set(nb)) < len(nb):  # an edge given more than once
                    nb[:] = sorted(set(nb))
        return cls(n, near, sum(map(len, near)) // 2)

    @property
    def edges(self):
        """The edges as a frozenset of (i, j) pairs with i < j, built anew on
        each read from the neighbor lists."""
        return frozenset(self.sorted_edges())

    @cached_property
    def analysis(self):
        """Chordality, maximal cliques and near-complete subgraphs of this
        graph (chordal.GraphAnalysis), each computed once, on first use."""
        from .chordal import GraphAnalysis

        return GraphAnalysis(self)

    @property
    def vertices(self):
        return range(1, self.n + 1)

    def degree(self, v):
        if not 1 <= v <= self.n:
            raise KeyError(v)
        return len(self._adjacency[v])

    def has_edge(self, i, j):
        """True iff {i, j} is an edge, by bisection of the shorter of the two
        neighbor lists; False for a label outside 1..n."""
        if not (0 < i <= self.n and 0 < j <= self.n):
            return False
        near, far = self._adjacency[i], self._adjacency[j]
        if len(far) < len(near):
            near, j = far, i
        k = bisect.bisect_left(near, j)
        return k < len(near) and near[k] == j

    def sorted_edges(self):
        """The (i, j) edges, i < j, in ascending order: each vertex's later
        neighbors, vertex by vertex."""
        return [(i, j) for i, nb in enumerate(self._adjacency) for j in nb if j > i]


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

    Clean text (_parse_whole_text) is read in one pass over the whole text;
    any other text, and any text shorter than WHOLE_TEXT_MIN_CHARS, line by
    line (_parse_lines), which reports errors with their line numbers.
    """
    if len(text) >= WHOLE_TEXT_MIN_CHARS:
        g = _parse_whole_text(text)
        if g is not None:
            return g
    return _parse_lines(text)


#: Below this many characters the line parser is the faster one: the
#: whole-text pass costs a few dozen numpy calls, whatever the size.
WHOLE_TEXT_MIN_CHARS = 600

#: The largest label or count the whole-text pass reads: keys i (n + 1) + j
#: stay within int64, and a larger one takes the line parser, as before.
_WHOLE_TEXT_MAX_LABEL = 10**9 - 1

_HEADER = re.compile(r"[ \t\n]*n[ \t]+\+?([0-9]{1,9})[ \t]*(?:\n|\Z)")


@cache
def _unclean():
    """The mask of the bytes that clean text holds none of, built at the
    first whole-text pass: importing the package runs no numpy."""
    mask = np.ones(256, dtype=bool)
    mask[list(b"0123456789+ \t\n")] = False
    return mask


def _parse_whole_text(text):
    """The graph of clean edge-list text, with no loop over its lines; None
    for any other text, and for clean text with an error, both of which
    _parse_lines reads.

    Clean text is an optional header "n <count>", then lines of two labels
    or none, each label ASCII digits with an optional "+", and only
    spaces, tabs and "\n" between them. A label below 1, a self-loop, a
    label above the count and a label past _WHOLE_TEXT_MAX_LABEL are the
    errors. The labels are read by numpy; each pair is keyed both ways as
    i (n + 1) + j, and one sort gives each vertex's neighbors in order,
    repeated edges next to each other.
    """
    if not text.isascii():
        return None
    head = _HEADER.match(text)
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)[head.end() if head else 0:]
    if not _two_labels_a_line(raw):
        return None
    labels = np.fromstring(raw, dtype=np.int64, sep=" ")  # saturates past int64
    del raw  # each array goes once read: at 10^6 lines, each is tens of MB
    if labels.size and not (1 <= labels.min() and labels.max() <= _WHOLE_TEXT_MAX_LABEL):
        return None
    top = int(labels.max()) if labels.size else 0
    n = int(head[1]) if head else top
    i, j = labels[0::2], labels[1::2]
    if top > n or (i == j).any():
        return None
    keys = np.concatenate((i * (n + 1) + j, j * (n + 1) + i))
    del labels, i, j
    keys.sort()
    first = np.ones(keys.size, dtype=bool)  # True at the first copy of each key
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    if not first.all():
        keys = keys[first]
    del first
    source, target = np.divmod(keys, n + 1)
    del keys
    bounds = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(source, minlength=n + 1), out=bounds[1:])
    del source
    label = np.empty(n + 1, dtype=object)
    label[:] = range(n + 1)  # one int object per vertex, however often it is stored
    flat = label[target].tolist()
    del label, target
    collecting = gc.isenabled()
    gc.disable()  # each pass of the collector the new lists set off would walk all of `flat`
    try:
        near = [flat[a:b] for a, b in itertools.pairwise(bounds.tolist())]
    finally:
        if collecting:
            gc.enable()
    return Graph(n, near, len(flat) // 2)


def _two_labels_a_line(raw):
    """True iff the bytes `raw` are digits, "+", spaces, tabs and "\n"
    only, each "+" starts a label and a digit follows it, and each line
    holds two labels or none."""
    if _unclean()[raw].any():
        return False
    label = raw >= ord("+")  # "+" and the digits, past every separator
    start = label.copy()
    start[1:] &= ~label[:-1]
    del label
    plus = raw == ord("+")
    if plus.any() and ((plus & ~start).any() or plus[-1] or (plus[:-1] & (raw[1:] < ord("0"))).any()):
        return False
    del plus
    newline = raw == ord("\n")
    marks = np.flatnonzero(start | newline)  # the label starts and line ends, in text order
    del start
    ends = np.flatnonzero(newline[marks])
    per_line = np.diff(ends, prepend=-1, append=marks.size) - 1
    return bool(((per_line == 0) | (per_line == 2)).all())


def _parse_lines(text):
    """parse_edge_list line by line: any text, each error with its line
    number. Every line is read and checked first, each edge kept once; the
    neighbor lists are made after that, once, for the final n, so a large
    count or label in a text with an error costs nothing."""
    edges = set()
    n_declared = None
    top = 0  # the largest label read
    over = None  # the first line with a label above n_declared
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0] if "#" in raw else raw
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
        a, b = tokens
        try:  # _read_integer of each, inlined: this runs once per line
            if not (a.isascii() and b.isascii()) or "_" in a or "_" in b:
                raise ValueError
            i, j = int(a), int(b)
        except ValueError:
            raise GraphParseError(
                f"line {lineno}: non-integer vertex label in {content.strip()!r}") from None
        if i > j:
            i, j = j, i
        if i <= 0:
            raise GraphParseError(f"line {lineno}: vertex labels must be positive")
        if i == j:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {i}")
        if n_declared is not None and j > n_declared:
            if over is None:
                over = lineno
            continue
        if j > top:
            top = j
        edges.add((i, j))
    if over is not None:
        raise GraphParseError(f"line {over}: label exceeds declared vertex count {n_declared}")
    n = top if n_declared is None else n_declared
    label = list(range(n + 1))  # one int object per vertex, however often it is stored
    near = [[] for _ in label]
    for i, j in edges:
        near[i].append(label[j])
        near[j].append(label[i])
    for nb in near:
        nb.sort()
    return Graph(n, near, len(edges))


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
    """Vertex sets of the connected components, each sorted, in label order
    (GraphAnalysis.components)."""
    return [list(c) for c in g.analysis.components]


def is_connected(g):
    return g.n <= 1 or len(g.analysis.components) == 1


def induced_subgraph(g, subset):
    """Induced subgraph on `subset`, relabeled 1..|subset| in sorted order.

    Returns (subgraph, mapping) where mapping sends old labels to new ones.
    It reads only the subset's neighbor lists, so splitting a graph into
    its components takes time linear in its size; the relabeling keeps
    label order, so the subgraph's neighbor lists come out sorted.
    """
    subset = sorted(set(subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    if subset[0] < 1 or subset[-1] > g.n:
        raise ValueError(f"subset out of range 1..{g.n}")
    mapping = {old: new for new, old in enumerate(subset, start=1)}
    near = g._adjacency
    sub_near = [[], *([mapping[u] for u in near[v] if u in mapping] for v in subset)]
    return Graph(len(subset), sub_near, sum(map(len, sub_near)) // 2), mapping


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
    Vertex u's recorded clique is its earlier neighbors and u itself.

    The draws are numpy Generator.integers, .binomial and .choice calls,
    reproduced from the raw PCG64 stream (_numpy_draws): the numpy stream
    is read, not redrawn, and `seed` may be a Generator, left where the
    calls would leave it.
    """
    if n < 1:
        raise ValueError(f"random chordal graph needs n >= 1, got {n}")
    if not (0.0 <= density <= 1.0):
        raise ValueError(f"density must lie in [0, 1], got {density}")
    from ._numpy_draws import draws_from  # on first use: most processes build no such graph

    draws = draws_from(np.random.default_rng(seed))
    near = [[], []]  # near[v]: v's earlier neighbors, sorted, then its later ones
    earlier = [0, 0]  # earlier[v]: their count; v's clique is near[v][:earlier[v]] and v
    label = list(range(n + 1))  # one int object per vertex, however often it is stored
    for v in itertools.islice(label, 2, None):
        u = label[1 + draws.integers(v - 1)]
        c = earlier[u]
        k = 1 + draws.binomial(c, density) if c else 1
        head = near[u]
        attach = [head[i] if i < c else u for i in draws.choice(c + 1, k)]
        for a in attach:
            near[a].append(v)
        near.append(attach)
        earlier.append(k)
    draws.sync()
    return Graph(len(near) - 1, near, sum(earlier))


def random_graph(n, edge_prob=0.5, seed=0):
    """Erdos-Renyi style sample, mainly for cross-checking oracles."""
    if n < 0:
        raise ValueError(f"random graph needs n >= 0, got {n}")
    if not (0.0 <= edge_prob <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {edge_prob}")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(1, n):  # the coins of the pairs (i, j), j > i, in one draw
        row = rng.random(n - i) < edge_prob
        edges.extend((i, j) for j in (np.flatnonzero(row) + i + 1).tolist())
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
