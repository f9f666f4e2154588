"""Chordal graph machinery.

One Lex-BFS pass per graph gives chordality, a perfect elimination
ordering and the clique tree; on top of it: maximal clique enumeration,
perfect orderings of the maximal cliques with their histories, residuals
and separators, clique-separator decompositions (A, C, B), and a chordal
supergraph of any graph by greedy min-fill elimination.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .graphs import Graph, is_connected


class NotChordalError(ValueError):
    """Raised for operations that require a chordal graph.

    Carries a chordless cycle (length >= 4) certifying the failure.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle) if cycle else None
        detail = f"chordless cycle {self.cycle}" if self.cycle else "no chordless cycle recorded"
        super().__init__(f"graph is not chordal ({detail})")


def is_perfect_elimination_order(g, order):
    """Check that each vertex's later neighbors form a clique, by the
    parent test (_parent_test) with the order read from the back, as a
    Lex-BFS visit order: a vertex's later neighbors are those it meets
    first, the earliest of them its parent."""
    if sorted(order) != list(g.vertices):
        raise ValueError("order must be a permutation of the vertices")
    near = g._adjacency
    pos = [-1] * (g.n + 1)
    for k, v in enumerate(reversed(order)):
        pos[v] = k
    parent = [0] * (g.n + 1)
    count = [0] * (g.n + 1)
    for v in g.vertices:
        here, last = pos[v], -1
        for w in near[v]:
            k = pos[w]
            if k < here:
                count[v] += 1
                if k > last:
                    last, parent[v] = k, w
    return _parent_test(near, pos, parent, count)


def _parent_test(near, pos, parent, count):
    """True iff, in the order of `pos`, each vertex's neighbors placed
    before it form a clique, given their number count[v] and parent[v], the
    last of them (0 when there is none).

    In O(n + m) by the parent test (Tarjan-Yannakakis 1984, SIAM J. Comput.
    13(3)): the other earlier neighbors of each v must all be neighbors of
    its parent p. By induction along the order, that makes every earlier
    neighborhood a clique. The children of each parent are grouped, so one
    marking pass over N(p) serves them all; a child whose parent is its
    only earlier neighbor has nothing to check.
    """
    n = len(near) - 1
    first = [0] * (n + 1)  # a child of p to check, and its next siblings
    sibling = [0] * (n + 1)
    for v in range(1, n + 1):
        if count[v] > 1:
            p = parent[v]
            sibling[v] = first[p]
            first[p] = v
    mark = [0] * (n + 1)
    for p in range(1, n + 1):
        v = first[p]
        if not v:
            continue
        for w in near[p]:
            mark[w] = p
        limit = pos[p]
        while v:
            for w in near[v]:
                if pos[w] < limit and mark[w] != p:
                    return False
            v = sibling[v]
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
        near = g._adjacency[v]
        for x, y in itertools.combinations(near, 2):
            if g.has_edge(x, y):
                continue
            blocked = {v, *near} - {x, y}
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
        for w in g._adjacency[u]:
            if w not in prev and w not in blocked:
                prev[w] = u
                queue.append(w)
    return None


def _require_chordal(g):
    if not is_chordal(g):
        raise NotChordalError(find_chordless_cycle(g))


# ---------------------------------------------------------------------------
# per-graph analysis

#: Work limit of general clique enumeration, in Bron-Kerbosch expansions
#: past n + m (pivoting spends about one per vertex and one per maximal
#: clique): sparse graphs of any size pass, and ones with many more cliques
#: (up to 3^(n/3), Moon-Moser) fail loudly instead of slowly.
MAX_CLIQUE_EXPANSIONS = 100_000

#: Work limit of the depth-first search for an even cycle of one length
#: (GraphAnalysis.even_cycle), in stack pops; past it that length reports
#: no cycle.
MAX_CYCLE_SEARCH_STEPS = 500_000

#: Work limit of the min-fill triangulation (GraphAnalysis.triangulation),
#: in neighbor-set entries read while counting, adding and updating fill:
#: 10-30 ns each on a 2-vCPU Xeon VM, so the limit is about a second
#: (K_400 plus a 4-cycle takes 85 M, random_graph(300, 0.5) 25 M). Past it
#: the chordal supergraph is the complete graph, whose r is n, so the
#: numeric walk searches all of (0, n - 2] as without one.
MAX_FILL_WORK = 50_000_000

#: A face vertex whose neighbor list is longer than this many times the
#: face's shortest is a hub: _least_face_pair bisects its list instead of
#: reading it whole.
HUB_RATIO = 8


class GraphAnalysis:
    """Clique facts of one graph, each computed on first use and kept as
    long as the graph (reached as `g.analysis`): from one Lex-BFS pass,
    chordality, the elimination order and the clique tree; then the
    maximal cliques, the clique number, the order r of the largest
    near-complete subgraph and, for the witness searches, its certificate,
    a chordal supergraph with its r, and the index layout of the
    clique-sum sampler. Nothing is kept per vertex pair.

    The analysis keeps `graph`, a view of its graph: a Graph on the same
    neighbor lists that carries no analysis. So no reference cycle is made:
    an analysed graph is freed as soon as its last reference goes, and an
    analysis read after that still answers.
    """

    def __init__(self, g):
        self.graph = Graph(g.n, g._adjacency, g.m)

    @cached_property
    def _lex_bfs_pass(self):
        """The one search of the graph: the visit order, positions, parents
        and earlier-neighbor counts of _lex_bfs, and the chains of
        _lex_bfs_chains."""
        visit, pos, parent, count = _lex_bfs(self.graph)
        starts, extends = _lex_bfs_chains(visit, parent, count)
        return visit, pos, parent, count, starts, extends

    @cached_property
    def order(self):
        """Elimination ordering: the reversed Lex-BFS visit order."""
        return tuple(reversed(self._lex_bfs_pass[0]))

    @cached_property
    def is_chordal(self):
        """The parent test on the elimination order: the neighbors visited
        before v are its later neighbors, the last of them its parent."""
        _, pos, parent, count, _, _ = self._lex_bfs_pass
        return _parent_test(self.graph._adjacency, pos, parent, count)

    @cached_property
    def clique_tree(self):
        """(cliques, separators): the maximal cliques of a chordal graph in a
        perfect order, each with its intersection with the cliques before it.
        One clique per Lex-BFS chain, in the order the chains start, with
        the neighbors visited before the start as its separator.

        Raises NotChordalError for any other graph.
        """
        if not self.is_chordal:
            raise NotChordalError(find_chordless_cycle(self.graph))
        near = self.graph._adjacency
        _, pos, _, _, starts, extends = self._lex_bfs_pass
        cliques, seps = [], []
        for h in starts:
            seps.append(frozenset(_visited_before(near, pos, h)))
            while extends[h]:
                h = extends[h]
            cliques.append(frozenset([h, *_visited_before(near, pos, h)]))
        return tuple(cliques), tuple(seps)

    @cached_property
    def maximal_cliques(self):
        """All maximal cliques as frozensets, sorted by their sorted labels.

        The one place choosing the route: the clique tree of a chordal graph,
        else one Bron-Kerbosch search per vertex.
        """
        if self.is_chordal:
            return tuple(sorted(self.clique_tree[0], key=sorted))
        return _bron_kerbosch_by_vertex(self.graph)

    @cached_property
    def clique_number(self):
        """omega, the size of a largest clique; on a chordal graph one more
        than the most neighbors a vertex has visited before it, with no
        clique built."""
        if self.is_chordal:
            return max(self._lex_bfs_pass[3]) + 1 if self.graph.n else 0
        return max(map(len, self.maximal_cliques), default=0)

    @cached_property
    def near_complete(self):
        """(r, v1, S, v2): r is the largest number of vertices spanning at
        least C(r,2) - 1 edges, and the certificate has S an (r-2)-clique and
        v1 != v2 outside S, joined to all of S (the v1-v2 edge is irrelevant:
        the bordered witness puts a zero there either way). Any m-subset of S
        certifies m + 2 the same way.

        S + v1 is a clique, so r <= omega + 1, and r = omega + 1 exactly
        when some face, an (omega - 1)-set K, lies in two maximum cliques
        K + x and K + y. The vertices joined to a face are its members, and
        no two of them are adjacent, or they would close an
        (omega + 1)-clique. On a chordal graph the faces are the clique
        tree's separators of size omega - 1 (two cliques meet inside every
        separator on the tree path between them), read off the Lex-BFS
        chains with no clique built, else the (omega - 1)-subsets of the
        maximum cliques. The pair (v1, v2) is the least, over the faces, of
        a face's two least members: the first non-adjacent pair in label
        order reaching omega + 1. S is the first largest intersection of
        their common neighborhood with a maximal clique; on a chordal graph
        that neighborhood is a clique (two non-adjacent common neighbors
        would close a chordless 4-cycle), the face itself. With no face of
        two members r = max(omega, 2), and the certificate splits the first
        largest maximal clique.
        """
        g = self.graph
        if g.n < 2:
            raise ValueError(f"need at least 2 vertices, got {g.n}")
        near, omega = g._adjacency, self.clique_number
        if self.is_chordal:
            _, pos, parent, count, starts, _ = self._lex_bfs_pass
            found = _least_face_pair(g, pos, parent, count, starts, omega - 1)
            if found is not None:
                v1, v2, face = found
                return omega + 1, v1, face, v2
            verts = min(sorted([v, *_visited_before(near, pos, v)])
                        for v in g.vertices if count[v] == omega - 1)
        else:
            cliques, faces = self.maximal_cliques, {}
            for c in cliques:
                if len(c) == omega:
                    for x in c:
                        faces.setdefault(c - {x}, []).append(x)
            pair = min((sorted(m)[:2] for m in faces.values() if len(m) > 1), default=None)
            if pair is not None:
                v1, v2 = pair
                common = set(near[v1]).intersection(near[v2])
                common = max((c & common for c in cliques), key=len)
                return omega + 1, v1, tuple(sorted(common)), v2
            verts = min(sorted(c) for c in cliques if len(c) == omega)
        if len(verts) < 2:
            verts = [1, 2]
        return len(verts), verts[0], tuple(verts[1:-1]), verts[-1]

    @cached_property
    def near_complete_order(self):
        """r, the order of near_complete, with no certificate built where
        the analysis already holds r: on a chordal graph it is read off the
        Lex-BFS chains (_chain_order). A two-colored graph that is not
        chordal has omega = 2 and a chordless cycle, whose vertices each
        have two neighbors, a face in two maximum cliques: r = omega + 1
        = 3. Any other graph builds near_complete, as do the witness
        searches, its only other reader.
        """
        g = self.graph
        if g.n < 2:
            raise ValueError(f"need at least 2 vertices, got {g.n}")
        if self.is_chordal:
            _, _, _, count, starts, _ = self._lex_bfs_pass
            return _chain_order(count, starts)
        if self.bipartition is not None:
            return 3
        return self.near_complete[0]

    @cached_property
    def triangulation(self):
        """(fill, order, r): a chordal supergraph H of the graph, given by
        the edges it adds and a perfect elimination order of H, and r of H,
        the order of its largest near-complete subgraph. H = G on a chordal
        graph, with no search.

        Zero padding puts the pattern cone of G inside that of H, so every
        power of H's set, lattice union [r(H) - 2, oo), is in G's set too.
        H comes from greedy min-fill elimination (_min_fill). Each vertex's
        later neighbors in H are its E(v) in the reversed order, so r(H) is
        read off their Lex-BFS chains (_chain_order), with no graph built
        for H. Past MAX_FILL_WORK H is the complete graph: fill None (every
        missing edge), order 1..n and r = n.
        """
        g = self.graph
        if self.is_chordal:
            return (), self.order, self.near_complete_order
        found = _min_fill(g)
        if found is None:
            return None, tuple(g.vertices), g.n
        fill, order, parent, count = found
        starts, _ = _lex_bfs_chains(reversed(order), parent, count)
        return fill, order, _chain_order(count, starts)

    @cached_property
    def _component_search(self):
        return _color_components(self.graph)

    @property
    def components(self):
        """The vertex sets of the connected components, each a sorted tuple,
        in label order (_color_components)."""
        return self._component_search[0]

    @property
    def bipartition(self):
        """(X, Y), a two-coloring with the least vertex of each component
        in X (_color_components); None when an odd cycle exists."""
        return self._component_search[1]

    @cached_property
    def sample_layout(self):
        """Index layout of the graph's clique-sum samples
        (cones.SampleLayout), built once and shared by every stack."""
        from .cones import SampleLayout

        return SampleLayout(self.maximal_cliques, self.graph.n)

    @cached_property
    def even_cycle(self):
        """A shortest even cycle as an ordered vertex list, or None, by one
        bounded depth-first search per even length 4-12, shortest first
        (_simple_cycle_of_length); the cycle need not be induced."""
        for length in range(4, 13, 2):
            cyc = _simple_cycle_of_length(self.graph, length)
            if cyc is not None:
                return cyc
        return None


def _color_components(g):
    """(components, bipartition) from one breadth-first search per
    component, which colors each vertex it reaches apart from the vertex it
    came from (GraphAnalysis.components and .bipartition)."""
    near = g._adjacency
    side = [-1] * (g.n + 1)
    comps = []
    odd = False
    for start in g.vertices:
        if side[start] >= 0:
            continue
        side[start] = 0
        comp = [start]
        for v in comp:  # comp grows as the search reaches new vertices
            for u in near[v]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    comp.append(u)
                elif side[u] == side[v]:
                    odd = True
        comps.append(tuple(sorted(comp)))
    if odd:
        return tuple(comps), None
    x = frozenset(v for v in g.vertices if side[v] == 0)
    return tuple(comps), (x, frozenset(g.vertices) - x)


def _lex_bfs(g):
    """One lexicographic breadth-first search (Rose-Tarjan-Lueker 1976,
    SIAM J. Comput. 5(2)) by partition refinement, in O(n + m), over the
    neighbor lists in ascending label order, so that equal graphs give
    equal orders.

    Returns (visit, pos, parent, count): the visit order, each vertex's
    slot in it, and per vertex v the last of its neighbors visited before
    it (its parent, 0 if none) and their number. The neighbors visited
    before v are E(v), its later neighbors in the reversed order. The
    unvisited vertices sit in `visit` as contiguous cells; visiting v
    moves each unvisited neighbor to the front of its cell, into the cell
    split off just before it in this round, so the next vertex is always
    the next slot and no cell is searched. Flat lists only: pos[v] is v's
    slot, start[c] is where cell c begins, split[c] the cell last split off
    c and made[d] the round that made cell d.
    """
    near = g._adjacency
    n = g.n
    visit = list(g.vertices)
    pos = list(range(-1, n))
    cell = [0] * (n + 1)
    parent = [0] * (n + 1)
    count = [0] * (n + 1)
    start, made, split = [0], [-1], [0]
    for i in range(n):
        v = visit[i]
        start[cell[v]] += 1
        for w in near[v]:
            j = pos[w]
            if j <= i:
                continue
            parent[w] = v
            count[w] += 1
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
    return visit, pos, parent, count


def _visited_before(near, pos, v):
    """E(v): v's neighbors visited before it, in ascending label order."""
    here = pos[v]
    return [w for w in near[v] if pos[w] < here]


def _lex_bfs_chains(visit, parent, count):
    """(starts, extends): the Lex-BFS clique tree as chains of vertices.

    v extends the clique of its parent p when E(v) = p + E(p), which on a
    chordal graph is |E(v)| = |E(p)| + 1, and no vertex visited before v
    did so (extends[p] = v); otherwise v starts a chain. A chain runs from
    its start b up to the vertex h nothing extends; h + E(h) is a maximal
    clique of a chordal graph, and E(b) its separator (Blair-Peyton 1993,
    An introduction to chordal graphs and clique trees, section 4).
    """
    extends = [0] * len(parent)
    starts = []
    for v in visit:
        p = parent[v]
        if p and not extends[p] and count[v] == count[p] + 1:
            extends[p] = v
        else:
            starts.append(v)
    return starts, extends


def _chain_order(count, starts):
    """r of a chordal graph on >= 2 vertices from its Lex-BFS chains, with
    no face read: omega = max |E(v)| + 1, and r = omega + 1 exactly when
    some chain start's separator E(b) has omega - 1 vertices, a face with
    two members: b, and with p its parent, the vertex of p + E(p) outside
    E(b) or else the vertex that extends p in b's stead. So r = max(omega,
    max |E(b)| + 2), which is 2 on an edgeless graph."""
    return max(max(count) + 1, 2 + max(count[b] for b in starts))


def _least_face_pair(g, pos, parent, count, starts, k):
    """(v1, v2, face) for the least pair of members of a face of a chordal
    graph, over its faces E(b) of size k > 0 for the chain starts b, each
    taken once; None when no face has two members. A face's members are
    its vertices' common neighbors: one set intersection of their lists,
    except the lists longer than HUB_RATIO times the shortest, whose
    vertices filter the result by has_edge (a bisection), so no hub's list
    is read, as no fan's center's is; for k = 1 the face is b's parent,
    marked once seen, and its members its list."""
    if not k:  # an edgeless graph's empty face: the split certifies it
        return None
    near = g._adjacency
    seen, done, best = set(), [False] * (g.n + 1), None
    for b in starts:
        if count[b] != k:
            continue
        if k == 1:
            p = parent[b]
            if done[p]:
                continue
            done[p] = True
            face, members = (p,), near[p]
        else:
            face = tuple(_visited_before(near, pos, b))
            if face in seen:
                continue
            seen.add(face)
            hub = HUB_RATIO * min(len(near[s]) for s in face)
            lists = [near[s] for s in face if len(near[s]) <= hub]
            members = sorted(set(lists[0]).intersection(*lists[1:]))
            for s in face:
                if len(near[s]) > hub:
                    members = [w for w in members if g.has_edge(s, w)]
        if len(members) > 1:
            found = members[0], members[1], face
            if best is None or found < best:
                best = found
    return best


def _bron_kerbosch_by_vertex(g):
    """The maximal cliques of any graph, sorted by their sorted labels: one
    pivoting Bron-Kerbosch search per vertex v (Eppstein-Loeffler-Strash
    2010, ISAAC), with R = {v}, P = its later and X = its earlier neighbors
    in the order of degree, then label. No vertex has more than sqrt(2m)
    later neighbors (Chiba-Nishizeki 1985, SIAM J. Comput. 14(1)), and each
    search reads only the edges into P, off the later-neighbor lists of
    N(v): O(m sqrt(m)) in all. X keeps only the vertices joined to P.
    Raises ValueError after MAX_CLIQUE_EXPANSIONS + n + m expansions."""
    n, near = g.n, g._adjacency
    rank = [(len(nb), v) for v, nb in enumerate(near)]
    up = [[w for w in nb if rank[w] > rank[v]] for v, nb in enumerate(near)]
    limit = MAX_CLIQUE_EXPANSIONS + n + g.m
    cliques, expansions = [], 0
    for v in g.vertices:
        if not up[v]:
            if not near[v]:
                cliques.append((v,))
            continue
        later = set(up[v])
        local = {w: set() for w in later}  # N(u) & N(v) for u in P, N(u) & P for u in X
        for u in near[v]:
            for w in up[u]:
                if w in later:
                    local[w].add(u)
                    local.setdefault(u, set()).add(w)
        stack = [((v,), later, local.keys() - later)]
        while stack:
            expansions += 1
            if expansions > limit:
                raise ValueError(f"general clique enumeration stopped at the work limit of "
                                 f"{MAX_CLIQUE_EXPANSIONS} + n + m = {limit} Bron-Kerbosch "
                                 f"expansions (MAX_CLIQUE_EXPANSIONS) on a {n}-vertex graph")
            r, p, x = stack.pop()
            if not p:
                if not x:
                    cliques.append(tuple(sorted(r)))
                continue
            pivot = max(p | x, key=lambda u: len(p & local[u]))
            for w in p - local[pivot]:
                stack.append(((*r, w), p & local[w], x & local[w]))
                p.remove(w)
                x.add(w)
    return tuple(map(frozenset, sorted(cliques))) or (frozenset(),)  # n = 0: the empty clique


def _min_fill(g):
    """Greedy minimum-fill elimination: take a vertex whose remaining
    neighbors miss the fewest edges among themselves (the smallest label
    among ties), add those edges, and remove it; repeat.

    Returns (fill, order, parent, count): the added edges, sorted, the
    elimination order, a perfect elimination order of H = G + fill, and per
    vertex v its number of later neighbors in H, the neighbors left when it
    is eliminated, and parent[v], the first of them eliminated (0 if none).
    None past MAX_FILL_WORK. Each vertex's count of missing neighbor pairs
    is counted once and then updated as edges are added and vertices
    removed; a heap with lazy deletion keeps the smallest count.
    """
    import heapq  # on first use: only non-chordal graphs reach here

    adj = dict(zip(g.vertices, map(set, g._adjacency[1:])))
    missing = [0] * (g.n + 1)
    work = 0
    for v, near in adj.items():
        links = 0
        for u in near:
            work += min(len(adj[u]), len(near))
            links += len(adj[u] & near)
        if work > MAX_FILL_WORK:
            return None
        missing[v] = len(near) * (len(near) - 1) // 2 - links // 2
    heap = [(missing[v], v) for v in g.vertices]
    heapq.heapify(heap)
    fill, order, later = [], [], [()] * (g.n + 1)
    while heap:
        count, v = heapq.heappop(heap)
        if v not in adj or count != missing[v]:
            continue  # eliminated, or a stale count
        order.append(v)
        near = later[v] = adj.pop(v)
        changed = set(near)
        for a in sorted(near) if count else ():  # a simplicial v adds nothing
            work += len(near)
            for b in sorted(near - adj[a]):
                if b <= a:
                    continue
                work += len(adj[a]) + len(adj[b])
                if work > MAX_FILL_WORK:
                    return None
                for c in adj[a] & adj[b]:  # the pair a, b of N(c) is now joined
                    missing[c] -= 1
                    changed.add(c)
                missing[a] += len(adj[a] - adj[b])
                missing[b] += len(adj[b] - adj[a])
                adj[a].add(b)
                adj[b].add(a)
                fill.append((a, b))
        for w in near:  # the pairs (v, x) of N(w) with x outside N(v) go
            adj[w].discard(v)
            work += len(adj[w])
            missing[w] -= len(adj[w] - near)
        if work > MAX_FILL_WORK:
            return None
        for c in changed:
            if c in adj:
                heapq.heappush(heap, (missing[c], c))
    pos = [0] * (g.n + 1)
    for k, v in enumerate(order):
        pos[v] = k
    parent = [min(near, key=pos.__getitem__) if near else 0 for near in later]
    return tuple(sorted(fill)), tuple(order), parent, [*map(len, later)]


def _simple_cycle_of_length(g, length):
    """The lexicographically least cycle of `length` distinct vertices, as
    an ordered list from its smallest label, or None; None also once the
    search has taken MAX_CYCLE_SEARCH_STEPS steps."""
    steps = 0
    for start in g.vertices:
        stack = [(start, [start])]
        while stack:
            steps += 1
            if steps > MAX_CYCLE_SEARCH_STEPS:
                return None
            v, path_ = stack.pop()
            if len(path_) == length:
                if g.has_edge(start, v):
                    return path_
                continue
            for u in reversed(g._adjacency[v]):
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

    def _running(self):
        """(separator_j, history_j) per clique, from one running set of the
        vertices seen so far, updated in place: each step costs |C_j|, and a
        reader that keeps a history copies it."""
        seen = set()
        for c in self.cliques:
            sep = c & seen
            seen |= c
            yield sep, seen

    @property
    def histories(self):
        return tuple(frozenset(h) for _, h in self._running())

    @property
    def residuals(self):
        # removing history_{j-1} from C_j removes exactly separator_j
        return tuple(c - sep for c, (sep, _) in zip(self.cliques, self._running()))

    @property
    def separators(self):
        return tuple(sep for sep, _ in self._running())

    def to_json(self):
        return {
            "cliques": [sorted(c) for c in self.cliques],
            "separators": [sorted(s) for s in self.separators],
            "residuals": [sorted(r) for r in self.residuals],
        }


def check_perfect_ordering(g, cliques):
    """Independent check of the two perfect-ordering conditions.

    (1) each separator lies in some earlier clique (sought among those of its least-held vertex);
    (2) each separator induces a complete subgraph.
    """
    cliques = [frozenset(c) for c in cliques]
    holders = {}  # vertex -> the earlier cliques that hold it; the keys are the history
    for i, c in enumerate(cliques):
        sep = frozenset(v for v in c if v in holders)
        if sep and not any(sep <= cliques[j] for j in min((holders[v] for v in sep), key=len)):
            return False
        for a, b in itertools.combinations(sorted(sep), 2):
            if not g.has_edge(a, b):
                return False
        for v in c:
            holders.setdefault(v, []).append(i)
    return True


def perfect_ordering(g):
    """A perfect ordering of the maximal cliques of a chordal graph: the
    clique tree's order, in which the Lex-BFS chains start."""
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
        for u in g._adjacency[v]:
            if u not in reached and u not in d.separator:
                reached.add(u)
                queue.append(u)
    return not (reached & d.side_b)
