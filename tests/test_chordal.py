"""Chordality recognition, clique enumeration, perfect orderings, and
decompositions, cross-checked against brute-force oracles."""

import gc
import itertools
import json
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_powers import chordal
from hadamard_powers.chordal import (
    MAX_CLIQUE_EXPANSIONS,
    CliqueOrdering,
    Decomposition,
    NotChordalError,
    _bron_kerbosch_by_vertex,
    _least_face_pair,
    _lex_bfs,
    check_decomposition,
    check_perfect_ordering,
    decompose,
    find_chordless_cycle,
    is_chordal,
    is_perfect_elimination_order,
    perfect_ordering,
)
from hadamard_powers.graphs import (
    Graph,
    apollonian,
    band,
    complete,
    complete_bipartite,
    cycle,
    generate,
    max_outerplanar,
    near_complete,
    parse_edge_list,
    path,
    random_chordal,
    random_graph,
    random_tree,
    split_graph,
)

from oracles import (
    analysis_by_neighbor_sets,
    bron_kerbosch,
    clique_formula,
    clique_tree_by_neighbor_scans,
    is_chordal_by_subsets,
    least_face_pair_by_intersection,
    least_four_cycle,
    max_near_complete_order,
    near_complete_by_pair_walk,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def brute_force_maximal_cliques(g):
    cliques = []
    for k in range(1, g.n + 1):
        for subset in itertools.combinations(range(1, g.n + 1), k):
            if all(g.has_edge(a, b) for a, b in itertools.combinations(subset, 2)):
                cliques.append(frozenset(subset))
    return sorted((c for c in cliques if not any(c < d for d in cliques)), key=sorted)


def pairwise_is_peo(g, order):
    """Quadratic-per-vertex oracle: every two later neighbors are adjacent."""
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in g._adjacency[v] if pos[u] > pos[v]]
        if not all(g.has_edge(a, b) for a, b in itertools.combinations(later, 2)):
            return False
    return True


def is_lex_bfs_order(g, visit):
    """The four-point condition (Corneil 2004, Lexicographic breadth first
    search - a survey, WG): for a < b < c in the order with ac an edge and ab
    not, some d < a is adjacent to b and not to c."""
    for a, b, c in itertools.combinations(visit, 3):
        if g.has_edge(a, c) and not g.has_edge(a, b):
            if not any(g.has_edge(d, b) and not g.has_edge(d, c)
                       for d in visit[:visit.index(a)]):
                return False
    return True


def test_elimination_order_is_peo_on_chordal_samples():
    for g in [complete(5), path(3), random_tree(8, seed=1), band(6, 2),
              near_complete(5), random_chordal(9, 0.5, seed=3)]:
        assert is_perfect_elimination_order(g, g.analysis.order)


def test_no_ordering_of_c4_is_a_peo():
    g = cycle(4)
    assert not is_perfect_elimination_order(g, g.analysis.order)
    for order in itertools.permutations(range(1, 5)):
        assert not is_perfect_elimination_order(g, list(order))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
    if n > 1 else st.just(set()))), st.randoms())
def test_lex_bfs_is_a_lex_bfs_and_recognizes_chordality(n_edges, rnd):
    n, edges = n_edges
    g = Graph.from_edges(n, edges)
    visit = _lex_bfs(g)[0]
    assert sorted(visit) == list(g.vertices)
    assert is_lex_bfs_order(g, visit)
    assert pairwise_is_peo(g, visit[::-1]) == is_chordal(g)
    order = list(g.vertices)
    rnd.shuffle(order)
    assert is_perfect_elimination_order(g, order) == pairwise_is_peo(g, order)


def test_peo_checker_rejects_non_permutations():
    with pytest.raises(ValueError):
        is_perfect_elimination_order(path(3), [1, 2])


def test_is_chordal_basics():
    assert is_chordal(random_tree(9, seed=0))
    assert not is_chordal(cycle(4))
    for n in range(2, 9):
        assert is_chordal(near_complete(n))


def test_is_chordal_matches_bruteforce():
    graphs = [random_graph(n, p, seed=s)
              for n in range(2, 8) for p in (0.3, 0.5, 0.7) for s in range(6)]
    graphs += [cycle(5), cycle(6), complete_bipartite(2, 3), band(7, 2),
               max_outerplanar(6), generate("apollonian", n=7, seed=0),
               random_tree(7, seed=5), complete(6), near_complete(7),
               generate("split", clique_size=4, independent_size=3,
                        attach_degrees=2, seed=1)]
    for g in graphs:
        assert is_chordal(g) == is_chordal_by_subsets(g)


@st.composite
def small_graphs(draw):
    """Graphs on at most 9 vertices, relabelled: a random graph or a random
    chordal graph, with one to six vertex pairs toggled, so chordal and
    non-chordal graphs both come up often."""
    n = draw(st.integers(1, 9) | st.integers(6, 9))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        g = random_graph(n, draw(st.integers(1, 9)) / 10, seed=seed)
    else:
        g = random_chordal(n, draw(st.integers(0, 10)) / 10, seed=seed)
    edges = set(g.edges)
    if n > 1:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges ^= set(draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=6)))
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.from_edges(n, [(perm[a - 1], perm[b - 1]) for a, b in edges])


@settings(max_examples=400, deadline=None)
@given(small_graphs())
@example(cycle(4))
@example(complete_bipartite(2, 3))
def test_parent_test_on_the_lex_bfs_lists_matches_the_subset_search(g):
    assert g.analysis.is_chordal == is_chordal_by_subsets(g)
    if g.analysis.is_chordal:
        assert g.analysis.clique_tree == clique_tree_by_neighbor_scans(g)


def test_chordless_cycle_certificate():
    for g in [cycle(4), cycle(6), complete_bipartite(2, 3),
              random_graph(7, 0.4, seed=11)]:
        if is_chordal(g):
            assert find_chordless_cycle(g) is None
            continue
        cyc = find_chordless_cycle(g)
        assert len(cyc) >= 4
        k = len(cyc)
        for i, j in itertools.combinations(range(k), 2):
            expected = (j - i) % k in (1, k - 1)
            assert g.has_edge(cyc[i], cyc[j]) == expected
    assert find_chordless_cycle(random_tree(8, seed=2)) is None


def test_maximal_cliques_chordal_examples():
    assert complete(5).analysis.maximal_cliques == (frozenset(range(1, 6)),)
    assert path(3).analysis.maximal_cliques == (frozenset({1, 2}), frozenset({2, 3}))
    assert band(5, 2).analysis.maximal_cliques == (
        frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5}))


def test_maximal_cliques_chordal_rejects_non_chordal():
    # the clique tree, the chordal route to the cliques, names a chordless cycle
    with pytest.raises(NotChordalError) as err:
        cycle(5).analysis.clique_tree
    assert err.value.cycle is not None and len(err.value.cycle) >= 4


def test_maximal_cliques_general_examples():
    assert cycle(4).analysis.maximal_cliques == (
        frozenset({1, 2}), frozenset({1, 4}), frozenset({2, 3}), frozenset({3, 4}))
    assert complete(5).analysis.maximal_cliques == (frozenset(range(1, 6)),)
    assert complete_bipartite(2, 2).analysis.maximal_cliques == (
        frozenset({1, 3}), frozenset({1, 4}), frozenset({2, 3}), frozenset({2, 4}))
    assert complete(25).analysis.maximal_cliques == (frozenset(range(1, 26)),)


def test_general_enumeration_stops_at_the_work_limit():
    # complete 15-partite graph with parts of size 3: 3^15 maximal cliques
    g = Graph.from_edges(45, [(i, j) for i, j in itertools.combinations(range(1, 46), 2)
                              if (i - 1) // 3 != (j - 1) // 3])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"work limit of {MAX_CLIQUE_EXPANSIONS}"):
        g.analysis.maximal_cliques
    assert time.perf_counter() - start < 1.0


def test_maximal_cliques_match_bruteforce():
    for n in range(1, 8):
        for s in range(5):
            g = random_graph(n, 0.45, seed=10 * n + s)
            assert list(g.analysis.maximal_cliques) == brute_force_maximal_cliques(g)


def test_chordal_and_general_enumeration_agree():
    count = 0
    for seed in range(300):
        g = random_chordal(2 + seed % 8, density=0.3 + 0.07 * (seed % 10), seed=seed)
        assert sorted(g.analysis.clique_tree[0], key=sorted) == list(bron_kerbosch(g))
        count += 1
    assert count == 300


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2)))))))
def test_analysis_matches_brute_force(n_edges):
    n, edges = n_edges
    g = Graph.from_edges(n, edges)
    a = g.analysis
    assert list(a.maximal_cliques) == brute_force_maximal_cliques(g)
    r, v1, s, v2 = a.near_complete
    assert r == a.near_complete_order == max_near_complete_order(g)
    # the certificate is a near-complete subgraph on exactly r vertices
    assert len({v1, v2, *s}) == len(s) + 2 == r
    assert {v1, v2, *s} <= set(g.vertices)
    assert all(g.has_edge(x, y) for x, y in itertools.combinations(s, 2))
    assert all(g.has_edge(v, x) for v in (v1, v2) for x in s)



def brute_force_shortest_even_cycle(g):
    """Length of a shortest even cycle (not necessarily induced), or None."""
    for length in range(4, g.n + 1, 2):
        for first, *rest in itertools.combinations(g.vertices, length):
            if any(is_cycle_of(g, [first, *tail]) for tail in itertools.permutations(rest)):
                return length
    return None


def is_cycle_of(g, cyc):
    return (len(set(cyc)) == len(cyc) >= 3
            and all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
    if n > 1 else st.just(set()))))
@example(cycle(6))
@example(cycle(8))
@example(cycle(5))
def test_even_cycle_is_a_shortest_even_cycle(g):
    found = g.analysis.even_cycle
    length = brute_force_shortest_even_cycle(g)
    if length is None:
        assert found is None
    else:
        assert is_cycle_of(g, found) and len(found) == length


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 12), st.floats(0.1, 0.7), st.integers(0, 2**32 - 1), st.data())
def test_even_cycle_is_the_least_four_cycle(n, p, seed, data):
    # signed-cycle witnesses embed into these vertices, so a different
    # 4-cycle of the same length would change their matrices
    labels = data.draw(st.permutations(range(1, n + 1)))
    g = Graph.from_edges(n, [(labels[i - 1], labels[j - 1])
                             for i, j in random_graph(n, p, seed=seed).edges])
    four = least_four_cycle(g)
    if four is not None:
        assert g.analysis.even_cycle == four


def test_not_chordal_error_takes_only_the_cycle():
    message = "graph is not chordal (chordless cycle [1, 2, 3, 4])"
    assert str(NotChordalError([1, 2, 3, 4])) == message
    with pytest.raises(TypeError):
        NotChordalError([1, 2, 3, 4], hint="triangulate first")


def grid(rows, cols):
    """The rows x cols grid, labelled row by row from 1."""
    def label(i, j):
        return i * cols + j + 1

    edges = [(label(i, j), label(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(label(i, j), label(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def test_near_complete_certificate_is_stable():
    # seeded witness reports embed into these vertices, so the choice is
    # part of the output: the first open pair reaching the best r, with the
    # first largest clique of its common neighborhood, else a split clique
    # (the last three recorded by the open-pair walk)
    expected = {
        random_graph(10, 0.6, seed=7): (6, 2, (5, 6, 7, 8), 9),
        random_graph(11, 0.4, seed=5): (5, 1, (5, 6, 9), 10),
        random_graph(12, 0.7, seed=11): (7, 1, (3, 4, 6, 9, 12), 7),
        complete(5): (5, 1, (2, 3, 4), 5),
        grid(30, 30): (3, 1, (2,), 3),
        random_graph(14, 0.3, seed=2): (4, 6, (11, 12), 13),
        random_graph(16, 0.5, seed=3): (6, 11, (1, 2, 7, 8), 14),
    }
    for g, certificate in expected.items():
        assert g.analysis.near_complete == certificate


def test_clique_number():
    assert complete(6).analysis.clique_number == 6
    assert cycle(5).analysis.clique_number == 2
    assert Graph.from_edges(3, []).analysis.clique_number == 1


def test_perfect_ordering_examples():
    po = perfect_ordering(path(3))
    assert [sorted(c) for c in po.cliques] == [[1, 2], [2, 3]]
    assert [sorted(s) for s in po.separators] == [[], [2]]

    po = perfect_ordering(band(5, 2))
    assert [sorted(c) for c in po.cliques] == [[1, 2, 3], [2, 3, 4], [3, 4, 5]]
    assert [sorted(s) for s in po.separators] == [[], [2, 3], [3, 4]]
    assert [sorted(r) for r in po.residuals] == [[1, 2, 3], [4], [5]]
    assert [sorted(h) for h in po.histories][-1] == [1, 2, 3, 4, 5]

    po = perfect_ordering(complete(4))
    assert len(po.cliques) == 1 and po.separators == (frozenset(),)


def test_perfect_ordering_residual_separator_partition():
    for seed in range(40):
        g = random_chordal(3 + seed % 7, density=0.5, seed=seed)
        po = perfect_ordering(g)
        for c, r, s in zip(po.cliques, po.residuals, po.separators):
            assert r | s == c and not (r & s)
        assert check_perfect_ordering(g, po.cliques)


def test_perfect_ordering_on_disconnected_graphs():
    g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5)])
    po = perfect_ordering(g)
    assert check_perfect_ordering(g, po.cliques)
    assert frozenset({6}) in po.cliques


def test_perfect_ordering_json_shape():
    data = perfect_ordering(band(5, 2)).to_json()
    assert set(data) == {"cliques", "separators", "residuals"}
    assert data["separators"][1] == [2, 3]


def test_a_band_ordering_is_read_in_linear_time():
    # one running set of the vertices seen: a new union of all of them per
    # clique made to_json quadratic, about 3.5 s on this graph
    g = band(20000, 3)
    start = time.perf_counter()
    perfect_ordering(g).to_json()
    assert time.perf_counter() - start < 1
    assert perfect_ordering(g).separators == g.analysis.clique_tree[1]


def test_check_perfect_ordering_rejects_bad_orders():
    g = band(5, 2)
    # placing the middle clique last leaves its separator {2,3,4} in no
    # earlier clique, breaking the containment condition
    bad = [frozenset({1, 2, 3}), frozenset({3, 4, 5}), frozenset({2, 3, 4})]
    assert not check_perfect_ordering(g, bad)
    # starting from the middle clique is still a valid perfect ordering
    ok = [frozenset({2, 3, 4}), frozenset({1, 2, 3}), frozenset({3, 4, 5})]
    assert check_perfect_ordering(g, ok)
    # separator {1,...}: edges of a chordless square give incomplete separators
    h = cycle(4)
    assert not check_perfect_ordering(h, [frozenset({1, 2}), frozenset({3, 4}),
                                          frozenset({2, 3}), frozenset({1, 4})])


def test_decompose_examples():
    assert decompose(complete(5)) is None
    d = decompose(path(3))
    assert (sorted(d.side_a), sorted(d.separator), sorted(d.side_b)) == ([1], [2], [3])
    d = decompose(band(5, 2))
    assert (sorted(d.side_a), sorted(d.separator), sorted(d.side_b)) == ([1, 2], [3, 4], [5])


def test_decompose_requires_chordal_connected():
    with pytest.raises(NotChordalError):
        decompose(cycle(4))
    with pytest.raises(ValueError, match="connected"):
        decompose(Graph.from_edges(4, [(1, 2), (3, 4)]))


def test_decompose_output_passes_checker():
    for seed in range(40):
        g = random_chordal(4 + seed % 6, density=0.5, seed=seed + 100)
        d = decompose(g)
        if d is None:
            assert g.analysis.clique_number == g.n
            continue
        assert check_decomposition(g, d)
        assert d.vertices() == frozenset(g.vertices)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10), st.integers(0, 2**16), st.randoms())
def test_decompose_matches_the_perfect_ordering_split(n, density, seed, rnd):
    # relabelled, so the clique order differs from the build order
    part = random_chordal(n, density=density / 10, seed=seed)
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    g = Graph.from_edges(n, [(perm[a - 1], perm[b - 1]) for a, b in part.edges])
    d = decompose(g)
    ordering = perfect_ordering(g)
    k = len(ordering.cliques)
    if k == 1:
        assert d is None
        return
    sep = ordering.separators[k - 1]
    assert d == Decomposition(side_a=ordering.histories[k - 2] - sep, separator=sep,
                              side_b=ordering.residuals[k - 1])
    assert check_decomposition(g, d)


def test_decompose_is_linear_on_a_large_chordal_graph():
    g = random_chordal(20000, seed=0)
    t0 = time.perf_counter()
    d = decompose(g)
    assert time.perf_counter() - t0 < 1.0
    assert d.vertices() == frozenset(g.vertices)


def test_check_decomposition_examples():
    p3 = path(3)
    ok = Decomposition(frozenset({1}), frozenset({2}), frozenset({3}))
    assert check_decomposition(p3, ok)
    bad = Decomposition(frozenset({1}), frozenset({3}), frozenset({2}))
    assert not check_decomposition(p3, bad)
    c4 = cycle(4)
    bad2 = Decomposition(frozenset({1}), frozenset({2}), frozenset({3, 4}))
    assert not check_decomposition(c4, bad2)


def test_decomposition_validation():
    with pytest.raises(ValueError, match="disjoint"):
        Decomposition(frozenset({1, 2}), frozenset({2}), frozenset({3}))
    with pytest.raises(ValueError, match="nonempty"):
        Decomposition(frozenset(), frozenset({2}), frozenset({3}))
    with pytest.raises(ValueError, match="out of range"):
        check_decomposition(path(3), Decomposition(frozenset({1}), frozenset({2}),
                                                   frozenset({9})))


def test_clique_ordering_is_hashable_value():
    a = CliqueOrdering(cliques=(frozenset({1, 2}),))
    b = CliqueOrdering(cliques=(frozenset({1, 2}),))
    assert a == b and hash(a) == hash(b)


CHORDAL_PARTS = st.one_of(
    st.builds(lambda n, density, seed: random_chordal(n, density=density / 10, seed=seed),
              st.integers(1, 14), st.integers(0, 10), st.integers(0, 2**16)),
    st.builds(apollonian, st.integers(3, 14), seed=st.integers(0, 2**16)),
    st.integers(1, 7).flatmap(lambda c: st.builds(
        split_graph, st.just(c), st.integers(0, 6), st.integers(0, c - 1),
        seed=st.integers(0, 2**16))),
    st.integers(1, 14).flatmap(lambda n: st.builds(band, st.just(n), st.integers(0, n))),
    st.builds(Graph.from_edges, st.integers(1, 5), st.just(())),
)


@st.composite
def chordal_graphs(draw):
    """Disjoint unions of one to three chordal graphs (random_chordal at a
    random density, apollonian, split, band or edgeless), relabelled by a
    random permutation (the clique order then differs from the build order)."""
    parts = draw(st.lists(CHORDAL_PARTS, min_size=1, max_size=3))
    edges, offset = [], 0
    for part in parts:
        edges += [(a + offset, b + offset) for a, b in part.edges]
        offset += part.n
    perm = draw(st.permutations(range(1, offset + 1)))
    return Graph.from_edges(offset, [(perm[a - 1], perm[b - 1]) for a, b in edges])


@settings(max_examples=300, deadline=None)
@given(chordal_graphs())
def test_one_search_gives_the_clique_tree(g):
    assert list(g.analysis.order) == _lex_bfs(g)[0][::-1]
    assert pairwise_is_peo(g, g.analysis.order)
    cliques, separators = g.analysis.clique_tree
    po = perfect_ordering(g)
    assert po.cliques == cliques
    assert check_perfect_ordering(g, po.cliques)
    assert po.separators == separators
    assert sorted(cliques, key=sorted) == list(bron_kerbosch(g))
    assert g.analysis.maximal_cliques == bron_kerbosch(g)
    if g.n >= 2:
        ce = g.analysis.near_complete_order - 2
        assert ce == clique_formula(g)
        if g.n <= 9:
            assert ce == max_near_complete_order(g) - 2


@st.composite
def any_graphs(draw):
    """A graph on at most 12 vertices with an arbitrary edge set."""
    n = draw(st.integers(0, 12))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return Graph.from_edges(n, draw(st.sets(st.sampled_from(pairs))) if pairs else ())


@settings(max_examples=300, deadline=None)
@given(any_graphs() | chordal_graphs())
@example(Graph.from_edges(0, ()))
@example(cycle(4))
@example(complete_bipartite(3, 3))
def test_analysis_matches_the_neighbor_set_oracle(g):
    a, o = g.analysis, analysis_by_neighbor_sets(g)
    assert a.is_chordal == o.is_chordal
    assert a.clique_number == o.clique_number
    assert a.maximal_cliques == o.maximal_cliques
    if g.n >= 2:
        assert a.near_complete == o.near_complete
    if a.is_chordal:
        # the clique tree's order may differ; its cliques and separators may not
        cliques, separators = a.clique_tree
        assert set(cliques) == set(o.clique_tree[0]) and len(cliques) == len(o.clique_tree[0])
        assert Counter(separators) == Counter(o.clique_tree[1])
    visit = a.order[::-1]
    if g.n <= 16:
        assert is_lex_bfs_order(g, visit)
    assert pairwise_is_peo(g, a.order) == a.is_chordal


@settings(max_examples=200, deadline=None)
@given(any_graphs() | chordal_graphs(), st.randoms())
def test_equal_edge_sets_give_equal_orders(g, rnd):
    edges = [(j, i) if rnd.random() < 0.5 else (i, j) for i, j in g.edges]
    rnd.shuffle(edges)
    built = Graph.from_edges(g.n, edges)
    parsed = parse_edge_list(f"n {g.n}\n" + "".join(f"{i} {j}\n" for i, j in edges * 2))
    assert built.analysis.order == parsed.analysis.order == g.analysis.order


def test_equal_edge_sets_give_equal_orders_where_frozensets_iterate_apart():
    # frozensets of each vertex's neighbors, filled in these two insertion
    # orders, iterate apart on this graph: the order must not follow them
    first = [(10, 13), (9, 17), (10, 18), (6, 19), (9, 10), (1, 9), (1, 11), (3, 12), (6, 15)]
    second = [(6, 15), (6, 19), (3, 12), (1, 11), (9, 17), (10, 13), (1, 9), (9, 10), (10, 18)]
    g, h = Graph.from_edges(19, first), Graph.from_edges(19, second)
    assert g.analysis.order == h.analysis.order


def _grid(rows, cols):
    at = lambda r, c: r * cols + c + 1  # noqa: E731
    edges = [(at(r, c), at(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(at(r, c), at(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _random_bipartite(a, b, p, seed):
    g = random_graph(a + b, p, seed=seed)
    return Graph.from_edges(a + b, [(i, j) for i, j in g.edges if (i <= a) != (j <= a)])


TRIANGLE_FREE = st.one_of(
    st.builds(random_tree, st.integers(1, 40), seed=st.integers(0, 2**16)),
    st.builds(cycle, st.integers(4, 40)),
    st.builds(complete_bipartite, st.integers(1, 8), st.integers(1, 8)),
    st.builds(_grid, st.integers(1, 7), st.integers(1, 7)),
    st.builds(_random_bipartite, st.integers(0, 10), st.integers(0, 10),
              st.floats(0, 1), st.integers(0, 2**16)),
)


@st.composite
def relabelled_graphs(draw):
    """(g, h, perm): a graph on at most 16 vertices with an arbitrary edge
    set, or a random one of any density, and its copy h with vertex v
    renamed perm[v - 1]."""
    n = draw(st.integers(0, 16))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    g = draw(st.builds(Graph.from_edges, st.just(n), st.sets(st.sampled_from(pairs)))
             | st.builds(random_graph, st.just(n), st.floats(0, 1), seed=st.integers(0, 2**16))
             if pairs else st.just(Graph.from_edges(n, ())))
    perm = draw(st.permutations(range(1, n + 1)))
    return g, Graph.from_edges(n, [(perm[a - 1], perm[b - 1]) for a, b in g.edges]), perm


@settings(max_examples=300, deadline=None)
@given(relabelled_graphs())
def test_per_vertex_enumeration_is_the_whole_graph_search(case):
    g, h, perm = case
    cliques = _bron_kerbosch_by_vertex(g)
    assert cliques == bron_kerbosch(g)
    assert _bron_kerbosch_by_vertex(h) == bron_kerbosch(h)
    assert set(_bron_kerbosch_by_vertex(h)) == {frozenset(perm[v - 1] for v in c) for c in cliques}


@settings(max_examples=300, deadline=None)
@given(TRIANGLE_FREE)
@example(Graph.from_edges(0, ()))
@example(Graph.from_edges(3, ()))
def test_per_vertex_enumeration_on_triangle_free_graphs(g):
    # the maximal cliques are the edges and the isolated vertices
    cliques = _bron_kerbosch_by_vertex(g)
    assert cliques == bron_kerbosch(g)
    if g.n:
        alone = [(v,) for v in g.vertices if not g.degree(v)]
        assert cliques == tuple(map(frozenset, sorted([*g.edges, *alone])))


FACE_PAIR_GRAPHS = (chordal_graphs()
                    | st.builds(max_outerplanar, st.integers(3, 40))
                    | st.builds(random_tree, st.integers(1, 40), seed=st.integers(0, 2**16))
                    | st.builds(complete, st.integers(1, 8))
                    | st.builds(path, st.integers(1, 20)))


@settings(max_examples=300, deadline=None)
@given(FACE_PAIR_GRAPHS)
@example(max_outerplanar(200))
@example(Graph.from_edges(1 + 40, [(1, v) for v in range(2, 42)]))  # a star
def test_face_pairs_match_the_intersection_oracle(g):
    # every face size, not only omega - 1, the one near_complete asks for
    _, pos, parent, count, starts, _ = g.analysis._lex_bfs_pass
    for k in range(max(count, default=0) + 2):
        assert (_least_face_pair(g, pos, parent, count, starts, k)
                == least_face_pair_by_intersection(g._adjacency, pos, count, starts, k))


def _chorded_cycle(n):
    return Graph.from_edges(n, [*cycle(n).edges, (1, 3)])


def _timed(f):
    start = time.perf_counter()
    out = f()
    return out, time.perf_counter() - start


def test_the_faces_of_a_100000_fan_read_no_hub_list():
    # vertex 1 lies in every face: a set of its list per face would take
    # minutes, where bisecting it takes a fraction of a second
    g = max_outerplanar(100_000)
    g.analysis._lex_bfs_pass
    (r, v1, s, v2), seconds = _timed(lambda: g.analysis.near_complete)
    assert (r, v1, s, v2) == (4, 2, (1, 3), 4) and seconds < 5


def test_a_60000_cycle_with_one_chord_has_r_3_within_5_seconds():
    # one triangle: the search per vertex, where the whole-graph search
    # stopped at its work limit
    g = _chorded_cycle(60_000)
    (r, v1, s, v2), seconds = _timed(lambda: g.analysis.near_complete)
    assert (r, v1, s, v2) == (3, 1, (2,), 3) and seconds < 5


def test_the_maximal_cliques_of_a_book_with_50000_pages_within_3_seconds():
    # K_2 plus 50,000 vertices joined to both, plus a disjoint 4-cycle: each
    # page's search reads the hub pair, never the hubs' 50,000 neighbors
    pages = 50_000
    c = pages + 3
    edges = [(1, 2), *((h, p) for h in (1, 2) for p in range(3, c))]
    square = [(c, c + 1), (c, c + 3), (c + 1, c + 2), (c + 2, c + 3)]
    g = Graph.from_edges(c + 3, [*edges, *square])
    cliques, seconds = _timed(lambda: g.analysis.maximal_cliques)
    assert seconds < 3
    assert len(cliques) == pages + 4 and cliques[0] == frozenset({1, 2, 3})
    assert cliques[-4:] == tuple(map(frozenset, square))


def test_max_outerplanar_100000_has_r_4_within_5_seconds():
    # a fan: vertex 1 lies in every face, and no face scans its list
    g = max_outerplanar(100_000)
    (r, v1, s, v2), seconds = _timed(lambda: g.analysis.near_complete)
    assert (r, v1, s, v2) == (4, 2, (1, 3), 4) and seconds < 5


def test_clique_tree_rejects_non_chordal():
    with pytest.raises(NotChordalError):
        cycle(5).analysis.clique_tree
    with pytest.raises(NotChordalError):
        perfect_ordering(cycle(4))


@settings(max_examples=300, deadline=None)
@given(chordal_graphs(), st.randoms())
def test_lex_bfs_route_matches_the_open_pair_walk(g, rnd):
    a = g.analysis
    visit = _lex_bfs(g)[0]
    assert pairwise_is_peo(g, visit[::-1])
    if g.n >= 2:
        assert a.near_complete == near_complete_by_pair_walk(g)
    # the parent test against the oracle, on perfect and nearly perfect orders
    order = list(visit[::-1])
    if g.n >= 2:
        k = rnd.randrange(g.n - 1)
        order[k], order[k + 1] = order[k + 1], order[k]
    assert is_perfect_elimination_order(g, order) == pairwise_is_peo(g, order)


def test_near_complete_certificates_are_pinned():
    # recorded by the open-pair walk, on chordal graphs before they took the
    # Lex-BFS route (the cycle and complete bipartite rows are not chordal);
    # seeded witness reports embed into these vertices
    for rec in json.loads((FIXTURES / "near_complete_certificates.json").read_text()):
        g = generate(rec["family"], **rec["params"])
        r, v1, s, v2 = rec["certificate"]
        assert g.analysis.near_complete == (r, v1, tuple(s), v2), rec


def _relabelled(g, labels):
    return Graph.from_edges(g.n, [(labels[a - 1], labels[b - 1]) for a, b in g.edges])


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.builds(random_graph, st.integers(2, 12), st.floats(0, 1), seed=st.integers(0, 2**32 - 1)),
    st.builds(lambda n, d, seed: random_chordal(n, density=d, seed=seed),
              st.integers(2, 40), st.floats(0, 1), st.integers(0, 2**32 - 1))), st.data())
def test_near_complete_is_the_pair_walks_certificate(g, data):
    g = _relabelled(g, data.draw(st.permutations(range(1, g.n + 1))))
    assert g.analysis.near_complete == near_complete_by_pair_walk(g)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2)))))))
def test_r_exceeds_omega_exactly_when_two_maximum_cliques_share_a_face(g):
    # S + v1 is a clique, so r <= omega + 1; two maximum cliques K + x and
    # K + y give r = omega + 1 with x, y non-adjacent
    cliques = brute_force_maximal_cliques(g)
    omega = max(map(len, cliques))
    largest = [c for c in cliques if len(c) == omega]
    shared = any(len(a & b) == omega - 1 for a, b in itertools.combinations(largest, 2))
    r = max_near_complete_order(g)
    assert r <= omega + 1
    assert (r == omega + 1) == shared
    assert g.analysis.near_complete_order == r


@st.composite
def bipartite_graphs(draw):
    """Any edge set between two sides of at most 8 vertices each, so
    disconnected, edgeless or with isolated vertices now and then,
    relabelled by a random permutation."""
    a, b = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    pairs = [(i, j) for i in range(1, a + 1) for j in range(a + 1, a + b + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    perm = draw(st.permutations(range(1, a + b + 1)))
    return Graph.from_edges(a + b, [(perm[i - 1], perm[j - 1]) for i, j in edges])


@settings(max_examples=400, deadline=None)
@given(chordal_graphs() | bipartite_graphs() | TRIANGLE_FREE
       | st.builds(random_graph, st.integers(0, 12), st.floats(0, 1),
                   seed=st.integers(0, 2**32 - 1)))
@example(Graph.from_edges(0, ()))
@example(Graph.from_edges(1, ()))
@example(Graph.from_edges(6, ()))
@example(Graph.from_edges(7, [(1, 2), (3, 4), (6, 7)]))  # chordal and two-colored: r = 2
@example(_grid(4, 5))
@example(cycle(5))
def test_r_without_the_certificate_is_the_certificates_order(g):
    # each on its own fresh copy, so neither reads what the other cached;
    # only a graph neither chordal nor two-colored builds the certificate
    def fresh():
        return Graph.from_edges(g.n, g.edges).analysis

    if g.n < 2:
        for read in (lambda a: a.near_complete_order, lambda a: a.near_complete):
            with pytest.raises(ValueError, match="at least 2 vertices"):
                read(fresh())
        return
    a = fresh()
    assert a.near_complete_order == fresh().near_complete[0]
    assert ("near_complete" in a.__dict__) == (not a.is_chordal and a.bipartition is None)


# ---------------------------------------------------------------------------
# the chordal supergraph


def naive_min_fill(g):
    """Greedy min-fill recounting every remaining vertex's missing neighbor
    pairs at every step; ties go to the smallest label."""
    adj = {v: set(g._adjacency[v]) for v in g.vertices}
    fill, order = [], []

    def missing(v):
        return sum(b not in adj[a] for a, b in itertools.combinations(adj[v], 2))

    while adj:
        v = min(adj, key=lambda u: (missing(u), u))
        near = adj.pop(v)
        for a, b in itertools.combinations(sorted(near), 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill.append((a, b))
        for w in near:
            adj[w].discard(v)
        order.append(v)
    return tuple(sorted(fill)), tuple(order)


GRAPHS_UP_TO_8 = st.integers(2, 8).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))))


@settings(max_examples=300, deadline=None)
@given(GRAPHS_UP_TO_8)
@example(cycle(4))
@example(complete_bipartite(3, 3))
def test_triangulation_is_a_chordal_supergraph(g):
    fill, order, r_h = g.analysis.triangulation
    assert not set(fill) & g.edges
    assert all(a < b for a, b in fill)
    h = Graph.from_edges(g.n, [*g.edges, *fill])
    assert is_perfect_elimination_order(h, order)
    assert pairwise_is_peo(h, order)
    assert g.analysis.near_complete_order <= r_h <= g.n
    assert r_h == max_near_complete_order(h)
    if is_chordal(g):  # H = G, read off the analysis the graph has
        assert fill == () and order == g.analysis.order
        assert r_h == g.analysis.near_complete_order
    else:
        assert fill and (fill, order) == naive_min_fill(g)


GRAPHS_UP_TO_14 = st.integers(4, 14).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))))


@settings(max_examples=400, deadline=None)
@given(GRAPHS_UP_TO_14)
@example(cycle(80))
@example(complete_bipartite(4, 6))
@example(Graph.from_edges(40, [(i, i % 40 + 1) for i in range(1, 41)] + [(1, 3), (5, 20)]))
def test_triangulation_r_is_that_of_the_rebuilt_supergraph(g):
    # r(H) comes from min-fill's own elimination; the oracle builds H as a
    # graph and runs its own Lex-BFS and near_complete
    fill, _, r_h = g.analysis.triangulation
    h = Graph.from_edges(g.n, [*g.edges, *fill])
    assert r_h == h.analysis.near_complete_order


def test_triangulation_of_cycles_and_bipartite_graphs():
    # a triangulated cycle holds two triangles on one edge, K4 minus an edge
    for n in (4, 5, 9, 80):
        fill, _, r_h = cycle(n).analysis.triangulation
        assert len(fill) == n - 3 and r_h == 4
    fill, _, r_h = complete_bipartite(2, 5).analysis.triangulation
    assert fill == ((1, 2),) and r_h == 4


def test_chordal_graphs_run_no_min_fill(monkeypatch):
    def min_fill(g):
        raise AssertionError("min-fill on a chordal graph")

    monkeypatch.setattr(chordal, "_min_fill", min_fill)
    for g in [band(14, 6), random_chordal(300, seed=4), complete(30)]:
        assert g.analysis.triangulation == ((), g.analysis.order,
                                            g.analysis.near_complete_order)
    with pytest.raises(AssertionError, match="min-fill"):
        cycle(5).analysis.triangulation


def test_triangulation_past_the_work_limit_is_the_complete_graph(monkeypatch):
    monkeypatch.setattr(chordal, "MAX_FILL_WORK", 0)
    assert cycle(6).analysis.triangulation == (None, (1, 2, 3, 4, 5, 6), 6)
    g = band(9, 3)  # chordal: no search, so no limit
    assert g.analysis.triangulation[2] == g.analysis.near_complete_order == 5


def test_an_analysed_graph_is_freed_with_its_last_reference():
    gc.disable()
    try:
        g = cycle(6)
        g.analysis.near_complete
        g.analysis.triangulation
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()


def test_an_analysis_outliving_its_graph_still_answers():
    a = cycle(6).analysis
    assert a.near_complete_order == 3
    assert a.graph.n == 6
    assert a.triangulation[2] == 4
