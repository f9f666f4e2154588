"""Graph parsing, generators, and the near-complete subgraph order against
the subset brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_powers.graphs import (
    FAMILY_GENERATORS,
    Graph,
    GraphParseError,
    band,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    generate,
    graph_from_json,
    graph_to_json,
    induced_subgraph,
    max_outerplanar,
    near_complete,
    parse_edge_list,
    path,
    random_chordal,
    random_graph,
    random_tree,
    split_graph,
    to_edge_list,
)

import oracles
from oracles import max_near_complete_order


def test_parse_basic_path():
    g = parse_edge_list("1 2\n2 3")
    assert g.n == 3
    assert g.sorted_edges() == [(1, 2), (2, 3)]


def test_parse_four_cycle():
    g = parse_edge_list("1 2\n2 3\n3 4\n1 4")
    assert g == cycle(4)


def test_parse_header_isolated_vertex():
    g = parse_edge_list("n 3\n1 2")
    assert g.n == 3
    assert g.sorted_edges() == [(1, 2)]
    assert g.degree(3) == 0


def test_parse_comments_blanks_and_duplicates():
    g = parse_edge_list("# a comment\n\n1 2  # trailing\n2 1\n")
    assert g.n == 2
    assert g.sorted_edges() == [(1, 2)]


@pytest.mark.parametrize("text,fragment", [
    ("1 2 3", "line 1"),
    ("1 2\nfoo bar", "line 2"),
    ("0 2", "positive"),
    ("2 2", "self-loop"),
    ("n 2\n1 3", "exceeds"),
    # labels and the count are an optional sign and ASCII digits only
    ("1 2\n1_0 2", "line 2: non-integer vertex label in '1_0 2'"),
    ("\u0663 1", "line 1: non-integer vertex label"),
    ("1 \u00b2", "line 1: non-integer vertex label"),
    ("n 1_0\n1 2", "line 1: bad vertex count '1_0'"),
    ("n \u0663", "line 1: bad vertex count"),
    # a syntax error anywhere comes before a label over the declared count
    ("n 2\n1 3\n1 x", "line 3: non-integer"),
    ("n 2\n1 3\n2 2", "line 3: self-loop"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_edge_list(text)


def test_signed_ascii_labels_parse():
    assert parse_edge_list("n +3\n+1 003\n2\t1\r\n") == Graph.from_edges(3, [(1, 3), (1, 2)])


_LABELS = st.sampled_from(["1", "2", "3", "4", "7", "12", "0", "-1", "+2", "02", "x",
                           "1_0", "\u0663", "2.0", "n"])
_LINES = st.one_of(
    st.sampled_from([f"{i} {j}" for i in range(1, 6) for j in range(1, 6) if i != j]),
    st.builds("{} {}".format, _LABELS, _LABELS),
    st.sampled_from(["", "   ", "# comment", "1 2 # trailing", "\t3  4\t", "1 2 3", "n",
                     "n 3 4", "5", "n 3"]),
)
_HEADERS = st.sampled_from([[], ["n 0"], ["n 4"], ["n 5"], ["n 12"], ["# n 3", "n 4"],
                            ["n -1"], ["n x"], ["n 1_0"], ["n +5"]])


@settings(max_examples=500, deadline=None)
@given(_HEADERS, st.lists(_LINES, max_size=10), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
@example(["n 3"], ["1 5", "1 x"], "\n", False)  # an over-count label, then a syntax error
@example(["n 3"], ["3 1", "1 3", "2 3"], "\r\n", True)
def test_parser_matches_the_two_pass_reference(header, lines, newline, trailing):
    """Headers, comments, blank lines, duplicates, reversed pairs, CRLF and
    malformed lines give the reference parser's graph or its error."""
    text = newline.join(header + lines) + (newline if trailing else "")
    try:
        expected = oracles.parse_edge_list(text)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
    else:
        assert parse_edge_list(text) == expected


def test_neighbors_outside_the_vertices_raise_key_error():
    for g in (parse_edge_list("n 4\n1 2"), cycle(5), Graph.from_edges(0, [])):
        for v in (0, g.n + 1):
            with pytest.raises(KeyError):
                g.neighbors(v)


@pytest.mark.parametrize("n, edges", [
    (3, [(1, 2.7)]), (3, [(1, "3")]), (3, [(True, 2)]), (3, [(1, np.float64(2))]),
    (3, [(1, np.True_)]), (3.0, []), (True, []), ("3", []), (None, []),
])
def test_from_edges_takes_only_integers(n, edges):
    with pytest.raises(ValueError, match="expected an integer"):
        Graph.from_edges(n, edges)


def test_from_edges_takes_numpy_integers():
    g = Graph.from_edges(np.int64(3), [(np.int32(2), np.int64(1)), (2, np.uint8(3))])
    assert g == path(3)
    assert type(g.n) is int and all(type(v) is int for e in g.edges for v in e)


def test_every_generator_builds_its_graph():
    args = {"complete_bipartite": (2, 4), "band": (6, 2), "split": (4, 2, 2)}
    for family, gen in FAMILY_GENERATORS.items():
        g = gen(*args.get(family, (6,)))
        assert g.n == 6 and all(type(v) is int for e in g.edges for v in e)


def test_serialize_roundtrip():
    samples = [complete(4), cycle(5), parse_edge_list("n 6\n1 2"), path(1),
               random_graph(7, 0.4, seed=3)]
    for g in samples:
        assert parse_edge_list(to_edge_list(g)) == g
        assert graph_from_json(graph_to_json(g)) == g


@pytest.mark.parametrize("data", [
    {"n": 3, "edges": 5}, {"n": 3, "edges": [[1, None]]}, {"n": 2, "edges": [[1, 2.7]]},
    {"n": 2, "edges": [[1, 2.0]]}, {"n": 2, "edges": [[1, "2"]]}, {"n": 2, "edges": [[True, 2]]},
    {"n": 2.0, "edges": []}, {"n": True, "edges": []}, {"n": "2", "edges": []},
    {"n": 3, "edges": [[1, 2, 3]]}, {"n": 3, "edges": [5]}, {"n": 3}, {"edges": []}, [3, []],
])
def test_graph_json_takes_only_integer_labels(data):
    with pytest.raises(ValueError, match="^bad graph JSON: "):
        graph_from_json(data)


def test_generate_examples():
    assert len(generate("complete", n=3).edges) == 3
    assert len(generate("near_complete", n=4).edges) == 5
    b = generate("band", n=5, d=2)
    assert b.sorted_edges() == [(i, j) for i in range(1, 6) for j in range(i + 1, 6)
                                if j - i <= 2]
    assert len(b.edges) == 7


def test_generate_family_counts():
    for n in range(3, 8):
        assert len(complete(n).edges) == n * (n - 1) // 2
        assert len(cycle(n).edges) == n
        assert band(n, n - 1) == complete(n)
    assert len(complete_bipartite(2, 3).edges) == 6
    assert len(max_outerplanar(6).edges) == 2 * 6 - 3


def test_generate_bad_parameters():
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        band(5, 6)
    with pytest.raises(ValueError):
        generate("no_such_family", n=3)
    with pytest.raises(ValueError):
        split_graph(3, 2, 3, seed=0)  # attach degree must stay below clique size


def test_seeded_generators_reproducible():
    for gen, kwargs in [(random_tree, {"n": 9}),
                        (random_chordal, {"n": 9, "density": 0.6}),
                        (split_graph, {"clique_size": 4, "independent_size": 3,
                                       "attach_degrees": 2})]:
        assert gen(seed=5, **kwargs) == gen(seed=5, **kwargs)
        # trees on >= 4 vertices: different seeds eventually differ
    assert any(random_tree(8, seed=a) != random_tree(8, seed=b)
               for a, b in [(0, 1), (1, 2), (2, 3)])


def test_tree_is_a_tree():
    for seed in range(6):
        t = random_tree(8, seed=seed)
        assert len(t.edges) == 7
        assert len(connected_components(t)) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 400), st.integers(0, 2**32 - 1))
@example(3, 0)
@example(1000, 3)
def test_random_tree_decodes_as_the_sorted_leaf_list(n, seed):
    # the pointer sweep joins the least leaf, as the sorted list's front did
    assert random_tree(n, seed=seed).edges == oracles.random_tree_by_sorted_leaves(n, seed).edges


def test_induced_subgraph():
    tri, mapping = induced_subgraph(complete(3), {1, 2})
    assert tri == path(2) and mapping == {1: 1, 2: 2}
    p, _ = induced_subgraph(cycle(4), {1, 2, 3})
    assert p == path(3)
    t, _ = induced_subgraph(complete(5), {2, 4, 5})
    assert t == complete(3)
    with pytest.raises(ValueError):
        induced_subgraph(complete(3), {0, 1})


def _orders(g):
    """r by the library route and by the brute force."""
    return g.analysis.near_complete_order, max_near_complete_order(g)


def test_near_complete_order_examples():
    for n in range(2, 7):
        assert _orders(complete(n)) == (n, n)
    for seed in range(4):
        assert _orders(random_tree(6, seed=seed)) == (3, 3)
    assert _orders(Graph.from_edges(2, [])) == (2, 2)
    assert _orders(cycle(4)) == (3, 3)
    assert _orders(complete_bipartite(2, 3)) == (3, 3)
    assert _orders(near_complete(6)) == (6, 6)


def test_near_complete_order_rejects_single_vertex():
    with pytest.raises(ValueError):
        max_near_complete_order(Graph.from_edges(1, []))
    with pytest.raises(ValueError):
        Graph.from_edges(1, []).analysis.near_complete_order


def test_fast_matches_bruteforce_on_random_graphs():
    checked = 0
    for n in range(2, 10):
        for seed in range(64):
            g = random_graph(n, 0.15 + 0.07 * (seed % 10), seed=seed)
            assert g.analysis.near_complete_order == max_near_complete_order(g)
            checked += 1
    assert checked >= 500


def test_fast_matches_bruteforce_on_families():
    family_members = [complete(5), near_complete(6), cycle(6), path(5),
                      random_tree(7, seed=2), complete_bipartite(3, 3),
                      band(7, 3), split_graph(4, 3, 2, seed=1),
                      generate("apollonian", n=7, seed=2), max_outerplanar(7),
                      random_chordal(8, 0.6, seed=4)]
    for g in family_members:
        assert g.analysis.near_complete_order == max_near_complete_order(g)


def test_adding_an_edge_never_decreases_order():
    for seed in range(10):
        g = random_graph(7, 0.35, seed=seed)
        r = max_near_complete_order(g)
        missing = [e for e in itertools.combinations(range(1, 8), 2)
                   if e not in g.edges]
        if not missing:
            continue
        g2 = Graph.from_edges(7, set(g.edges) | {missing[seed % len(missing)]})
        assert max_near_complete_order(g2) >= r
