"""Graph parsing, generators, and the near-complete subgraph order against
the subset brute force."""

import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_powers.graphs import (
    FAMILY_GENERATORS,
    WHOLE_TEXT_MIN_CHARS,
    Graph,
    GraphParseError,
    _parse_lines,
    _parse_whole_text,
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
from hadamard_powers._numpy_draws import PCG64Draws

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


@pytest.mark.parametrize("text", ["n 1000000000\n1 x\n", "1 99999999999\n2 y\n"])
def test_a_bad_line_after_a_huge_count_or_label_is_reported_at_once(text):
    # every line is checked before the neighbor lists are made, so neither
    # 10^9 nor 10^11 of them is asked for before line 2's error
    start = time.perf_counter()
    with pytest.raises(GraphParseError, match="line 2: non-integer vertex label"):
        _parse_lines(text)
    assert time.perf_counter() - start < 1


def test_the_line_parser_builds_every_declared_vertex():
    # no cap on n: a declared count past every label still gets its lists
    g = _parse_lines("n 300000\n1 2\n# a comment\n")
    assert g.n == 300000 and len(g._adjacency) == 300001 and g.m == 1
    assert g._adjacency[1] == [2] and g._adjacency[300000] == []


def test_the_line_parser_keeps_one_int_object_per_label():
    # labels above 256 are separate objects each time int() reads them; the
    # neighbor lists hold one per label, as from_edges makes them
    near = parse_edge_list("# c\n1000 1001\n1001 1002\n1000 1002\n")._adjacency
    assert near[1000][0] is near[1002][1]  # 1001
    assert near[1000][1] is near[1001][1]  # 1002
    assert near[1001][0] is near[1002][0]  # 1000


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


def _pairs(text):
    """The (i, j) pairs of a well-formed edge-list text, as its lines give them."""
    pairs, first = [], True
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and not (first and tokens[0] == "n"):
            pairs.append((int(tokens[0]), int(tokens[1])))
        first = first and not tokens
    return pairs


@settings(max_examples=500, deadline=None)
@given(_HEADERS, st.lists(_LINES, max_size=10), st.sampled_from(["\n", "\r\n"]),
       st.booleans())
@example(["n 3"], ["1 5", "1 x"], "\n", False)
@example([], ["3 1", "# c", "1 3", "", "2 3", "3 2 # again", "4 1"], "\n", True)
def test_parser_fills_the_neighbor_lists_of_from_edges(header, lines, newline, trailing):
    """The graph and neighbor lists of Graph.from_edges on the text's pairs,
    or the error of the parser that filled no lists."""
    text = newline.join(header + lines) + (newline if trailing else "")
    try:
        expected = oracles.parse_edge_list_to_edge_set(text)
    except GraphParseError as exc:
        with pytest.raises(GraphParseError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
    else:
        g = parse_edge_list(text)
        built = Graph.from_edges(expected.n, _pairs(text))
        assert g == expected == built
        assert g._adjacency == built._adjacency


def _same_graph_or_error(text):
    """parse_edge_list and its whole-text pass against the line parser: the
    same graph, lists and edge count, or the line parser's error, which the
    whole-text pass leaves to it."""
    try:
        expected = _parse_lines(text)
    except GraphParseError as exc:
        assert _parse_whole_text(text) is None
        with pytest.raises(GraphParseError) as got:
            parse_edge_list(text)
        assert str(got.value) == str(exc)
        return
    for g in (_parse_whole_text(text), parse_edge_list(text)):
        if g is not None:
            assert g == expected and g.m == expected.m
            assert g._adjacency == expected._adjacency


# texts over digits, "+", "-", space, tab, "#", "n" and five line breaks;
# runs of at most three digits keep every label and count below 1000, for
# the line parser makes a list per vertex of a valid text, up to its
# largest label or count
_NON_DIGITS = "+- \t#\n\r\x0b\x1c\u2028n"
_RUNS = st.sampled_from(["", "0", "1", "2", "3", "7", "12", "03", "999"])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.tuples(st.text(_NON_DIGITS, min_size=1, max_size=3), _RUNS), max_size=15)
       .map(lambda chunks: "".join(gap + run for gap, run in chunks)))
@example("n 3\n1 2\n")
@example("1 2\n+3\t4\n\n")
@example("+ 1 2")  # numpy would read "+ 1" as 1
@example("1+2 3")  # a "+" inside a label
@example("1 2\x1c3 4")  # a line break of str.splitlines
@example("n 5\n99999999999999999999 1")  # past int64: numpy saturates
@example("n 5\n1000000000 1")
def test_the_whole_text_pass_reads_any_text_as_the_line_parser(text):
    _same_graph_or_error(text)


_TOKENS = st.sampled_from(["1", "2", "3", "4", "5", "9", "12", "+2", "03", "0", "-1", "+", "n",
                           "#", "x"])
_GAPS = st.sampled_from([" ", "  ", "\t", " \t"])
_BREAKS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r", "\x0b", "\x1c", "\u2028"])


@st.composite
def _edge_texts(draw):
    """Mostly clean edge-list texts: a header or none, then lines of two
    labels or none, now and then with another token, gap or line break."""
    lines = [draw(st.sampled_from(["", "n 5", "n 12", "  n\t+9", "n 0", "n 999"]))]
    for _ in range(draw(st.integers(0, 12))):
        count = draw(st.sampled_from([2] * 8 + [0, 1, 3]))
        line = draw(_GAPS).join(draw(_TOKENS) if draw(st.integers(0, 9)) == 0
                                else str(draw(st.integers(1, 12))) for _ in range(count))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "])))
    return "".join(line + draw(_BREAKS) for line in lines[:-1]) + lines[-1]


@settings(max_examples=1000, deadline=None)
@given(_edge_texts())
@example("n 5\n1 2\n2 1\n5 3\n")  # a repeated edge
@example("n 5\n1 2\n2 6\n")  # a label over the count
@example("1 2\n3 3\n")  # a self-loop
@example("\n\n n 4\n\n1 2\n")  # blank lines before the header
def test_the_whole_text_pass_reads_edge_lists_as_the_line_parser(text):
    _same_graph_or_error(text)


def test_clean_text_takes_the_whole_text_pass():
    g = random_chordal(300, seed=4)
    text = to_edge_list(g)
    assert len(text) >= WHOLE_TEXT_MIN_CHARS
    for variant in (text, text.replace(" ", "\t  ").replace("\n", "\n\n"), text[text.index("\n"):],
                    text + "".join(f"+{j} 0{i}\n" for i, j in g.sorted_edges())):
        assert _parse_whole_text(variant) == g
        assert parse_edge_list(variant) == g
    # a comment or a carriage return sends the text to the line parser
    assert _parse_whole_text(text + "# end\n") is None
    assert _parse_whole_text(text.replace("\n", "\r\n")) is None


def test_each_label_is_one_int_object():
    g = random_chordal(2000, seed=1)
    built = Graph.from_edges(g.n, g.sorted_edges())
    parsed = parse_edge_list(to_edge_list(g))
    assert g == built == parsed
    for h in (g, built, parsed):
        assert len({id(v) for nb in h._adjacency for v in nb}) == g.n
        assert all(type(v) is int for nb in h._adjacency for v in nb)


def test_equality_and_hash_agree_with_from_edges_for_every_generator():
    args = {"complete_bipartite": (3, 4), "band": (9, 3), "split": (4, 5, 2)}
    for family, gen in FAMILY_GENERATORS.items():
        g = gen(*args.get(family, (9,)))
        built = Graph.from_edges(g.n, reversed(g.sorted_edges()))
        assert g == built and hash(g) == hash(built), family
        assert g._adjacency == built._adjacency and g.m == built.m == len(g.edges), family
        assert g != Graph.from_edges(g.n + 1, g.edges), family
    assert path(3) != Graph.from_edges(3, [(1, 3), (2, 3)]) and path(3) != "path(3)"


def test_labels_outside_the_vertices_have_no_degree_and_no_edge():
    # a negative label must not wrap around to the end of the lists
    for g in (parse_edge_list("n 4\n1 2"), cycle(5), complete(4), Graph.from_edges(0, [])):
        for v in (0, -1, g.n + 1):
            with pytest.raises(KeyError):
                g.degree(v)
            for u in (v, *g.vertices):
                assert not g.has_edge(u, v) and not g.has_edge(v, u)
    assert complete(4).has_edge(4, 1) and cycle(5).has_edge(1, 5) and not cycle(5).has_edge(1, 3)


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


_DENSITIES = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 300), _DENSITIES, st.integers(0, 2**32 - 1), st.booleans())
@example(1, 0.5, 0, False)
@example(300, 1.0, 5, True)
@example(300, 0.999, 1, True)  # q = 0.001: inversion of 1 - p, cliques over 100
def test_random_chordal_reads_the_numpy_stream(n, density, seed, half_kept):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if half_kept:  # a uint32 draw leaves the high half of its word for the next one
        assert ours.integers(7) == theirs.integers(7)
    g = random_chordal(n, density, seed=ours)
    assert g.edges == oracles.random_chordal_by_numpy_calls(n, density, seed=theirs).edges
    assert g._adjacency == Graph.from_edges(g.n, g.edges)._adjacency
    # the Generator is left where the numpy calls leave it, kept half included
    assert ours.integers(2**32, size=3).tolist() == theirs.integers(2**32, size=3).tolist()
    assert ours.random() == theirs.random()
    if not half_kept:  # an integer seed gives the graph of its Generator
        assert random_chordal(n, density, seed=seed).edges == g.edges


def test_random_chordal_with_another_bit_generator_makes_the_numpy_calls():
    ours, theirs = (np.random.Generator(np.random.MT19937(3)) for _ in range(2))
    g = random_chordal(200, 0.7, seed=ours)
    assert g.edges == oracles.random_chordal_by_numpy_calls(200, 0.7, seed=theirs).edges
    assert g._adjacency == Graph.from_edges(g.n, g.edges)._adjacency
    assert ours.random() == theirs.random()


def _numpy_draw(rng, name, *args):
    if name == "choice":
        s, k = args
        return sorted(rng.choice(s, size=k, replace=False).tolist())
    return int(getattr(rng, name)(*args))


_MANY_M = [1, 2, 3, 7, 1000, 2**20, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1]


@pytest.mark.parametrize("draws", [
    # uint32 draws around doubles: an inversion binomial leaves the kept half
    [("integers", m) for m in _MANY_M] + [("binomial", 5, 0.3), ("integers", 9),
                                         ("binomial", 3, 0.9), ("integers", 2**31 + 1)] * 50,
    # Lemire's rejection, often taken for m just past 2^31 and never for 2^31
    [("integers", m) for m in _MANY_M for _ in range(40)],
    # Floyd's sampling with its shuffle draws, k = 1 and k = s included
    [("choice", s, k) for s in (1, 2, 5, 40, 10000) for k in {1, s // 2 + 1, s}] * 3,
    # numpy's own BTPE, tail shuffle and 64-bit range, between emulated draws
    [("integers", 3), ("binomial", 100, 0.5), ("integers", 5), ("binomial", 1000, 0.99),
     ("choice", 20000, 500), ("integers", 11), ("choice", 20000, 5), ("binomial", 2, 0.5),
     ("integers", 2**32), ("integers", 2**40), ("choice", 6, 3)],
    # binomial corners: t = 0, p = 0 and p = 1 (one double, t returned)
    [("binomial", 0, 0.5), ("binomial", 4, 0.0), ("binomial", 4, 1.0), ("integers", 6)] * 20,
])
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
def test_pcg64_draws_match_numpy_draw_by_draw(draws, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    stream = PCG64Draws(ours)
    for name, *args in draws:
        assert getattr(stream, name)(*args) == _numpy_draw(theirs, name, *args), (name, args)
    stream.sync()
    assert ours.integers(2**32, size=3).tolist() == theirs.integers(2**32, size=3).tolist()
    assert ours.random(3).tolist() == theirs.random(3).tolist()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 300), _DENSITIES, st.integers(0, 2**32 - 1))
@example(300, 0.01, 1)
def test_random_graph_draws_the_pair_coins_in_rows(n, edge_prob, seed):
    assert (random_graph(n, edge_prob, seed).edges
            == oracles.random_graph_by_pair_draws(n, edge_prob, seed).edges)


def test_induced_subgraph():
    tri, mapping = induced_subgraph(complete(3), {1, 2})
    assert tri == path(2) and mapping == {1: 1, 2: 2}
    p, _ = induced_subgraph(cycle(4), {1, 2, 3})
    assert p == path(3)
    t, _ = induced_subgraph(complete(5), {2, 4, 5})
    assert t == complete(3)
    with pytest.raises(ValueError):
        induced_subgraph(complete(3), {0, 1})


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.builds(random_graph, st.just(n), st.floats(0, 1), st.integers(0, 2**16)),
    st.sets(st.integers(1, n), min_size=1))))
@example((cycle(5), {1, 3, 4}))
@example((complete(6), {2, 3, 4, 5, 6}))
def test_induced_subgraph_is_the_edge_filter(case):
    # the subset's neighbor lists against a filter over every edge of g
    g, subset = case
    sub, mapping = induced_subgraph(g, subset)
    assert mapping == {old: new for new, old in enumerate(sorted(subset), start=1)}
    assert sub == Graph.from_edges(len(subset), [
        (mapping[i], mapping[j]) for i, j in g.edges if i in subset and j in subset])
    assert sub._adjacency == Graph.from_edges(sub.n, sub.edges)._adjacency


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
