"""Symbolic power sets, critical exponents, witnesses, and brackets."""

import dataclasses
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext
from mpmath.libmp import from_float, mpf_mul

from hadamard_powers import _ln_exp, chordal, exponents
from hadamard_powers.chordal import is_chordal
from hadamard_powers.cones import bordered_factor, matrix_to_json
from hadamard_powers.exponents import (
    BORDER_SCALE,
    HSet,
    IntervalCertificate,
    WitnessReport,
    _bordered_search,
    _interval_certificate,
    _least_eigenvalue,
    _negative_pivot_vector,
    _noise_floor,
    _rayleigh_iteration,
    conjecture_scan,
    critical_exponent,
    expected_hset,
    find_counterexample,
    hset_bipartite,
    hset_complete,
    hset_cycle,
    superadditive_powers,
)
from hadamard_powers.graphs import (
    Graph,
    band,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    generate,
    induced_subgraph,
    is_connected,
    max_outerplanar,
    near_complete,
    path,
    random_chordal,
    random_graph,
    random_tree,
    split_graph,
)

import census
from oracles import (
    clique_formula,
    dense_report_json,
    dense_witness_matrix,
    estimate_ce_by_full_walk,
    max_near_complete_order,
    nested_hset,
    verify_dense,
)
from test_chordal import chordal_graphs

GRID = [k / 4 for k in range(1, 33)]  # rational grid for set comparisons
LATTICE_FOR_FAMILY = {"plain": "naturals", "odd": "odd", "even": "even"}


def classifications_consistent(exact, partial, grid=GRID):
    """An exact set and a partial bound for the same object never conflict."""
    for a in grid:
        e = exact.classify(a)
        p = partial.classify(a)
        if p == "unknown":
            continue
        if e != p:
            return False
    return True


def _bounds(h):
    """(inner, outer): the exact sets between which h lies, h itself twice
    when it is exact."""
    if h.exact:
        return h, h
    return HSet(h.lattice, h.inner_ray), HSet(h.lattice, h.ray_start)


# --- HSet mechanics ----------------------------------------------------------


def test_hset_membership_lattice_and_ray():
    h = HSet(lattice="naturals", ray_start=3.0)
    assert h.contains(1) and h.contains(2) and h.contains(3) and h.contains(4.5)
    assert not h.contains(2.5) and not h.contains(0.5) and not h.contains(-1.0)
    odd = HSet(lattice="odd", ray_start=4.0)
    assert odd.contains(1) and odd.contains(3) and not odd.contains(2)
    even = HSet(lattice="even", ray_start=4.0)
    assert even.contains(2) and not even.contains(3) and even.contains(4)


def test_hset_membership_monotone_on_ray():
    h = HSet(lattice="naturals", ray_start=2.0)
    members = [a for a in GRID if h.contains(a)]
    assert all(h.contains(a + 0.25) for a in members if a >= 2.0)


def test_hset_describe():
    assert hset_complete(5, "plain").describe() == "N ∪ [3, ∞)"
    assert hset_complete(4, "odd").describe() == "(2N-1) ∪ [2, ∞)"
    # the ray absorbs the lattice here
    assert hset_complete(2, "even").describe() == "[0, ∞)"
    assert "excludes {1}" in hset_cycle(6, "even").describe()


def test_hset_partial_classify():
    h = hset_cycle(6, "even")
    assert not h.exact
    assert h.classify(2.5) == "in"
    assert h.classify(0.5) == "out"
    assert h.classify(1.0) == "out"  # explicitly excluded
    assert h.classify(1.5) == "unknown"
    with pytest.raises(ValueError, match="partial"):
        h.contains(1.5)


def test_hset_partial_inner_subset_of_outer():
    for h in [hset_cycle(6, "even"), hset_cycle(7, "even"),
              hset_bipartite(complete_bipartite(3, 3), "odd"),
              hset_bipartite(complete_bipartite(2, 4), "odd")]:
        inner, outer = _bounds(h)
        for a in GRID:
            if inner.contains(a):
                assert outer.contains(a)


def test_hset_json_roundtrip():
    for h in [hset_complete(5, "plain"), hset_cycle(6, "even"),
              hset_bipartite(complete_bipartite(2, 3), "odd")]:
        assert HSet.from_json(json.loads(json.dumps(h.to_json()))) == h


def _exact_set_json(**fields):
    return {"lattice": "naturals", "ray_start": 2.0, "exact": True, "inner": None,
            "outer": None, "exclusions": [], **fields}


def _partial_set_json(**fields):
    return {**hset_cycle(6, "even").to_json(), **fields}


@pytest.mark.parametrize("data", [
    pytest.param(_exact_set_json(exact="false", ray_start="2"), id="exact-string"),
    pytest.param(_exact_set_json(exact=1), id="exact-int"),
    pytest.param(_exact_set_json(ray_start="2"), id="ray-string"),
    pytest.param(_exact_set_json(ray_start=True), id="ray-bool"),
    pytest.param(_exact_set_json(inner={}), id="inner-empty-object"),
    pytest.param(_exact_set_json(outer=[]), id="outer-list"),
    pytest.param(_exact_set_json(exclusions=""), id="exclusions-empty-string"),
    pytest.param(_partial_set_json(exclusions=["1"]), id="exclusion-string"),
    pytest.param(_partial_set_json(exclusions=[True]), id="exclusion-bool"),
    pytest.param(_partial_set_json(exclusions="1"), id="exclusions-string"),
    pytest.param(_partial_set_json(inner=_exact_set_json(exact="true")), id="inner-exact-string"),
    pytest.param(_partial_set_json(outer=_exact_set_json(ray_start="1")), id="outer-ray-string"),
    pytest.param(None, id="null"),
    pytest.param([], id="list"),
    # sets that contradict themselves
    pytest.param(_partial_set_json(ray_start=3.0, outer=_exact_set_json(lattice="even",
                                                                         ray_start=3.0)),
                 id="inner-larger-than-outer"),
    pytest.param(_partial_set_json(inner=_exact_set_json(ray_start=2.0),
                                   outer=_exact_set_json(ray_start=1.0)),
                 id="bounds-on-another-lattice"),
    pytest.param(_partial_set_json(ray_start=0.5), id="top-ray-not-the-outer-ray"),
    pytest.param(_partial_set_json(inner=HSet("even", 2.0, inner_ray=3.0).to_json()),
                 id="partial-set-as-a-bound"),
])
def test_hset_json_takes_only_json_types(data):
    # exact is a JSON bool, each number a JSON number, and a partial set's
    # bounds exact sets of its lattice, the outer one at its ray and the
    # inner one above it; anything else was read by bool(), float() or
    # truth, or loaded a set that contradicts itself
    with pytest.raises(ValueError, match="bad hset JSON"):
        HSet.from_json(data)


PROBES = [k / 16 for k in range(-16, 16 * 10)] + [*range(9), math.nan, math.inf, -math.inf]
SMALL_RAYS = st.integers(0, 16 * 8)  # a ray k / 16 in [0, 8]


@st.composite
def hset_records(draw):
    """A valid HSet: an exact set, or a partial one with up to three
    exclusions outside its inner set, its rays on the 1/16 grid."""
    lattice, k = draw(st.sampled_from(exponents.LATTICES)), draw(SMALL_RAYS)
    if draw(st.booleans()):
        return HSet(lattice, k / 16)
    inner = HSet(lattice, draw(st.integers(k + 1, 16 * 9)) / 16)
    outside = [x for x in PROBES[16:-3] if not inner.contains(x)]
    exclusions = draw(st.lists(st.sampled_from(outside), max_size=3, unique=True))
    return HSet(lattice, k / 16, inner_ray=inner.ray_start, exclusions=sorted(exclusions))


GRAPHS_UP_TO_7 = st.integers(2, 7).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))))


@settings(max_examples=400, deadline=None)
@given(st.one_of(hset_records(), st.builds(expected_hset, GRAPHS_UP_TO_7,
                                           st.sampled_from(["plain", "odd", "even"]))))
@example(hset_cycle(6, "even"))
@example(hset_bipartite(complete_bipartite(3, 3), "odd"))
@example(HSet("naturals", 0.0, inner_ray=0.0625, exclusions=(0.0,)))
def test_the_flat_record_answers_as_the_nested_one(h):
    # the nested record it replaced is the oracle: the same verdicts,
    # text and JSON, and the JSON loads back to the same record
    oracle = nested_hset(h)
    assert [h.classify(a) for a in PROBES] == [oracle.classify(a) for a in PROBES]
    assert h.describe() == oracle.describe()
    assert h.to_json() == oracle.to_json()
    assert HSet.from_json(json.loads(json.dumps(h.to_json()))) == h


def test_hset_validation():
    with pytest.raises(ValueError):
        HSet(lattice="primes", ray_start=1.0)
    with pytest.raises(ValueError):
        HSet(lattice="naturals", ray_start=-1.0)
    for inner_ray in (1.0, 0.5):  # at or below the outer ray
        with pytest.raises(ValueError, match="inner ray"):
            HSet(lattice="naturals", ray_start=1.0, inner_ray=inner_ray)
    with pytest.raises(ValueError, match="finite"):
        HSet(lattice="naturals", ray_start=1.0, inner_ray=math.inf)
    with pytest.raises(ValueError, match="exclusions"):
        HSet(lattice="naturals", ray_start=1.0, exclusions=(0.5,))
    with pytest.raises(ValueError, match="inner set"):
        HSet(lattice="even", ray_start=1.0, inner_ray=2.0, exclusions=(2.0,))


# --- exact constructors -------------------------------------------------------


def test_hset_complete_examples():
    h = hset_complete(5, "plain")
    assert (h.lattice, h.ray_start, h.exact) == ("naturals", 3.0, True)
    h = hset_complete(2, "even")
    assert h.ray_start == 0.0 and h.contains(0.0) and h.contains(0.1)
    h = hset_complete(4, "odd")
    assert h.lattice == "odd" and h.ray_start == 2.0
    with pytest.raises(ValueError):
        hset_complete(1, "plain")


def test_superadditive_powers_examples():
    h = superadditive_powers(3, "plain")
    assert (h.lattice, h.ray_start) == ("naturals", 3.0)
    h = superadditive_powers(2, "even")
    assert (h.lattice, h.ray_start) == ("even", 2.0)
    h = superadditive_powers(4, "odd")
    assert h.contains(1) and h.contains(3) and not h.contains(2) and h.contains(4.0)
    assert superadditive_powers(1, "plain").describe() == "[1, ∞)"
    with pytest.raises(ValueError):
        superadditive_powers(0, "plain")


def chordal_theorem(g, family="plain"):
    """The chordal theorem, stated apart from the library: the family
    lattice union [CE, oo), CE from the clique formula."""
    return HSet(lattice=LATTICE_FOR_FAMILY[family], ray_start=float(clique_formula(g)))


def test_hset_chordal_examples():
    for seed in range(3):
        h = expected_hset(random_tree(7, seed=seed))
        assert h.exact and h.ray_start == 1.0
    for n in range(2, 8):
        assert expected_hset(complete(n)) == hset_complete(n)
    for n, d in [(6, 2), (7, 3), (9, 4)]:
        assert expected_hset(band(n, d)) == HSet(lattice="naturals", ray_start=float(d))
    for family in ("plain", "odd", "even"):
        g = random_chordal(9, 0.6, seed=2)
        assert expected_hset(g, family) == chordal_theorem(g, family)


def test_clique_formula_examples():
    for g, ce in [(path(3), 1), (complete(4), 2), (near_complete(4), 2),
                  (Graph.from_edges(2, []), 0)]:
        assert clique_formula(g) == ce == g.analysis.near_complete_order - 2


def test_triple_agreement_sample():
    # three routes sharing no code: the clique formula over Bron-Kerbosch
    # cliques, the library's near-complete search, the subset brute force
    graphs = [complete(5), near_complete(6), band(7, 3), random_tree(7, seed=1),
              max_outerplanar(7), generate("apollonian", n=7, seed=3),
              split_graph(4, 3, 2, seed=2)]
    graphs += [random_chordal(3 + s % 5, density=0.55, seed=s) for s in range(60)]
    for g in graphs:
        ce = clique_formula(g)
        assert ce == g.analysis.near_complete_order - 2
        assert ce == max_near_complete_order(g) - 2


# --- cycle and bipartite oracles ----------------------------------------------


def test_hset_cycle_examples():
    h = hset_cycle(5, "plain")
    assert h.exact and h.ray_start == 1.0 and h.lattice == "naturals"
    h = hset_cycle(4, "even")
    assert h.exact and h.ray_start == 2.0
    h = hset_cycle(6, "even")
    assert not h.exact and h.inner_ray == 2.0 and h.ray_start == 1.0
    assert h.exclusions == (1.0,)
    assert hset_cycle(7, "even").exclusions == ()
    assert hset_cycle(3, "plain") == hset_complete(3, "plain")
    with pytest.raises(ValueError):
        hset_cycle(2, "plain")


def test_hset_bipartite_examples():
    assert hset_bipartite(complete_bipartite(3, 3), "plain") == HSet("naturals", 1.0)
    assert hset_bipartite(complete_bipartite(2, 3), "even") == HSet("even", 2.0)
    h = hset_bipartite(complete_bipartite(3, 3), "even")
    assert not h.exact and h.inner_ray == 2.0
    h = hset_bipartite(complete_bipartite(2, 3), "odd")
    assert not h.exact and h.classify(1.0) == "in" == h.classify(2.0)
    inner, _ = _bounds(hset_bipartite(complete_bipartite(3, 3), "odd"))
    assert inner.contains(1.0) and not inner.contains(2.5) and inner.contains(3.0)
    with pytest.raises(ValueError, match="bipartite"):
        hset_bipartite(complete(3))
    with pytest.raises(ValueError, match="connected"):
        hset_bipartite(Graph.from_edges(4, [(1, 2), (3, 4)]))


def test_bipartition():
    parts = complete_bipartite(2, 3).analysis.bipartition
    assert sorted(map(sorted, parts)) == [[1, 2], [3, 4, 5]]
    assert complete(3).analysis.bipartition is None


def test_components_and_two_coloring_once_per_graph(monkeypatch):
    # expected_hset, hset_bipartite, the cycle test and connected_components
    # read both off the graph's analysis, and one search gives both, so each
    # graph takes one search
    calls = []
    search = chordal._color_components

    def counted(g):
        calls.append(g.n)
        return search(g)

    monkeypatch.setattr(chordal, "_color_components", counted)
    for g in (cycle(8), complete_bipartite(3, 4)):
        for family in ("plain", "odd", "even"):
            expected_hset(g, family)
            hset_bipartite(g, family)
        assert g.analysis.bipartition is not None
        assert connected_components(g) == [list(g.vertices)]
    assert calls == [8, 7]


@pytest.mark.parametrize("make", [lambda: cycle(8), lambda: complete_bipartite(3, 4),
                                  lambda: _grid_graph(30)], ids=["C8", "K34", "grid30"])
def test_a_set_a_theorem_decides_computes_no_r(make):
    # the cycle and bipartite theorems decide these sets from the graph's
    # shape, so expected_hset enumerates no clique and seeks no near-complete
    # subgraph; critical_exponent reports r, read off the two-coloring
    g = make()
    for family in ("plain", "even"):
        expected_hset(g, family)
    computed = g.analysis.__dict__.keys()
    assert not {"maximal_cliques", "near_complete"} & computed
    record, _ = critical_exponent(g)
    assert record["r"] == 3 and not {"maximal_cliques", "near_complete"} & computed


@pytest.mark.parametrize("make", [lambda: band(14, 6), lambda: random_chordal(300, seed=4),
                                  lambda: complete(30)], ids=["band", "random_chordal", "K30"])
def test_r_of_a_chordal_pattern_builds_no_certificate(make):
    # r comes off the Lex-BFS chains; only a witness search reads (v1, S, v2)
    g = make()
    for family in ("plain", "odd", "even"):  # each reads expected_hset too
        record, _ = critical_exponent(g, family)
        assert record["method"] == "exact"
    assert record["r"] - 2 == clique_formula(g)
    assert "near_complete" not in g.analysis.__dict__


def test_a_witness_search_builds_the_certificate():
    g = band(10, 5)
    assert g.analysis.near_complete_order == 7
    assert "near_complete" not in g.analysis.__dict__
    assert find_counterexample(g, 4.5) is not None
    assert g.analysis.__dict__["near_complete"][0] == 7


def test_bipartite_two_by_many_detection_boundary():
    # one edge removed still sandwiches between K_{2,2} and K_{2,3}
    g = Graph.from_edges(5, [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
    assert hset_bipartite(g, "even") == HSet("even", 2.0)
    # a path on 4 vertices has a size-2 part but no doubly-covered pair
    assert not hset_bipartite(path(4), "even").exact


def test_chordal_and_bipartite_sets_never_conflict():
    # trees and paths are both chordal and bipartite
    for g in [path(4), random_tree(8, seed=5), complete_bipartite(1, 5)]:
        for family in ("plain", "odd", "even"):
            exact = chordal_theorem(g, family)
            bi = hset_bipartite(g, family)
            if bi.exact:
                assert all(exact.contains(a) == bi.contains(a) for a in GRID)
            else:
                assert classifications_consistent(exact, bi)


def test_cycle_and_bipartite_agree_on_c4():
    c4 = cycle(4)
    for family in ("plain", "even"):
        a = hset_cycle(4, family)
        b = hset_bipartite(c4, family)
        assert a.exact and b.exact
        assert all(a.contains(x) == b.contains(x) for x in GRID)
    odd_cycle = hset_cycle(4, "odd")
    odd_bi = hset_bipartite(c4, "odd")
    assert classifications_consistent(odd_cycle, odd_bi)


def test_expected_hset_dispatch():
    assert expected_hset(complete(4)).exact
    assert expected_hset(cycle(5)).ray_start == 1.0
    assert expected_hset(complete_bipartite(2, 3), "even").ray_start == 2.0
    # non-chordal, non-bipartite, not a cycle: the sandwich alone, with
    # r = 3 and r(H) = 4
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    h = expected_hset(g)
    assert not h.exact
    assert (h.lattice, h.inner_ray, h.ray_start) == ("naturals", 2.0, 1.0)
    assert expected_hset(Graph.from_edges(1, [])) is None


def test_expected_hset_inner_bound_is_the_sandwich_when_it_beats_a_theorem():
    # a 6-cycle with a pendant vertex: bipartite, not a cycle, r = 3 and
    # r(H) = 4. In the odd family the sandwich's inner (2N-1) ∪ [2, ∞)
    # holds hset_bipartite's (2N-1) ∪ [3, ∞), so the union is the sandwich's
    g = Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (6, 7)])
    assert (g.analysis.near_complete_order, g.analysis.triangulation[2]) == (3, 4)
    theorem = hset_bipartite(g, "odd")
    assert (theorem.lattice, theorem.inner_ray) == ("odd", 3.0)
    h = expected_hset(g, "odd")
    assert h.describe() == "contains (2N-1) ∪ [2, ∞), contained in [1, ∞)"
    assert (h.lattice, h.inner_ray) == ("odd", 2.0)
    assert h != theorem


C5_AND_C4 = Graph.from_edges(9, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                 (6, 7), (7, 8), (8, 9), (6, 9)])


@pytest.mark.parametrize("family, ray", [("plain", 1.0), ("odd", 1.0), ("even", 2.0)])
def test_expected_hset_intersects_the_components_sets(family, ray):
    # the power set of a disjoint union is the intersection of its parts';
    # the two cycle theorems make it exact
    assert expected_hset(C5_AND_C4, family) == HSet(lattice=LATTICE_FOR_FAMILY[family],
                                                     ray_start=ray)


@pytest.mark.parametrize("parts", [(cycle(5), cycle(4)), (cycle(6), complete(3))],
                         ids=["C5+C4", "C6+K3"])
def test_components_that_decide_the_set_compute_no_r_or_triangulation(parts):
    # expected_hset reads a disconnected pattern's components before the
    # sandwich; their sets decide these (exact, or an inner ray <= 2), so
    # the whole graph's r and min-fill triangulation are never computed
    g = _disjoint_union(*parts)
    for family in ("plain", "odd", "even"):
        expected_hset(g, family)
    computed = g.analysis.__dict__.keys()
    assert not {"near_complete", "maximal_cliques", "triangulation"} & computed


def test_every_description_is_spelled_with_the_family_lattice():
    # one spelling per set: the described set and each bound of its JSON
    # carry the family's lattice, whichever source gave them
    for _, g in census.census_graphs(size=300):
        for family in ("plain", "odd", "even"):
            data = expected_hset(g, family).to_json()
            bounds = [b for b in (data, data["inner"], data["outer"]) if b is not None]
            assert {b["lattice"] for b in bounds} == {LATTICE_FOR_FAMILY[family]}, (g, family)
    with pytest.raises(ValueError) as err:
        HSet.from_json(_exact_set_json(lattice="none"))
    assert str(err.value) == "bad hset JSON: unknown lattice 'none'"


def _grid_graph(k):
    """The k x k grid graph, vertex (r, c) labelled r k + c + 1."""
    return Graph.from_edges(k * k, [(r * k + c + 1, r * k + c + 2)
                                    for r in range(k) for c in range(k - 1)]
                            + [(r * k + c + 1, r * k + c + k + 1)
                               for r in range(k - 1) for c in range(k)])


def test_expected_hset_builds_no_triangulation_where_a_theorem_decides(monkeypatch):
    # a theorem with an inner ray <= 2 decides alone, as r(H) - 2 >= 2 on a
    # non-chordal graph; a bipartite odd set past K_{2,m} still needs H
    calls = []
    min_fill = chordal._min_fill

    def counted(g):
        calls.append(g.n)
        return min_fill(g)

    monkeypatch.setattr(chordal, "_min_fill", counted)
    for family in ("plain", "odd", "even"):
        for g in [*map(cycle, range(4, 21)), *(complete_bipartite(2, b) for b in range(2, 9))]:
            expected_hset(g, family)
    for family in ("plain", "even"):
        expected_hset(_grid_graph(30), family)
    assert calls == []
    expected_hset(_grid_graph(4), "odd")
    assert calls == [16]


def test_estimate_on_a_disjoint_union_of_cycles_skips_one_to_two():
    # both cycles are exactly [1, oo), so their union is too: CE = 1 with
    # no grid power searched
    record, known = critical_exponent(C5_AND_C4, "plain", budget=10, seed=1)
    assert known.exact and (record["ce"], record["method"]) == (1, "exact")
    assert _searched_powers(C5_AND_C4, "plain", budget=10, seed=1) == (None, [])


def _disjoint_union(g, h):
    return Graph.from_edges(g.n + h.n, [*g.edges, *((i + g.n, j + g.n) for i, j in h.edges)])


SMALL_GRAPHS = st.one_of(
    st.builds(random_graph, st.integers(2, 8), st.floats(0, 1), st.integers(0, 2**16)),
    st.builds(cycle, st.integers(3, 8)))
QUARTER_GRID = [k / 4 for k in range(4 * 17)]  # integers, halves and quarters in [0, 17)


@settings(max_examples=150, deadline=None)
@given(st.one_of(SMALL_GRAPHS, st.builds(_disjoint_union, SMALL_GRAPHS, SMALL_GRAPHS)),
       st.sampled_from(["plain", "odd", "even"]))
@example(C5_AND_C4, "even")
@example(_disjoint_union(complete_bipartite(3, 3), cycle(6)), "odd")
def test_each_bound_is_the_family_lattice_and_its_ray(g, family):
    # expected_hset combines descriptions by ray order alone, which is
    # inclusion only while each bound is L_f ∪ [ray, ∞) as a set
    lattice = LATTICE_FOR_FAMILY[family]
    found = [expected_hset(g, family)]
    for c in connected_components(g):
        part = induced_subgraph(g, c)[0]
        if part.n >= 2:
            found.append(expected_hset(part, family))
        if exponents._is_cycle_graph(part):
            found.append(hset_cycle(part.n, family))
        if part.n >= 3 and part.analysis.bipartition is not None:
            found.append(hset_bipartite(part, family))
    for h in found:
        for bound in _bounds(h):
            ray_form = HSet(lattice=lattice, ray_start=bound.ray_start)
            assert [bound.contains(x) for x in QUARTER_GRID] == [
                ray_form.contains(x) for x in QUARTER_GRID], (h, bound)


# --- witnesses -----------------------------------------------------------------


def test_witness_found_below_threshold():
    w = find_counterexample(complete(3), 0.5, "plain", seed=1)
    assert w is not None and w.construction == "rank_one_bordered"
    assert w.verify()
    assert w.image_min_eigenvalue < -1e-6


def test_no_witness_at_positive_integers():
    assert find_counterexample(complete(3), 2.0, "plain", budget=80, seed=1) is None
    assert find_counterexample(complete(4), 1.0, "odd", budget=80, seed=1) is None


def test_witness_on_cycle_plain():
    w = find_counterexample(cycle(4), 0.5, "plain", seed=1)
    assert w is not None and w.verify()


def test_witness_even_family_uses_signed_cycle():
    w = find_counterexample(cycle(4), 1.5, "even", seed=1)
    assert w is not None and w.construction == "signed_cycle" and w.verify()
    # an even cycle longer than 4 still yields the power-1 exclusion
    w6 = find_counterexample(cycle(6), 1.0, "even", seed=1)
    assert w6 is not None and w6.construction == "signed_cycle" and w6.verify()
    # odd cycles have no signed-cycle witness at power 1
    assert find_counterexample(cycle(5), 1.0, "even", budget=40, seed=1) is None


def test_witness_report_roundtrips_and_reverifies():
    w = find_counterexample(band(7, 3), 2.5, "odd", seed=2)
    assert w is not None
    data = json.loads(json.dumps(w.to_json()))
    back = WitnessReport.from_json(data)
    assert back.verify()
    assert back.construction == w.construction
    assert np.array_equal(back.matrix, w.matrix)


def test_tampered_witness_fails_verification():
    w = find_counterexample(complete(4), 1.5, "plain", seed=3)
    assert w is not None
    data = w.to_json()
    data["alpha"] = 2.0  # integer powers always preserve positivity
    assert not WitnessReport.from_json(data).verify()
    data2 = w.to_json()
    data2["matrix"]["rows"][0][1] += 100.0
    data2["matrix"]["rows"][1][0] += 100.0  # breaks positive semidefiniteness
    assert not WitnessReport.from_json(data2).verify()


def test_witness_respects_pattern_and_psdness():
    for g, alpha, family in [(near_complete(6), 3.5, "plain"),
                             (complete_bipartite(2, 3), 0.5, "plain"),
                             (cycle(5), 0.5, "odd")]:
        w = find_counterexample(g, alpha, family, seed=4)
        assert w is not None
        from hadamard_powers.cones import conforms_to_pattern, is_psd
        assert conforms_to_pattern(w.dense(), g)
        assert is_psd(w.dense()).is_psd


def test_witness_interval_certified_closed_form_case():
    # five-clique separator just below its boundary: the float eigenvalue of
    # the closed form does not clear the threshold, the interval bound does
    w = find_counterexample(complete(7), 4.9375, "plain", seed=0)
    assert w is not None and w.construction == "rank_one_bordered"
    assert w.certificate is not None and w.verify()


def test_witness_at_mismatched_parity_integers():
    # x^2 preserves positivity, but sgn(x)|x|^2 does not (and |x|^3 fails
    # where x^3 succeeds): the integer lattices differ per family
    k6 = complete(6)
    w = find_counterexample(k6, 2.0, "odd", seed=3)
    assert w is not None and w.verify()
    w = find_counterexample(k6, 3.0, "even", seed=3)
    assert w is not None and w.verify()
    assert find_counterexample(k6, 2.0, "even", seed=3, budget=60) is None
    assert find_counterexample(k6, 3.0, "odd", seed=3, budget=60) is None


def test_witness_at_zero_and_negative_powers():
    # powering to 0 maps the pattern to its indicator matrix, which is not
    # PSD for an incomplete pattern; negative powers fail similarly
    k3 = complete(3)
    for alpha in (0.0, -0.5):
        w = find_counterexample(k3, alpha, "plain", seed=1)
        assert w is not None and w.verify()


# --- numeric brackets and the scan ---------------------------------------------


def test_estimate_brackets_contain_known_exponents():
    # K_4 by the chordal theorem and C_5 by the cycle theorem: both exact,
    # so CE is read off the set with no grid power searched
    for g, ce in [(complete(4), 2), (cycle(5), 1)]:
        assert critical_exponent(g, seed=0)[0]["ce"] == ce
        assert _searched_powers(g, seed=0) == (None, [])


def test_estimate_lower_end_is_sound_on_chordal_graphs():
    # a chordal pattern's set is exact, with CE the clique formula's
    for g in [random_tree(6, seed=1), band(6, 2), complete(5)]:
        record = critical_exponent(g, seed=0)[0]
        assert (record["ce"], record["method"]) == (clique_formula(g), "exact")


def test_estimate_degenerate_two_vertices():
    record = critical_exponent(Graph.from_edges(2, [(1, 2)]), seed=0)[0]
    assert (record["ce"], record["method"]) == (0, "exact")
    with pytest.raises(ValueError, match=">= 2 vertices"):
        critical_exponent(Graph.from_edges(1, []), seed=0)


STEP = 1 / 16


CHORDAL_UP_TO_8 = st.one_of(
    st.builds(random_chordal, st.integers(3, 8), st.floats(0, 1), st.integers(0, 2**16)),
    st.integers(3, 8).flatmap(lambda n: st.builds(band, st.just(n), st.integers(1, n))))


@settings(max_examples=60, deadline=None)
@given(CHORDAL_UP_TO_8, st.sampled_from(["plain", "odd", "even"]), st.integers(0, 2**32 - 1))
@example(complete(8), "odd", 0)  # the interval-certified witness at 5.9375
@example(band(8, 4), "even", 0)
def test_bordered_witness_refutes_the_grid_power_below_r_minus_2(g, family, rng_seed):
    # the closed-form bordered witness on a largest near-complete subgraph
    # refutes r - 2 - 1/16, verifies, and draws nothing
    r = max_near_complete_order(g)
    assume(r >= 3)
    rng = np.random.default_rng(rng_seed)
    state = rng.bit_generator.state
    w = find_counterexample(g, r - 2 - STEP, family, seed=rng)
    assert w is not None and w.verify()
    assert rng.bit_generator.state == state


GRAPHS_UP_TO_8 = st.integers(4, 8).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))))


def _grid(n):
    """The walk's grid: multiples of STEP in (0, n - 2] off the integers."""
    return [k * STEP for k in range(1, 16 * (n - 2) + 1) if k % 16]


def _searched_powers(g, *args, walk=None, **kwargs):
    """critical_exponent's bracket (None on an exact set) and the powers its
    walk searched, in order; or those of `walk`, an oracle."""
    searched = []

    def search(g, alpha, *search_args, **search_kwargs):
        searched.append(alpha)
        return find_counterexample(g, alpha, *search_args, **search_kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponents, "find_counterexample", search)
        if walk is not None:
            return walk(g, *args, **kwargs), searched
        record = critical_exponent(g, *args, **kwargs)[0]
    if record["method"] == "exact":
        return None, searched
    return (record["bracket_lower"], record["bracket_upper"]), searched


def _proven(g, family):
    """The set of powers the walk skips: expected_hset's exact set or inner
    bound."""
    return _bounds(expected_hset(g, family))[0]


@settings(max_examples=40, deadline=None)
@given(GRAPHS_UP_TO_8, st.sampled_from(["plain", "odd", "even"]))
@example(cycle(8), "even")
@example(cycle(7), "plain")  # [1, oo) exactly: (1, 2) below r(H) - 2 is skipped too
@example(complete_bipartite(3, 4), "odd")
@example(Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 6), (2, 6),
                              (3, 7), (4, 7), (6, 7)]), "plain")
def test_estimate_searches_only_below_the_triangulation_bound(g, family):
    proven = _proven(g, family)
    assert proven.ray_start <= g.analysis.triangulation[2] - 2
    bracket, searched = _searched_powers(g, family, budget=10, seed=1)
    known = expected_hset(g, family)
    if known.exact:  # CE is the ray: nothing is walked
        assert (bracket, searched) == (None, [])
        return
    lo, hi = bracket
    assert lo < hi <= max(proven.ray_start + STEP, STEP)
    # from the top of the grid down to the lower end, each power below the
    # inner ray is searched once, unless expected_hset proves it out: that
    # power ends the walk unsearched
    assert searched == [a for a in reversed(_grid(g.n))
                        if lo <= a < proven.ray_start and known.classify(a) == "unknown"]


def _chorded_cycle(n, a, b):
    """The n-cycle with the chord a-b."""
    return Graph.from_edges(n, [*cycle(n).edges, (a, b)])


SANDWICH_GRID = [k / 8 for k in range(0, 8 * 8 + 1)]


def _theorems(g, family):
    """The theorems whose hypotheses g meets (chordal_theorem and the
    hset_* descriptions), and the plain sandwich of r (brute force) and
    r(H)."""
    found = []
    if is_chordal(g):
        found.append(chordal_theorem(g, family))
    if exponents._is_cycle_graph(g):
        found.append(hset_cycle(g.n, family))
    if g.n >= 3 and is_connected(g) and g.analysis.bipartition is not None:
        found.append(hset_bipartite(g, family))
    lattice = LATTICE_FOR_FAMILY[family]
    r, r_h = max_near_complete_order(g), g.analysis.triangulation[2]
    found.append(HSet(lattice=lattice, ray_start=r_h - 2) if r_h == r else
                 HSet(lattice=lattice, ray_start=r - 2, inner_ray=r_h - 2))
    return found


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])))),
    st.sampled_from(["plain", "odd", "even"]))
@example(cycle(6), "even")
@example(cycle(7), "odd")
@example(complete_bipartite(2, 3), "even")
@example(complete_bipartite(3, 4), "odd")
@example(_chorded_cycle(8, 1, 4), "even")  # bipartite, not a cycle
@example(_chorded_cycle(5, 1, 3), "plain")  # the sandwich alone
@example(C5_AND_C4, "even")  # two components: their sets intersected
def test_expected_hset_is_the_tightest_proven_sandwich(g, family):
    known = expected_hset(g, family)
    inner, outer = _bounds(known)
    for a in SANDWICH_GRID:
        assert outer.contains(a) or not inner.contains(a), a
        got = known.classify(a)
        for source in _theorems(g, family):
            assert source.classify(a) in ("unknown", got), (a, source)
    if g.analysis.triangulation[2] == max_near_complete_order(g):
        assert known.exact
    # no witness where the inner set proves the power preserving
    for a in _grid(g.n)[3::4]:
        if inner.contains(a):
            assert find_counterexample(g, a, family, budget=20, seed=1) is None, a


def test_estimate_past_the_min_fill_work_limit_walks_every_power(monkeypatch):
    # H = K_n: r(H) - 2 = n - 2 skips nothing on a graph that is neither a
    # cycle nor bipartite, so the bracket and the draws are those of the
    # full walk
    monkeypatch.setattr(chordal, "MAX_FILL_WORK", 0)
    for g, family, bracket in [(_chorded_cycle(6, 1, 3), "even", (1.25, 1.3125)),
                               (_chorded_cycle(7, 1, 3), "plain", (0.9375, 1.0625))]:
        assert g.analysis.triangulation[2] == g.n
        assert _proven(g, family).ray_start == g.n - 2
        got, searched = _searched_powers(g, family, seed=3)
        assert got == bracket
        known = expected_hset(g, family)
        assert searched == [a for a in reversed(_grid(g.n))
                            if a >= bracket[0] and known.classify(a) == "unknown"]
        assert (got, searched) == _searched_powers(g, family, seed=3,
                                                   walk=estimate_ce_by_full_walk)


BIPARTITE_UP_TO_8 = st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda ab: st.builds(Graph.from_edges, st.just(ab[0] + ab[1]), st.sets(st.sampled_from(
        [(i, ab[0] + j) for i in range(1, ab[0] + 1) for j in range(1, ab[1] + 1)]))))


@settings(max_examples=80, deadline=None)
@given(st.one_of(CHORDAL_UP_TO_8, st.builds(cycle, st.integers(3, 8)), BIPARTITE_UP_TO_8,
                 GRAPHS_UP_TO_8, st.builds(random_graph, st.integers(2, 8), st.floats(0, 1),
                                           st.integers(0, 2**16))),
       st.sampled_from(["plain", "odd", "even"]))
@example(cycle(8), "even")  # a partial set with the exclusion 1
@example(complete_bipartite(3, 4), "odd")  # an inner lattice, ray 3
@example(_chorded_cycle(7, 1, 3), "plain")  # the sandwich: searches below r(H) - 2
@example(C5_AND_C4, "even")
@example(Graph.from_edges(2, [(1, 2)]), "plain")
def test_estimate_walks_as_the_full_grid_walk(g, family):
    # an exact set is not walked; on a partial one, starting below the
    # proven range drops only powers the full walk classifies "in": same
    # bracket, same searches in the same order
    got = _searched_powers(g, family, budget=4, seed=1)
    if expected_hset(g, family).exact:
        assert got == (None, [])
    else:
        assert got == _searched_powers(g, family, budget=4, seed=1,
                                       walk=estimate_ce_by_full_walk)


def test_estimate_classifies_no_proven_power(monkeypatch):
    # cycle(2000) is exactly [1, oo) for plain powers: CE = 1, with nothing
    # classified or searched. Its even set is partial, [2, oo) with 1
    # excluded: 2.0625 stands for the 29,940 grid powers above 2, and the
    # walk classifies only 1.9375, whose search is made to succeed
    calls, searched = [], []
    classify = HSet.classify

    def counted(self, alpha):
        calls.append(alpha)
        return classify(self, alpha)

    def search(g, alpha, *args, **kwargs):
        searched.append(alpha)
        return "witness"

    monkeypatch.setattr(HSet, "classify", counted)
    monkeypatch.setattr(exponents, "find_counterexample", search)
    g = cycle(2000)
    assert critical_exponent(g, seed=0)[0]["ce"] == 1
    assert calls == searched == []
    record = critical_exponent(g, "even", seed=0)[0]
    assert (record["bracket_lower"], record["bracket_upper"]) == (1.9375, 2.0625)
    assert calls == searched == [1.9375]
    assert estimate_ce_by_full_walk(g, "even", seed=0) == (1.9375, 2.0625)
    assert searched == [1.9375, 1.9375]


def test_one_description_per_critical_exponent_call(monkeypatch):
    # two disjoint 5-cycles, each with the chord 1-3, have a partial plain
    # set; the walk reads the description critical_exponent computed: one
    # expected_hset for the graph and one per component, each component
    # built once
    described, induced = [], []
    hset, subgraph = exponents.expected_hset, exponents.induced_subgraph

    def counted_hset(g, *args):
        described.append(g.n)
        return hset(g, *args)

    def counted_subgraph(g, subset):
        induced.append(len(subset))
        return subgraph(g, subset)

    monkeypatch.setattr(exponents, "expected_hset", counted_hset)
    monkeypatch.setattr(exponents, "induced_subgraph", counted_subgraph)
    g = _disjoint_union(_chorded_cycle(5, 1, 3), _chorded_cycle(5, 1, 3))
    record, known = critical_exponent(g, "plain", budget=3, seed=1)
    assert not known.exact and record["method"] == "heuristic"
    assert (described, induced) == ([10, 5, 5], [5, 5])


def test_conjecture_scan_small_set():
    report = conjecture_scan([path(3), cycle(4), complete(4)], seed=3)
    assert report["summary"]["graphs"] == 3
    assert report["summary"]["flagged"] == 0
    assert report["summary"]["errors"] == 0
    recs = report["records"]
    assert recs[0]["conjectured_ce"] == 1 and recs[0]["chordal"]
    assert "formula_ce" not in recs[0]
    assert not recs[1]["chordal"]


def test_conjecture_scan_survives_bad_graphs():
    report = conjecture_scan([Graph.from_edges(1, []), path(3)], seed=3)
    assert report["summary"]["errors"] == 1
    assert "error" in report["records"][0]
    assert report["records"][1]["flagged"] is False


def test_conjecture_scan_on_petersen_graph():
    # triangle-free with girth five, so r = 3; the identity CE = r - 2 = 1
    # is open here, and with the fixed seed the numeric bracket brackets 1
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    petersen = Graph.from_edges(10, outer + spokes + inner)
    report = conjecture_scan([petersen], seed=11, budget=60)
    rec = report["records"][0]
    assert rec["r"] == 3 and not rec["chordal"]
    assert rec["bracket_lower"] <= 1.0 <= rec["bracket_upper"]
    assert not rec["flagged"]


def test_budget_below_one_is_rejected():
    # a search with nothing to draw would report a vacuous miss
    for budget in (0, -3):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            find_counterexample(complete(4), 1.5, "plain", budget=budget)
        # a partial set, which the walk searches, and two exact sets, which
        # critical_exponent walks nothing on and checks all the same
        for g in (_chorded_cycle(5, 1, 3), cycle(6), Graph.from_edges(4, [(1, 2), (3, 4)])):
            with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
                critical_exponent(g, budget=budget)


# --- closed-form bordered witnesses and their certificates ----------------------

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def _image_rows(ctx, f, alpha):
    """(F F^T)^{∘alpha} as nested lists of the mpmath context ctx (point or
    interval) numbers; entries with no nonzero product stay exactly zero."""
    a = ctx.mpf(float(alpha))
    vals = [[ctx.mpf(float(x)) for x in row] for row in f]
    n, k = f.shape
    out = [[ctx.mpf(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            terms = [vals[i][c] * vals[j][c] for c in range(k) if f[i, c] and f[j, c]]
            if terms:
                out[i][j] = out[j][i] = sum(terms, ctx.mpf(0)) ** a
    return out


def _iv(digits):
    iv = MPIntervalContext()
    iv.dps = digits
    return iv


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.floats(m - 1, m, exclude_min=True, exclude_max=True),
              st.sampled_from([m - 1 + 1 / 16, m - 1 / 16, m - 1e-4])),
    st.sampled_from(["plain", "odd", "even"]),
    st.booleans())))
def test_closed_form_witness_verifies(case):
    m, alpha, family, near = case
    assume(not float(alpha).is_integer())
    g = near_complete(m + 3) if near else complete(m + 2)

    def no_generator():
        raise AssertionError("the closed form draws nothing")

    w = _bordered_search(g, alpha, family, 1, no_generator)
    assert w is not None and w.construction == "rank_one_bordered"
    assert w.image_min_eigenvalue < 0
    assert WitnessReport.from_json(json.loads(json.dumps(w.to_json()))).verify()


WITNESS_WORKLOAD = [(band(10, 5), (4.5, 4.95)), (band(14, 6), (5.5, 4.75)),
                    (near_complete(9), (6.5, 5.75))]


@pytest.mark.parametrize("family", ["plain", "odd", "even"])
def test_every_witness_workload_power_is_certified(family):
    for g, alphas in WITNESS_WORKLOAD:
        for alpha in alphas:
            w = find_counterexample(g, alpha, family, seed=1)
            assert w is not None and w.certificate is not None, (g.n, alpha)
            assert WitnessReport.from_json(json.loads(json.dumps(w.to_json()))).verify()


def test_witness_workload_reports_are_pinned():
    # recorded while the test vector was the least eigenvector of a full
    # multiprecision eigensolve; the eigenvalue, precision and matrix of
    # each report are unchanged since (the test vector is not pinned)
    graphs = {"band(10,5)": band(10, 5), "band(14,6)": band(14, 6),
              "near_complete(9)": near_complete(9)}
    records = json.loads((FIXTURES / "witness_certificates.json").read_text())
    assert len(records) == 18
    for rec in records:
        w = find_counterexample(graphs[rec["graph"]], rec["alpha"], rec["family"], seed=1)
        rows = matrix_to_json(w.dense())["rows"]
        assert (repr(w.image_min_eigenvalue), w.certificate.digits, w.construction,
                hashlib.sha256(json.dumps(rows).encode()).hexdigest()) == (
            rec["image_min_eigenvalue"], rec["digits"], rec["construction"],
            rec["matrix_sha256"]), rec


def _clear_certificate_memos():
    """Empty the four memos of the interval route: proofs, Grams, power
    ends and logarithms."""
    for memo in (exponents._certified_block, exponents._exact_gram,
                 exponents._power_ends, exponents._log):
        memo.cache_clear()


def _count_exps_and_logs(monkeypatch):
    """(calls, powers): every exp and ln the power ends compute, from the
    integer kernel or from decimal alike, and the distinct
    (s, alpha, digits) the certificate routines ask ends of."""
    _clear_certificate_memos()  # proofs and ends memoized by earlier tests are not counted
    calls, powers = [], set()
    correctly_rounded, power_ends = exponents._correctly_rounded, exponents._power_ends

    def evaluate(function, x, prec):
        calls.append((function, prec, x))
        return correctly_rounded(function, x, prec)

    def ends(s, alpha, digits):
        powers.add((s, alpha, digits))
        return power_ends(s, alpha, digits)

    monkeypatch.setattr(exponents, "_correctly_rounded", evaluate)
    monkeypatch.setattr(exponents, "_power_ends", ends)
    return calls, powers


def test_a_witness_workload_pass_computes_each_power_end_once(monkeypatch):
    # the three families share one image, and re-verification reads the
    # search's ends: one exp gives both ends of a power, and one ln serves
    # every alpha at a precision
    calls, powers = _count_exps_and_logs(monkeypatch)
    _witness_workload_pass()
    exps = [(prec, y) for name, prec, y in calls if name == "exp"]
    logs = [(prec, s) for name, prec, s in calls if name == "ln"]
    assert exps and len(set(exps)) == len(exps) <= len(powers)
    assert len(powers) <= exponents.IMAGE_END_MEMO
    assert len(set(logs)) == len(logs) == len({(s, digits) for s, _, digits in powers})


def _witness_workload_pass():
    """The 18 searches of the witness workload, each re-verified from its
    JSON."""
    for g, alphas in WITNESS_WORKLOAD:
        for alpha in alphas:
            for family in ("plain", "odd", "even"):
                w = find_counterexample(g, alpha, family, seed=1)
                assert WitnessReport.from_json(json.loads(json.dumps(w.to_json()))).verify()


def test_a_witness_workload_pass_builds_each_factor_gram_once():
    # the plain, odd and even searches at one alpha share one proof, and
    # each re-verification reads the search's Gram. The 6 graph and alpha
    # pairs make 6 proofs of 4 distinct blocks F[U]: band(10, 5) at 4.5 and
    # 4.95 and band(14, 6) at 4.75 share one 7 x 2 closed form. So 4 Gram
    # builds of 24 reads (6 proofs, 18 re-verifications), and 6 proofs of
    # 18 searches
    _clear_certificate_memos()
    _witness_workload_pass()
    info = exponents._exact_gram.cache_info()
    assert (info.misses, info.hits) == (4, 20)
    assert info.maxsize == exponents.GRAM_MEMO
    info = exponents._certified_block.cache_info()
    assert (info.misses, info.hits) == (6, 12)
    assert info.maxsize == exponents.CERTIFICATE_MEMO


def test_a_shared_support_block_puts_its_test_vector_at_the_callers_rows():
    # band(10, 5) and band(14, 6) at 4.75 border the same 7 x 2 block, on
    # vertices 1-7 and on 1-6 and 8 (their near-complete subgraphs): the
    # second search reads the first's proof, and its report is the one a
    # cold process writes, its test vector on the rows of its own support
    def band_14_6_report():
        w = find_counterexample(band(14, 6), 4.75, "odd", seed=1)
        return w, json.dumps(w.to_json(), sort_keys=True)

    _clear_certificate_memos()
    _, cold = band_14_6_report()
    _clear_certificate_memos()
    find_counterexample(band(10, 5), 4.75, "plain", seed=1)
    w, warm = band_14_6_report()
    info = exponents._certified_block.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert info.maxsize == exponents.CERTIFICATE_MEMO
    assert warm == cold
    assert WitnessReport.from_json(json.loads(warm)).verify()
    assert w.support == (1, 2, 3, 4, 5, 6, 8)
    assert w.certificate.factor.shape == (7, 2) and w.certificate.factor.any(axis=1).all()
    assert len(w.certificate.test_vector) == 7 and all(map(Decimal, w.certificate.test_vector))


def test_a_proof_is_memoized_per_alpha_and_starting_digits():
    # one block at two powers, and at one power from two starting digits:
    # three proofs, each the one a cold memo makes
    factor = bordered_factor(np.ones(5), BORDER_SCALE * np.linspace(1.0, 2.0, 5))
    cases = [(4.5, 45), (4.95, 45), (4.5, 20)]
    cold = []
    for alpha, digits in cases:
        _clear_certificate_memos()
        cert, lam = _interval_certificate(factor, alpha, digits)
        cold.append((cert.test_vector, cert.digits, lam))
    _clear_certificate_memos()
    warm = [(cert.test_vector, cert.digits, lam)
            for cert, lam in (_interval_certificate(factor, *case) for case in cases)]
    assert warm == cold and len(set(cold)) == 3
    assert cold[0][1] != cold[2][1]
    assert exponents._certified_block.cache_info().misses == 3


def test_memoized_ends_do_not_change_a_verdict():
    # verify() and the bound itself read the same with a cold memo and with
    # one the search has just filled; a tampered test vector still fails
    _clear_certificate_memos()
    data = json.loads(json.dumps(_interval_report()))  # the search fills the memo
    warm = WitnessReport.from_json(data)
    warm_bound = warm.certificate.upper_bound(warm.alpha)
    assert warm.verify()
    bad = json.loads(json.dumps(data))
    x = bad["certificate"]["test_vector"]
    x[0] = x[0][1:] if x[0].startswith("-") else "-" + x[0]
    assert not WitnessReport.from_json(bad).verify()
    _unit_test_vector(bad)
    assert not WitnessReport.from_json(bad).verify()
    _clear_certificate_memos()
    cold = WitnessReport.from_json(data)
    assert cold.certificate.upper_bound(cold.alpha) == warm_bound < 0
    assert cold.verify()
    _clear_certificate_memos()
    assert not WitnessReport.from_json(bad).verify()


def test_image_end_memo_stays_within_its_bound():
    _clear_certificate_memos()
    bound = exponents.IMAGE_END_MEMO
    for k in range(bound + 10):
        exponents._power_ends(Decimal(1 + k / 2**20), 2.5, 20)
    for memo in (exponents._power_ends, exponents._log):
        info = memo.cache_info()
        assert info.maxsize == bound and info.currsize == bound
    _clear_certificate_memos()


# sha256 of the canonical bytes (sorted keys, no spaces) of the report in
# its dense form (dense_report_json), recorded before the generator was
# built lazily: the signed pairs and the samples still read
# np.random.default_rng(seed) in the same order. The first pin was taken
# again when reports came to be kept on their support: the n x n Gram of
# that pair had -0.0 on its zero row, where dense() pads with 0.0, and its
# least image eigenvalue, now of the 5 x 5 block, moved in its last bits
RNG_STREAM_PINS = [
    (complete(6), 2.0, "odd", None, 3, "rank_one_bordered",
     "e758b500d108e48be9141c6568cf2f0be9cdba8ee95854b5cde0db51f997f9f3"),
    (complete(6), 3.0, "even", None, 3, "rank_one_bordered",
     "0f15d75acb870217c4bf6e8957118b02e4afda70a0c2348cfce48a42bfca06a0"),
    # ten signed pairs miss, then the clique-sum samples hit
    (complete(7), 4.0, "odd", 10, 4, "random_sample",
     "6722e4497b59ee32ddb41ef5786698589f69727791dda9513ab6f67a05fe049c"),
]


@pytest.mark.parametrize("g, alpha, family, budget, seed, construction, sha256", RNG_STREAM_PINS,
                         ids=["pairs-odd", "pairs-even", "pairs-then-samples"])
def test_seeded_draws_read_the_pinned_stream(g, alpha, family, budget, seed, construction,
                                             sha256):
    w = find_counterexample(g, alpha, family, budget=budget, seed=seed)
    payload = json.dumps(dense_report_json(w, g), sort_keys=True, separators=(",", ":")).encode()
    assert w.construction == construction
    assert hashlib.sha256(payload).hexdigest() == sha256


def _exact(x):
    """An mpf as an exact fraction."""
    return (-1 if x < 0 else 1) * x.man * Fraction(2) ** x.exp


def _exact_form(b, x):
    xs = [_exact(v) for v in x]
    return sum(_exact(bij) * xs[i] * xs[j]
               for i, row in enumerate(b) for j, bij in enumerate(row))


# (m, alpha) with alpha in (m - 1, m): the closed form at alpha uses m
CLOSED_FORM_POWERS = st.integers(1, 12).flatmap(lambda m: st.tuples(
    st.just(m),
    st.one_of(st.floats(m - 1, m, exclude_min=True, exclude_max=True),
              st.sampled_from([m - 1 + 1 / 16, m - 1 / 16, m - 1e-4]))))


@settings(max_examples=40, deadline=None)
@given(CLOSED_FORM_POWERS)
def test_closed_form_certificate_from_the_pivot_vector(case):
    m, alpha = case
    assume(not float(alpha).is_integer())
    factor = bordered_factor(np.ones(m), BORDER_SCALE * np.linspace(1.0, 2.0, m))
    proved = _interval_certificate(factor, alpha, 20 + 5 * m)
    assert proved is not None
    cert, lam = proved
    mp = MPContext()
    mp.dps = cert.digits
    image = _image_rows(mp, factor, alpha)
    # the noise floor of an L D L^T at this precision
    noise = len(image) * mp.eps * max(sum(abs(v) for v in row) for row in image)
    # the test vector's form, summed exactly, is the negative pivot
    x, pivot = _negative_pivot_vector(mp, image)
    form = _exact_form(image, x)
    assert pivot < 0 and form < 0
    assert abs(form - _exact(pivot)) <= _exact(noise) * max(abs(_exact(v)) for v in x) ** 2
    # the reported eigenvalue is the least one of a full eigensolve, to
    # float precision where the working precision resolves it
    least = min(mp.eigsy(mp.matrix(image))[0])
    assert abs(lam - least) <= abs(least) * 2**-52 + 8 * noise
    # the inertia count rejects a shift just above it and accepts one below
    gap = abs(least) * mp.mpf(2) ** -40 + 16 * noise
    assert _negative_pivot_vector(mp, image, least + gap) is not None
    assert _negative_pivot_vector(mp, image, least - gap) is None


def _mpmath_point_route(factor, alpha, digits):
    """The certificate search with its point arithmetic on mpmath, on the
    point image of mpmath numbers: (digits, test vector, least eigenvalue at
    that precision, whether its noise floor resolves it to float
    precision)."""
    while digits <= exponents.CERTIFICATE_MAX_DIGITS:
        mp = MPContext()
        mp.dps = digits
        image = _image_rows(mp, factor, alpha)
        found = _negative_pivot_vector(mp, image)
        if found is not None:
            x = tuple(mp.nstr(v, digits) for v in found[0])
            if IntervalCertificate(factor, x, digits).upper_bound(alpha) < 0:
                lam = _least_eigenvalue(mp, image, found[0])
                if lam is not None:
                    return digits, x, lam, _noise_floor(mp, image) <= abs(lam) * 2.0**-53
        digits *= 2
    return None


@settings(max_examples=40, deadline=None)
@given(CLOSED_FORM_POWERS)
def test_decimal_point_route_agrees_with_the_mpmath_one(case):
    m, alpha = case
    assume(not float(alpha).is_integer())
    factor = bordered_factor(np.ones(m), BORDER_SCALE * np.linspace(1.0, 2.0, m))
    cert, lam = _interval_certificate(factor, alpha, 20 + 5 * m)
    digits, x, least, resolved = _mpmath_point_route(factor, alpha, 20 + 5 * m)
    assert cert.digits == digits
    assert cert.upper_bound(alpha) < 0
    assert IntervalCertificate(factor, x, digits).upper_bound(alpha) < 0
    if resolved:
        assert abs(lam - float(least)) <= abs(least) * 2**-52


@pytest.mark.parametrize("digits", [25, 55, 210])
def test_decimal_context_eps_is_the_gap_above_one(digits):
    # as mpmath's eps: the gap between 1 and the next number at the
    # working precision, which the context's arithmetic rounds to
    ctx = exponents._DecimalContext(digits)
    with ctx.local():
        assert ctx.one + ctx.eps > ctx.one
        assert ctx.one + ctx.eps / 4 == ctx.one


# a Gram entry is a sum of products of floats, so it can carry up to 106
# bits and more
GRAM_ENTRIES = st.one_of(
    st.floats(1e-3, 1 - 2**-40),  # s < 1
    st.just(1.0),
    st.floats(1 + 2**-40, 50.0),  # s > 1
    st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)))


def _gram_entry(s):
    """A float, or the product of a pair of floats, as an exact decimal and
    as an exact mpf."""
    if isinstance(s, tuple):
        exact = exponents._exact_context().multiply(Decimal(s[0]), Decimal(s[1]))
        return exact, mpf_mul(from_float(s[0]), from_float(s[1]))
    return Decimal(s), from_float(s)


def _iv_power(s, alpha, digits):
    """The ends of mpmath.iv's s ** alpha at `digits` digits, as exact
    fractions."""
    iv = _iv(digits)
    power = iv.make_mpf((s, s)) ** iv.mpf(alpha)
    return tuple(_exact(MPContext().make_mpf(end)) for end in power._mpi_)


@settings(max_examples=80, deadline=None)
@given(st.floats(-12.0, 12.0), GRAM_ENTRIES, st.sampled_from([20, 55, 110, 480]))
@example(-0.75, 0.5, 480)
@example(2.25, 1.0, 20)
@example(6.5, (0.56, 1.12), 55)
@example(-10.222663396470264, 7.715256353760618, 20)
@example(-11.565768392628678, 10.04344971902653, 110)
@example(11.9, 1e-3, 20)
@example(0.0, 3.7, 55)
def test_power_ends_bracket_the_iv_power_at_twice_the_digits(alpha, s, digits):
    # the iv enclosure at twice the digits is far narrower than the ends'
    # error bound, 2 (|y| + 1) 10^(1-p) of the power with y = alpha ln s,
    # so the ends hold it; they lie within that bound and an outward
    # rounding, one unit of the p-th digit, of the power
    exact, mp_s = _gram_entry(s)
    low, high = exponents._power_ends(exact, alpha, digits)
    want_low, want_high = _iv_power(mp_s, alpha, 2 * digits)
    assert Fraction(low) <= want_low <= want_high <= Fraction(high)
    p = digits + exponents.GUARD_DIGITS
    y = abs(alpha * math.log(float(exact)))
    assert Fraction(high) - Fraction(low) <= (
        want_high * Fraction(7 * math.ceil(y + 1)) / 10 ** (p - 1))


def test_logarithms_are_memoized_per_precision():
    # one ln per (s, precision): an ln kept from 20 digits would leave the
    # 480-digit ends some 460 digits short of their bound
    _clear_certificate_memos()
    exact, mp_s = _gram_entry((0.56, 1.12))
    for digits in (20, 480, 20):
        low, high = exponents._power_ends(exact, 6.5, digits)
        want_low, want_high = _iv_power(mp_s, 6.5, 2 * digits)
        assert Fraction(low) <= want_low <= want_high <= Fraction(high)
    assert exponents._log.cache_info().currsize == 2


#: the digits p = digits + GUARD_DIGITS of the power ends' ln and exp
LN_EXP_DIGITS = st.integers(4, exponents.CERTIFICATE_MAX_DIGITS + exponents.GUARD_DIGITS)
#: |y| of the exp the power ends take, up to the exponent limit
IMAGE_EXPONENTS = st.floats(-exponents.IMAGE_EXPONENT_LIMIT * math.log(2),
                            exponents.IMAGE_EXPONENT_LIMIT * math.log(2))
FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(FINITE_FLOATS, FINITE_FLOATS), min_size=1, max_size=3),
       IMAGE_EXPONENTS, LN_EXP_DIGITS)
@example([(1e300, 1e300)], 2**16 * math.log(2), 483)
@example([(5e-324, 5e-324), (5e-324, 1e-300)], -2**16 * math.log(2), 483)
@example([(1e-300, 1e-300), (1.0, 1.0)], 1e-300, 20)
@example([(1 + 2**-52, 1 - 2**-53)], -0.5, 4)
@example([(0.56, 1.12), (-0.7, 0.9)], 36.5, 53)
def test_integer_ln_and_exp_are_decimals_or_defer(pairs, y, p):
    # verify() reads its factors from outside JSON, so a Gram entry may be a
    # subnormal product, about 1e+-600, next to 1, zero or negative; the
    # kernel's answer is decimal's, coefficient and exponent, or None
    exact = exponents._exact_context()
    s = sum((exact.multiply(Decimal(a), Decimal(b)) for a, b in pairs), Decimal(0))
    context = exponents._context(p)
    got = _ln_exp.ln(s, p)
    if s <= 0:
        assert got is None
    elif got is not None:
        assert str(got) == str(context.ln(s))
    y = context.create_decimal_from_float(y)
    got = _ln_exp.exp(y, p)
    assert got is None or str(got) == str(context.exp(y))


@settings(max_examples=60, deadline=None)
@given(LN_EXP_DIGITS, st.integers(0, 3), st.booleans(), st.data())
def test_integer_ln_and_exp_next_to_a_rounding_tie_defer_or_agree(p, shift, negative, data):
    # t, of p + 1 digits ending in 5, is a tie of the p-digit rounding;
    # e^y and ln s lie within 10^-(p + 37) of it, far inside the kernel's
    # error bound, so it must defer or, were its bound too small, round to
    # the side it computed, which is decimal's side only by chance
    q = data.draw(st.integers(10 ** (p - 1), 10**p - 1))
    tie = Decimal(f"{q}5E-{p + shift}")
    wide, context = exponents._context(p + 40), exponents._context(p)
    y = wide.ln(tie)
    got = _ln_exp.exp(y, p)
    assert got is None or str(got) == str(context.exp(y))
    s = wide.exp(-tie if negative else tie)
    got = _ln_exp.ln(s, p)
    assert got is None or str(got) == str(context.ln(s))


def _random_test_vector(rng, n, digits):
    return tuple(format(Decimal(int(rng.integers(-10**9, 10**9))).scaleb(-9) *
                        Decimal(int(rng.integers(1, 10**9))), f".{digits}g")
                 for _ in range(n))


@settings(max_examples=30, deadline=None)
@given(CLOSED_FORM_POWERS, st.integers(0, 2**32 - 1))
@example((7, 6.5), 0)
def test_upper_bound_never_lies_below_the_iv_enclosure(case, seed):
    # for the certificate's own test vector and for random ones of both
    # signs (so both ends of the entries are read): the bound is at least
    # the lower end of a finer iv enclosure of the form, and no looser than
    # the iv enclosure at the certificate's precision, up to the rounding of
    # its own sum at 2 digits + 1 digits
    m, alpha = case
    assume(not float(alpha).is_integer())
    factor = bordered_factor(np.ones(m), BORDER_SCALE * np.linspace(1.0, 2.0, m))
    cert, _ = _interval_certificate(factor, alpha, 20 + 5 * m)
    rng = np.random.default_rng(seed)
    for x in [cert.test_vector, _random_test_vector(rng, m + 2, cert.digits)]:
        bound = IntervalCertificate(factor, x, cert.digits).upper_bound(alpha)
        for digits in (cert.digits, 4 * cert.digits):
            iv = _iv(digits)
            image = _image_rows(iv, factor, alpha)
            xs = [iv.mpf(v) for v in x]
            form = sum((image[i][j] * xs[i] * xs[j] for i in range(m + 2) for j in range(m + 2)),
                       iv.mpf(0))
            low, high = (_exact(MPContext().make_mpf(end)) for end in form._mpi_)
            assert Fraction(bound) >= low
            if digits == cert.digits:
                size = sum(abs(_exact(MPContext().make_mpf(image[i][j]._mpi_[1])) *
                               Fraction(Decimal(x[i])) * Fraction(Decimal(x[j])))
                           for i in range(m + 2) for j in range(m + 2))
                assert Fraction(bound) <= high + size * Fraction(1, 10 ** (2 * digits))


@pytest.mark.parametrize("m, alpha", [(5, 4.5), (7, 6.5), (12, 11.5)])
def test_point_image_is_the_rounded_lower_end_of_the_interval_image(m, alpha):
    # each entry is the lower power end rounded once to the digits, so it
    # lies within one unit of the last digit of the iv image at twice them,
    # whose Gram entries are exact for these factors
    digits = 20 + 5 * m
    factor = bordered_factor(np.ones(m), BORDER_SCALE * np.linspace(1.0, 2.0, m))
    image = _image_rows(_iv(2 * digits), factor, alpha)
    gram = exponents._gram(factor)
    ctx, point = exponents._point_image(gram, alpha, digits, m + 2)
    assert ctx.dps == digits
    ends = {ij: exponents._power_ends(s, alpha, digits) for ij, s in gram.items()}
    for i, row in enumerate(point):
        for j, entry in enumerate(row):
            assert entry == ctx.mpf(ends.get((min(i, j), max(i, j)), (0,))[0])
            want = _exact(MPContext().make_mpf(image[i][j]._mpi_[0]))
            assert abs(Fraction(entry) - want) <= want * Fraction(10) ** (1 - digits)


def test_search_computes_at_most_one_exp_per_gram_entry_per_precision(monkeypatch):
    # one ulp below 2 the image is nearly singular: the certificate holds
    # at 30 digits and the eigenvalue is resolved at 60 and more; each
    # precision takes one exp per Gram entry for both ends of its power
    calls, powers = _count_exps_and_logs(monkeypatch)
    w = find_counterexample(complete(4), float(np.nextafter(2, 0)), "plain", seed=1)
    assert w.certificate.digits == 30
    entries = len(exponents._gram(w.certificate.factor))
    exps = {}
    for name, prec, _ in calls:
        if name == "exp":
            exps[prec] = exps.get(prec, 0) + 1
    assert len(exps) >= 2
    assert list(exps) == [30 * 2**k + exponents.GUARD_DIGITS for k in range(len(exps))]
    assert all(count <= entries for count in exps.values())
    assert sum(exps.values()) <= len(powers)


@pytest.mark.parametrize("n", [3, 4])
def test_certified_eigenvalue_next_to_an_integer_has_float_precision(n):
    # one ulp below n - 2 the image is nearly singular: its starting digits
    # resolve the least eigenvalue to 10-13 significant digits only, so it
    # is recomputed at more; the certificate keeps its precision
    alpha = float(np.nextafter(n - 2, 0))
    w = find_counterexample(complete(n), alpha, "plain", seed=1)
    assert w.certificate is not None and w.certificate.digits == 20 + 5 * (n - 2)
    assert w.verify()
    mp = MPContext()
    mp.dps = 60
    least = float(min(mp.eigsy(mp.matrix(_image_rows(mp, w.certificate.factor, alpha)))[0]))
    assert abs(w.image_min_eigenvalue - least) <= abs(least) * 2**-52


@pytest.mark.parametrize("rows, least", [
    ([[0, 1], [1, 0]], 0),
    ([[1, 1, 1], [1, 1, 2], [1, 2, 1]], 0),  # the Schur block after one pivot is [[0, 1], [1, 0]]
    ([[0, 0], [0, 0]], 0),
    ([[2, 0, 1], [0, -1, 0], [1, 0, 0]], -1),  # Schur diagonal -1 and -1/2 after one pivot
])
def test_negative_pivot_vector_without_a_positive_diagonal(rows, least):
    # no positive pivot left: the vector picks the least Schur diagonal
    # entry, and its form is that entry exactly
    mp = MPContext()
    mp.dps = 30
    b = [[mp.mpf(v) for v in row] for row in rows]
    x, pivot = _negative_pivot_vector(mp, b)
    assert pivot == least and _exact_form(b, x) == least


def test_least_eigenvalue_reseeds_past_another_eigenvalue():
    # Rayleigh-quotient iteration from the pivot vector e_1 does not reach
    # the least eigenvalue here; the inertia check's vector reseeds it
    mp = MPContext()
    mp.dps = 30
    b = [[mp.mpf(v) for v in row] for row in [[-8, 5, 5], [5, -6, -8], [5, -8, 0]]]
    x, _ = _negative_pivot_vector(mp, b)
    least = min(mp.eigsy(mp.matrix(b))[0])
    assert abs(_rayleigh_iteration(mp, b, x, 0)[0] - least) > 1
    assert abs(_least_eigenvalue(mp, b, x) - least) <= abs(least) * mp.mpf(2) ** -60


def _interval_report():
    w = find_counterexample(near_complete(9), 6.5, "plain", seed=1)
    assert w.certificate is not None and w.verify()
    return w.to_json()


def _bump_factor(data):
    data["certificate"]["factor"][1][3] *= 1.001


def _unit_test_vector(data):
    data["certificate"]["test_vector"] = ["1"] * len(data["certificate"]["test_vector"])


def _integer_alpha(data):
    data["alpha"] = 7.0


def _unknown_family(data):
    data["family"] = "absolute"


def _bump_matrix_entry(data):
    # the report in its dense form, whose stored matrix is no longer F F^T
    dense = dense_report_json(WitnessReport.from_json(data), near_complete(9))
    rows = dense["matrix"]["rows"]
    rows[2][3] = rows[3][2] = float(np.nextafter(rows[2][3], 2.0))
    data.clear()
    data.update(dense)


def _too_many_digits(data):
    data["certificate"]["digits"] = 10**6


@pytest.mark.parametrize("tamper", [_bump_factor, _unit_test_vector, _integer_alpha,
                                    _unknown_family, _bump_matrix_entry,
                                    _too_many_digits])
def test_tampered_interval_certificate_fails(tamper):
    data = _interval_report()
    tamper(data)
    assert not WitnessReport.from_json(data).verify()


@pytest.mark.parametrize("entry", ["abc", "nan", "inf", "-Infinity", "1_0", " 1 ", "0x10",
                                   "", "1/3", "1e999999"])
def test_junk_test_vector_entries_fail_verification(entry):
    # Decimal itself accepts some of these (NaN, infinity, underscores,
    # spaces); the entry sits on a row of F, so the bound reads it
    data = _interval_report()
    data["certificate"]["test_vector"][1] = entry
    assert not WitnessReport.from_json(data).verify()


def test_a_test_vector_entry_in_other_digits_fails_verification():
    # Decimal reads fullwidth digits as the same number, so only the plain
    # decimal-literal check turns the report down
    data = _interval_report()
    x = data["certificate"]["test_vector"]
    x[1] = x[1].translate(str.maketrans("0123456789", "０１２３４５６７８９"))
    assert Decimal(x[1]) == Decimal(_interval_report()["certificate"]["test_vector"][1])
    assert not WitnessReport.from_json(data).verify()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.decimals(-10, 10, allow_nan=False, places=30), min_size=2, max_size=2),
       st.decimals(-10, 10, allow_nan=False, places=30), st.integers(1, 6),
       st.floats(-3.0, 3.0))
@example([Decimal("1.00000000000000000001"), Decimal(-1)], Decimal(0), 5, 0.5)
def test_upper_bound_rounds_up_past_its_precision(pair, last, digits, alpha):
    # every Gram entry of F = [[1, 0], [1, 0], [0, 1]] is 1, so both ends of
    # every image entry are exactly 1 and the form is (x_0 + x_1)^2 + x_2^2;
    # x has more digits than the sum keeps, so only rounding up bounds it
    factor = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    x = [*pair, last]
    bound = IntervalCertificate(factor, tuple(str(v) for v in x), digits).upper_bound(alpha)
    exact = (Fraction(x[0]) + Fraction(x[1])) ** 2 + Fraction(x[2]) ** 2
    assert Fraction(bound) >= exact


@pytest.mark.parametrize("alpha", [1e300, -1e300])
def test_image_ends_past_the_exponent_limit_take_their_trivial_bounds(alpha):
    # 1.5^alpha has a binary exponent of about 0.58 alpha: read exactly as a
    # decimal it would have that many digits, so its ends are 0 and infinity
    assert exponents._power_ends(Decimal(1.5), alpha, 20) == (0, Decimal("Infinity"))
    # the limit is |alpha ln s| = 2^16 ln 2: just past it the ends are
    # trivial too, and just inside it they are finite
    edge = math.copysign(2**16 * math.log(2) / math.log(1.5), alpha)
    assert exponents._power_ends(Decimal(1.5), edge * 1.001, 20) == (0, Decimal("Infinity"))
    low, high = exponents._power_ends(Decimal(1.5), edge * 0.999, 20)
    assert 0 < low < high < Decimal("Infinity")
    data = _interval_report()
    data["alpha"] = alpha
    assert not WitnessReport.from_json(data).verify()


def test_float_route_report_without_certificate_still_verifies():
    # written before interval certificates existed: no certificate field
    data = json.loads((FIXTURES / "witness_float_route.json").read_text())
    assert "certificate" not in data
    assert WitnessReport.from_json(data).verify()


def _float_route_report():
    return json.loads((FIXTURES / "witness_float_route.json").read_text())


def test_float_route_rejects_an_entry_on_a_non_edge():
    # the matrix stays PSD and its image does not: only the pattern check
    # sees the 1-2 entry once the graph loses that edge
    data = _float_route_report()
    assert data["matrix"]["rows"][0][1] != 0
    data["graph"]["edges"].remove([1, 2])
    assert not WitnessReport.from_json(data).verify()


def test_interval_certificate_rejects_a_column_across_a_non_edge():
    # the bound is still negative: only the clique-support check sees a
    # column spanning the removed edge of G[U]
    data = _interval_report()
    a, b = (data["support"][k] for k in np.flatnonzero(data["certificate"]["factor"][0])[:2])
    data["edges"].remove([a, b])
    assert not WitnessReport.from_json(data).verify()


@pytest.mark.parametrize("report", [_float_route_report, _interval_report])
def test_a_report_whose_graph_has_another_order_fails_verification(report):
    # a dense report whose graph and matrix orders differ does not load;
    # a report kept on its support fails once a label lies past n
    data = report()
    if "support" in data:
        data = dense_report_json(WitnessReport.from_json(data), near_complete(9))
    data["graph"]["n"] += 1
    with pytest.raises(ValueError, match="bad witness JSON: a matrix of order"):
        WitnessReport.from_json(data)
    data["graph"]["n"] -= 1
    w = WitnessReport.from_json(data)
    assert w.verify()
    assert not dataclasses.replace(w, n=w.support[-1] - 1).verify()


@pytest.mark.parametrize("report", [_float_route_report, _interval_report])
def test_a_non_symmetric_report_matrix_fails_verification(report):
    # the JSON loader turns a non-symmetric matrix down itself, so the
    # report is built around one; beside a certificate, a matrix is a
    # second proof, which fails however it reads
    w = WitnessReport.from_json(report())
    rows = np.array(w.support) - 1
    m = w.dense()[np.ix_(rows, rows)]
    if w.certificate is not None:
        assert not dataclasses.replace(w, matrix=m).verify()
    m[0, 1] += 1.0
    assert not dataclasses.replace(w, matrix=m).verify()


def test_a_plain_power_of_a_matrix_with_negative_entries_fails_verification():
    # flipping the sign of vertex 1 keeps the matrix PSD and, for odd powers,
    # the image not PSD; plain powers are not defined on it
    data = _float_route_report()
    rows = data["matrix"]["rows"]
    for k in range(1, len(rows)):
        rows[0][k] = rows[k][0] = -rows[0][k]
    assert data["family"] == "odd" and WitnessReport.from_json(data).verify()
    data["family"] = "plain"
    assert not WitnessReport.from_json(data).verify()


@pytest.mark.parametrize("field", ["factor", "test_vector"])
def test_an_interval_certificate_of_another_shape_fails_verification(field):
    # a zero column adds nothing to F F^T and a trailing entry sits on no row
    # of F, so only the shape check turns these down
    data = _interval_report()
    cert = data["certificate"]
    cert[field].append([0.0] * len(cert["test_vector"]) if field == "factor" else "1")
    assert not WitnessReport.from_json(data).verify()


def _python(*args):
    """Standard output of a fresh interpreter importing from this src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], check=True, env=env,
                          stdout=subprocess.PIPE, text=True).stdout


def test_import_does_not_load_scipy():
    _python("-c", "import hadamard_powers, sys; assert 'scipy' not in sys.modules")


def test_searches_that_draw_nothing_do_not_load_numpy_random():
    # the closed form and a walk over proven powers build no generator
    _python("-c", "import sys; from hadamard_powers.cli import main; "
                  "assert main(['witness', '--family', 'near-complete', '--n', '9', "
                  "'--alpha', '6.5']) == 0; "
                  "assert main(['ce', '--family', 'cycle', '--n', '20']) == 0; "
                  "assert 'numpy.random' not in sys.modules")


def test_exact_routes_do_not_load_decimal():
    # only the interval certificate's point arithmetic needs it
    _python("-c", "import sys; from hadamard_powers.cli import main; "
                  "assert main(['ce', '--family', 'random-chordal', '--n', '200']) == 0; "
                  "assert main(['families', '--max-n', '6']) == 0; "
                  "assert 'decimal' not in sys.modules")


# --- no run-time mpmath: certificates run on stdlib decimal --------------------


def test_import_leaves_the_mpmath_package_unloaded():
    _python("-c", "import sys; from hadamard_powers.cli import main; "
                  "assert main(['witness', '--family', 'near-complete', '--n', '9', "
                  "'--alpha', '6.5']) == 0; "
                  "assert 'mpmath' not in sys.modules")


# argv[1]: "blocked" makes `import mpmath` fail before hadamard_powers loads,
# "first" imports mpmath before it. Prints the near_complete(9) witness
# reports and whether each re-verifies from its JSON.
_REPORT_PROBE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["mpmath"] = None
else:
    import mpmath
from hadamard_powers.exponents import WitnessReport, find_counterexample
from hadamard_powers.graphs import near_complete
reports = [find_counterexample(near_complete(9), alpha, family, seed=1).to_json()
           for alpha in (6.5, 5.75) for family in ("plain", "odd", "even")]
print(json.dumps([[r, WitnessReport.from_json(r).verify()] for r in reports]))
"""


@pytest.mark.parametrize("order", ["blocked", "first"])
def test_certificates_need_no_mpmath(order):
    # the reports are this process's, mpmath loaded here by the tests
    got = json.loads(_python("-c", _REPORT_PROBE, order))
    want = [find_counterexample(near_complete(9), alpha, family, seed=1).to_json()
            for alpha in (6.5, 5.75) for family in ("plain", "odd", "even")]
    assert got == [[report, True] for report in json.loads(json.dumps(want))]


def test_reports_written_with_binary_power_ends_still_verify():
    # written while the power ends came from mpmath's binary interval
    # kernel: the six distinct reports of the witness workload and
    # complete(20) at 17.5, each with the test vector that arithmetic found
    reports = json.loads((FIXTURES / "witness_mpmath_end_reports.json").read_text())
    assert [(r["graph"]["n"], r["alpha"]) for r in reports] == [
        (10, 4.5), (10, 4.95), (14, 5.5), (14, 4.75), (9, 6.5), (9, 5.75), (20, 17.5)]
    _clear_certificate_memos()
    for data in reports:
        assert WitnessReport.from_json(data).verify(), (data["graph"]["n"], data["alpha"])


# --- witness reports kept on their support -------------------------------------


_LATTICE_MIN_POWER = {"plain": 1.0, "odd": 1.0, "even": 2.0}


def _check_against_the_dense_report(g, alpha, family, budget, seed):
    """The report round-trips through JSON; verify() and the dense oracle
    agree, on the witness and at a power of the family's lattice, where the
    image is PSD; dense() is the n x n matrix the searches built, up to the
    sign of its zeros: a signed pair's n x n Gram held -0.0 products on the
    rows outside (v1, S, v2)."""
    w = find_counterexample(g, alpha, family, budget=budget, seed=seed)
    if w is None:
        return None
    data = json.loads(json.dumps(w.to_json()))
    back = WitnessReport.from_json(data)
    assert back.to_json() == data
    assert list(back.support) == sorted(set(back.support)) and len(back.support) <= g.n
    for power in (alpha, _LATTICE_MIN_POWER[family]):
        report = dataclasses.replace(back, alpha=power)
        assert report.verify() == verify_dense(dense_report_json(report, g)) == (power == alpha)
    old = dense_witness_matrix(g, alpha, family, budget or 200, seed) if g.n >= 2 else None
    if old is None:
        assert w.construction == "random_sample" and w.support == tuple(g.vertices)
        old = w.matrix
    assert (old + 0.0).tobytes() == back.dense().tobytes()
    return w


# a non-integer power, or an integer one (off the lattice once filtered)
OFF_LATTICE_POWERS = st.one_of(
    st.builds(lambda k, f: k + f, st.integers(-1, 11), st.floats(1 / 64, 1 - 1 / 64)),
    st.integers(0, 12).map(float))


@settings(max_examples=150, deadline=None)
@given(chordal_graphs(), st.sampled_from(["plain", "odd", "even"]), OFF_LATTICE_POWERS)
@example(complete(7), "plain", 4.9375)  # certified by interval arithmetic
@example(complete(6), "odd", 2.0)  # a signed pair
def test_a_report_on_its_support_is_the_dense_report(g, family, alpha):
    assume(not exponents._lattice_contains(exponents._LATTICE_FOR_FAMILY[family], alpha))
    _check_against_the_dense_report(g, alpha, family, 20, 1)


@pytest.mark.parametrize("g, alpha, family, budget, seed, construction", [
    (cycle(4), 1.5, "even", None, 1, "signed_cycle"),
    (cycle(6), 1.0, "even", None, 1, "signed_cycle"),
    (complete(7), 4.0, "odd", 10, 4, "random_sample"),
])
def test_signed_cycle_and_sample_reports_are_the_dense_reports(g, alpha, family, budget, seed,
                                                              construction):
    w = _check_against_the_dense_report(g, alpha, family, budget, seed)
    assert w.construction == construction


def _float_support_report():
    # a bordered float-route witness on U = 1..5 of band(7, 3)
    w = find_counterexample(band(7, 3), 2.5, "odd", seed=2)
    assert w.certificate is None and w.support == (1, 2, 3, 4, 5) and w.verify()
    return w.to_json()


def _swap_first_two_rows(data):
    # the same witness, with U listed out of order
    s = data["support"]
    s[0], s[1] = s[1], s[0]
    if "matrix" in data:
        rows = data["matrix"]["rows"]
        rows[0], rows[1] = rows[1], rows[0]
        for row in rows:
            row[0], row[1] = row[1], row[0]
    else:
        cert = data["certificate"]
        for col in cert["factor"]:
            col[0], col[1] = col[1], col[0]
        x = cert["test_vector"]
        x[0], x[1] = x[1], x[0]


def _repeat_first_label(data):
    # a zero row and column for a second copy of U's first label
    data["support"].insert(0, data["support"][0])
    rows = data["matrix"]["rows"]
    for row in rows:
        row.insert(0, 0.0)
    rows.insert(0, [0.0] * len(rows[0]))
    data["matrix"]["n"] += 1


def _relabel(data, old, new):
    data["support"] = [new if v == old else v for v in data["support"]]
    data["edges"] = [[new if v == old else v for v in e] for e in data["edges"]]


def _drop_a_nonzero_block_edge(data):
    # the block stays PSD with a failing image: only G[U] loses the edge
    rows = data["matrix"]["rows"]
    a, b = next((a, b) for a, b in itertools.combinations(range(len(rows)), 2) if rows[a][b])
    data["edges"].remove([data["support"][a], data["support"][b]])


def _drop_a_factor_column_edge(data):
    a, b = (data["support"][k] for k in np.flatnonzero(data["certificate"]["factor"][1])[:2])
    data["edges"].remove([a, b])


SUPPORT_MUTATIONS = {
    "block-entry-on-a-non-edge": (_float_support_report, _drop_a_nonzero_block_edge),
    "label-past-n": (_float_support_report, lambda d: d.update(n=d["support"][-1] - 1)),
    "label-zero": (_float_support_report, lambda d: _relabel(d, 1, 0)),
    "labels-unsorted": (_float_support_report, _swap_first_two_rows),
    "labels-unsorted-certificate": (_interval_report, _swap_first_two_rows),
    "label-repeated": (_float_support_report, _repeat_first_label),
    "edge-leaves-the-support": (_float_support_report, lambda d: d["edges"].append([1, 7])),
    "self-loop": (_float_support_report, lambda d: d["edges"].append([2, 2])),
    "factor-column-off-a-clique": (_interval_report, _drop_a_factor_column_edge),
    "test-vector-too-long": (_interval_report,
                             lambda d: d["certificate"]["test_vector"].append("0")),
    "test-vector-too-short": (_interval_report,
                              lambda d: d["certificate"]["test_vector"].pop()),
    "two-proofs": (_interval_report, lambda d: d.update(
        matrix=matrix_to_json(WitnessReport.from_json(d).dense()[:9, :9]))),
    "no-proof": (_float_support_report, lambda d: d.pop("matrix")),
}


@pytest.mark.parametrize("mutation", SUPPORT_MUTATIONS)
def test_a_mutated_support_report_fails_verification(mutation):
    report, mutate = SUPPORT_MUTATIONS[mutation]
    data = report()
    assert WitnessReport.from_json(data).verify()
    mutate(data)
    assert not WitnessReport.from_json(json.loads(json.dumps(data))).verify()


@pytest.mark.parametrize("name", ["witness_float_route.json", "witness_mpmath_test_vector.json",
                                  "witness_mpmath_end_reports.json"])
def test_committed_dense_reports_verify_on_their_support(name):
    # each dense report is read on its nonzero rows; its support form
    # round-trips, verifies, and pads back to the stored matrix
    reports = json.loads((FIXTURES / name).read_text())
    for data in reports if isinstance(reports, list) else [reports]:
        w = WitnessReport.from_json(data)
        assert "graph" not in w.to_json() and w.verify()
        assert WitnessReport.from_json(json.loads(json.dumps(w.to_json()))).verify()
        stored = np.array(data["matrix"]["rows"])
        assert w.dense().tobytes() == (stored + 0.0).tobytes()
        assert len(w.support) == np.count_nonzero(stored.any(axis=1))
