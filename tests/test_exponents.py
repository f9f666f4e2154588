"""Symbolic power sets, critical exponents, witnesses, and brackets."""

import hashlib
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
from mpmath.libmp import from_float, mpf_mul, round_ceiling, round_floor

from hadamard_powers import chordal, exponents
from hadamard_powers.chordal import NotChordalError, is_chordal
from hadamard_powers.cones import bordered_factor
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
    bipartition,
    conjecture_scan,
    critical_exponent_clique_formula,
    estimate_ce_numeric,
    expected_hset,
    find_counterexample,
    hset_bipartite,
    hset_chordal,
    hset_complete,
    hset_cycle,
    superadditive_powers,
)
from hadamard_powers.graphs import (
    Graph,
    band,
    complete,
    complete_bipartite,
    cycle,
    generate,
    is_connected,
    max_near_complete_order,
    max_near_complete_order_fast,
    max_outerplanar,
    near_complete,
    path,
    random_chordal,
    random_tree,
    split_graph,
)

GRID = [k / 4 for k in range(1, 33)]  # rational grid for set comparisons


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
        for a in GRID:
            if h.inner.contains(a):
                assert h.outer.contains(a)


def test_hset_json_roundtrip():
    for h in [hset_complete(5, "plain"), hset_cycle(6, "even"),
              hset_bipartite(complete_bipartite(2, 3), "odd")]:
        assert HSet.from_json(json.loads(json.dumps(h.to_json()))) == h


def test_hset_validation():
    with pytest.raises(ValueError):
        HSet(lattice="primes", ray_start=1.0)
    with pytest.raises(ValueError):
        HSet(lattice="none", ray_start=-1.0)
    with pytest.raises(ValueError, match="partial"):
        HSet(lattice="none", ray_start=1.0, exact=False)


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


def test_hset_chordal_examples():
    for seed in range(3):
        assert hset_chordal(random_tree(7, seed=seed)).ray_start == 1.0
    for n in range(2, 8):
        assert hset_chordal(complete(n)) == hset_complete(n)
    for n, d in [(6, 2), (7, 3), (9, 4)]:
        assert hset_chordal(band(n, d)).ray_start == float(d)
    with pytest.raises(NotChordalError, match="estimate_ce_numeric"):
        hset_chordal(cycle(4))


def test_clique_formula_examples():
    assert critical_exponent_clique_formula(path(3)) == 1
    assert critical_exponent_clique_formula(complete(4)) == 2
    assert critical_exponent_clique_formula(near_complete(4)) == 2
    assert critical_exponent_clique_formula(Graph.from_edges(2, [])) == 0


def test_triple_agreement_sample():
    graphs = [complete(5), near_complete(6), band(7, 3), random_tree(7, seed=1),
              max_outerplanar(7), generate("apollonian", n=7, seed=3),
              split_graph(4, 3, 2, seed=2)]
    graphs += [random_chordal(3 + s % 5, density=0.55, seed=s) for s in range(60)]
    for g in graphs:
        ce = critical_exponent_clique_formula(g)
        assert ce == max_near_complete_order_fast(g) - 2
        assert ce == max_near_complete_order(g) - 2


# --- cycle and bipartite oracles ----------------------------------------------


def test_hset_cycle_examples():
    h = hset_cycle(5, "plain")
    assert h.exact and h.ray_start == 1.0 and h.lattice == "none"
    h = hset_cycle(4, "even")
    assert h.exact and h.ray_start == 2.0
    h = hset_cycle(6, "even")
    assert not h.exact and h.inner.ray_start == 2.0 and h.outer.ray_start == 1.0
    assert h.exclusions == (1.0,)
    assert hset_cycle(7, "even").exclusions == ()
    assert hset_cycle(3, "plain") == hset_complete(3, "plain")
    with pytest.raises(ValueError):
        hset_cycle(2, "plain")


def test_hset_bipartite_examples():
    assert hset_bipartite(complete_bipartite(3, 3), "plain") == HSet("none", 1.0)
    assert hset_bipartite(complete_bipartite(2, 3), "even") == HSet("none", 2.0)
    h = hset_bipartite(complete_bipartite(3, 3), "even")
    assert not h.exact and h.inner.ray_start == 2.0
    h = hset_bipartite(complete_bipartite(2, 3), "odd")
    assert not h.exact and h.inner.classify(1.0) == "in" == h.inner.classify(2.0)
    h = hset_bipartite(complete_bipartite(3, 3), "odd")
    assert h.inner.contains(1.0) and not h.inner.contains(2.5) and h.inner.contains(3.0)
    with pytest.raises(ValueError, match="bipartite"):
        hset_bipartite(complete(3))
    with pytest.raises(ValueError, match="connected"):
        hset_bipartite(Graph.from_edges(4, [(1, 2), (3, 4)]))


def test_bipartition():
    parts = bipartition(complete_bipartite(2, 3))
    assert sorted(map(sorted, parts)) == [[1, 2], [3, 4, 5]]
    assert bipartition(complete(3)) is None


def test_bipartite_two_by_many_detection_boundary():
    # one edge removed still sandwiches between K_{2,2} and K_{2,3}
    g = Graph.from_edges(5, [(1, 4), (1, 5), (2, 3), (2, 4), (2, 5)])
    assert hset_bipartite(g, "even") == HSet("none", 2.0)
    # a path on 4 vertices has a size-2 part but no doubly-covered pair
    assert not hset_bipartite(path(4), "even").exact


def test_chordal_and_bipartite_sets_never_conflict():
    # trees and paths are both chordal and bipartite
    for g in [path(4), random_tree(8, seed=5), complete_bipartite(1, 5)]:
        for family in ("plain", "odd", "even"):
            exact = hset_chordal(g, family)
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
    assert (h.inner.lattice, h.inner.ray_start) == ("naturals", 2.0)
    assert (h.outer.lattice, h.outer.ray_start) == ("naturals", 1.0)
    assert expected_hset(Graph.from_edges(1, [])) is None


def test_expected_hset_inner_bound_is_the_sandwich_when_it_beats_a_theorem():
    # a 6-cycle with a pendant vertex: bipartite, not a cycle, r = 3 and
    # r(H) = 4. In the odd family the sandwich's inner (2N-1) ∪ [2, ∞)
    # holds hset_bipartite's (2N-1) ∪ [3, ∞), so the union is the sandwich's
    g = Graph.from_edges(7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (6, 7)])
    assert (g.analysis.near_complete_order, g.analysis.triangulation[2]) == (3, 4)
    theorem = hset_bipartite(g, "odd").inner
    assert (theorem.lattice, theorem.ray_start) == ("odd", 3.0)
    h = expected_hset(g, "odd")
    assert h.describe() == "contains (2N-1) ∪ [2, ∞), contained in [1, ∞)"
    assert (h.inner.lattice, h.inner.ray_start) == ("odd", 2.0)
    assert h.inner != theorem


C5_AND_C4 = Graph.from_edges(9, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                 (6, 7), (7, 8), (8, 9), (6, 9)])


@pytest.mark.parametrize("family, ray", [("plain", 1.0), ("odd", 1.0), ("even", 2.0)])
def test_expected_hset_intersects_the_components_sets(family, ray):
    # the power set of a disjoint union is the intersection of its parts';
    # the two cycle theorems make it exact
    assert expected_hset(C5_AND_C4, family) == HSet(lattice="none", ray_start=ray)


def test_estimate_on_a_disjoint_union_of_cycles_skips_one_to_two():
    (lo, hi), searched = _searched_powers(C5_AND_C4, "plain", budget=10, seed=1)
    assert not [a for a in searched if 1 < a < 2]
    assert lo < hi <= 1 + STEP


EXACT_SETS = st.builds(HSet, st.sampled_from(["naturals", "odd", "even", "none"]),
                       st.integers(0, 24).map(lambda k: k / 4))


@settings(max_examples=200, deadline=None)
@given(EXACT_SETS, EXACT_SETS)
def test_inner_intersection_is_a_proven_part_of_the_intersection(a, b):
    got = exponents._inner_intersection(a, b)
    for x in GRID:
        assert not got.contains(x) or (a.contains(x) and b.contains(x)), x
    if exponents._subset(a, b) or exponents._subset(b, a):
        assert all(got.contains(x) == (a.contains(x) and b.contains(x)) for x in GRID)


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
        assert conforms_to_pattern(w.matrix, g)
        assert is_psd(w.matrix).is_psd


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
    lo, hi = estimate_ce_numeric(complete(4), seed=0)
    assert lo <= 2.0 <= hi and lo >= 1.5
    lo, hi = estimate_ce_numeric(cycle(5), seed=0)
    assert lo <= 1.0 <= hi


def test_estimate_lower_end_is_sound_on_chordal_graphs():
    # a verified witness proves non-membership, so the lower end can never
    # exceed the exact exponent
    for g in [random_tree(6, seed=1), band(6, 2), complete(5)]:
        lo, hi = estimate_ce_numeric(g, seed=0)
        ce = critical_exponent_clique_formula(g)
        assert lo <= ce <= hi


@pytest.mark.parametrize("step", [0.0, -0.5, float("nan"), float("inf")])
def test_estimate_rejects_bad_grid_step(step):
    with pytest.raises(ValueError, match="grid_step must be positive and finite"):
        estimate_ce_numeric(cycle(5), grid_step=step, seed=0)


def test_estimate_degenerate_two_vertices():
    assert estimate_ce_numeric(Graph.from_edges(2, [(1, 2)]), seed=0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        estimate_ce_numeric(Graph.from_edges(1, []), seed=0)


STEP = 1 / 16


CHORDAL_UP_TO_8 = st.one_of(
    st.builds(random_chordal, st.integers(3, 8), st.floats(0, 1), st.integers(0, 2**16)),
    st.integers(3, 8).flatmap(lambda n: st.builds(band, st.just(n), st.integers(1, n))))


@settings(max_examples=60, deadline=None)
@given(CHORDAL_UP_TO_8, st.sampled_from(["plain", "odd", "even"]), st.integers(0, 2**32 - 1))
@example(complete(8), "odd", 0)  # the interval-certified witness at 5.9375
@example(band(8, 4), "even", 0)
def test_estimate_on_chordal_graphs_searches_nothing_above_r_minus_2(g, family, rng_seed):
    # H = G: every grid power above r - 2 is proven, and the one below it is
    # the closed-form bordered witness, which draws nothing
    r = max_near_complete_order(g)
    assume(r >= 3)
    rng = np.random.default_rng(rng_seed)
    state = rng.bit_generator.state
    upper = min(r - 2 + STEP, g.n - 2)  # the grid ends at n - 2
    assert estimate_ce_numeric(g, family, seed=rng) == (r - 2 - STEP, upper)
    assert rng.bit_generator.state == state


GRAPHS_UP_TO_8 = st.integers(4, 8).flatmap(lambda n: st.builds(
    Graph.from_edges, st.just(n),
    st.sets(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]))))


def _grid(n):
    """The walk's grid: multiples of STEP in (0, n - 2] off the integers."""
    return [k * STEP for k in range(1, 16 * (n - 2) + 1) if k % 16]


def _searched_powers(g, *args, **kwargs):
    """estimate_ce_numeric's bracket and the powers it searched, in order."""
    searched = []

    def search(g, alpha, *search_args, **search_kwargs):
        searched.append(alpha)
        return find_counterexample(g, alpha, *search_args, **search_kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponents, "find_counterexample", search)
        return estimate_ce_numeric(g, *args, **kwargs), searched


def _proven(g, family):
    """The set of powers the walk skips: expected_hset's exact set or inner
    bound."""
    known = expected_hset(g, family)
    return known if known.exact else known.inner


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
    (lo, hi), searched = _searched_powers(g, family, budget=10, seed=1)
    assert lo < hi <= max(proven.ray_start + STEP, STEP)
    # from the top of the grid down to the lower end, each power below the
    # inner ray is searched once, unless expected_hset proves it out: that
    # power ends the walk unsearched
    known = expected_hset(g, family)
    assert searched == [a for a in reversed(_grid(g.n))
                        if lo <= a < proven.ray_start and known.classify(a) == "unknown"]


def _chorded_cycle(n, a, b):
    """The n-cycle with the chord a-b."""
    return Graph.from_edges(n, [*cycle(n).edges, (a, b)])


SANDWICH_GRID = [k / 8 for k in range(0, 8 * 8 + 1)]


def _theorems(g, family):
    """The hset_* descriptions whose hypotheses g meets, and the plain
    sandwich of r (brute force) and r(H)."""
    found = []
    if is_chordal(g):
        found.append(hset_chordal(g, family))
    if exponents._is_cycle_graph(g):
        found.append(hset_cycle(g.n, family))
    if g.n >= 3 and is_connected(g) and bipartition(g) is not None:
        found.append(hset_bipartite(g, family))
    lattice = {"plain": "naturals", "odd": "odd", "even": "even"}[family]
    r, r_h = max_near_complete_order(g), g.analysis.triangulation[2]
    inner = HSet(lattice=lattice, ray_start=r_h - 2)
    found.append(inner if r_h == r else HSet.partial(
        inner=inner, outer=HSet(lattice=lattice, ray_start=r - 2)))
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
    inner, outer = (known, known) if known.exact else (known.inner, known.outer)
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


BAD_SCALES = [-1.0, 0.0, float("nan"), float("inf")]


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_searches_reject_a_bad_witness_scale(scale):
    # a non-positive scale would pass PSD images off as witnesses, and a NaN
    # or infinite one would certify nothing
    with pytest.raises(ValueError, match="witness_scale must be positive and finite"):
        find_counterexample(cycle(5), 1.5, "plain", seed=1, witness_scale=scale)
    with pytest.raises(ValueError, match="witness_scale must be positive and finite"):
        estimate_ce_numeric(cycle(5), seed=1, witness_scale=scale)
    with pytest.raises(ValueError, match="witness_scale must be positive and finite"):
        estimate_ce_numeric(complete(4), seed=1, witness_scale=scale)


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_verify_fails_at_a_bad_witness_scale(scale):
    float_route = find_counterexample(complete(4), 1.5, "plain", seed=7)
    interval_route = find_counterexample(near_complete(9), 6.5, "plain", seed=1)
    assert interval_route.certificate is not None and float_route.certificate is None
    for report in (float_route, interval_route):
        assert report.verify()
        assert not report.verify(witness_scale=scale)


@pytest.mark.parametrize("scale", BAD_SCALES)
def test_verify_fails_at_a_bad_tol_scale(scale):
    # both routes refuse the scale instead of one raising and one ignoring it
    float_route = find_counterexample(complete(4), 1.5, "plain", seed=7)
    interval_route = find_counterexample(near_complete(9), 6.5, "plain", seed=1)
    assert interval_route.certificate is not None and float_route.certificate is None
    for report in (float_route, interval_route):
        assert report.verify()
        assert not report.verify(tol_scale=scale)


def test_conjecture_scan_small_set():
    report = conjecture_scan([path(3), cycle(4), complete(4)], seed=3)
    assert report["summary"]["graphs"] == 3
    assert report["summary"]["flagged"] == 0
    assert report["summary"]["errors"] == 0
    recs = report["records"]
    assert recs[0]["formula_ce"] == 1 and recs[0]["chordal"]
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
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            estimate_ce_numeric(cycle(6), budget=budget)
        # r = 2: every power of the walk is proven, so nothing is searched
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            estimate_ce_numeric(Graph.from_edges(4, [(1, 2), (3, 4)]), budget=budget)


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

    w = _bordered_search(g, alpha, family, 1, no_generator, 1e-6)
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
        rows = w.to_json()["matrix"]["rows"]
        assert (repr(w.image_min_eigenvalue), w.certificate.digits, w.construction,
                hashlib.sha256(json.dumps(rows).encode()).hexdigest()) == (
            rec["image_min_eigenvalue"], rec["digits"], rec["construction"],
            rec["matrix_sha256"]), rec


def test_a_witness_workload_pass_computes_each_power_end_once(monkeypatch):
    # the three families share one image, and re-verification reads the
    # search's ends: 243 distinct ends today, against 1,497 unmemoized calls
    calls = {}
    power_end = exponents._power_end

    def counted(s, alpha, prec, rnd):
        calls[s, alpha, prec, rnd] = calls.get((s, alpha, prec, rnd), 0) + 1
        return power_end(s, alpha, prec, rnd)

    monkeypatch.setattr(exponents, "_power_end", counted)
    exponents._image_end.cache_clear()
    for g, alphas in WITNESS_WORKLOAD:
        for alpha in alphas:
            for family in ("plain", "odd", "even"):
                w = find_counterexample(g, alpha, family, seed=1)
                assert WitnessReport.from_json(json.loads(json.dumps(w.to_json()))).verify()
    assert calls and set(calls.values()) == {1}
    assert len(calls) <= exponents.IMAGE_END_MEMO


def test_memoized_ends_do_not_change_a_verdict():
    # verify() and the bound itself read the same with a cold memo and with
    # one the search has just filled; a tampered test vector still fails
    exponents._image_end.cache_clear()
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
    exponents._image_end.cache_clear()
    cold = WitnessReport.from_json(data)
    assert cold.certificate.upper_bound(cold.alpha) == warm_bound < 0
    assert cold.verify()
    exponents._image_end.cache_clear()
    assert not WitnessReport.from_json(bad).verify()


def test_image_end_memo_stays_within_its_bound():
    exponents._image_end.cache_clear()
    bound = exponents.IMAGE_END_MEMO
    for k in range(bound + 10):
        exponents._image_end(from_float(1 + k / 2**20), 2.5, 20, round_floor)
    info = exponents._image_end.cache_info()
    assert info.maxsize == bound and info.currsize == bound
    exponents._image_end.cache_clear()


# sha256 of the canonical to_json() bytes (sorted keys, no spaces), recorded
# before the generator was built lazily: the signed pairs and the samples
# still read np.random.default_rng(seed) in the same order
RNG_STREAM_PINS = [
    (complete(6), 2.0, "odd", None, 3, "rank_one_bordered",
     "6e0eb98b4cd043818acbf792b803851f970c5405442b2c868eaac8dad9f1a7d1"),
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
    payload = json.dumps(w.to_json(), sort_keys=True, separators=(",", ":")).encode()
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


# the ends of mpmath.iv's s ** alpha at a power that is not an integer or
# 1/2: the interval power runs log, multiply and exp; a Gram entry is a sum
# of products of floats, so it can carry up to 106 bits and more
GRAM_ENTRIES = st.one_of(
    st.floats(1e-3, 1 - 2**-40),  # s < 1
    st.just(1.0),
    st.floats(1 + 2**-40, 50.0),  # s > 1
    st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)))


@settings(max_examples=80, deadline=None)
@given(st.floats(-12.0, 12.0).filter(lambda a: not a.is_integer() and a != 0.5),
       GRAM_ENTRIES, st.sampled_from([20, 55, 110, 480]))
@example(-0.75, 0.5, 480)
@example(2.25, 1.0, 20)
@example(6.5, (0.56, 1.12), 55)
@example(-10.222663396470264, 7.715256353760618, 20)  # the log's rounding shows
@example(-11.565768392628678, 10.04344971902653, 110)  # its 20 guard bits show
def test_power_end_is_the_matching_iv_end_bit_for_bit(alpha, s, digits):
    s = mpf_mul(from_float(s[0]), from_float(s[1])) if isinstance(s, tuple) else from_float(s)
    iv = _iv(digits)
    want = (iv.make_mpf((s, s)) ** iv.mpf(alpha))._mpi_
    a = from_float(alpha)
    got = (exponents._power_end(s, a, iv.prec, round_floor),
           exponents._power_end(s, a, iv.prec, round_ceiling))
    assert got == want


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
    # the iv image of F as the oracle: its Gram entries are exact for these
    # factors, and its power ends are those of _power_end
    digits = 20 + 5 * m
    factor = bordered_factor(np.ones(m), BORDER_SCALE * np.linspace(1.0, 2.0, m))
    image = _image_rows(_iv(digits), factor, alpha)
    ctx = exponents._DecimalContext(digits)
    mp = MPContext()

    def rounded(end):
        x = _exact(mp.make_mpf(end))
        return ctx.context.divide(Decimal(x.numerator), Decimal(x.denominator))

    lower = [[rounded(v._mpi_[0]) for v in row] for row in image]
    gram = exponents._gram(factor)
    assert exponents._point_image(ctx, exponents._lower_ends(gram, alpha, digits),
                                  m + 2) == lower
    # the ends round apart somewhere, so the choice of end shows
    assert any(rounded(v._mpi_[1]) != low
               for row, lows in zip(image, lower) for v, low in zip(row, lows))


def test_search_computes_at_most_two_power_ends_per_gram_entry_per_precision(monkeypatch):
    # one ulp below 2 the image is nearly singular: the certificate holds
    # at 30 digits and the eigenvalue is resolved at 60 and more; each
    # precision rounds every Gram entry's power down once for the point
    # image and the lower ends of the bound, and up at most once
    ends = {}
    power_end = exponents._power_end

    def counted(s, alpha, prec, rnd):
        ends[prec] = ends.get(prec, 0) + 1
        return power_end(s, alpha, prec, rnd)

    monkeypatch.setattr(exponents, "_power_end", counted)
    exponents._image_end.cache_clear()  # ends memoized by earlier tests are not counted
    w = find_counterexample(complete(4), float(np.nextafter(2, 0)), "plain", seed=1)
    assert w.certificate.digits == 30
    entries = len(exponents._gram(w.certificate.factor))
    assert len(ends) >= 2
    assert list(ends) == [exponents.dps_to_prec(30 * 2**k) for k in range(len(ends))]
    assert all(count <= 2 * entries for count in ends.values())


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
    rows = data["matrix"]["rows"]
    rows[2][3] = rows[3][2] = float(np.nextafter(rows[2][3], 2.0))


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
    s = from_float(1.5)
    assert exponents._image_end(s, alpha, 20, round_floor) == 0
    assert exponents._image_end(s, alpha, 20, round_ceiling) == Decimal("Infinity")
    data = _interval_report()
    data["alpha"] = alpha
    assert not WitnessReport.from_json(data).verify()


def test_float_route_report_without_certificate_still_verifies():
    # written before interval certificates existed: no certificate field
    data = json.loads((FIXTURES / "witness_float_route.json").read_text())
    assert "certificate" not in data
    assert WitnessReport.from_json(data).verify()


def test_import_does_not_load_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import hadamard_powers, sys; assert 'scipy' not in sys.modules"],
                   check=True, env=env)


def test_searches_that_draw_nothing_do_not_load_numpy_random():
    # the closed form and a walk over proven powers build no generator
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import sys; from hadamard_powers.cli import main; "
                    "assert main(['witness', '--family', 'near-complete', '--n', '9', "
                    "'--alpha', '6.5']) == 0; "
                    "assert main(['ce', '--family', 'cycle', '--n', '20']) == 0; "
                    "assert 'numpy.random' not in sys.modules"],
                   check=True, env=env, stdout=subprocess.DEVNULL)


def test_exact_routes_do_not_load_decimal():
    # only the interval certificate's point arithmetic needs it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c",
                    "import sys; from hadamard_powers.cli import main; "
                    "assert main(['ce', '--family', 'random-chordal', '--n', '200']) == 0; "
                    "assert main(['families', '--max-n', '6']) == 0; "
                    "assert 'decimal' not in sys.modules"],
                   check=True, env=env, stdout=subprocess.DEVNULL)
