"""Symbolic power sets, critical exponents, witnesses, and brackets."""

import json

import numpy as np
import pytest

from hadamard_powers.chordal import NotChordalError
from hadamard_powers.exponents import (
    HSet,
    WitnessReport,
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
    # non-chordal, non-bipartite, not a cycle: nothing known
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    assert expected_hset(g) is None
    assert expected_hset(Graph.from_edges(1, [])) is None


# --- witnesses -----------------------------------------------------------------


def test_witness_found_below_threshold():
    w = find_counterexample(complete(3), 0.5, "plain", seed=1)
    assert w is not None and w.construction == "rank_one_bordered"
    assert w.verify()
    assert w.image_min_eigenvalue < -1e-6


def test_no_witness_at_positive_integers():
    assert find_counterexample(complete(3), 2.0, "plain", seed=1,
                               sample_budget=80) is None
    assert find_counterexample(complete(4), 1.0, "odd", seed=1,
                               sample_budget=80) is None


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
    assert find_counterexample(cycle(5), 1.0, "even", seed=1,
                               bordered_budget=40, sample_budget=40) is None


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


def test_witness_hard_continuation_case():
    # needs the guided walk: five-clique separator just below its boundary
    w = find_counterexample(complete(7), 4.9375, "plain", seed=0)
    assert w is not None and w.construction == "rank_one_bordered" and w.verify()


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


def test_estimate_degenerate_two_vertices():
    assert estimate_ce_numeric(Graph.from_edges(2, [(1, 2)]), seed=0) == (0.0, 0.0)
    with pytest.raises(ValueError):
        estimate_ce_numeric(Graph.from_edges(1, []), seed=0)


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


def test_negative_phase_budgets_are_rejected():
    g = complete(4)
    for name in ("bordered_budget", "sample_budget"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            find_counterexample(g, 1.5, "plain", **{name: -1})
    # zero skips the phase: nothing is drawn, so no witness appears
    assert find_counterexample(g, 1.5, "plain", seed=3, bordered_budget=0,
                               sample_budget=0, refine_attempts=0) is None
