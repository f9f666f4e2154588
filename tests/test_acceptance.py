"""Acceptance suite: one test per criterion, each printing a PASS line.

Randomized criteria run with the fixed seeds recorded below; budgets are
the library defaults unless stated.
"""

import time

import numpy as np
import pytest

from hadamard_powers.chordal import decompose
from hadamard_powers.cli import main
from hadamard_powers.cones import (
    entrywise_power,
    is_psd,
    random_psd_for_graph,
    split_by_decomposition,
    three_factor_form,
)
from hadamard_powers.exponents import (
    conjecture_scan,
    find_counterexample,
    hset_complete,
    superadditive_powers,
)
from hadamard_powers.graphs import (
    apollonian,
    band,
    complete,
    complete_bipartite,
    cycle,
    max_outerplanar,
    near_complete,
    random_chordal,
    random_tree,
    split_graph,
)

from oracles import clique_formula, max_near_complete_order

SEED = 20260808
RANDOM_CHORDAL_SEEDS = (1, 2, 3, 4, 5)


def _report(criterion, message):
    print(f"ACCEPTANCE criterion {criterion} PASS: {message}")


def table1_family_members(max_n=10, seed=SEED):
    members = []
    for n in range(3, max_n + 1):
        members.append(random_tree(n, seed=seed + n))
        members.append(max_outerplanar(n))
        members.append(apollonian(n, seed=seed + n))
        for d in range(1, n):
            members.append(band(n, d))
    for n in range(2, max_n + 1):
        members.append(complete(n))
        members.append(near_complete(n))
    for c, m, deg in ((4, 3, 2), (5, 2, 3), (3, 4, 1), (6, 3, 4)):
        members.append(split_graph(c, m, deg, seed=seed + c))
    return members


def criterion3_graphs():
    graphs = [("tree(8)", random_tree(8, seed=SEED)),
              ("band(7,3)", band(7, 3)),
              ("near_complete(6)", near_complete(6)),
              ("apollonian(8)", apollonian(8, seed=SEED))]
    for s in RANDOM_CHORDAL_SEEDS:
        graphs.append((f"random_chordal(8,seed={s})",
                       random_chordal(8, density=0.75, seed=s)))
    return graphs


@pytest.fixture(scope="module")
def decomposed_instances():
    """200 random chordal PSD matrices with a decomposition and corner-block
    condition number at most 1e6 (criteria 5 and 6 share these)."""
    instances = []
    rng = np.random.default_rng(SEED)
    seed = 0
    while len(instances) < 200:
        seed += 1
        g = random_chordal(5 + seed % 5, density=0.6, seed=seed)
        d = decompose(g)
        if d is None:
            continue
        m = random_psd_for_graph(g, rank_per_clique=3, seed=rng, eps_diag=0.5)
        ia = [i - 1 for i in sorted(d.side_a)]
        ib = [i - 1 for i in sorted(d.side_b)]
        conds = []
        for idx in (ia, ib):
            eigs = np.abs(np.linalg.eigvalsh(m[np.ix_(idx, idx)]))
            conds.append(np.inf if eigs[0] == 0 else eigs[-1] / eigs[0])
        if max(conds) > 1e6:
            continue
        instances.append((g, d, m))
    return instances


def test_criterion_1_exact_formula_triple_agreement():
    t0 = time.time()
    graphs = table1_family_members()
    for s in range(500):
        graphs.append(random_chordal(2 + s % 8, density=0.3 + 0.07 * (s % 10), seed=s))
    for g in graphs:
        # three routes sharing no code: the clique formula over Bron-Kerbosch
        # cliques, the library's near-complete search, the subset brute force
        ce = clique_formula(g)
        fast = g.analysis.near_complete_order - 2
        brute = max_near_complete_order(g) - 2
        assert ce == fast == brute, (g, ce, fast, brute)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(1, f"triple agreement on {len(graphs)} graphs in {elapsed:.1f}s")


def test_criterion_2_family_table_reproduction(capsys):
    code = main(["families", "--max-n", "10", "--seed", str(SEED % 1000)])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "0 mismatches" in out
    with capsys.disabled():
        _report(2, "every closed form matches for n up to 10")


def test_criterion_3_positivity_at_and_above_threshold():
    t0 = time.time()
    checked = 0
    for name, g in criterion3_graphs():
        ce = g.analysis.near_complete_order - 2
        rng = np.random.default_rng(SEED)
        samples = [random_psd_for_graph(g, seed=rng) for _ in range(200)]
        for alpha in (ce, ce + 0.25, ce + 0.5, ce + 1.0):
            for family in ("odd", "even"):
                for m in samples:
                    verdict = is_psd(entrywise_power(m, alpha, family))
                    assert verdict.is_psd, (name, alpha, family, verdict)
                    checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(3, f"{checked} power images PSD at/above the threshold in {elapsed:.1f}s")


def test_criterion_4_sharpness_below_threshold():
    found = []
    for name, g in criterion3_graphs():
        ce = g.analysis.near_complete_order - 2
        if ce < 1:
            continue
        alpha = ce - 0.5
        w = find_counterexample(g, alpha, "plain", seed=SEED)
        assert w is not None, (name, alpha)
        assert w.verify(), (name, alpha)
        assert w.image_min_eigenvalue < 0
        found.append(name)
    # spot-check the signed families on one graph with a large separator
    for family in ("odd", "even"):
        w = find_counterexample(band(7, 3), 2.5, family, seed=SEED)
        assert w is not None and w.verify()
    _report(4, f"witnesses at CE - 0.5 for {len(found)} graphs (seed {SEED})")


def test_criterion_5_two_summand_splitting(decomposed_instances):
    for g, d, m in decomposed_instances:
        m1, m2 = split_by_decomposition(m, d)
        assert np.linalg.norm(m1 + m2 - m) <= 1e-10 * np.linalg.norm(m)
        ia = [i - 1 for i in sorted(d.side_a)]
        ib = [i - 1 for i in sorted(d.side_b)]
        assert np.all(m1[ib, :] == 0.0) and np.all(m1[:, ib] == 0.0)
        assert np.all(m2[ia, :] == 0.0) and np.all(m2[:, ia] == 0.0)
        assert is_psd(m1).is_psd and is_psd(m2).is_psd
    _report(5, f"splitting roundtrip on {len(decomposed_instances)} instances")


def test_criterion_6_three_factor_reconstruction(decomposed_instances):
    for g, d, m in decomposed_instances:
        f = three_factor_form(m, d)
        err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
        assert err <= 1e-10, err
        assert is_psd(m).is_psd  # inputs are PSD by construction ...
        assert is_psd(f.schur_block).is_psd  # ... so the middle block must be
    _report(6, f"factorization roundtrip on {len(decomposed_instances)} instances")


def _all_samples_preserved(g, alpha, family, n_samples, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        m = random_psd_for_graph(g, seed=rng, nonnegative=(family == "plain"))
        if not is_psd(entrywise_power(m, alpha, family)).is_psd:
            return False
    return True


def test_criterion_7_cycle_oracle():
    c5 = cycle(5)
    for family in ("plain", "odd"):
        for alpha in (1.0, 1.5, 2.5):
            assert _all_samples_preserved(c5, alpha, family, 500, SEED), (family, alpha)
    w = find_counterexample(c5, 0.5, "plain", seed=SEED)
    assert w is not None and w.verify()
    c4 = cycle(4)
    w = find_counterexample(c4, 1.5, "even", seed=SEED)
    assert w is not None and w.verify()
    assert _all_samples_preserved(c4, 2.0, "even", 500, SEED)
    _report(7, "five-cycle passes at {1, 1.5, 2.5}; witnesses at 0.5 and "
               "(four-cycle, even, 1.5)")


def test_criterion_8_bipartite_oracle():
    k23 = complete_bipartite(2, 3)
    assert _all_samples_preserved(k23, 1.0, "plain", 500, SEED)
    w = find_counterexample(k23, 0.5, "plain", seed=SEED)
    assert w is not None and w.verify()
    w = find_counterexample(k23, 1.5, "even", seed=SEED)
    assert w is not None and w.verify()
    assert _all_samples_preserved(k23, 2.0, "even", 500, SEED)
    _report(8, "complete bipartite 2x3 oracle: passes at 1 and 2, witnesses "
               "at 0.5 and 1.5")


def test_criterion_9_threshold_set_unit_values():
    lattice_for = {"plain": "naturals", "odd": "odd", "even": "even"}
    for n in range(2, 11):
        for family in ("plain", "odd", "even"):
            h = hset_complete(n, family)
            assert h.exact and h.lattice == lattice_for[family]
            assert h.ray_start == float(n - 2)
            s = superadditive_powers(n, family)
            assert s.exact and s.lattice == lattice_for[family]
            assert s.ray_start == float(n)
            # lattice points are members, the ray boundary is a member,
            # and non-lattice points below the ray are not
            for k in range(1, 11):
                in_lattice = (family == "plain" or (family == "odd") == (k % 2 == 1))
                assert h.contains(k) == (in_lattice or k >= n - 2)
                assert s.contains(k) == (in_lattice or k >= n)
            assert h.contains(float(n - 2)) and s.contains(float(n))
            if n >= 4:
                assert not h.contains(n - 2.5)
            assert not s.contains(n - 0.5)
    _report(9, "exact threshold sets for n in 2..10, all three families")


def test_criterion_10_conjecture_scan_consistency():
    t0 = time.time()
    graphs = [g for _, g in criterion3_graphs()]
    graphs += [cycle(n) for n in range(4, 9)]
    graphs += [complete_bipartite(2, b) for b in range(2, 6)]
    report = conjecture_scan(graphs, "plain", seed=SEED)
    assert report["summary"]["errors"] == 0, report
    assert report["summary"]["flagged"] == 0, report
    for rec in report["records"]:
        lo, hi = rec["bracket_lower"], rec["bracket_upper"]
        assert lo <= rec["conjectured_ce"] <= hi, rec
    elapsed = time.time() - t0
    _report(10, f"zero flags over {len(graphs)} graphs in {elapsed:.1f}s")
