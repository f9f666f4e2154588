"""Numerical layer: powers, PSD testing, splittings, and factorizations."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_powers.chordal import Decomposition, decompose
from hadamard_powers.cones import (
    as_symmetric,
    certify_not_psd,
    conforms_to_pattern,
    entrywise_power,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    random_psd_for_graph,
    schur_complement,
    split_by_decomposition,
    superadditive_defect,
    symmetrize,
    three_factor_form,
    witness_matrix,
)
from hadamard_powers.graphs import Graph, cycle, random_chordal

import oracles

D3 = Decomposition(frozenset({1}), frozenset({2}), frozenset({3}))
M3 = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0]])


def sample_decomposed(seed, n=None):
    """Random connected chordal graph with a decomposition, plus a
    well-conditioned PSD sample on its pattern."""
    rng = np.random.default_rng(seed)
    while True:
        n_ = n if n is not None else 5 + seed % 5
        g = random_chordal(n_, density=0.6, seed=seed)
        d = decompose(g)
        if d is None:
            seed += 1000
            continue
        m = random_psd_for_graph(g, rank_per_clique=3, seed=rng, eps_diag=0.5)
        return g, d, m


# --- patterns and powers ----------------------------------------------------


def test_conforms_to_pattern_examples():
    assert conforms_to_pattern(np.eye(4), cycle(4))
    assert not conforms_to_pattern(np.ones((4, 4)), cycle(4))
    m = np.array([[1.0, 2.0, 0.0, 3.0],
                  [2.0, 1.0, 4.0, 0.0],
                  [0.0, 4.0, 1.0, 5.0],
                  [3.0, 0.0, 5.0, 1.0]])
    assert conforms_to_pattern(m, cycle(4))
    with pytest.raises(ValueError):
        conforms_to_pattern(np.eye(3), cycle(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2)))),
    st.dictionaries(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                    st.sampled_from([1.0, -2.5, 5e-324, -0.0])),
    st.just(n))))
def test_conforms_to_pattern_as_the_pair_scan(case):
    # every density of pattern and of support; -0.0 is a zero entry
    edges, support, n = case
    g = Graph.from_edges(n, edges)
    m = np.eye(n)
    for (i, j), x in support.items():
        m[i - 1, j - 1] = m[j - 1, i - 1] = x
    assert conforms_to_pattern(m, g) == oracles.conforms_by_pair_scan(m, g)


def test_entrywise_power_identity_at_one():
    m = np.abs(np.random.default_rng(0).standard_normal((4, 4)))
    m = symmetrize(m)
    for family in ("plain", "odd", "even"):
        assert np.allclose(entrywise_power(m, 1.0, family), m)


def test_entrywise_power_signed_values():
    assert entrywise_power(np.array([[-2.0]]), 2, "odd")[0, 0] == -4.0
    assert entrywise_power(np.array([[-2.0]]), 3, "even")[0, 0] == 8.0


def test_entrywise_power_zero_stays_zero():
    m = np.array([[0.0, 2.0], [2.0, 0.0]])
    for alpha in (-1.0, 0.0, 0.5, 3.0):
        for family in ("plain", "odd", "even"):
            out = entrywise_power(m, alpha, family)
            assert out[0, 0] == 0.0 and out[1, 1] == 0.0


def test_entrywise_power_errors():
    with pytest.raises(ValueError, match="nonnegative"):
        entrywise_power(np.array([[-1.0]]), 0.5, "plain")
    with pytest.raises(ValueError, match="finite"):
        entrywise_power(np.eye(2), float("nan"))
    with pytest.raises(ValueError, match="family"):
        entrywise_power(np.eye(2), 2.0, "cubic")


def test_entrywise_power_preserves_pattern():
    rng = np.random.default_rng(5)
    for seed in range(10):
        g = random_chordal(6, density=0.5, seed=seed)
        m = random_psd_for_graph(g, seed=rng)
        for alpha in (0.5, 2.0, 3.7):
            for family in ("odd", "even"):
                assert conforms_to_pattern(entrywise_power(m, alpha, family), g)


def test_families_agree_on_nonnegative_input():
    rng = np.random.default_rng(7)
    m = symmetrize(np.abs(rng.standard_normal((5, 5))))
    for alpha in (0.3, 1.7, 4.0):
        plain = entrywise_power(m, alpha, "plain")
        assert np.array_equal(plain, entrywise_power(m, alpha, "odd"))
        assert np.array_equal(plain, entrywise_power(m, alpha, "even"))


# --- PSD verdicts -----------------------------------------------------------


def test_is_psd_examples():
    v = is_psd(np.eye(3))
    assert v.is_psd and v.min_eigenvalue == pytest.approx(1.0)
    v = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not v.is_psd and v.min_eigenvalue == pytest.approx(-1.0)
    v = is_psd(np.zeros((2, 2)))
    assert v.is_psd and v.min_eigenvalue == 0.0
    assert v.tolerance_used == pytest.approx(1e-9)


def test_is_psd_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="finite"):
        is_psd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_is_psd_verdict_invariant():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = symmetrize(rng.standard_normal((4, 4)))
        v = is_psd(m)
        assert v.is_psd == (v.min_eigenvalue >= -v.tolerance_used)


def test_is_psd_matches_leading_minor_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        m = symmetrize(rng.standard_normal((3, 3)))
        lam = np.linalg.eigvalsh(m)[0]
        if abs(lam) < 1e-6:
            continue
        minors_positive = all(np.linalg.det(m[:k, :k]) > 0 for k in (1, 2, 3))
        assert is_psd(m).is_psd == minors_positive
        checked += 1


def test_certify_not_psd_is_stricter_than_tolerance():
    assert certify_not_psd(np.eye(2)) is None
    tiny = np.diag([1.0, -1e-9])
    assert certify_not_psd(tiny) is None  # noise-level negativity is not a witness
    assert certify_not_psd(np.diag([1.0, -0.5])) == pytest.approx(-0.5)



def test_a_non_finite_matrix_certifies_nothing_and_is_no_psd_matrix():
    # an image past the float range proves no failure, and passes no PSD test
    for m in (np.array([[np.inf]]), np.array([[1.0, np.nan], [np.nan, 1.0]])):
        assert certify_not_psd(m) is None
        with pytest.raises(ValueError, match="non-finite"):
            is_psd(m)
    with pytest.raises(ValueError, match="square"):
        certify_not_psd(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        certify_not_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))

# --- sampler ----------------------------------------------------------------


def test_random_psd_single_vertex_and_edgeless():
    g1 = Graph.from_edges(1, [])
    m = random_psd_for_graph(g1, seed=0)
    assert m.shape == (1, 1) and m[0, 0] >= 0
    g3 = Graph.from_edges(3, [])
    m = random_psd_for_graph(g3, seed=0)
    assert np.array_equal(m, np.diag(np.diag(m)))
    assert (np.diag(m) >= 0).all()


def test_random_psd_pattern_and_positivity():
    for seed in range(20):
        g = random_chordal(7, density=0.5, seed=seed)
        m = random_psd_for_graph(g, rank_per_clique=1 + seed % 3, seed=seed)
        assert conforms_to_pattern(m, g)
        assert is_psd(m).is_psd
        # off-pattern entries are exact zeros
        for i in range(1, 8):
            for j in range(i + 1, 8):
                if not g.has_edge(i, j):
                    assert m[i - 1, j - 1] == 0.0


def test_random_psd_seed_and_options():
    g = cycle(5)
    a = random_psd_for_graph(g, seed=42)
    b = random_psd_for_graph(g, seed=42)
    assert np.array_equal(a, b)
    c = random_psd_for_graph(g, seed=42, eps_diag=1.0)
    assert np.allclose(c - a, np.eye(5))
    d = random_psd_for_graph(g, seed=42, nonnegative=True)
    assert (d >= 0).all() and is_psd(d).is_psd
    with pytest.raises(ValueError):
        random_psd_for_graph(g, rank_per_clique=0)


def test_random_psd_takes_a_generator_as_seed():
    g = cycle(5)
    rng = np.random.default_rng(42)
    assert np.array_equal(random_psd_for_graph(g, seed=rng), random_psd_for_graph(g, seed=42))
    assert not np.array_equal(random_psd_for_graph(g, seed=rng), random_psd_for_graph(g, seed=42))
    with pytest.raises(TypeError):
        random_psd_for_graph(g, rng=np.random.default_rng(42))


def test_schur_product_smoke():
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((4, 6))
        a, b = x @ x.T, y @ y.T
        assert is_psd(symmetrize(a * b)).is_psd


# --- Schur complements and splittings ---------------------------------------


def test_schur_complement_examples():
    block_diag = np.array([[2.0, 0.0], [0.0, 5.0]])
    assert schur_complement(block_diag, {1})[0, 0] == pytest.approx(2.0)
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert schur_complement(m, {1})[0, 0] == pytest.approx(1.5)
    with pytest.raises(np.linalg.LinAlgError, match="condition"):
        # keeping {1} drops the zero block, which is singular
        schur_complement(np.array([[1.0, 1.0], [1.0, 0.0]]), {1})


def test_schur_complement_of_psd_is_psd():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = rng.standard_normal((5, 7))
        m = x @ x.T + 0.1 * np.eye(5)
        assert is_psd(schur_complement(symmetrize(m), {1, 3, 5})).is_psd


def test_split_worked_example():
    m1, m2 = split_by_decomposition(M3, D3)
    assert np.allclose(m1, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert np.allclose(m2, [[0, 0, 0], [0, 1, 1], [0, 1, 1]])
    assert np.array_equal(m1 + m2, M3)


def test_split_block_diagonal_case():
    m = np.diag([2.0, 3.0, 4.0])
    m1, m2 = split_by_decomposition(m, D3)
    assert m2[1, 1] == pytest.approx(3.0)  # no cross term to subtract
    assert m1[1, 1] == pytest.approx(0.0)


def test_split_requires_decoupled_sides():
    coupled = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0]])
    with pytest.raises(ValueError, match="couples"):
        split_by_decomposition(coupled, D3)


def test_split_properties_on_random_chordal():
    for seed in range(40):
        g, d, m = sample_decomposed(seed)
        m1, m2 = split_by_decomposition(m, d)
        assert np.linalg.norm(m1 + m2 - m) <= 1e-10 * np.linalg.norm(m)
        ia = [i - 1 for i in sorted(d.side_a)]
        ib = [i - 1 for i in sorted(d.side_b)]
        assert np.all(m1[np.ix_(ib, range(g.n))] == 0.0)
        assert np.all(m2[np.ix_(ia, range(g.n))] == 0.0)
        assert is_psd(m1).is_psd and is_psd(m2).is_psd


def test_three_factor_identity_case():
    f = three_factor_form(np.eye(3), D3)
    assert np.allclose(f.left, np.eye(3))
    assert np.allclose(f.schur_block, np.eye(1))
    assert np.allclose(f.reconstruct(), np.eye(3))


def test_three_factor_worked_example():
    f = three_factor_form(M3, D3)
    assert f.schur_block[0, 0] == pytest.approx(0.0)
    assert np.linalg.norm(f.reconstruct() - M3) <= 1e-12


def test_three_factor_properties_on_random_chordal():
    for seed in range(40):
        g, d, m = sample_decomposed(seed + 500)
        f = three_factor_form(m, d)
        err = np.linalg.norm(f.reconstruct() - m) / np.linalg.norm(m)
        assert err <= 1e-10
        assert is_psd(f.schur_block).is_psd
        mid = f.middle
        na, nc = len(d.side_a), len(d.separator)
        assert np.allclose(mid[:na, na:], 0.0)
        assert np.allclose(mid[na:na + nc, na + nc:], 0.0)


def test_three_factor_singular_corner_raises():
    m = np.zeros((3, 3))
    m[1, 1] = m[2, 2] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        three_factor_form(m, D3)


# --- witness matrix and super-additivity ------------------------------------


def test_witness_matrix_worked_example():
    w = witness_matrix([1.0], [1.0], np.array([[2.0]]))
    assert np.array_equal(w, M3)


def test_witness_matrix_corners():
    w = witness_matrix(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
    assert np.array_equal(np.diag(w), [1, 0, 0, 0, 1])
    assert is_psd(w).is_psd
    with pytest.raises(ValueError):
        witness_matrix([1.0, 2.0], [1.0], np.eye(2))


def test_witness_of_rank_two_gram_is_psd():
    rng = np.random.default_rng(31)
    for _ in range(25):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        w = witness_matrix(u, v, np.outer(u, u) + np.outer(v, v))
        assert is_psd(w).is_psd


def test_superadditive_defect_linear_case():
    rng = np.random.default_rng(13)
    a = symmetrize(np.abs(rng.standard_normal((3, 3))))
    b = symmetrize(np.abs(rng.standard_normal((3, 3))))
    v = superadditive_defect(a, b, 1.0, "plain")
    assert v.is_psd and abs(v.min_eigenvalue) <= 1e-12


def test_superadditive_defect_scalar_fails_below_one():
    v = superadditive_defect(np.array([[1.0]]), np.array([[1.0]]), 0.5, "plain")
    assert not v.is_psd
    assert v.min_eigenvalue == pytest.approx(2 ** 0.5 - 2)


def test_superadditive_defect_rank_one_fails_below_two():
    # 2x2 rank-one pairs violate super-additivity for powers in (1, 2)
    rng = np.random.default_rng(17)
    found = False
    for _ in range(200):
        u = np.abs(rng.standard_normal(2))
        v = np.abs(rng.standard_normal(2))
        verdict = superadditive_defect(np.outer(u, u), np.outer(v, v), 1.5, "plain")
        if verdict.min_eigenvalue < -1e-6 * max(1.0, abs(verdict.min_eigenvalue)):
            found = True
            break
    assert found


def test_superadditive_defect_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        superadditive_defect(np.eye(2), np.eye(3), 2.0)


# --- serialization ----------------------------------------------------------


def test_matrix_json_roundtrip_is_exact():
    rng = np.random.default_rng(19)
    m = symmetrize(rng.standard_normal((4, 4)))
    data = json.loads(json.dumps(matrix_to_json(m)))
    assert np.array_equal(matrix_from_json(data), m)
    with pytest.raises(ValueError):
        matrix_from_json({"n": 3, "rows": [[1.0, 0.0], [0.0, 1.0]]})


def test_as_symmetric_rejects_bad_input():
    with pytest.raises(ValueError):
        as_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_symmetric(np.array([[0.0, 1.0], [1.0000001, 0.0]]))
