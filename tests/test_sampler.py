"""The batched clique-sum sampler against its one-sample-at-a-time definition.

Every reader of `cones._clique_sample_stack` (single samples, the sample
phase of the witness search, the `verify` command) must give, bit for bit,
what drawing one sample at a time would, and leave the generator in the
same state.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_powers import cones
from hadamard_powers.cli import main
from hadamard_powers.cones import (
    _clique_sample_stack,
    certify_not_psd,
    entrywise_power,
    is_psd,
    random_psd_for_graph,
)
from hadamard_powers.exponents import find_counterexample
from hadamard_powers.graphs import Graph, complete, cycle


def _reference_sample(g, rank, rng, nonnegative):
    """One clique-sum sample, drawn clique by clique and term by term, each
    Gram term scattered in with np.ix_."""
    m = np.zeros((g.n, g.n))
    for clique in g.analysis.maximal_cliques:
        idx = np.array(sorted(clique)) - 1
        for _ in range(rank):
            x = rng.standard_normal(len(idx))
            if nonnegative:
                x = np.abs(x)
            m[np.ix_(idx, idx)] += np.outer(x, x)
    return m


def _reference_sample_search(g, alpha, family, n_samples, rng, tol_scale=1e-9,
                             witness_scale=1e-6):
    """The sample phase of the witness search, one sample at a time."""
    for k in range(n_samples):
        m = _reference_sample(g, 2 if k % 5 == 4 else 1, rng, family == "plain")
        lam = certify_not_psd(entrywise_power(m, alpha, family), witness_scale)
        if lam is not None and is_psd(m, tol_scale).is_psd:
            return m, lam
    return None


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
           st.just(n),
           st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
           if n > 1 else st.just(set()))),
       st.lists(st.integers(1, 3), max_size=7),
       st.booleans(),
       st.integers(0, 2**32 - 1))
def test_stack_equals_samples_drawn_one_at_a_time(n_edges, ranks, nonnegative, seed):
    n, edges = n_edges
    g = Graph.from_edges(n, sorted(edges))
    rng_stack, rng_ref, rng_one = (np.random.default_rng(seed) for _ in range(3))
    stack = _clique_sample_stack(g, ranks, rng_stack, nonnegative)
    ref = np.array([_reference_sample(g, r, rng_ref, nonnegative) for r in ranks])
    one = np.array([random_psd_for_graph(g, r, rng=rng_one, nonnegative=nonnegative)
                    for r in ranks])
    assert stack.shape == (len(ranks), n, n)
    assert stack.tobytes() == ref.reshape(stack.shape).tobytes()
    assert stack.tobytes() == one.reshape(stack.shape).tobytes()
    nxt = rng_stack.standard_normal()
    assert nxt == rng_ref.standard_normal() == rng_one.standard_normal()


# (graph, alpha, family): first hit at sample 4 (the first rank-two one),
# a miss over every sample, a hit at sample 0, and a signed family
SEARCH_CASES = [(complete(4), 1.5, "plain"), (complete(4), 2.5, "plain"),
                (cycle(5), 0.5, "odd"), (complete(5), 1.5, "odd")]


@pytest.mark.parametrize("samples_per_chunk", [1, 2, 3, None])
@pytest.mark.parametrize("g, alpha, family", SEARCH_CASES)
def test_sample_phase_matches_one_at_a_time(monkeypatch, g, alpha, family,
                                            samples_per_chunk):
    if samples_per_chunk is not None:
        # small chunks put the first hit of the K4 case in the third chunk
        monkeypatch.setattr(cones, "SAMPLE_CHUNK_FLOATS", samples_per_chunk * g.n * g.n)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    report = find_counterexample(g, alpha, family, seed=rng, bordered_budget=0,
                                 sample_budget=30, refine_attempts=0)
    expected = _reference_sample_search(g, alpha, family, 30, rng_ref)
    if expected is None:
        assert report is None
    else:
        assert report is not None and report.construction == "random_sample"
        assert report.matrix.tobytes() == expected[0].tobytes()
        assert report.image_min_eigenvalue == expected[1]
        assert report.verify()
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.filterwarnings("ignore:overflow encountered in power")
def test_sample_phase_stops_at_a_non_finite_image():
    # entries above 1 overflow at this power; the one-at-a-time search
    # raises on the first such image, and so does the batched one
    with pytest.raises(ValueError, match="non-finite"):
        _reference_sample_search(complete(3), 2000.5, "plain", 20,
                                 np.random.default_rng(0))
    with pytest.raises(ValueError, match="non-finite"):
        find_counterexample(complete(3), 2000.5, "plain", seed=0, sample_budget=20)


def test_verify_rows_match_one_sample_at_a_time(capsys):
    g = cycle(6)
    alphas = (0.5, 1.5)
    samples = 25
    code = main(["verify", "--family", "cycle", "--n", "6", "--alphas", "0.5,1.5",
                 "--powers", "odd", "--samples", str(samples), "--seed", "11",
                 "--format", "json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert code == 0
    rng = np.random.default_rng(11)
    for alpha, row in zip(alphas, rows):
        verdicts = [is_psd(entrywise_power(_reference_sample(g, 1, rng, False), alpha, "odd"))
                    for _ in range(samples)]
        assert row["worst_min_eigenvalue"] == min(v.min_eigenvalue for v in verdicts)
        assert row["all_images_psd"] == all(v.is_psd for v in verdicts)
