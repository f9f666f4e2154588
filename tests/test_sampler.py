"""The batched clique-sum sampler against its one-sample-at-a-time definition.

Every reader of `cones._clique_sample_stack` (single samples, and through
`cones.sample_spectra` the sample phase of the witness search and the
`verify` command) must give, bit for bit, what drawing one sample at a
time would. Each stack is drawn once: a stack or a single sample leaves
the generator where one-at-a-time drawing would, a search that finds no
witness leaves it after its last sample, and one that finds a witness
after the witness's stack. The Cholesky screen of the search may skip a
stack only if the eigensolve would flag none of it.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard_powers import cones, exponents
from hadamard_powers.cli import main
from hadamard_powers.cones import (
    FAMILIES,
    _cholesky_clears,
    _clique_sample_stack,
    certify_not_psd,
    entrywise_power,
    is_psd,
    least_eigenvalue,
    random_psd_for_graph,
    sample_spectra,
)
from hadamard_powers.exponents import _sample_search, find_counterexample
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


def _reference_sample_search(g, alpha, family, n_samples, rng):
    """The sample phase of the witness search, one sample at a time."""
    for k in range(n_samples):
        m = _reference_sample(g, 2 if k % 5 == 4 else 1, rng, family == "plain")
        lam = certify_not_psd(entrywise_power(m, alpha, family))
        if lam is not None and is_psd(m).is_psd:
            return m, lam
    return None


GRAPHS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))))
    if n > 1 else st.just(set())))


@settings(max_examples=120, deadline=None)
@given(GRAPHS,
       st.lists(st.integers(1, 3), max_size=7),
       st.booleans(),
       st.integers(0, 2**32 - 1))
def test_stack_equals_samples_drawn_one_at_a_time(n_edges, ranks, nonnegative, seed):
    n, edges = n_edges
    g = Graph.from_edges(n, sorted(edges))
    rng_stack, rng_ref, rng_one = (np.random.default_rng(seed) for _ in range(3))
    stack = _clique_sample_stack(g, ranks, rng_stack, nonnegative)
    ref = np.array([_reference_sample(g, r, rng_ref, nonnegative) for r in ranks])
    one = np.array([random_psd_for_graph(g, r, seed=rng_one, nonnegative=nonnegative)
                    for r in ranks])
    assert stack.shape == (len(ranks), n, n)
    assert stack.tobytes() == ref.reshape(stack.shape).tobytes()
    assert stack.tobytes() == one.reshape(stack.shape).tobytes()
    nxt = rng_stack.standard_normal()
    assert nxt == rng_ref.standard_normal() == rng_one.standard_normal()


def test_layout_is_built_once_per_graph_and_rank(monkeypatch):
    built = []
    layout = cones._gram_layout

    def counted(blocks, n):
        built.append(len(blocks))
        return layout(blocks, n)

    monkeypatch.setattr(cones, "_gram_layout", counted)
    g = cycle(7)
    rng = np.random.default_rng(0)
    for ranks in ([1, 1, 2], [2, 1], [1] * 5, [3]):
        _clique_sample_stack(g, ranks, rng, False)
    assert built == [7, 14, 21]  # the 7 edges once per rank, on first use
    assert g.analysis.sample_layout.cliques[0].tolist() == [0, 1]


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
    report = _sample_search(g, alpha, family, 30, rng)
    expected = _reference_sample_search(g, alpha, family, 30, rng_ref)
    if expected is None:
        assert report is None
        # a miss reads every sample
        assert rng.bit_generator.state == rng_ref.bit_generator.state
    else:
        assert report is not None and report.construction == "random_sample"
        assert report.matrix.tobytes() == expected[0].tobytes()
        assert report.image_min_eigenvalue == expected[1]
        assert report.verify()


def test_a_sample_witness_draws_each_sample_once(monkeypatch):
    # K4 at 1.5 first hits at sample 4, the first of the third stack of two:
    # the search draws the three stacks, samples 0-5, each once, and leaves
    # the generator after them
    g = complete(4)
    monkeypatch.setattr(cones, "SAMPLE_CHUNK_FLOATS", 2 * g.n * g.n)
    sampler, drawn = cones._clique_sample_stack, []

    def counted(g, ranks, rng, nonnegative):
        drawn.append(len(ranks))
        return sampler(g, ranks, rng, nonnegative)

    for module in (cones, exponents):  # wherever the sampler is imported
        if hasattr(module, "_clique_sample_stack"):
            monkeypatch.setattr(module, "_clique_sample_stack", counted)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    report = _sample_search(g, 1.5, "plain", 30, rng)
    expected = _reference_sample_search(g, 1.5, "plain", 5, rng_ref)
    assert report.matrix.tobytes() == expected[0].tobytes()
    assert drawn == [2, 2, 2]
    _reference_sample(g, 1, rng_ref, True)  # sample 5, the rest of the stack
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.filterwarnings("error")
def test_sample_phase_stops_at_a_non_finite_image():
    # entries above 1 overflow at this power; the one-at-a-time search
    # certifies no such image, and the batched one ends at the first one
    # without a witness: an image that overflowed proves nothing
    assert _reference_sample_search(complete(3), 2000.5, "plain", 20,
                                    np.random.default_rng(0)) is None
    assert find_counterexample(complete(3), 2000.5, "plain", budget=20, seed=0) is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, alpha, family", [(complete(5), -1e6, "plain"),
                                              (complete(3), 2000.5, "odd")])
def test_overflowing_sample_search_finds_nothing_quietly(g, alpha, family):
    # the first overflow ends the search with no warning, and the loop over
    # the same samples with a stack shorter than its samples
    assert find_counterexample(g, alpha, family, seed=1) is None
    with np.errstate(over="ignore"):
        stacks = list(sample_spectra(g, [1] * 5, alpha, family, np.random.default_rng(1)))
    samples, images = stacks[-1]
    assert len(images) < len(samples)


def test_sample_search_ends_at_the_first_overflow_after_an_earlier_witness(monkeypatch):
    # the first image of the second stack overflows, so the loop ends there:
    # a witness of the first stack still stands, and a search without one
    # finds none in the short stack
    spectra, read = cones.sample_spectra, []

    def overflow_from_the_second_stack(*args):
        for samples, images in spectra(*args):
            read.append(len(samples))
            if len(read) > 1:
                yield samples, images[:0]
                return
            yield samples, images

    g = complete(4)
    monkeypatch.setattr(cones, "SAMPLE_CHUNK_FLOATS", 5 * g.n * g.n)
    monkeypatch.setattr(exponents, "sample_spectra", overflow_from_the_second_stack)
    expected = _reference_sample_search(g, 1.5, "plain", 30, np.random.default_rng(3))
    report = _sample_search(g, 1.5, "plain", 30, np.random.default_rng(3))
    assert report.matrix.tobytes() == expected[0].tobytes() and read == [5]
    read.clear()
    assert _sample_search(g, 2.5, "plain", 30, np.random.default_rng(3)) is None
    assert read == [5, 5]


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


def _screened(stack, scale):
    """_cholesky_clears, checking that it leaves the stack as it found it."""
    before = stack.tobytes()
    cleared = _cholesky_clears(stack, scale)
    assert stack.tobytes() == before
    return cleared


# the least eigenvalue of each image, in units of its tolerance
# scale * max(1, spectral radius); 0 makes a singular PSD image
LEAST_IN_TOL = [c * sign for c in (0.1, 0.5, 0.9, 1.1, 2.0) for sign in (1, -1)] + [0.0]


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 12), st.lists(st.sampled_from(LEAST_IN_TOL), min_size=1, max_size=5),
       st.integers(0, 4), st.sampled_from([1e-9, 1e-6, 1e-3]), st.floats(-2, 6),
       st.integers(0, 2**32 - 1))
def test_cholesky_screen_never_hides_a_flagged_image(n, least, zeros, scale, log_radius, seed):
    # images Q diag(lam) Q^T with spectral radius 10^log_radius, least
    # eigenvalue c * tol, and up to `zeros` more zero eigenvalues. The screen
    # reads only the images, so these stand for the images of every family.
    rng = np.random.default_rng(seed)
    radius = 10.0 ** log_radius
    stack = []
    for c in least:
        lam = rng.uniform(0, radius, n)
        lam[-1] = radius
        lam[1:1 + min(zeros, n - 2)] = 0.0
        lam[0] = c * scale * max(1.0, radius)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * lam) @ q.T
        stack.append((m + m.T) / 2)
    stack = np.array(stack)
    cleared = _screened(stack, scale)
    lam, tol = least_eigenvalue(stack, scale)
    if cleared:
        assert not (lam < -tol).any()
    if min(least) < -1:
        assert not cleared
    if min(least) >= 0:
        assert cleared


@settings(max_examples=120, deadline=None)
@given(GRAPHS, st.sampled_from(FAMILIES), st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
       st.sampled_from([1e-9, 1e-6]), st.integers(0, 2**32 - 1))
def test_cholesky_screen_on_power_images(n_edges, family, alpha, scale, seed):
    n, edges = n_edges
    g = Graph.from_edges(n, sorted(edges))
    ranks = [2 if k % 5 == 4 else 1 for k in range(12)]
    rng = np.random.default_rng(seed)
    for *_, images in sample_spectra(g, ranks, alpha, family, rng):
        for b in range(len(images)):
            lam, tol = least_eigenvalue(images[b:b + 1], scale)
            if _screened(images[b:b + 1], scale):
                assert lam[0] >= -tol[0]
        if _screened(images, scale):
            lam, tol = least_eigenvalue(images, scale)
            assert (lam >= -tol).all()


def test_cholesky_screen_clears_nothing_near_the_roundoff():
    # at a tolerance within a few n^2 of the unit roundoff the backward
    # error of the factorization could hide a flagged image
    stack = np.eye(3)[None] * 2.0
    assert _screened(stack.copy(), 1e-6)
    assert not _screened(stack.copy(), 1e-15)


@pytest.mark.filterwarnings("error")
def test_verify_reports_a_first_non_finite_image(capsys):
    code = main(["verify", "--family", "complete", "--n", "3", "--alphas", "-400",
                 "--samples", "5", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "non-finite" in captured.err
