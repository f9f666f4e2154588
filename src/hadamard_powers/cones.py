"""Dense symmetric matrices over graph sparsity patterns.

Entrywise power maps (plain x^a on nonnegative entries, the odd extension
sgn(x)|x|^a, and the even extension |x|^a, all sending 0 to 0), PSD testing
with a relative tolerance, clique-supported random PSD samples, Schur
complements, the two-summand splitting along a decomposition, the bordered
three-factor form, the rank-two bordered witness factor, and super-additivity
defects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import _integer

FAMILIES = ("plain", "odd", "even")

#: invertibility guard for corner blocks; beyond this the block is treated
#: as singular rather than regularized.
COND_LIMIT = 1e12

#: relative PSD tolerance: is_psd accepts a least eigenvalue down to
#: -PSD_TOL * max(1, spectral radius).
PSD_TOL = 1e-9

#: relative witness threshold: certify_not_psd and every search certify a
#: power image only when its least eigenvalue is below
#: -WITNESS_TOL * max(1, spectral radius), far past eigensolver noise.
WITNESS_TOL = 1e-6


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown power family {family!r}; expected one of {FAMILIES}")


def as_symmetric(m):
    """Validate and return a finite, exactly symmetric float array."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if not np.array_equal(m, m.T):
        raise ValueError("matrix is not symmetric")
    return m


def symmetrize(m):
    """(m + m.T) / 2, giving exactly symmetric storage."""
    return (m + m.T) / 2.0


def entrywise_power(m, alpha, family="plain"):
    """The power map entry by entry: 0 stays 0, and past the float range inf, quietly."""
    _check_family(family)
    if not np.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    m = np.asarray(m, dtype=float)
    if family == "plain" and (m < 0).any():
        raise ValueError("plain powers need entrywise nonnegative input; "
                         "use the odd or even extension for signed matrices")
    return _power(m, alpha, family)


def _power(m, alpha, family="plain"):
    """entrywise_power on a float array, unchecked; the one place that decides overflow."""
    out = np.abs(m)
    with np.errstate(over="ignore"):
        np.power(out, alpha, out=out, where=out != 0)
    if family == "odd":
        out *= np.sign(m)
    return out


@dataclass(frozen=True)
class PsdVerdict:
    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float


def least_eigenvalue(m, scale):
    """Least eigenvalue of a symmetric matrix, or of each matrix of a stack
    (one batched eigensolve), and the relative tolerance
    scale * max(1, spectral radius) it is judged by."""
    eigs = np.linalg.eigvalsh(m)
    lam_min = eigs[..., 0]
    spectral = np.maximum(np.abs(lam_min), np.abs(eigs[..., -1]))
    return lam_min, scale * np.maximum(1.0, spectral)


def is_psd(m):
    """PSD test by full symmetric eigendecomposition.

    The tolerance is relative: PSD_TOL * max(1, spectral radius), since
    clique-sum samples vary over orders of magnitude in scale.
    """
    m = as_symmetric(m)
    lam_min, tol = map(float, least_eigenvalue(m, PSD_TOL))
    return PsdVerdict(is_psd=lam_min >= -tol, min_eigenvalue=lam_min, tolerance_used=tol)


def certify_not_psd(m):
    """Strict non-PSD certificate: the least eigenvalue if it clears
    -WITNESS_TOL * max(1, spectral radius), else None; None also for a
    matrix with a non-finite entry: an image that overflowed proves nothing.

    Deliberately stricter than the is_psd tolerance so numerical noise is
    never promoted to a counterexample.
    """
    if not np.isfinite(m).all():
        return None
    lam_min, tol = map(float, least_eigenvalue(as_symmetric(m), WITNESS_TOL))
    return lam_min if lam_min < -tol else None


def conforms_to_pattern(m, g):
    """True iff every off-diagonal entry outside the edge set is exactly 0."""
    m = as_symmetric(m)
    if m.shape[0] != g.n:
        raise ValueError(f"matrix is {m.shape[0]}x{m.shape[0]} but graph has {g.n} vertices")
    rows, cols = np.nonzero(np.triu(m, 1))
    return all(g.has_edge(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()))


def random_psd_for_graph(g, rank_per_clique=1, seed=None, *, eps_diag=0.0,
                         nonnegative=False):
    """Random PSD matrix supported exactly on the graph's pattern.

    Sum over the maximal cliques of `rank_per_clique` Gram terms x x^T with
    standard normal entries supported on the clique. Entries outside the
    pattern are exactly 0.0 by construction. `eps_diag` adds a multiple of
    the identity for conditioning studies; `nonnegative` folds the Gram
    vectors to their absolute values, sampling the entrywise-nonnegative
    part of the cone (needed for plain powers). `seed` may be a Generator,
    which the draw advances. The sample is a one-matrix read of
    `_clique_sample_stack`, the sampler every search shares.
    """
    if rank_per_clique < 1:
        raise ValueError(f"rank_per_clique must be >= 1, got {rank_per_clique}")
    m = _clique_sample_stack(g, [rank_per_clique], np.random.default_rng(seed), nonnegative)[0]
    if eps_diag:
        m[np.diag_indices(g.n)] += eps_diag
    return m


#: most floats in one sample stack (samples x n x n, 512 KB): batched
#: searches draw, screen and eigensolve their samples a stack at a time, and
#: hold about four stack-sized arrays (samples, power images, the Cholesky
#: factor of the screen or one eigensolve temporary) at the peak.
SAMPLE_CHUNK_FLOATS = 1 << 16


def sample_spectra(g, ranks, alpha, family, rng):
    """The sample loop every sampling search reads: clique-sum samples of
    the given ranks (nonnegative for the plain family), drawn a stack of
    at most SAMPLE_CHUNK_FLOATS floats at a time, and their power images.

    Yields (samples, images) once per stack, and ends after the stack that
    holds the first non-finite image, with its images cut before that one:
    `verify` raises on such a short stack, the witness search finds no
    witness past it. Each reader reduces the images its own way: `verify`
    takes every least eigenvalue (least_eigenvalue), the witness search
    first tries to clear the whole stack with one Cholesky factorization
    (_cholesky_clears).
    """
    step = max(1, SAMPLE_CHUNK_FLOATS // max(1, g.n * g.n))
    for first in range(0, len(ranks), step):
        stack = _clique_sample_stack(g, ranks[first:first + step], rng, family == "plain")
        images = _power(stack, alpha, family)
        finite = np.isfinite(images).all(axis=(1, 2))
        if not finite.all():
            yield stack, images[:int(np.argmin(finite))]
            return
        yield stack, images


def _cholesky_clears(images, scale):
    """True when one stacked Cholesky factorization proves that no image of
    the stack has a least eigenvalue below -scale * max(1, spectral radius),
    the tolerance of least_eigenvalue.

    Image b is shifted by s_b = scale / 2 * max(1, largest |diagonal entry|),
    at most half its tolerance, since the spectral radius bounds every
    diagonal entry. A factorization of A + s_b I that completes proves
    lambda_min(A) >= -s_b up to a backward error below n (n + 1) u ||A + s_b I||
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 10),
    which the other half covers unless scale is within a few n^2 of the unit
    roundoff u; such a scale clears nothing. The diagonals are shifted in
    place and restored exactly.
    """
    n = images.shape[-1]
    if scale < 8 * n * (n + 1) * np.finfo(float).eps:
        return False
    i = np.arange(n)
    diag = images[:, i, i]
    images[:, i, i] = diag + scale / 2 * np.abs(diag).max(axis=1, initial=1.0)[:, None]
    try:
        np.linalg.cholesky(images)
    except np.linalg.LinAlgError:
        return False
    finally:
        images[:, i, i] = diag
    return True


def _clique_sample_stack(g, ranks, rng, nonnegative):
    """Stack of len(ranks) clique-sum samples; sample b sums ranks[b] Gram
    terms x x^T per maximal clique.

    The normals come from one draw, laid out sample by sample, then clique
    by clique, then term by term, the order in which one sample at a time
    would draw them. One ordered bincount adds every product x_i x_j of a
    sample clique by clique, term by term, from 0.0, so every entry sums the
    same products in the same order: the stack equals the samples drawn one
    at a time, bit for bit, and leaves the generator in the same state.
    """
    layout = g.analysis.sample_layout
    ranks = np.asarray(ranks, dtype=np.intp)
    n = g.n
    per_sample = ranks * layout.normals
    z = rng.standard_normal(int(per_sample.sum()))
    if nonnegative:
        z = np.abs(z)
    sample_start = np.cumsum(per_sample) - per_sample
    targets, weights = [], []
    for rank in range(1, int(ranks.max(initial=0)) + 1):
        rows = np.flatnonzero(ranks == rank)
        if rows.size and layout.cliques:
            left, right, target = layout.gram(rank)
            start = sample_start[rows, None]
            weights.append((z[start + left] * z[start + right]).ravel())
            targets.append((rows[:, None] * (n * n) + target).ravel())
    if not targets:  # no sample has a term
        return np.zeros((len(ranks), n, n))
    stack = np.bincount(np.concatenate(targets), np.concatenate(weights), len(ranks) * n * n)
    return stack.reshape(len(ranks), n, n)


class SampleLayout:
    """Index layout of one graph's clique-sum samples, built once per graph
    (GraphAnalysis.sample_layout): the maximal cliques as 0-based index
    arrays, the normals one rank-one sample draws, and per rank the
    _gram_layout of a sample's terms, made on first use."""

    def __init__(self, cliques, n):
        self.cliques = [np.array(sorted(c)) - 1 for c in cliques]
        self.normals = sum(len(idx) for idx in self.cliques)
        self._n = n
        self._grams = {}

    def gram(self, rank):
        if rank not in self._grams:
            # normals of rank r lie as those of rank one with each clique r times
            self._grams[rank] = _gram_layout(
                [idx for idx in self.cliques for _ in range(rank)], self._n)
        return self._grams[rank]


def _gram_layout(blocks, n):
    """Normals laid out block after block, block k on the 0-based vertices
    blocks[k]: the offsets (left, right) of the two normals of every product
    x_a1 x_a2 of a block, and its flat index a1 * n + a2 in an n x n matrix,
    block by block, then by a1, then by a2."""
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    members = np.concatenate(blocks)
    block_size = np.repeat(sizes, sizes)  # at each normal
    block_start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    left = np.repeat(np.arange(len(members)), block_size)
    run_start = np.cumsum(block_size) - block_size  # where the products of each left normal begin
    right = np.arange(len(left)) - np.repeat(run_start - block_start, block_size)
    return left, right, members[left] * n + members[right]


def _as_zero_based(indices, n):
    idx = sorted({int(i) for i in indices})
    if idx and (idx[0] < 1 or idx[-1] > n):
        raise ValueError(f"indices out of range 1..{n}")
    return np.array([i - 1 for i in idx], dtype=int)


def _check_block_conditioning(block, what):
    if block.size == 0:
        return
    eigs = np.abs(np.linalg.eigvalsh(block))
    if eigs[-1] == 0.0 or eigs[0] == 0.0 or eigs[-1] / eigs[0] > COND_LIMIT:
        cond = np.inf if eigs[0] == 0.0 else eigs[-1] / eigs[0]
        raise np.linalg.LinAlgError(
            f"{what} is singular or ill conditioned (condition estimate {cond:.3e}, "
            f"limit {COND_LIMIT:.1e})")


def schur_complement(m, block):
    """Restrict to `block` (1-based labels) and subtract the cross terms
    through the inverse of the complementary principal block."""
    m = as_symmetric(m)
    n = m.shape[0]
    keep = _as_zero_based(block, n)
    if keep.size == 0:
        raise ValueError("block must be nonempty")
    drop = np.array(sorted(set(range(n)) - set(keep.tolist())), dtype=int)
    if drop.size == 0:
        return m.copy()
    c_block = m[np.ix_(drop, drop)]
    _check_block_conditioning(c_block, "complementary block")
    cross = m[np.ix_(keep, drop)]
    return symmetrize(m[np.ix_(keep, keep)] - cross @ np.linalg.solve(c_block, cross.T))


def _decomposition_indices(m, d):
    n = m.shape[0]
    ia = _as_zero_based(d.side_a, n)
    ic = _as_zero_based(d.separator, n)
    ib = _as_zero_based(d.side_b, n)
    if len(ia) + len(ic) + len(ib) != n:
        raise ValueError("decomposition must cover every matrix index exactly once")
    return ia, ic, ib


def split_by_decomposition(m, d):
    """Split m = m1 + m2 along a decomposition (A, C, B).

    m1 carries the A and A-C blocks plus the completion term
    M_AC^T M_AA^{-1} M_AC on the C block; m2 the remainder, supported on
    B and C. Only M_AA is required to be invertible; the analogous
    requirement on M_BB is not needed for this one-sided formula.
    For PSD input both summands are PSD.
    """
    m = as_symmetric(m)
    ia, ic, ib = _decomposition_indices(m, d)
    if np.any(m[np.ix_(ia, ib)] != 0.0):
        raise ValueError("matrix couples the two separated sides; it does not "
                         "conform to a pattern admitting this decomposition")
    a_block = m[np.ix_(ia, ia)]
    _check_block_conditioning(a_block, "side-A corner block")
    cross = m[np.ix_(ia, ic)]
    solved = np.linalg.solve(a_block, cross)
    m1 = np.zeros_like(m)
    m1[np.ix_(ia, ia)] = a_block
    m1[np.ix_(ia, ic)] = cross
    m1[np.ix_(ic, ia)] = cross.T
    m1[np.ix_(ic, ic)] = symmetrize(cross.T @ solved)
    m2 = m - m1
    return m1, m2


@dataclass(frozen=True)
class ThreeFactorForm:
    """Factorization m = left @ middle @ left.T in the (A, C, B) basis.

    `order` lists the 1-based labels (A, then C, then B) giving the basis
    permutation; `schur_block` is the doubly-reduced middle block
    M_CC - M_AC^T M_AA^{-1} M_AC - M_CB M_BB^{-1} M_CB^T.
    """

    left: np.ndarray
    middle: np.ndarray
    schur_block: np.ndarray
    order: tuple[int, ...]

    def reconstruct(self):
        """Assemble left @ middle @ left.T back in the original basis."""
        r = self.left @ self.middle @ self.left.T
        perm = np.array(self.order) - 1
        inv = np.argsort(perm)
        return symmetrize(r[np.ix_(inv, inv)])


def three_factor_form(m, d):
    """Bordered factorization of m along a decomposition (A, C, B).

    Both corner blocks M_AA and M_BB must be invertible; the middle factor
    is block diagonal (M_AA^{-1}, S, M_BB^{-1}) with S the doubly-reduced
    C block, which is PSD whenever m is.
    """
    m = as_symmetric(m)
    ia, ic, ib = _decomposition_indices(m, d)
    if np.any(m[np.ix_(ia, ib)] != 0.0):
        raise ValueError("matrix couples the two separated sides; it does not "
                         "conform to a pattern admitting this decomposition")
    a_block = m[np.ix_(ia, ia)]
    b_block = m[np.ix_(ib, ib)]
    _check_block_conditioning(a_block, "side-A corner block")
    _check_block_conditioning(b_block, "side-B corner block")
    ac = m[np.ix_(ia, ic)]
    cb = m[np.ix_(ic, ib)]
    cc = m[np.ix_(ic, ic)]
    s_block = symmetrize(cc - ac.T @ np.linalg.solve(a_block, ac)
                         - cb @ np.linalg.solve(b_block, cb.T))
    na, nc, nb = len(ia), len(ic), len(ib)
    n = na + nc + nb
    left = np.zeros((n, n))
    left[:na, :na] = a_block
    left[na:na + nc, :na] = ac.T
    left[na:na + nc, na:na + nc] = np.eye(nc)
    left[na:na + nc, na + nc:] = cb
    left[na + nc:, na + nc:] = b_block
    middle = np.zeros((n, n))
    middle[:na, :na] = symmetrize(np.linalg.inv(a_block))
    middle[na:na + nc, na:na + nc] = s_block
    middle[na + nc:, na + nc:] = symmetrize(np.linalg.inv(b_block))
    order = tuple(int(i) + 1 for i in np.concatenate([ia, ic, ib]))
    return ThreeFactorForm(left=left, middle=middle, schur_block=s_block, order=order)


def bordered_factor(u, v, n=None, index=None):
    """n x 2 factor F = [x1 x2] of a rank-two bordered matrix F F^T.

    x1 is 1 at index[0] and u along index[1:-1]; x2 is v along index[1:-1]
    and 1 at index[-1]; both are 0 elsewhere, so F F^T is zero between
    index[0] and index[-1] and off the index rows. By default n = len(u) + 2
    and index = 0..n-1, the factor of witness_matrix(u, v, uu^T + vv^T).
    """
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    k = len(u)
    if len(v) != k:
        raise ValueError(f"need len(u) == len(v), got {len(u)}, {len(v)}")
    n = k + 2 if n is None else n
    index = np.arange(k + 2) if index is None else np.asarray(index, dtype=np.intp)
    if len(index) != k + 2:
        raise ValueError(f"need {k + 2} indices, got {len(index)}")
    f = np.zeros((n, 2))
    f[index[0], 0] = 1.0
    f[index[1:-1], 0] = u
    f[index[1:-1], 1] = v
    f[index[-1], 1] = 1.0
    return f


def factor_gram(f):
    """F F^T as the sum of the column outer products, in column order: one
    rounding per product and per sum, so it is reproducible bit for bit."""
    f = np.asarray(f, dtype=float)
    out = np.outer(f[:, 0], f[:, 0])
    for col in f.T[1:]:
        out += np.outer(col, col)
    return out


def witness_matrix(u, v, mid):
    """Bordered matrix [[1, u^T, 0], [u, mid, v], [0, v^T, 1]].

    Transfers super-additivity failures of power maps into positivity
    failures on patterns missing one edge (the zero corners). With
    mid = uu^T + vv^T it is the Gram matrix of bordered_factor(u, v).
    """
    mid = as_symmetric(mid)
    k = mid.shape[0]
    if np.size(u) != k or np.size(v) != k:
        raise ValueError(f"need len(u) == len(v) == mid dimension, got "
                         f"{np.size(u)}, {np.size(v)}, {k}")
    w = factor_gram(bordered_factor(u, v))
    w[1:k + 1, 1:k + 1] = mid
    return w


def superadditive_defect(a_mat, b_mat, alpha, family="plain"):
    """Verdict on f[A + B] - f[A] - f[B] for the given power map."""
    a_mat = as_symmetric(a_mat)
    b_mat = as_symmetric(b_mat)
    if a_mat.shape != b_mat.shape:
        raise ValueError(f"shape mismatch: {a_mat.shape} vs {b_mat.shape}")
    defect = (entrywise_power(a_mat + b_mat, alpha, family)
              - entrywise_power(a_mat, alpha, family)
              - entrywise_power(b_mat, alpha, family))
    return is_psd(symmetrize(defect))


# ---------------------------------------------------------------------------
# serialization


def matrix_to_json(m):
    m = as_symmetric(m)
    return {"n": int(m.shape[0]), "rows": m.tolist()}


def _number_rows(rows):
    """rows, a list of lists of JSON numbers (int or float, not bool or
    string), as a float array; ValueError naming the first other entry.
    The entry types are collected at C speed: a report of order 4000 has
    16 million entries."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("expected a list of rows")
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int, float}:
        bad = next(x for x in itertools.chain.from_iterable(rows) if type(x) not in (int, float))
        raise ValueError(f"expected a number, got {bad!r}")
    return np.array(rows, dtype=float)


def matrix_from_json(data):
    """The matrix of matrix_to_json, {"n": order, "rows": [[...], ...]},
    the order a JSON integer and every entry a JSON number;
    ValueError("bad matrix JSON: ...") for anything else."""
    try:
        n = _integer(data["n"])
        m = _number_rows(data["rows"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad matrix JSON: {exc}") from None
    if m.shape != (n, n):
        raise ValueError(f"matrix JSON declares n={n} but rows have shape {m.shape}")
    return as_symmetric(m)
