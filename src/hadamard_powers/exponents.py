"""Symbolic power sets and critical exponents.

Exact descriptions of the powers preserving positive semidefiniteness for
complete and chordal patterns, the super-additivity thresholds, partial
descriptions for cycles and connected bipartite patterns, counterexample
search with float-eigenvalue or interval-arithmetic certificates, numeric
bracketing of the critical exponent, and the scan checking the observed identity
CE = r - 2 (r the largest near-complete subgraph order).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from mpmath.ctx_iv import MPIntervalContext
from mpmath.ctx_mp import MPContext

from .chordal import NotChordalError, find_chordless_cycle, is_chordal
from .cones import (
    FAMILIES,
    _check_family,
    _cholesky_clears,
    _clique_sample_stack,
    _power,
    as_symmetric,
    bordered_factor,
    certify_not_psd,
    conforms_to_pattern,
    entrywise_power,
    factor_gram,
    is_psd,
    least_eigenvalue,
    matrix_from_json,
    matrix_to_json,
    sample_spectra,
)
from .graphs import (
    Graph,
    connected_components,
    graph_from_json,
    graph_to_json,
    max_near_complete_order_fast,
)

LATTICES = ("naturals", "odd", "even", "none")

_LATTICE_FOR_FAMILY = {"plain": "naturals", "odd": "odd", "even": "even"}
_LATTICE_MIN = {"naturals": 1.0, "odd": 1.0, "even": 2.0}


def _lattice_contains(lattice, alpha):
    if lattice == "none":
        return False
    if not np.isfinite(alpha) or alpha < 1 or round(alpha) != alpha:
        return False
    k = int(round(alpha))
    if lattice == "naturals":
        return True
    if lattice == "odd":
        return k % 2 == 1
    return k % 2 == 0


def _shape_str(lattice, ray_start):
    ray = f"[{ray_start:g}, ∞)"
    if lattice == "none" or ray_start <= _LATTICE_MIN[lattice]:
        return ray
    symbol = {"naturals": "N", "odd": "(2N-1)", "even": "2N"}[lattice]
    return f"{symbol} ∪ {ray}"


@dataclass(frozen=True)
class HSet:
    """Set of powers of the form (integer lattice) union [ray_start, oo).

    Exact sets decide membership outright. Partial sets carry an inner
    bound (known to be contained), an outer bound (known to contain), and
    individually excluded powers; exactness is a stored fact backed by a
    proof, never inferred from sampling.
    """

    lattice: str
    ray_start: float
    exact: bool = True
    inner: HSet | None = None
    outer: HSet | None = None
    exclusions: tuple[float, ...] = ()

    def __post_init__(self):
        if self.lattice not in LATTICES:
            raise ValueError(f"unknown lattice {self.lattice!r}")
        if not np.isfinite(self.ray_start) or self.ray_start < 0:
            raise ValueError(f"ray_start must be finite and >= 0, got {self.ray_start}")
        if self.exact and (self.inner is not None or self.outer is not None or self.exclusions):
            raise ValueError("exact sets carry no inner/outer bounds or exclusions")
        if not self.exact and (self.inner is None or self.outer is None):
            raise ValueError("partial sets need both an inner and an outer bound")

    @classmethod
    def partial(cls, inner, outer, exclusions=()):
        """Partial set; the top-level shape mirrors the outer bound."""
        return cls(lattice=outer.lattice, ray_start=outer.ray_start, exact=False,
                   inner=inner, outer=outer, exclusions=tuple(float(x) for x in exclusions))

    def contains(self, alpha):
        """Membership for exact sets; partial sets must use classify."""
        if not self.exact:
            raise ValueError("membership of a partial set is not decidable; use classify")
        return alpha >= self.ray_start or _lattice_contains(self.lattice, alpha)

    def classify(self, alpha):
        """'in', 'out', or 'unknown' (the last only for partial sets)."""
        if self.exact:
            return "in" if self.contains(alpha) else "out"
        if any(abs(alpha - x) < 1e-12 for x in self.exclusions):
            return "out"
        if self.inner.contains(alpha):
            return "in"
        if not self.outer.contains(alpha):
            return "out"
        return "unknown"

    def describe(self):
        if self.exact:
            return _shape_str(self.lattice, self.ray_start)
        txt = (f"contains {self.inner.describe()}, "
               f"contained in {self.outer.describe()}")
        if self.exclusions:
            txt += ", excludes {" + ", ".join(f"{x:g}" for x in self.exclusions) + "}"
        return txt

    def to_json(self):
        return {
            "lattice": self.lattice,
            "ray_start": float(self.ray_start),
            "exact": self.exact,
            "inner": self.inner.to_json() if self.inner is not None else None,
            "outer": self.outer.to_json() if self.outer is not None else None,
            "exclusions": list(self.exclusions),
        }

    @classmethod
    def from_json(cls, data):
        inner = cls.from_json(data["inner"]) if data.get("inner") else None
        outer = cls.from_json(data["outer"]) if data.get("outer") else None
        return cls(lattice=data["lattice"], ray_start=float(data["ray_start"]),
                   exact=bool(data["exact"]), inner=inner, outer=outer,
                   exclusions=tuple(float(x) for x in data.get("exclusions", ())))


# ---------------------------------------------------------------------------
# exact and partial set constructors


def hset_complete(n, family="plain"):
    """Powers preserving positivity on the full cone of n x n PSD matrices:
    family lattice union [n - 2, oo)."""
    _check_family(family)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return HSet(lattice=_LATTICE_FOR_FAMILY[family], ray_start=float(n - 2))


def superadditive_powers(n, family="plain"):
    """Powers alpha whose entrywise map is Loewner super-additive on n x n
    PSD matrices: family lattice union [n, oo).

    For n = 1 this reduces to scalar super-additivity on [0, oo), where all
    three families collapse to [1, oo).
    """
    _check_family(family)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return HSet(lattice=_LATTICE_FOR_FAMILY[family], ray_start=float(n))


def hset_chordal(g, family="plain"):
    """Exact power set for a chordal pattern: lattice union [r - 2, oo),
    where r is the largest order of a near-complete subgraph."""
    _check_family(family)
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    if not is_chordal(g):
        raise NotChordalError(find_chordless_cycle(g),
                              hint="use estimate_ce_numeric for a numeric bracket")
    r = max_near_complete_order_fast(g)
    return HSet(lattice=_LATTICE_FOR_FAMILY[family], ray_start=float(r - 2))


def critical_exponent_clique_formula(g):
    """Critical exponent of a chordal pattern from its clique structure.

    max(clique number - 2, largest separator of a clique tree). This is the
    largest entry of M^T M - 2 I over the vertex-by-maximal-clique incidence
    matrix M: the diagonal gives clique sizes minus two, the off-diagonal
    pairwise clique overlaps, and in a chordal graph two maximal cliques
    meet inside every separator on the clique-tree path between them, while
    each separator is the overlap of a clique and one before it. Cliques in
    different components meet in the empty separator.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    cliques, separators = g.analysis.clique_tree
    return max(max(map(len, cliques)) - 2, max(map(len, separators)))


def hset_cycle(n, family="plain"):
    """Power set of the n-cycle: [1, oo) for plain and odd; for even powers,
    exactly [2, oo) when n = 4, and for n > 4 only the sandwich
    [2, oo) <= set <= [1, oo), with 1 excluded when n is even."""
    _check_family(family)
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    if n == 3:
        return hset_complete(3, family)
    if family in ("plain", "odd"):
        return HSet(lattice="none", ray_start=1.0)
    if n == 4:
        return HSet(lattice="none", ray_start=2.0)
    return HSet.partial(
        inner=HSet(lattice="none", ray_start=2.0),
        outer=HSet(lattice="none", ray_start=1.0),
        exclusions=(1.0,) if n % 2 == 0 else (),
    )


def bipartition(g):
    """(X, Y) two-coloring of a connected bipartite graph, else None."""
    color = {}
    for start in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in color:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    x = frozenset(v for v, c in color.items() if c == 0)
    return x, frozenset(g.vertices) - x


def hset_bipartite(g, family="plain"):
    """Power set bounds for a connected bipartite pattern on >= 3 vertices.

    Plain powers: exactly [1, oo). Even powers: between [2, oo) and
    [1, oo), tightening to exactly [2, oo) when the graph sits between
    K_{2,2} and K_{2,m}. Odd powers: between {1} union [3, oo) and
    [1, oo), the inner bound improving to {1} union [2, oo) in the
    K_{2,m} case.
    """
    _check_family(family)
    if g.n < 3:
        raise ValueError(f"need at least 3 vertices, got {g.n}")
    if len(connected_components(g)) != 1:
        raise ValueError("graph must be connected")
    parts = bipartition(g)
    if parts is None:
        raise ValueError("graph is not bipartite (an odd cycle exists)")
    k22_in_k2m = False
    for p, q in (parts, parts[::-1]):
        if len(p) == 2 and sum(1 for y in q if p <= g.neighbors(y)) >= 2:
            k22_in_k2m = True
    if family == "plain":
        return HSet(lattice="none", ray_start=1.0)
    outer = HSet(lattice="none", ray_start=1.0)
    if family == "even":
        if k22_in_k2m:
            return HSet(lattice="none", ray_start=2.0)
        return HSet.partial(inner=HSet(lattice="none", ray_start=2.0), outer=outer)
    # odd extension: the lattice {1, 3, 5, ...} union the ray encodes
    # {1} union [ray, oo) exactly for ray <= 3
    inner_ray = 2.0 if k22_in_k2m else 3.0
    return HSet.partial(inner=HSet(lattice="odd", ray_start=inner_ray), outer=outer)


def _is_cycle_graph(g):
    return (g.n >= 3 and len(g.edges) == g.n
            and all(g.degree(v) == 2 for v in g.vertices)
            and len(connected_components(g)) == 1)


def expected_hset(g, family="plain"):
    """Best available description for a pattern, or None when nothing
    exact or partial is known (chordal, cycle, then connected bipartite)."""
    _check_family(family)
    if g.n < 2:
        return None
    if is_chordal(g):
        return hset_chordal(g, family)
    if _is_cycle_graph(g):
        return hset_cycle(g.n, family)
    if len(connected_components(g)) == 1 and bipartition(g) is not None and g.n >= 3:
        return hset_bipartite(g, family)
    return None


# ---------------------------------------------------------------------------
# witness search


#: v = BORDER_SCALE * linspace(1, 2, m) in the closed-form bordered witness
BORDER_SCALE = 0.56
#: most decimal digits an interval certificate may use; a closed-form
#: witness not proved at this precision is dropped, and verify() rejects
#: certificates asking for more
CERTIFICATE_MAX_DIGITS = 480


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


@dataclass(frozen=True, eq=False)
class IntervalCertificate:
    """Proof that the Gram matrix of a float factor F is a witness.

    F F^T is PSD exactly. The proof is an interval-arithmetic enclosure,
    at `digits` decimal digits, of x^T (F F^T)^{∘alpha} x whose upper end
    is negative (Rump 2010, Acta Numerica 19). The test vector x is kept as
    decimal strings: rounding it to floats can move the form by more than
    the margin.
    """

    factor: np.ndarray
    test_vector: tuple[str, ...]
    digits: int

    def upper_bound(self, alpha):
        """Upper end of the enclosure of x^T (F F^T)^{∘alpha} x."""
        iv = MPIntervalContext()
        iv.dps = self.digits
        rows = np.flatnonzero(self.factor.any(axis=1))
        image = _image_rows(iv, self.factor[rows], alpha)
        x = [iv.mpf(self.test_vector[r]) for r in rows]
        terms = (image[i][j] * x[i] * x[j] for i in range(len(x)) for j in range(len(x)))
        return sum(terms, iv.mpf(0)).b

    def proves(self, g, matrix, alpha, family):
        """The stored matrix is the float Gram of F bit for bit; each column
        of F is supported on a clique of g, so F F^T conforms exactly; F is
        nonnegative, so the three families share one image; and the
        interval bound is negative."""
        f = self.factor
        if f.shape != (g.n, 2) or len(self.test_vector) != g.n or not np.isfinite(f).all():
            return False
        gram = factor_gram(f)
        if gram.shape != matrix.shape or gram.tobytes() != np.ascontiguousarray(matrix).tobytes():
            return False
        for col in f.T:
            support = np.flatnonzero(col) + 1
            if not all(g.has_edge(a, b) for a, b in itertools.combinations(support, 2)):
                return False
        if family not in FAMILIES or (f < 0).any() or not np.isfinite(alpha):
            return False
        if not 1 <= self.digits <= CERTIFICATE_MAX_DIGITS:
            return False
        try:
            return self.upper_bound(alpha) < 0
        except ValueError:  # a test vector entry that is not a number
            return False

    def to_json(self):
        return {"factor": [[float(x) for x in col] for col in self.factor.T],
                "test_vector": list(self.test_vector),
                "digits": self.digits}

    @classmethod
    def from_json(cls, data):
        try:
            factor = np.array(data["factor"], dtype=float).T
            test_vector = tuple(data["test_vector"])
            digits = int(data["digits"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad certificate JSON: {exc}") from None
        if factor.ndim != 2 or not all(isinstance(x, str) for x in test_vector):
            raise ValueError("bad certificate JSON: factor must be columns of numbers "
                             "and test_vector decimal strings")
        return cls(factor=factor, test_vector=test_vector, digits=digits)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A PSD pattern-conforming matrix whose entrywise power loses PSD-ness.

    Without a certificate, the proof is the float least eigenvalue of the
    power image, strictly below the witness threshold; with one, it is the
    interval bound of an IntervalCertificate, and image_min_eigenvalue is
    the high-precision least eigenvalue. verify() recomputes everything
    from the stored data.
    """

    graph: Graph
    alpha: float
    family: str
    matrix: np.ndarray
    image_min_eigenvalue: float
    construction: str
    certificate: IntervalCertificate | None = None

    def verify(self, tol_scale=1e-9, witness_scale=1e-6):
        try:
            m = as_symmetric(self.matrix)
        except ValueError:
            return False
        if m.shape[0] != self.graph.n:
            return False
        if self.certificate is not None:
            return self.certificate.proves(self.graph, m, self.alpha, self.family)
        if not conforms_to_pattern(m, self.graph):
            return False
        if not is_psd(m, tol_scale).is_psd:
            return False
        try:
            image = entrywise_power(m, self.alpha, self.family)
        except ValueError:
            return False
        return certify_not_psd(image, witness_scale) is not None

    def to_json(self):
        out = {
            "graph": graph_to_json(self.graph),
            "alpha": float(self.alpha),
            "family": self.family,
            "matrix": matrix_to_json(self.matrix),
            "image_min_eigenvalue": float(self.image_min_eigenvalue),
            "construction": self.construction,
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out

    @classmethod
    def from_json(cls, data):
        cert = data.get("certificate")
        return cls(
            graph=graph_from_json(data["graph"]),
            alpha=float(data["alpha"]),
            family=str(data["family"]),
            matrix=matrix_from_json(data["matrix"]),
            image_min_eigenvalue=float(data["image_min_eigenvalue"]),
            construction=str(data["construction"]),
            certificate=IntervalCertificate.from_json(cert) if cert is not None else None,
        )


def _embed_bordered(g, support, u, v):
    """Factor of the PSD rank-two witness on the near-complete subgraph
    support = (v1, S, v2)."""
    v1, s, v2 = support
    return bordered_factor(u, v, g.n, [v1 - 1, *(x - 1 for x in s), v2 - 1])


def _small_bordered_image_fails(u, v, alpha, family, witness_scale):
    image = entrywise_power(factor_gram(bordered_factor(u, v)), alpha, family)
    return certify_not_psd(image, witness_scale) is not None


def _interval_certificate(factor, alpha, digits):
    """(certificate, least image eigenvalue) proving F F^T a witness at
    alpha, doubling the precision from `digits`; None past the limit.

    The test vector is the least eigenvector of the image on F's rows,
    from a symmetric eigensolve at the working precision.
    """
    rows = np.flatnonzero(factor.any(axis=1))
    while digits <= CERTIFICATE_MAX_DIGITS:
        mp = MPContext()
        mp.dps = digits
        eigs, vecs = mp.eigsy(mp.matrix(_image_rows(mp, factor[rows], alpha)))
        k = min(range(len(rows)), key=lambda i: eigs[i])
        x = ["0"] * factor.shape[0]
        for i, r in enumerate(rows):
            x[r] = mp.nstr(vecs[i, k], digits)
        cert = IntervalCertificate(factor=factor, test_vector=tuple(x), digits=digits)
        if cert.upper_bound(alpha) < 0:
            return cert, float(eigs[k])
        digits *= 2
    return None


def _closed_form_witness(g, alpha, family, support, witness_scale):
    """Bordered witness at a non-integer alpha with u = 1 and
    v = BORDER_SCALE * linspace(1, 2, m), m = |S| = floor(alpha) + 1.

    The image is PSD iff the defect (J + e^2 yy^T)^{∘alpha} - J
    - e^{2 alpha} y^{∘alpha} (y^{∘alpha})^T is, with v = e y. Expanding
    (1 + e^2 y_i y_j)^alpha in powers of e^2, the terms up to
    e^{2 floor(alpha)} vanish on a vector orthogonal to y^{∘1}, ...,
    y^{∘floor(alpha)}, and there the -e^{2 alpha} term outweighs the rest
    (the Taylor argument, FitzGerald-Horn 1977, J. Math. Anal. Appl. 61).
    The entries are nonnegative, so the matrix serves all three families.
    The float eigenvalue proves the failure when it clears the witness
    threshold; otherwise an IntervalCertificate does.
    """
    m = len(support[1])
    factor = _embed_bordered(g, support, np.ones(m),
                             BORDER_SCALE * np.linspace(1.0, 2.0, m))
    matrix = factor_gram(factor)
    with np.errstate(over="ignore"):
        image = _power(matrix, alpha, family)
    lam = certify_not_psd(image, witness_scale) if np.isfinite(image).all() else None
    cert = None
    if lam is None:
        proved = _interval_certificate(factor, alpha, 20 + 5 * m)
        if proved is None:
            return None
        cert, lam = proved
    return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                         image_min_eigenvalue=lam, construction="rank_one_bordered",
                         certificate=cert)


def _bordered_search(g, alpha, family, budget, rng, witness_scale):
    """Rank-one bordered strategy on (v1, S[:m], v2), S the clique of the
    largest near-complete subgraph's certificate: the closed-form pair at
    non-integer powers, random signed pairs whose super-additivity defect
    fails on the separator clique at integer powers off the family's
    lattice."""
    r, v1, s, v2 = g.analysis.near_complete
    s_max = r - 2
    if s_max < 1:
        return None
    is_integer = float(alpha).is_integer() and alpha >= 1
    if is_integer:
        if _lattice_contains(_LATTICE_FOR_FAMILY[family], alpha):
            return None
        m = int(alpha) + 1
        if m > s_max:
            return None
    else:
        if alpha >= s_max:
            return None
        m = max(1, int(math.floor(alpha)) + 1)
    support = (v1, s[:m], v2)
    if not is_integer:
        return _closed_form_witness(g, alpha, family, support, witness_scale)
    for _ in range(budget):
        u = rng.standard_normal(m)
        v = rng.standard_normal(m)
        if _small_bordered_image_fails(u, v, alpha, family, witness_scale):
            matrix = factor_gram(_embed_bordered(g, support, u, v))
            lam = certify_not_psd(entrywise_power(matrix, alpha, family), witness_scale)
            if lam is not None:
                return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                                     image_min_eigenvalue=lam,
                                     construction="rank_one_bordered")
    return None


# --- signed even cycles (even-power family only) ---------------------------


def _signed_cycle_witness(g, alpha, witness_scale):
    """Even-cycle matrix with one negated edge: PSD further out than its
    entrywise absolute value, so even powers below the threshold fail.

    A 2k-cycle with entries +/-x and unit diagonal is PSD up to
    x = 1/(2 cos(pi/2k)), while the even-power image needs x^alpha <= 1/2;
    the construction covers alpha < log 2 / log(2 cos(pi/2k)).
    """
    if alpha <= 0:
        return None
    cyc = g.analysis.even_cycle
    if cyc is None:
        return None
    k2 = len(cyc)
    x_psd = 1.0 / (2.0 * math.cos(math.pi / k2))
    limit = math.log(2.0) / math.log(1.0 / x_psd)
    if alpha >= limit:
        return None
    x_fail = 0.5 ** (1.0 / alpha)
    x = math.sqrt(x_fail * x_psd)
    matrix = np.zeros((g.n, g.n))
    for vert in cyc:
        matrix[vert - 1, vert - 1] = 1.0
    for idx in range(k2):
        a, b = cyc[idx] - 1, cyc[(idx + 1) % k2] - 1
        val = -x if idx == k2 - 1 else x
        matrix[a, b] = val
        matrix[b, a] = val
    image = entrywise_power(matrix, alpha, "even")
    lam = certify_not_psd(image, witness_scale)
    if lam is None:
        return None
    return WitnessReport(graph=g, alpha=alpha, family="even", matrix=matrix,
                         image_min_eigenvalue=lam, construction="signed_cycle")


def find_counterexample(g, alpha, family="plain", budget=None, seed=0, *,
                        tol_scale=1e-9, witness_scale=1e-6):
    """Search for a PSD matrix in the pattern cone whose entrywise power
    fails PSD-ness at the given alpha.

    Strategies, in order: the rank-one bordered construction on a largest
    near-complete subgraph (closed-form at non-integer powers, random
    signed pairs at integer ones), a signed even cycle for the even-power
    family, and random clique-sum samples. `budget` (>= 1) caps both the
    signed-pair draws and the samples; None means 200 draws and 500
    samples. Returns the first strictly certified witness, or None once the
    budget is exhausted (absence of a witness is evidence, not proof).
    """
    _check_family(family)
    if not np.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = np.random.default_rng(seed)
    if g.n >= 2:
        report = _bordered_search(g, alpha, family, budget or 200, rng, witness_scale)
        if report is not None:
            return report
    if family == "even":
        report = _signed_cycle_witness(g, alpha, witness_scale)
        if report is not None:
            return report
    return _sample_search(g, alpha, family, budget or 500, rng, tol_scale, witness_scale)


def _sample_search(g, alpha, family, n_samples, rng, tol_scale, witness_scale):
    """Random clique-sum samples (every fifth of rank two), drawn a stack at
    a time. A stack that one Cholesky factorization clears holds no
    witness; any other is eigensolved whole. The witness is the first
    sample, in draw order, whose image clears the witness threshold and
    which is PSD within tol_scale; the generator is left where drawing the
    samples one at a time up to that one would leave it.
    """
    ranks = [2 if k % 5 == 4 else 1 for k in range(n_samples)]
    for first, state, stack, images in sample_spectra(g, ranks, alpha, family, rng):
        if _cholesky_clears(images, witness_scale):
            continue
        lam, tol = least_eigenvalue(images, witness_scale)
        for b in np.flatnonzero(lam < -tol):
            matrix = stack[b].copy()
            if is_psd(matrix, tol_scale).is_psd:
                rng.bit_generator.state = state
                _clique_sample_stack(g, ranks[first:first + b + 1], rng, family == "plain")
                return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                                     image_min_eigenvalue=float(lam[b]),
                                     construction="random_sample")
    return None


# ---------------------------------------------------------------------------
# numeric bracketing and the conjecture scan


def estimate_ce_numeric(g, family="plain", grid_step=1 / 16, budget=None, seed=0, *,
                        witness_scale=1e-6):
    """Bracket the critical exponent by scanning non-integer powers.

    Walks a grid over (0, n - 2] top-down; a verified witness at alpha
    proves alpha is outside the power set (so CE > alpha), giving the lower
    end. The upper end is the smallest tested power above it with no
    witness found, capped by n - 2; absence of witnesses is heuristic
    evidence only. Returns (lower, upper).
    """
    _check_family(family)
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ValueError(f"grid_step must be positive and finite, got {grid_step}")
    hi = float(g.n - 2)
    grid = []
    k = 1
    while k * grid_step <= hi + 1e-12:
        a = k * grid_step
        if abs(a - round(a)) > 1e-9:
            grid.append(a)
        k += 1
    if not grid:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    point_budget = budget if budget is not None else 120
    prev_above = None
    for a in reversed(grid):
        report = find_counterexample(g, a, family, point_budget, seed=rng,
                                     witness_scale=witness_scale)
        if report is not None:
            upper = prev_above if prev_above is not None else hi
            return a, upper
        prev_above = a
    return 0.0, grid[0]


def conjecture_scan(graphs, family="plain", *, grid_step=1 / 16, budget=None, seed=0):
    """Check CE = r - 2 numerically over a stream of graphs.

    Per graph: r from the near-complete subgraph search, the numeric
    bracket, and for chordal inputs the exact clique-formula cross-check.
    A graph is flagged when its bracket excludes r - 2 or the exact
    formulas disagree. Per-graph errors are recorded without aborting.
    """
    _check_family(family)
    records = []
    flagged = errors = 0
    for idx, g in enumerate(graphs):
        rec = {"index": idx, "n": g.n, "edge_count": len(g.edges)}
        try:
            r = max_near_complete_order_fast(g)
            conjectured = r - 2
            rec["r"] = r
            rec["conjectured_ce"] = conjectured
            rec["chordal"] = is_chordal(g)
            if rec["chordal"]:
                rec["formula_ce"] = critical_exponent_clique_formula(g)
            lower, upper = estimate_ce_numeric(
                g, family, grid_step=grid_step, budget=budget, seed=seed + idx)
            rec["bracket_lower"] = lower
            rec["bracket_upper"] = upper
            bad_bracket = conjectured < lower - 1e-9 or conjectured > upper + 1e-9
            bad_formula = rec["chordal"] and rec["formula_ce"] != conjectured
            rec["flagged"] = bool(bad_bracket or bad_formula)
            flagged += rec["flagged"]
        except Exception as exc:  # per-graph errors must not kill the scan
            rec["error"] = f"{type(exc).__name__}: {exc}"
            errors += 1
        records.append(rec)
    return {
        "summary": {"graphs": len(records), "flagged": flagged, "errors": errors,
                    "family": family},
        "records": records,
    }


def __getattr__(name):
    # perfbench/spans.py patches `exponents.minimize` by name; the benchmark
    # follow-up (ROADMAP item 1) deletes this hook with that patch
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
