"""Symbolic power sets and critical exponents.

Exact descriptions of the powers preserving positive semidefiniteness for
complete and chordal patterns, the super-additivity thresholds, partial
descriptions for cycles and connected bipartite patterns, counterexample
search with float-eigenvalue or interval-arithmetic certificates, numeric
bracketing of the critical exponent, and the scan checking the observed identity
CE = r - 2 (r the largest near-complete subgraph order).
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import math
import os
import re
import sys
from collections import deque
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .chordal import is_chordal
from .cones import (
    FAMILIES,
    WITNESS_TOL,
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
    induced_subgraph,
)


def _load_libmp():
    """mpmath's arithmetic kernel, mpmath.libmp, loaded from mpmath's files
    on its own as hadamard_powers._libmp, without mpmath/__init__.py, which
    builds the fp, mp and iv contexts and imports every special function.
    libmp imports nothing from its parent package. It is not registered as
    mpmath.libmp, so a later `import mpmath` loads its own copy; the values
    (mpf tuples, rounding-mode strings) pass between the two unchanged.
    ImportError if mpmath is not installed or the kernel does not load."""
    found = importlib.util.find_spec("mpmath")
    if found is None or not found.submodule_search_locations:
        raise ImportError("mpmath is not installed")
    path = os.path.join(found.submodule_search_locations[0], "libmp")
    name = f"{__package__}._libmp"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    kernel = importlib.util.module_from_spec(spec)
    sys.modules[name] = kernel
    try:
        spec.loader.exec_module(kernel)
    except ImportError:
        for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
            del sys.modules[key]
        raise
    return kernel


try:
    _libmp = _load_libmp()
except ImportError:
    from mpmath import libmp as _libmp

dps_to_prec = _libmp.dps_to_prec
from_float = _libmp.from_float
mpf_add = _libmp.mpf_add
mpf_exp = _libmp.mpf_exp
mpf_log = _libmp.mpf_log
mpf_mul = _libmp.mpf_mul
round_ceiling = _libmp.round_ceiling
round_floor = _libmp.round_floor


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


def _combine(sources, inner_end):
    """One description from several descriptions of one family f.

    Each source, and each of its bounds, is L_f union [ray, oo) as a set,
    for the family lattice L_f: a bound with lattice "none" has its ray at
    or below L_f's least power. So a larger ray is a smaller set, and
    inclusion is ray order. The inner bound is the one inner_end picks by
    ray (min for a union, max for an intersection), the outer bound the one
    of largest ray, and the exclusions come together; exact when the outer
    bound lies inside the inner one. min and max keep the first on a tie.
    """
    inner = inner_end((h if h.exact else h.inner for h in sources), key=lambda h: h.ray_start)
    outer = max((h if h.exact else h.outer for h in sources), key=lambda h: h.ray_start)
    if outer.ray_start >= inner.ray_start:
        return inner
    return HSet.partial(inner=inner, outer=outer,
                        exclusions=sorted({x for h in sources for x in h.exclusions}))


def expected_hset(g, family="plain"):
    """The tightest proven description of a pattern's power set; None for
    fewer than 2 vertices.

    Every pattern has the sandwich lattice union [r(H) - 2, oo) <= set <=
    lattice union [r - 2, oo): zero padding puts the pattern cone of the
    near-complete subgraph (r, GraphAnalysis.near_complete) inside G's, and
    G's inside that of the chordal supergraph H (r(H),
    GraphAnalysis.triangulation), so their chordal sets bound G's. It is
    exact when r(H) = r, as for every chordal G (H = G).
    Otherwise the cycle and connected bipartite theorems (hset_cycle,
    hset_bipartite) join it where they apply: inner bounds by union, outer
    bounds by intersection, exclusions together. So does, on a disconnected
    pattern, the intersection of its components' descriptions, since its
    set is the intersection of theirs.

    H is built only when r(H) can change the answer. A non-chordal G has
    an induced k-cycle, k >= 4, and every chordal supergraph of it two
    triangles on one edge, so r(H) >= 4 and the sandwich's inner ray
    r(H) - 2 is at least 2. A theorem applies only to a connected
    triangle-free G on >= 3 vertices, where r = 3: the sandwich is never
    exact and its outer ray is 1, no theorem's is below. So a theorem with
    an inner ray <= 2 (every cycle; bipartite plain and even; bipartite
    odd between K_{2,2} and K_{2,m}) decides the answer alone, winning
    every tie as the earlier source.
    """
    _check_family(family)
    if g.n < 2:
        return None
    lattice = _LATTICE_FOR_FAMILY[family]
    r = g.analysis.near_complete_order
    outer = HSet(lattice=lattice, ray_start=float(r - 2))
    if g.analysis.is_chordal:  # H = G
        return outer
    components = connected_components(g)
    theorems = []
    if _is_cycle_graph(g):
        theorems.append(hset_cycle(g.n, family))
    if g.n >= 3 and len(components) == 1 and bipartition(g) is not None:
        theorems.append(hset_bipartite(g, family))
    if any((h if h.exact else h.inner).ray_start <= 2 for h in theorems):
        return _combine(theorems, min)
    r_h = g.analysis.triangulation[2]
    sandwich = HSet(lattice=lattice, ray_start=float(r_h - 2))
    if r_h == r:
        return sandwich
    sources = []
    if len(components) > 1:
        parts = [expected_hset(induced_subgraph(g, c)[0], family) for c in components]
        sources.append(_combine([h for h in parts if h is not None], max))
    sources += theorems
    sources.append(HSet.partial(inner=sandwich, outer=outer))
    return _combine(sources, min)


# ---------------------------------------------------------------------------
# witness search


#: v = BORDER_SCALE * linspace(1, 2, m) in the closed-form bordered witness
BORDER_SCALE = 0.56
#: most decimal digits an interval certificate may use; a closed-form
#: witness not proved at this precision is dropped, and verify() rejects
#: certificates asking for more
CERTIFICATE_MAX_DIGITS = 480


#: image ends are read as exact decimals, whose length grows with their
#: binary exponent; an end past 2^(+-IMAGE_EXPONENT_LIMIT) is replaced by its
#: trivial bound, 0 below and infinity above
IMAGE_EXPONENT_LIMIT = 2**16
#: most image ends the process keeps (_image_end); a witness workload pass
#: of 18 searches and re-verifications reads 243 distinct ones
IMAGE_END_MEMO = 4096
#: most factor Grams the process keeps (_gram); a witness workload pass
#: certifies 4 distinct factors
GRAM_MEMO = 64

_OTHER_WAY = {round_floor: round_ceiling, round_ceiling: round_floor}

#: a test vector entry: a plain decimal literal in ASCII digits, with no
#: NaN, infinity, underscores or surrounding spaces
_DECIMAL_LITERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _gram(f):
    """The entries of F F^T on and above the diagonal that some column
    makes nonzero, {(i, j): mpf value}; float products and sums at mpmath
    precision 0 are exact.

    Memoized per process on F's shape and bytes (_exact_gram), so the
    plain, odd and even searches at one alpha, which certify one factor,
    and each re-verification build it once; the mapping is read-only."""
    f = np.ascontiguousarray(f, dtype=np.float64)
    return _exact_gram(f.shape, f.tobytes())


@functools.lru_cache(maxsize=GRAM_MEMO)
def _exact_gram(shape, data):
    f = np.frombuffer(data).reshape(shape)
    vals = [[from_float(float(x)) for x in row] for row in f]
    n, k = f.shape
    out = {}
    for i in range(n):
        for j in range(i, n):
            terms = [mpf_mul(vals[i][c], vals[j][c]) for c in range(k) if f[i, c] and f[j, c]]
            if terms:
                out[i, j] = functools.reduce(mpf_add, terms)
    return MappingProxyType(out)


def _power_end(s, alpha, prec, rnd):
    """s^alpha for mpf values s > 0 and alpha, rounded at prec bits toward
    rnd (round_floor or round_ceiling): the end on that side of mpmath.iv's
    s ** alpha at a power other than an integer or 1/2, by the same calls at
    the same working precisions. The logarithm rounds the other way when
    alpha < 0."""
    wp = prec + 20
    log_rnd = _OTHER_WAY[rnd] if alpha[0] else rnd
    return mpf_exp(mpf_mul(mpf_log(s, wp, log_rnd), alpha, wp, rnd), prec, rnd)


@functools.cache
def _exact_context():
    import decimal  # libmpdec; only certificates load it

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


@functools.lru_cache(maxsize=IMAGE_END_MEMO)
def _image_end(s, alpha, digits, rnd):
    """_power_end at the binary precision of `digits` decimal digits, as an
    exact decimal (or its trivial bound past IMAGE_EXPONENT_LIMIT).

    Memoized per process on the exact Gram value, alpha, digits and
    direction, so the search's lower and upper ends, the bound that
    IntervalCertificate.upper_bound recomputes, and the plain, odd and even
    searches at one alpha, which certify one image, compute each end once.
    A memoized end is the decimal the arithmetic returns."""
    exact = _exact_context()
    _, man, exp, bc = _power_end(s, from_float(float(alpha)), dps_to_prec(digits), rnd)
    if abs(exp + bc) > IMAGE_EXPONENT_LIMIT:
        return exact.create_decimal(0 if rnd == round_floor else "Infinity")
    if exp >= 0:
        return exact.create_decimal(man << exp)
    # man 2^exp = man 5^-exp 10^exp
    return exact.scaleb(exact.create_decimal(man * 5**-exp), exp)


def _test_vector_entry(text):
    """A test vector entry as an exact decimal; ValueError unless it is a
    plain decimal literal."""
    if not _DECIMAL_LITERAL.fullmatch(text):
        raise ValueError(f"test vector entry {text!r} is not a decimal number")
    return _exact_context().create_decimal(text)


def _form_upper(gram, alpha, digits, x):
    """Upper bound on x^T (F F^T)^{∘alpha} x, gram the entries of F F^T
    (_gram) and x exact decimals.

    Every image entry is positive, so the term of the pair i <= j,
    c = x_i x_j (doubled off the diagonal) times the entry, is at most c
    times the entry's upper end when c > 0 and its lower end when c < 0;
    only that end is read (_image_end). Every operation rounds up, at
    2 digits + 1 digits, so c is exact for x of `digits` digits and the sum
    is an upper bound.
    """
    import decimal

    ctx = decimal.Context(prec=2 * digits + 1, rounding=decimal.ROUND_CEILING,
                          Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    total = ctx.create_decimal(0)
    for (i, j), s in gram.items():
        c = ctx.multiply(x[i], x[j])
        if i != j:
            c = ctx.add(c, c)
        if c:
            end = _image_end(s, alpha, digits, round_ceiling if c > 0 else round_floor)
            total = ctx.add(total, ctx.multiply(c, end))
    return total


@dataclass(frozen=True, eq=False)
class IntervalCertificate:
    """Proof that the Gram matrix of a float factor F is a witness.

    F F^T is PSD exactly. The proof is an upper bound on
    x^T (F F^T)^{∘alpha} x that is negative (a verification method: Rump
    2010, Acta Numerica 19). It is summed in decimal from the exact
    x_i x_j and, per image entry, one end rounded at the binary precision
    of `digits` decimal digits in the direction the sign of x_i x_j calls
    for (_form_upper). The test vector x is the negative-pivot vector
    L^{-T} e_k of a diagonally pivoted L D L^T of the image at that
    precision, so the form is, up to rounding, the negative diagonal entry
    of the Schur complement where the factorization stops. It is kept as
    decimal strings: rounding it to floats can move the form by more than
    the margin.
    """

    factor: np.ndarray
    test_vector: tuple[str, ...]
    digits: int

    def upper_bound(self, alpha):
        """Upper bound on x^T (F F^T)^{∘alpha} x, a decimal; ValueError
        when a test vector entry is not a plain decimal number."""
        x = [_test_vector_entry(v) for v in self.test_vector]
        rows = np.flatnonzero(self.factor.any(axis=1))
        return _form_upper(_gram(self.factor[rows]), alpha, self.digits, [x[r] for r in rows])

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
        except (ValueError, ArithmeticError):  # not a number, or out of decimal range
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
    the high-precision least eigenvalue: Rayleigh-quotient iteration seeded
    with the certificate's test vector, confirmed least by an inertia count.
    verify() recomputes everything from the stored data.
    """

    graph: Graph
    alpha: float
    family: str
    matrix: np.ndarray
    image_min_eigenvalue: float
    construction: str
    certificate: IntervalCertificate | None = None

    def verify(self):
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
        if not is_psd(m).is_psd:
            return False
        try:
            image = entrywise_power(m, self.alpha, self.family)
        except ValueError:
            return False
        return certify_not_psd(image) is not None

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
        """The report of to_json; ValueError when data is not an object with
        every field, or alpha or image_min_eigenvalue is not a number."""
        if not isinstance(data, dict):
            raise ValueError(f"bad witness JSON: expected an object, got {type(data).__name__}")
        for key in ("alpha", "image_min_eigenvalue"):
            value = data.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"bad witness JSON: {key} must be a number, got {value!r}")
        try:
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
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad witness JSON: {type(exc).__name__}: {exc}") from None


def _embed_bordered(g, support, u, v):
    """Factor of the PSD rank-two witness on the near-complete subgraph
    support = (v1, S, v2)."""
    v1, s, v2 = support
    return bordered_factor(u, v, g.n, [v1 - 1, *(x - 1 for x in s), v2 - 1])


def _small_bordered_image_fails(u, v, alpha, family):
    image = entrywise_power(factor_gram(bordered_factor(u, v)), alpha, family)
    return certify_not_psd(image) is not None


def _negative_pivot_vector(ctx, b, shift=0):
    """(x, x^T (B - shift I) x) for the symmetric matrix b (nested lists of
    ctx numbers), or None when B - shift I is positive definite.

    B - shift I is factored as L D L^T with diagonal pivoting, each step on
    the largest remaining diagonal entry. At the first pivot that is not
    positive the Schur complement S has no positive diagonal entry; with k
    the least one, x = L^{-T} e_k gives x^T (B - shift I) x = S_kk <= 0
    (Sylvester's law of inertia). No pivot is divided by unless positive.
    """
    n = len(b)
    s = [[entry - shift if i == j else entry for j, entry in enumerate(row)]
         for i, row in enumerate(b)]
    rest = list(range(n))
    steps = []  # (pivot, {later index: multiplier}) in elimination order
    while rest:
        p = max(rest, key=lambda i: s[i][i])
        d = s[p][p]
        if d <= 0:
            k = min(rest, key=lambda i: s[i][i])
            x = [ctx.zero] * n
            x[k] = ctx.one
            for q, col in reversed(steps):  # back-substitute L^T x = e_k
                x[q] = -sum((lq * x[i] for i, lq in col.items()), ctx.zero)
            return x, s[k][k]
        rest.remove(p)
        sp = s[p]
        col = {i: s[i][p] / d for i in rest}
        for a, i in enumerate(rest):
            li, si = col[i], s[i]
            for j in rest[a:]:
                si[j] -= li * sp[j]
                s[j][i] = si[j]
        steps.append((p, col))
    return None


def _rayleigh_quotient(ctx, b, x):
    bx = [sum((bij * xj for bij, xj in zip(row, x)), ctx.zero) for row in b]
    return (sum((xi * y for xi, y in zip(x, bx)), ctx.zero)
            / sum((xi * xi for xi in x), ctx.zero))


def _solve(ctx, a, rhs):
    """Solution of a y = rhs by Gaussian elimination with partial pivoting;
    None when a is singular at the working precision."""
    n = len(a)
    m = [row[:] + [r] for row, r in zip(a, rhs)]
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(m[i][c]))
        if not m[p][c]:
            return None
        m[c], m[p] = m[p], m[c]
        piv = m[c]
        for row in m[c + 1:]:
            f = row[c] / piv[c]
            if f:
                for j in range(c + 1, n + 1):
                    row[j] -= f * piv[j]
    y = [ctx.zero] * n
    for c in reversed(range(n)):
        y[c] = (m[c][n] - sum((m[c][j] * y[j] for j in range(c + 1, n)), ctx.zero)) / m[c][c]
    return y


#: Rayleigh-quotient iteration stops once a step moves the quotient by at
#: most this share of it (well past float precision) plus the working
#: precision's noise floor; the least-eigenvalue check shifts below the
#: quotient by CONFIRM_SHARE of it plus that floor
RQI_TOL = 2.0 ** -80
CONFIRM_SHARE = 2.0 ** -64
RQI_MAX_STEPS = 25


def _rayleigh_iteration(ctx, b, x, floor):
    """Least Rayleigh quotient met by Rayleigh-quotient iteration on b from
    x, with its vector."""
    rho = _rayleigh_quotient(ctx, b, x)
    best = rho, x
    for _ in range(RQI_MAX_STEPS):
        y = _solve(ctx, [[bij - rho if i == j else bij for j, bij in enumerate(row)]
                         for i, row in enumerate(b)], x)
        if y is None:  # rho is an eigenvalue at the working precision
            break
        top = max(abs(v) for v in y)
        x = [v / top for v in y]
        step, rho = rho, _rayleigh_quotient(ctx, b, x)
        best = min(best, (rho, x), key=lambda t: t[0])
        if abs(rho - step) <= abs(rho) * ctx.mpf(RQI_TOL) + floor:
            break
    return best


def _noise_floor(ctx, b):
    """4 n eps ||B||_inf: the rounding noise of an L D L^T of b at the
    working precision."""
    return 4 * len(b) * ctx.eps * max(sum(abs(v) for v in row) for row in b)


def _least_eigenvalue(ctx, b, x):
    """Least eigenvalue of b by Rayleigh-quotient iteration from x, or None
    if it cannot be confirmed.

    A Rayleigh quotient rho bounds the least eigenvalue from above; it is
    confirmed least when B - (rho - delta) I has no non-positive pivot, with
    delta = CONFIRM_SHARE |rho| plus the noise floor (_noise_floor).
    Otherwise the check's negative-pivot vector, whose quotient lies below
    rho - delta, seeds the next iteration.
    """
    floor = _noise_floor(ctx, b)
    for _ in range(len(b) + 1):
        rho, x = _rayleigh_iteration(ctx, b, x, floor)
        found = _negative_pivot_vector(ctx, b, rho - abs(rho) * ctx.mpf(CONFIRM_SHARE) - floor)
        if found is None:
            return rho
        x = found[0]
    return None


class _DecimalContext:
    """The point arithmetic of the certificate search: stdlib decimal
    numbers at dps significant digits, with the members of an mpmath
    context that the point routines use. Decimal operators round to the
    thread's context, so the routines run inside `with ctx.local():`."""

    def __init__(self, dps):
        import decimal  # libmpdec; only certificate searches load it

        self.dps = dps
        self.context = decimal.Context(prec=dps)
        self.local = functools.partial(decimal.localcontext, self.context)
        self.zero = decimal.Decimal(0)
        self.one = decimal.Decimal(1)
        self.eps = self.one.scaleb(1 - dps)

    def mpf(self, x):
        return self.context.create_decimal(x)


def _point_image(gram, alpha, digits, k):
    """(ctx, image): the _DecimalContext of `digits` digits and the k x k
    image, each entry the lower end of (F F^T)^{∘alpha} (_image_end on
    gram, from _gram) rounded once to those digits; zero where F F^T is."""
    ctx = _DecimalContext(digits)
    image = [[ctx.zero] * k for _ in range(k)]
    for (i, j), s in gram.items():
        image[i][j] = image[j][i] = ctx.mpf(_image_end(s, alpha, digits, round_floor))
    return ctx, image


def _interval_certificate(factor, alpha, digits):
    """(certificate, least image eigenvalue) proving F F^T a witness at
    alpha, doubling the precision from `digits`; None past the limit.

    Each precision rounds every image entry on F's rows down once
    (_point_image); the point arithmetic runs on those lower ends in a
    _DecimalContext. The test vector is the negative-pivot vector of a
    diagonally pivoted L D L^T of that point image, and _form_upper bounds
    it as IntervalCertificate.upper_bound does, from the same memoized
    ends (_image_end). The
    eigenvalue comes from Rayleigh-quotient iteration seeded with it and
    confirmed least by an inertia count. Where the noise floor of that
    precision exceeds 2^-53 of the eigenvalue (a power next to an integer,
    whose image is nearly singular), only the eigenvalue is recomputed, at
    doubled precision up to CERTIFICATE_MAX_DIGITS, so that it is resolved
    to float precision.
    """
    rows = np.flatnonzero(factor.any(axis=1))
    gram = _gram(factor[rows])
    while digits <= CERTIFICATE_MAX_DIGITS:
        ctx, point = _point_image(gram, alpha, digits, len(rows))
        with ctx.local():
            found = _negative_pivot_vector(ctx, point)
            if found is not None:
                strings = [format(v, f".{digits}g") for v in found[0]]
                exact = [_test_vector_entry(v) for v in strings]
                if _form_upper(gram, alpha, digits, exact) < 0:
                    lam = _least_eigenvalue(ctx, point, found[0])
                    if lam is not None:
                        x = ["0"] * factor.shape[0]
                        for r, v in zip(rows, strings):
                            x[r] = v
                        cert = IntervalCertificate(factor=factor, test_vector=tuple(x),
                                                   digits=digits)
                        return cert, _resolved_eigenvalue(gram, alpha, ctx, point,
                                                          found[0], lam)
        digits *= 2
    return None


def _resolved_eigenvalue(gram, alpha, ctx, image, x, lam):
    """lam, the least eigenvalue of the point image = (F F^T)^{∘alpha} at
    ctx's precision, as a float. While the noise floor exceeds 2^-53 |lam|
    and the precision stays within CERTIFICATE_MAX_DIGITS, Rayleigh-quotient
    iteration from x recomputes it on the point image at doubled
    precision."""
    while 2 * ctx.dps <= CERTIFICATE_MAX_DIGITS:
        with ctx.local():
            if _noise_floor(ctx, image) <= abs(lam) * ctx.mpf(2.0 ** -53):
                break
        ctx, image = _point_image(gram, alpha, 2 * ctx.dps, len(image))
        with ctx.local():
            finer = _least_eigenvalue(ctx, image, [ctx.mpf(v) for v in x])
        if finer is None:
            break
        lam = finer
    return float(lam)


def _closed_form_witness(g, alpha, family, support):
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
    lam = certify_not_psd(image) if np.isfinite(image).all() else None
    cert = None
    if lam is None:
        proved = _interval_certificate(factor, alpha, 20 + 5 * m)
        if proved is None:
            return None
        cert, lam = proved
    return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                         image_min_eigenvalue=lam, construction="rank_one_bordered",
                         certificate=cert)


def _bordered_search(g, alpha, family, budget, rng):
    """Rank-one bordered strategy on (v1, S[:m], v2), S the clique of the
    largest near-complete subgraph's certificate: the closed-form pair at
    non-integer powers, random signed pairs whose super-additivity defect
    fails on the separator clique at integer powers off the family's
    lattice. rng() returns the generator; only the signed pairs call it."""
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
        return _closed_form_witness(g, alpha, family, support)
    gen = rng()
    for _ in range(budget):
        u = gen.standard_normal(m)
        v = gen.standard_normal(m)
        if _small_bordered_image_fails(u, v, alpha, family):
            matrix = factor_gram(_embed_bordered(g, support, u, v))
            lam = certify_not_psd(entrywise_power(matrix, alpha, family))
            if lam is not None:
                return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                                     image_min_eigenvalue=lam,
                                     construction="rank_one_bordered")
    return None


# --- signed even cycles (even-power family only) ---------------------------


def _signed_cycle_witness(g, alpha):
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
    lam = certify_not_psd(image)
    if lam is None:
        return None
    return WitnessReport(graph=g, alpha=alpha, family="even", matrix=matrix,
                         image_min_eigenvalue=lam, construction="signed_cycle")


class _LazyGenerator:
    """np.random.default_rng(seed), built on the first call: a search that
    draws nothing does not load numpy.random. Searches handed the same
    handle read one stream."""

    def __init__(self, seed):
        self._seed = seed
        self._gen = None

    def __call__(self):
        if self._gen is None:
            self._gen = np.random.default_rng(self._seed)
        return self._gen


def find_counterexample(g, alpha, family="plain", budget=None, seed=0):
    """Search for a PSD matrix in the pattern cone whose entrywise power
    fails PSD-ness at the given alpha.

    Strategies, in order: the rank-one bordered construction on a largest
    near-complete subgraph (closed-form at non-integer powers, random
    signed pairs at integer ones), a signed even cycle for the even-power
    family, and random clique-sum samples. `budget` (>= 1) caps both the
    signed-pair draws and the samples; None means 200 draws and 500
    samples. Returns the first strictly certified witness, or None once the
    budget is exhausted or a sample's image overflows (absence of a witness
    is evidence, not proof).

    The generator np.random.default_rng(seed) is built at the first draw,
    by the signed pairs or the samples, which read it in that order. A
    search settled by the closed form or a signed cycle builds none, so it
    leaves a Generator passed as seed untouched.
    """
    _check_family(family)
    if not np.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = seed if isinstance(seed, _LazyGenerator) else _LazyGenerator(seed)
    if g.n >= 2:
        report = _bordered_search(g, alpha, family, budget or 200, rng)
        if report is not None:
            return report
    if family == "even":
        report = _signed_cycle_witness(g, alpha)
        if report is not None:
            return report
    return _sample_search(g, alpha, family, budget or 500, rng())


def _sample_search(g, alpha, family, n_samples, rng):
    """Random clique-sum samples (every fifth of rank two), drawn a stack at
    a time. A stack that one Cholesky factorization clears holds no
    witness; any other is eigensolved whole. The witness is the first
    sample, in draw order, whose image clears the witness threshold and
    which is_psd accepts; the generator is left where drawing the
    samples one at a time up to that one would leave it. A sample whose
    image overflows ends the search: its image proves nothing, and
    sample_spectra reads no further.
    """
    ranks = [2 if k % 5 == 4 else 1 for k in range(n_samples)]
    with np.errstate(over="ignore"):
        for first, state, stack, images in sample_spectra(g, ranks, alpha, family, rng):
            if not _cholesky_clears(images, WITNESS_TOL):
                lam, tol = least_eigenvalue(images, WITNESS_TOL)
                for b in np.flatnonzero(lam < -tol):
                    matrix = stack[b].copy()
                    if is_psd(matrix).is_psd:
                        rng.bit_generator.state = state
                        _clique_sample_stack(g, ranks[first:first + b + 1], rng,
                                             family == "plain")
                        return WitnessReport(graph=g, alpha=alpha, family=family,
                                             matrix=matrix, image_min_eigenvalue=float(lam[b]),
                                             construction="random_sample")
            if len(images) < len(stack):  # sample_spectra stops at this overflow
                return None
    return None


# ---------------------------------------------------------------------------
# numeric bracketing and the conjecture scan


#: spacing of the power grid that estimate_ce_numeric walks
GRID_STEP = 1 / 16


def estimate_ce_numeric(g, family="plain", budget=None, seed=0):
    """Bracket the critical exponent by scanning non-integer powers.

    Walks the non-integer multiples of GRID_STEP in (0, n - 2] top-down; a
    verified witness at alpha proves alpha is outside the power set (so
    CE > alpha), giving the lower end. The upper end is the smallest grid
    power above it with no witness, capped by n - 2. Powers that
    expected_hset proves in the set (its exact set, or the inner bound of a
    partial one) count as tested with no witness and are not searched, so
    an upper end there is proven. The walk visits none above the proven
    range: of the grid powers from its ray up, all in the set, it reads only
    the least, as the upper end should the next one down be refuted. Every
    other upper end only means the search found no witness. A power it
    proves outside the set counts as refuted, as a witnessed one does, and
    is not searched either. The searches read one generator,
    np.random.default_rng(seed), built at their first draw. Returns
    (lower, upper).
    """
    _check_family(family)
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    if budget is not None and budget < 1:  # checked here too: the walk may search nothing
        raise ValueError(f"budget must be >= 1, got {budget}")
    if g.n == 2:  # no grid power in (0, 0]
        return 0.0, 0.0
    hi = float(g.n - 2)
    per_unit = round(1 / GRID_STEP)
    top = (g.n - 2) * per_unit  # the grid power k * GRID_STEP is n - 2
    known = expected_hset(g, family)
    # off the integers, a power is "in" from here on: the ray of the exact
    # set, or the inner ray of a partial one past every exclusion it names
    start = known.ray_start if known.exact else max(
        [known.inner.ray_start, *(x + 1e-9 for x in known.exclusions)])
    lowest = max(math.ceil(start / GRID_STEP), 1) if start <= hi else top + 1
    if lowest % per_unit == 0:
        lowest += 1
    prev_above = lowest * GRID_STEP if lowest <= top else None
    rng = _LazyGenerator(seed)
    point_budget = budget if budget is not None else 120
    for k in range(lowest - 1, 0, -1):
        if k % per_unit == 0:
            continue
        a = k * GRID_STEP
        proof = known.classify(a)
        if proof == "out" or (proof == "unknown" and find_counterexample(
                g, a, family, point_budget, seed=rng) is not None):
            return a, prev_above if prev_above is not None else hi
        prev_above = a
    return 0.0, prev_above


def conjecture_scan(graphs, family="plain", *, budget=None, seed=0):
    """Check CE = r - 2 numerically over a stream of graphs.

    Per graph: r (GraphAnalysis.near_complete_order), chordality and the
    numeric bracket. A graph is flagged when its bracket excludes r - 2.
    Per-graph errors are recorded without aborting.
    """
    _check_family(family)
    records = []
    flagged = errors = 0
    for idx, g in enumerate(graphs):
        rec = {"index": idx, "n": g.n, "edge_count": len(g.edges)}
        try:
            r = g.analysis.near_complete_order
            conjectured = r - 2
            rec["r"] = r
            rec["conjectured_ce"] = conjectured
            rec["chordal"] = is_chordal(g)
            lower, upper = estimate_ce_numeric(g, family, budget=budget, seed=seed + idx)
            rec["bracket_lower"] = lower
            rec["bracket_upper"] = upper
            rec["flagged"] = conjectured < lower - 1e-9 or conjectured > upper + 1e-9
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
