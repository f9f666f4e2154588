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
import itertools
import math
import re
from dataclasses import dataclass
from types import MappingProxyType

from ._lazy_numpy import np
from .cones import (
    FAMILIES,
    WITNESS_TOL,
    _check_family,
    _cholesky_clears,
    _number_rows,
    _power,
    as_symmetric,
    bordered_factor,
    certify_not_psd,
    entrywise_power,
    factor_gram,
    is_psd,
    least_eigenvalue,
    matrix_from_json,
    matrix_to_json,
    sample_spectra,
)
from .graphs import (
    _integer,
    graph_from_json,
    induced_subgraph,
)


LATTICES = ("naturals", "odd", "even")

_LATTICE_FOR_FAMILY = {"plain": "naturals", "odd": "odd", "even": "even"}
_LATTICE_MIN = {"naturals": 1.0, "odd": 1.0, "even": 2.0}


def _lattice_contains(lattice, alpha):
    if not math.isfinite(alpha) or alpha < 1 or round(alpha) != alpha:
        return False
    k = int(round(alpha))
    if lattice == "naturals":
        return True
    if lattice == "odd":
        return k % 2 == 1
    return k % 2 == 0


def _shape_str(lattice, ray_start):
    ray = f"[{ray_start:g}, ∞)"
    if ray_start <= _LATTICE_MIN[lattice]:
        return ray
    symbol = {"naturals": "N", "odd": "(2N-1)", "even": "2N"}[lattice]
    return f"{symbol} ∪ {ray}"


@dataclass(frozen=True)
class HSet:
    """Set of powers (integer lattice) union [ray_start, oo), or a sandwich.

    Exact sets (inner_ray None) decide membership outright. A partial set
    contains lattice union [inner_ray, oo), inner_ray > ray_start, lies in
    lattice union [ray_start, oo) and excludes each power of exclusions;
    exactness is a stored fact backed by a proof, never inferred from
    sampling.
    """

    lattice: str
    ray_start: float
    inner_ray: float | None = None
    exclusions: tuple[float, ...] = ()

    def __post_init__(self):
        if self.lattice not in LATTICES:
            raise ValueError(f"unknown lattice {self.lattice!r}")
        for ray in (self.ray_start, self.inner_ray):
            if ray is not None and (not math.isfinite(ray) or ray < 0):
                raise ValueError(f"rays must be finite and >= 0, got {ray}")
        object.__setattr__(self, "exclusions", tuple(float(x) for x in self.exclusions))
        if self.exact and self.exclusions:
            raise ValueError("exact sets carry no exclusions")
        if not self.exact and self.inner_ray <= self.ray_start:
            raise ValueError(f"a partial set's inner ray {self.inner_ray} must lie above "
                             f"its ray_start {self.ray_start}")
        if any(self._in_ray_set(self.inner_ray, x) for x in self.exclusions):
            raise ValueError("an excluded power lies in the inner set")

    @property
    def exact(self):
        return self.inner_ray is None

    def _in_ray_set(self, ray, alpha):
        return alpha >= ray or _lattice_contains(self.lattice, alpha)

    def contains(self, alpha):
        """Membership for exact sets; partial sets must use classify."""
        if not self.exact:
            raise ValueError("membership of a partial set is not decidable; use classify")
        return self._in_ray_set(self.ray_start, alpha)

    def classify(self, alpha):
        """'in', 'out', or 'unknown' (the last only for partial sets)."""
        if any(abs(alpha - x) < 1e-12 for x in self.exclusions):
            return "out"
        if self._in_ray_set(self.ray_start if self.exact else self.inner_ray, alpha):
            return "in"
        if not self._in_ray_set(self.ray_start, alpha):
            return "out"
        return "unknown"

    def describe(self):
        if self.exact:
            return _shape_str(self.lattice, self.ray_start)
        txt = (f"contains {_shape_str(self.lattice, self.inner_ray)}, "
               f"contained in {_shape_str(self.lattice, self.ray_start)}")
        if self.exclusions:
            txt += ", excludes {" + ", ".join(f"{x:g}" for x in self.exclusions) + "}"
        return txt

    def to_json(self):
        """A partial set's bounds are spelled as exact sets, the outer one at ray_start."""
        inner, outer = ((None, None) if self.exact else (
            HSet(self.lattice, ray).to_json() for ray in (self.inner_ray, self.ray_start)))
        return {
            "lattice": self.lattice,
            "ray_start": float(self.ray_start),
            "exact": self.exact,
            "inner": inner,
            "outer": outer,
            "exclusions": list(self.exclusions),
        }

    @classmethod
    def from_json(cls, data):
        """The set of to_json; ValueError("bad hset JSON: ...") for anything
        to_json cannot write: exact must be a JSON bool, ray_start and each
        exclusion JSON numbers (no bool or string), and a partial set's
        bounds exact sets of its own lattice, the outer one at its ray_start
        and the inner one above it."""
        def read(d):
            if not isinstance(d, dict):
                raise ValueError(f"expected an object, got {d!r}")
            if type(d["exact"]) is not bool:
                raise ValueError(f"exact must be a bool, got {d['exact']!r}")
            if not isinstance(d["exclusions"], list):
                raise ValueError(f"exclusions must be a list, got {d['exclusions']!r}")
            ray, *excluded = _number_rows([[d["ray_start"], *d["exclusions"]]])[0].tolist()
            inner_ray = None
            if not d["exact"]:
                inner_ray = read(d["inner"]).ray_start
                read(d["outer"])  # its types; the comparison below checks the rest
            h = cls(d["lattice"], ray, inner_ray, excluded)
            if h.to_json() != d:
                raise ValueError(f"not a set to_json writes: {d!r}")
            return h

        try:
            return read(data)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad hset JSON: {exc}") from None


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
    lattice = _LATTICE_FOR_FAMILY[family]
    if family in ("plain", "odd"):
        return HSet(lattice=lattice, ray_start=1.0)
    if n == 4:
        return HSet(lattice=lattice, ray_start=2.0)
    return HSet(lattice, 1.0, inner_ray=2.0, exclusions=(1.0,) if n % 2 == 0 else ())


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
    if len(g.analysis.components) != 1:
        raise ValueError("graph must be connected")
    parts = g.analysis.bipartition
    if parts is None:
        raise ValueError("graph is not bipartite (an odd cycle exists)")
    k22_in_k2m = False
    for p, q in (parts, parts[::-1]):
        if len(p) == 2 and sum(1 for y in q if all(g.has_edge(x, y) for x in p)) >= 2:
            k22_in_k2m = True
    lattice = _LATTICE_FOR_FAMILY[family]
    if family == "plain":
        return HSet(lattice=lattice, ray_start=1.0)
    if family == "even":
        if k22_in_k2m:
            return HSet(lattice=lattice, ray_start=2.0)
        return HSet(lattice, 1.0, inner_ray=2.0)
    # odd extension: the lattice {1, 3, 5, ...} union the ray encodes
    # {1} union [ray, oo) exactly for ray <= 3
    return HSet(lattice, 1.0, inner_ray=2.0 if k22_in_k2m else 3.0)


def _is_cycle_graph(g):
    return (g.n >= 3 and g.m == g.n
            and all(g.degree(v) == 2 for v in g.vertices)
            and len(g.analysis.components) == 1)


def _combine(sources, inner_end):
    """One description from several descriptions of one family f.

    Each source, and each of its bounds, is L_f union [ray, oo) for the
    family lattice L_f. So a larger ray is a smaller set and inclusion is
    ray order. The inner ray is the one inner_end picks (min for a union,
    max for an intersection), the outer ray the largest, and the exclusions
    come together; exact when the outer ray reaches the inner one.
    """
    inner = inner_end(h.ray_start if h.exact else h.inner_ray for h in sources)
    outer = max(h.ray_start for h in sources)
    if outer >= inner:
        return HSet(lattice=sources[0].lattice, ray_start=inner)
    return HSet(sources[0].lattice, outer, inner_ray=inner,
                exclusions=sorted({x for h in sources for x in h.exclusions}))


def expected_hset(g, family="plain"):
    """The tightest proven description of a pattern's power set, spelled
    with the family lattice; None for fewer than 2 vertices.

    Every pattern has the sandwich lattice union [r(H) - 2, oo) <= set <=
    lattice union [r - 2, oo): zero padding puts the pattern cone of the
    near-complete subgraph (r, GraphAnalysis.near_complete) inside G's, and
    G's inside that of the chordal supergraph H (r(H),
    GraphAnalysis.triangulation), so their chordal sets bound G's. It is
    exact when r(H) = r, as for every chordal G (H = G), where r alone is
    read.

    On a non-chordal G the other sources come first: a disconnected G's set
    is the intersection of its components' descriptions, and a connected
    one may meet the cycle or bipartite theorem (hset_cycle,
    hset_bipartite). Sources join with inner bounds by union, outer bounds
    by intersection and exclusions together. The sandwich can only add an
    inner ray r(H) - 2 >= 2 (an induced k-cycle, k >= 4, puts two triangles
    on one edge of every chordal supergraph) and an outer ray r - 2 that no
    source's is below: a theorem applies only where r = 3, and each
    component's outer ray is at least its own r - 2, the largest of which
    is G's. So a source that is exact or has an inner ray <= 2 decides
    alone, and r and H are read only otherwise.
    """
    _check_family(family)
    if g.n < 2:
        return None
    lattice = _LATTICE_FOR_FAMILY[family]
    if g.analysis.is_chordal:  # H = G
        return HSet(lattice=lattice, ray_start=float(g.analysis.near_complete_order - 2))
    components = g.analysis.components
    sources = []
    if len(components) > 1:
        parts = [expected_hset(induced_subgraph(g, c)[0], family) for c in components]
        sources.append(_combine([h for h in parts if h is not None], max))
    if _is_cycle_graph(g):
        sources.append(hset_cycle(g.n, family))
    if g.n >= 3 and len(components) == 1 and g.analysis.bipartition is not None:
        sources.append(hset_bipartite(g, family))
    if any(h.exact or h.inner_ray <= 2 for h in sources):
        return _combine(sources, min)
    r, r_h = g.analysis.near_complete_order, g.analysis.triangulation[2]
    if r_h == r:
        return HSet(lattice=lattice, ray_start=float(r_h - 2))
    return _combine([*sources, HSet(lattice, float(r - 2), inner_ray=float(r_h - 2))], min)


# ---------------------------------------------------------------------------
# witness search


#: v = BORDER_SCALE * y in the closed-form bordered witness (_closed_form_witness)
BORDER_SCALE = 0.56
#: most decimal digits an interval certificate may use; a closed-form
#: witness not proved at this precision is dropped, and verify() rejects
#: certificates asking for more
CERTIFICATE_MAX_DIGITS = 480


#: guard digits of the power ends (_power_ends) past a certificate's digits
GUARD_DIGITS = 3
#: an image entry e^y past 2^(+-IMAGE_EXPONENT_LIMIT), |y| > IMAGE_EXPONENT_LIMIT
#: ln 2, would be read as a decimal of that many digits; its ends are
#: replaced by their trivial bounds, 0 below and infinity above
IMAGE_EXPONENT_LIMIT = 2**16
#: most pairs of power ends, and most logarithms, the process keeps
#: (_power_ends, _log); a witness workload pass of 18 searches and
#: re-verifications reads 155 distinct pairs, from 85 logarithms. A pair
#: serves a proof's point image and bound and the bound verify()
#: recomputes; a logarithm serves every alpha
IMAGE_END_MEMO = 4096
#: most factor Grams the process keeps (_gram); a witness workload pass
#: certifies 4 distinct factors F on U, each read by its proofs and by the
#: bound every re-verification recomputes
GRAM_MEMO = 64
#: most proofs of a support block the process keeps (_certified_block); a
#: witness workload pass makes 6, for 18 searches
CERTIFICATE_MEMO = 64

#: a test vector entry: a plain decimal literal in ASCII digits, with no
#: NaN, infinity, underscores or surrounding spaces
_DECIMAL_LITERAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _block_key(f):
    """(shape, bytes) of f as C-ordered float64: the memo key of a factor
    block (_exact_gram, _certified_block)."""
    f = np.ascontiguousarray(f, dtype=np.float64)
    return f.shape, f.tobytes()


def _gram(f):
    """The entries of F F^T on and above the diagonal that some column
    makes nonzero, {(i, j): exact decimal}; a float converts exactly, and
    the unbounded context (_exact_context) multiplies and adds exactly.

    Memoized per process on F's shape and bytes (_exact_gram), so the
    proof of a block (_certified_block) and the bound each re-verification
    recomputes build it once, and so do proofs of one block at several
    alphas; the mapping is read-only."""
    return _exact_gram(*_block_key(f))


@functools.lru_cache(maxsize=GRAM_MEMO)
def _exact_gram(shape, data):
    exact = _exact_context()
    f = np.frombuffer(data).reshape(shape)
    vals = [[exact.create_decimal_from_float(float(x)) for x in row] for row in f]
    n, k = f.shape
    out = {}
    for i in range(n):
        for j in range(i, n):
            terms = [exact.multiply(vals[i][c], vals[j][c]) for c in range(k)
                     if f[i, c] and f[j, c]]
            if terms:
                out[i, j] = functools.reduce(exact.add, terms)
    return MappingProxyType(out)


@functools.cache
def _context(prec, rounding="ROUND_HALF_EVEN"):
    """The decimal context of prec significant digits and that rounding,
    with the widest exponent range."""
    import decimal  # on first use: only certificates need it

    return decimal.Context(prec=prec, rounding=rounding,
                           Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _exact_context():
    """The unbounded decimal context: sums and products are exact."""
    import decimal

    return _context(decimal.MAX_PREC)


def _correctly_rounded(function, x, prec):
    """function(x), "ln" or "exp", correctly rounded to prec significant
    digits: from the integer kernel (_ln_exp), or from the decimal context,
    the reference, where the kernel cannot decide."""
    from . import _ln_exp  # on first use: only certificates need it

    value = getattr(_ln_exp, function)(x, prec)
    return getattr(_context(prec), function)(x) if value is None else value


@functools.lru_cache(maxsize=IMAGE_END_MEMO)
def _log(s, prec):
    """ln(s), correctly rounded to prec significant digits."""
    return _correctly_rounded("ln", s, prec)


@functools.lru_cache(maxsize=IMAGE_END_MEMO)
def _power_ends(s, alpha, digits):
    """(lower, upper): decimals at p = digits + GUARD_DIGITS significant
    digits enclosing s^alpha, s > 0 an exact decimal (a Gram entry).

    ln, the product with alpha and exp each round to nearest, within a
    relative u = 10^(1-p) / 2 (ln and exp are correctly rounded: the
    integer kernel _ln_exp computes them, and decimal, the reference, where
    it cannot decide; _correctly_rounded):
    L = ln(s)(1 + d1), y' = alpha L (1 + d2) and E = exp(y')(1 + d3), with
    |d_i| <= u. For y = alpha ln s, |y' - y| <= eta = |y| (2u + u^2), so
    E / s^alpha lies in [e^-eta (1 - u), e^eta (1 + u)]. Let
    eps = 2 (|y'| + 1) 10^(1-p) = 4 (|y'| + 1) u, rounded up. While
    eps <= 1/2, |y'| u + u <= 1/8, and with p >= 3 (u <= 0.005),
    eta <= 2.04 |y'| u <= 0.26. Then
    e^eta (1 + u) <= (1 + eta + eta^2)(1 + u) <= 1 + 2.58 |y'| u + 1.33 u
    <= 1 + eps <= 1 / (1 - eps), and
    e^-eta (1 - u) >= 1 - eta - u >= 1 / (1 + eps). So
    E (1 - eps) <= s^alpha <= E (1 + eps), and each end rounds outward.
    y' = 0 (s = 1 or alpha = 0) rounds nothing: both ends are 1. Past
    eps = 1/2 or the exponent limit (|y'| > IMAGE_EXPONENT_LIMIT ln 2) the
    ends are the trivial 0 and infinity.

    Memoized per process on the exact Gram value, alpha and digits, so the
    point image, both ends of the bound and the bound that
    IntervalCertificate.upper_bound recomputes take one exp; the
    logarithm is memoized per (s, p) (_log), since neither alpha nor the
    direction changes it."""
    p = digits + GUARD_DIGITS
    near = _context(p)
    y = near.multiply(_exact_context().create_decimal_from_float(float(alpha)), _log(s, p))
    if not y:
        one = near.create_decimal(1)
        return one, one
    size = near.abs(y)
    up, down = _context(p, "ROUND_CEILING"), _context(p, "ROUND_FLOOR")
    eps = up.multiply(up.add(size, 1), up.scaleb(2, 1 - p))
    if eps > 0.5 or size > IMAGE_EXPONENT_LIMIT * math.log(2):
        return near.create_decimal(0), near.create_decimal("Infinity")
    e = _correctly_rounded("exp", y, p)
    return down.multiply(e, down.subtract(1, eps)), up.multiply(e, up.add(1, eps))


def _test_vector_entry(text):
    """A test vector entry as an exact decimal; ValueError unless it is a
    plain decimal literal."""
    if not _DECIMAL_LITERAL.fullmatch(text):
        raise ValueError(f"test vector entry {text!r} is not a decimal number")
    return _exact_context().create_decimal(text)


def _image_ends(s, alpha, digits, odd):
    """(lower, upper) enclosing the image of the Gram entry s: the ends of
    |s|^alpha (_power_ends), negated and swapped where s < 0 and the family
    is odd. Sign changes are exact, so the ends round as _power_ends's do."""
    lower, upper = _power_ends(s.copy_abs(), alpha, digits)
    if odd and s < 0:
        return upper.copy_negate(), lower.copy_negate()
    return lower, upper


def _form_upper(gram, alpha, digits, x, odd):
    """Upper bound on x^T (F F^T)^{∘alpha} x, gram the entries of F F^T
    (_gram), x exact decimals and odd whether the family keeps the sign of
    a negative entry (_image_ends).

    The term of the pair i <= j, c = x_i x_j (doubled off the diagonal)
    times the image entry, is at most c times the entry's upper end when
    c > 0 and its lower end when c < 0; only that end is read. Every
    operation rounds up, at 2 digits + 1 digits, so c is exact for x of
    `digits` digits and the sum is an upper bound.
    """
    ctx = _context(2 * digits + 1, "ROUND_CEILING")
    total = ctx.create_decimal(0)
    for (i, j), s in gram.items():
        c = ctx.multiply(x[i], x[j])
        if i != j:
            c = ctx.add(c, c)
        if c:
            end = _image_ends(s, alpha, digits, odd)[c > 0]
            total = ctx.add(total, ctx.multiply(c, end))
    return total


@dataclass(frozen=True, eq=False)
class IntervalCertificate:
    """Proof that the Gram matrix of a float factor F is a witness.

    F covers the witness's support U, one row per label. F F^T is PSD
    exactly. The proof is an upper bound on x^T (F F^T)^{∘alpha} x that is
    negative (a verification method: Rump 2010, Acta Numerica 19). It is
    summed in decimal from the exact x_i x_j and, per image entry, one end
    of its enclosure at `digits` + GUARD_DIGITS significant digits, the end
    the sign of x_i x_j calls for (_form_upper). The test vector x is the
    negative-pivot vector L^{-T} e_k of a diagonally pivoted L D L^T of the
    image at that precision, so the form is, up to rounding, the negative
    diagonal entry of the Schur complement where the factorization stops.
    It is kept as decimal strings: rounding it to floats can move the form
    by more than the margin.
    """

    factor: np.ndarray
    test_vector: tuple[str, ...]
    digits: int

    def upper_bound(self, alpha, family="plain"):
        """Upper bound on x^T (F F^T)^{∘alpha} x in the family's powers, a
        decimal; ValueError when a test vector entry is not a plain decimal
        number."""
        x = [_test_vector_entry(v) for v in self.test_vector]
        return _form_upper(_gram(self.factor), alpha, self.digits, x, family == "odd")

    def proves(self, k, edges, alpha, family):
        """For a support U of k labels, F's rows in their order, and edges
        those of G[U] as pairs (i, j), i < j, of rows: F is a finite k x 2
        factor with one test vector entry per row; each column of F is
        supported on a clique, so F F^T conforms exactly; F is nonnegative
        in the plain family, whose powers take no negative entry, and may be
        signed in the odd and even ones; and the interval bound is
        negative."""
        f = self.factor
        if f.shape != (k, 2) or len(self.test_vector) != k or not np.isfinite(f).all():
            return False
        for col in f.T:
            rows = np.flatnonzero(col).tolist()
            if not all(pair in edges for pair in itertools.combinations(rows, 2)):
                return False
        if family not in FAMILIES or family == "plain" and (f < 0).any() or not np.isfinite(alpha):
            return False
        if not 1 <= self.digits <= CERTIFICATE_MAX_DIGITS:
            return False
        try:
            return self.upper_bound(alpha, family) < 0
        except (ValueError, ArithmeticError):  # not a number, or out of decimal range
            return False

    def to_json(self):
        return {"factor": [[float(x) for x in col] for col in self.factor.T],
                "test_vector": list(self.test_vector),
                "digits": self.digits}

    @classmethod
    def from_json(cls, data):
        """The certificate of to_json; ValueError("bad certificate JSON: ...")
        unless factor holds columns of JSON numbers (no bool or string),
        test_vector decimal strings and digits a JSON integer (no bool,
        float or string)."""
        try:
            factor = _number_rows(data["factor"]).T
            test_vector = tuple(data["test_vector"])
            digits = _integer(data["digits"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"bad certificate JSON: {exc}") from None
        if factor.ndim != 2 or not all(isinstance(x, str) for x in test_vector):
            raise ValueError("bad certificate JSON: factor must be columns of numbers "
                             "and test_vector decimal strings")
        return cls(factor=factor, test_vector=test_vector, digits=digits)


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A PSD pattern-conforming matrix whose entrywise power loses PSD-ness,
    kept on its support U, the sorted labels of its nonzero rows: v1, S[:m]
    and v2 for the bordered construction, the cycle for a signed cycle and
    every row for a clique-sum sample. A matrix is PSD exactly when its
    U x U block is, and since 0^alpha = 0 its image is the zero-padded image
    of the block: the block proves a witness on every n-vertex graph that
    contains G[U]. `edges` are the edges of G[U], in G's labels.

    A report holds one proof. Without a certificate it is `matrix`, the
    block, whose float least image eigenvalue is strictly below the witness
    threshold. With one, the witness is F F^T for the certificate's factor
    F on U, and the proof is its interval bound; image_min_eigenvalue is
    then the high-precision least eigenvalue: Rayleigh-quotient iteration
    seeded with the certificate's test vector, confirmed least by an
    inertia count. verify() recomputes everything from the stored data, at
    a cost in |U| rather than n; dense() gives the n x n matrix.
    """

    n: int
    support: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    alpha: float
    family: str
    image_min_eigenvalue: float
    construction: str
    matrix: np.ndarray | None = None
    certificate: IntervalCertificate | None = None

    @classmethod
    def on_support(cls, g, support, **fields):
        """The report of a witness on g whose support is the sorted labels
        `support`, with the edges of G[U] read off their neighbor lists."""
        support = tuple(support)
        inside, near = set(support), g._adjacency
        edges = tuple((u, v) for u in support for v in near[u] if v > u and v in inside)
        return cls(n=g.n, support=support, edges=edges, **fields)

    def _block_edges(self):
        """The edges of G[U] as pairs (i, j), i < j, of places in the
        support; None unless the support is a strictly increasing run of
        labels in 1..n and every edge joins two distinct labels of it."""
        u = self.support
        if not u or u[0] < 1 or u[-1] > self.n or any(a >= b for a, b in itertools.pairwise(u)):
            return None
        place, edges = {label: k for k, label in enumerate(u)}, set()
        for a, b in self.edges:
            i, j = place.get(a), place.get(b)
            if i is None or j is None or i == j:
                return None
            edges.add((i, j) if i < j else (j, i))
        return edges

    def verify(self):
        edges, k = self._block_edges(), len(self.support)
        if edges is None or (self.matrix is None) == (self.certificate is None):
            return False
        if self.certificate is not None:
            return self.certificate.proves(k, edges, self.alpha, self.family)
        try:
            m = as_symmetric(self.matrix)
        except ValueError:
            return False
        if m.shape[0] != k:
            return False
        rows, cols = np.nonzero(np.triu(m, 1))
        if not all(pair in edges for pair in zip(rows.tolist(), cols.tolist())):
            return False
        if not is_psd(m).is_psd:
            return False
        try:
            image = entrywise_power(m, self.alpha, self.family)
        except ValueError:
            return False
        return certify_not_psd(image) is not None

    def dense(self):
        """The witness as an n x n matrix: the block on U, zero elsewhere."""
        block = self.matrix if self.certificate is None else factor_gram(self.certificate.factor)
        out = np.zeros((self.n, self.n))
        rows = np.asarray(self.support, dtype=np.intp) - 1
        out[np.ix_(rows, rows)] = block
        return out

    def to_json(self):
        out = {
            "n": int(self.n),
            "support": [int(v) for v in self.support],
            "edges": [[int(a), int(b)] for a, b in self.edges],
            "alpha": float(self.alpha),
            "family": self.family,
            "image_min_eigenvalue": float(self.image_min_eigenvalue),
            "construction": self.construction,
        }
        if self.matrix is not None:
            out["matrix"] = matrix_to_json(self.matrix)
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out

    @classmethod
    def from_json(cls, data):
        """The report of to_json; ValueError when data is not an object with
        every field, alpha or image_min_eigenvalue is not a number, or n, a
        support label or an edge label is not a JSON integer.

        A report in the dense form of earlier versions, with the whole
        graph, an n x n matrix and a certificate on n rows, is read too
        (_from_dense)."""
        if not isinstance(data, dict):
            raise ValueError(f"bad witness JSON: expected an object, got {type(data).__name__}")
        for key in ("alpha", "image_min_eigenvalue"):
            value = data.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"bad witness JSON: {key} must be a number, got {value!r}")
        try:
            cert = data.get("certificate")
            cert = IntervalCertificate.from_json(cert) if cert is not None else None
            fields = {"alpha": float(data["alpha"]), "family": str(data["family"]),
                      "image_min_eigenvalue": float(data["image_min_eigenvalue"]),
                      "construction": str(data["construction"]), "certificate": cert}
            if "graph" in data:
                return cls._from_dense(graph_from_json(data["graph"]),
                                       matrix_from_json(data["matrix"]), fields)
            matrix = data.get("matrix")
            matrix = matrix_from_json(matrix) if matrix is not None else None
            labels = data["n"], data["support"], data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad witness JSON: {type(exc).__name__}: {exc}") from None
        try:
            n, support, edges = labels
            support, edges = tuple(support), tuple((a, b) for a, b in edges)
            # the label types are collected at C speed; _integer names a bad one
            if not set(map(type, itertools.chain(support, *edges))) <= {int}:
                support = tuple(map(_integer, support))
                edges = tuple((_integer(a), _integer(b)) for a, b in edges)
            return cls(n=_integer(n), support=support, edges=edges, matrix=matrix, **fields)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad witness JSON: {exc}") from None

    @classmethod
    def _from_dense(cls, g, m, fields):
        """The dense report (g, the n x n matrix m, a certificate on n rows)
        restricted to U, the rows where m or the factor is nonzero. A
        certificate's factor and test vector keep their rows on U; the
        matrix is dropped where it is F F^T bit for bit, and otherwise its
        block stays beside the certificate, a second proof that verify()
        turns down. ValueError unless m, the factor and the test vector all
        have g's n rows."""
        cert, n = fields["certificate"], g.n
        if m.shape[0] != n:
            raise ValueError(f"bad witness JSON: a matrix of order {m.shape[0]} "
                             f"on a graph of order {n}")
        rows = m.any(axis=1)
        if cert is not None:
            f, x = cert.factor, cert.test_vector
            if f.shape[0] != n or len(x) != n:
                raise ValueError(f"bad witness JSON: a certificate must cover the graph's {n} rows")
            rows |= f.any(axis=1)
        u = np.flatnonzero(rows)
        if cert is not None:
            fields["certificate"] = IntervalCertificate(
                factor=f[u], test_vector=tuple(x[i] for i in u), digits=cert.digits)
            if factor_gram(f).tobytes() == m.tobytes():
                return cls.on_support(g, (u + 1).tolist(), **fields)
        return cls.on_support(g, (u + 1).tolist(), matrix=m[np.ix_(u, u)], **fields)


def _bordered_block(support, u, v):
    """(U, F): the sorted labels of the near-complete subgraph support =
    (v1, S, v2) and the factor of the PSD rank-two witness on them
    (bordered_factor), its rows in label order."""
    v1, s, v2 = support
    labels = sorted([v1, *s, v2])
    row = {label: k for k, label in enumerate(labels)}
    return labels, bordered_factor(u, v, len(labels), [row[x] for x in (v1, *s, v2)])


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
        if s[p][p] <= 0:
            k = min(rest, key=lambda i: s[i][i])
            x = [ctx.zero] * n
            x[k] = ctx.one
            for q, col in reversed(steps):  # back-substitute L^T x = e_k
                x[q] = -sum((lq * x[i] for i, lq in col.items()), ctx.zero)
            return x, s[k][k]
        steps.append((p, _eliminate(s, p, rest)))
    return None


def _eliminate(s, p, rest):
    """One step of a symmetric L D L^T of s in place: p leaves rest, and
    the entries of rest, on and above the diagonal and mirrored below it,
    become the Schur complement of the pivot s_pp. Returns L's column,
    {i: s_ip / s_pp} over rest."""
    rest.remove(p)
    sp = s[p]
    col = {i: s[i][p] / sp[p] for i in rest}
    for a, i in enumerate(rest):
        li, si = col[i], s[i]
        for j in rest[a:]:
            si[j] -= li * sp[j]
            s[j][i] = si[j]
    return col


def _rayleigh_quotient(ctx, b, x):
    bx = [sum((bij * xj for bij, xj in zip(row, x)), ctx.zero) for row in b]
    return (sum((xi * y for xi, y in zip(x, bx)), ctx.zero)
            / sum((xi * xi for xi in x), ctx.zero))


def _solve(ctx, a, rhs):
    """Solution of a y = rhs for a symmetric a by a symmetric L D L^T, each
    step pivoting on the largest remaining |diagonal entry| (about k^3 / 6
    multiplications, half of an LU's); None at an exactly zero pivot, as
    when a is singular at the working precision."""
    s = [row[:] for row in a]
    z = list(rhs)
    rest = list(range(len(a)))
    steps = []  # (pivot, {later index: multiplier}) in elimination order
    while rest:
        p = max(rest, key=lambda i: abs(s[i][i]))
        if not s[p][p]:
            return None
        col = _eliminate(s, p, rest)
        for i, li in col.items():  # forward-substitute L z = rhs
            z[i] -= li * z[p]
        steps.append((p, col))
    y = [ctx.zero] * len(a)
    for p, col in reversed(steps):  # back-substitute D L^T y = z
        y[p] = z[p] / s[p][p] - sum((li * y[i] for i, li in col.items()), ctx.zero)
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
    numbers at dps significant digits, with the members the point routines
    read (mpf, zero, one, eps). Decimal operators round to the thread's
    context, so the routines run inside `with ctx.local():`."""

    def __init__(self, dps):
        import decimal  # on first use: only certificate searches need it

        self.dps = dps
        self.context = decimal.Context(prec=dps)
        self.local = functools.partial(decimal.localcontext, self.context)
        self.zero = decimal.Decimal(0)
        self.one = decimal.Decimal(1)
        self.eps = self.one.scaleb(1 - dps)

    def mpf(self, x):
        return self.context.create_decimal(x)


def _point_image(gram, alpha, digits, k, odd=False):
    """(ctx, image): the _DecimalContext of `digits` digits and the k x k
    image, each entry the lower end of (F F^T)^{∘alpha} (_image_ends on
    gram, from _gram) rounded once to those digits; zero where F F^T is."""
    ctx = _DecimalContext(digits)
    image = [[ctx.zero] * k for _ in range(k)]
    for (i, j), s in gram.items():
        image[i][j] = image[j][i] = ctx.mpf(_image_ends(s, alpha, digits, odd)[0])
    return ctx, image


def _interval_certificate(factor, alpha, digits, family="plain"):
    """(certificate, least image eigenvalue) proving F F^T a witness at
    alpha in the family's powers, F the factor on the witness's support U,
    every row of it nonzero, doubling the precision from `digits`; None
    past the limit (_certified_block)."""
    odd = family == "odd" and bool((factor < 0).any())
    proved = _certified_block(*_block_key(factor), alpha, digits, odd)
    if proved is None:
        return None
    strings, digits, lam = proved
    return IntervalCertificate(factor=factor, test_vector=strings, digits=digits), lam


@functools.lru_cache(maxsize=CERTIFICATE_MEMO)
def _certified_block(shape, data, alpha, digits, odd):
    """(test vector, digits, least image eigenvalue) proving B B^T a
    witness at alpha for the block B of that shape and bytes, the factor F
    on the support U, odd whether a negative entry's image keeps its sign
    (_image_ends): the vector as decimal strings on B's rows, the precision
    that proved it and a float. None past CERTIFICATE_MAX_DIGITS.

    Each precision rounds every image entry down once (_point_image); the
    point arithmetic runs on those lower ends in a _DecimalContext. The
    test vector is the negative-pivot vector of a diagonally pivoted
    L D L^T of that point image, and _form_upper bounds it as
    IntervalCertificate.upper_bound does, from the same memoized ends
    (_power_ends). The eigenvalue comes from Rayleigh-quotient iteration
    seeded with it and confirmed least by an inertia count. Where the noise
    floor of that precision exceeds 2^-53 of the eigenvalue (a power next
    to an integer, whose image is nearly singular), only the eigenvalue is
    recomputed, at doubled precision up to CERTIFICATE_MAX_DIGITS, so that
    it is resolved to float precision.

    Memoized per process on (shape, bytes, alpha, digits, odd): the plain,
    odd and even searches at one alpha, whose nonnegative F F^T has one
    image (odd is False for it), and graphs whose bordered block is the
    same make one proof.
    """
    gram = _exact_gram(shape, data)
    while digits <= CERTIFICATE_MAX_DIGITS:
        ctx, point = _point_image(gram, alpha, digits, shape[0], odd)
        with ctx.local():
            found = _negative_pivot_vector(ctx, point)
            if found is not None:
                strings = tuple(format(v, f".{digits}g") for v in found[0])
                exact = [_test_vector_entry(v) for v in strings]
                if _form_upper(gram, alpha, digits, exact, odd) < 0:
                    lam = _least_eigenvalue(ctx, point, found[0])
                    if lam is not None:
                        return strings, digits, _resolved_eigenvalue(gram, alpha, odd, ctx,
                                                                      point, found[0], lam)
        digits *= 2
    return None


def _resolved_eigenvalue(gram, alpha, odd, ctx, image, x, lam):
    """lam, the least eigenvalue of the point image = (F F^T)^{∘alpha} at
    ctx's precision, as a float. While the noise floor exceeds 2^-53 |lam|
    and the precision stays within CERTIFICATE_MAX_DIGITS, Rayleigh-quotient
    iteration from x recomputes it on the point image at doubled
    precision."""
    while 2 * ctx.dps <= CERTIFICATE_MAX_DIGITS:
        with ctx.local():
            if _noise_floor(ctx, image) <= abs(lam) * ctx.mpf(2.0 ** -53):
                break
        ctx, image = _point_image(gram, alpha, 2 * ctx.dps, len(image), odd)
        with ctx.local():
            finer = _least_eigenvalue(ctx, image, [ctx.mpf(v) for v in x])
        if finer is None:
            break
        lam = finer
    return float(lam)


def _closed_form_witness(g, alpha, family, support):
    """Bordered witness with u = 1 and v = BORDER_SCALE * y on
    m = |S| = floor(alpha) + 1 rows: y = linspace(1, 2, m) at a non-integer
    alpha, linspace(-0.7, 2, m) at an integer alpha >= 1.

    The image is PSD iff the defect (J + e^2 yy^T)^{∘alpha} - J
    - f(e y) f(e y)^T is, with v = e y and f the family's power map.
    Expanding (1 + e^2 y_i y_j)^alpha in powers of e^2, the terms up to
    e^{2 floor(alpha)} vanish on a vector z orthogonal to y^{∘1}, ...,
    y^{∘floor(alpha)}, and there the -e^{2 alpha} (z^T f(y))^2 term outweighs
    the rest (the Taylor argument, FitzGerald-Horn 1977, J. Math. Anal.
    Appl. 61). At a non-integer alpha the series does not stop and y > 0;
    at an integer one it stops at e^{2 alpha} y^{∘alpha}, and the signs of
    y keep f(y) off it: off the lattice, f is sgn(x)|x|^alpha at an even
    alpha or |x|^alpha at an odd one. The float eigenvalue proves the
    failure when it clears the witness threshold; otherwise an
    IntervalCertificate does.
    """
    m = len(support[1])
    low = -0.7 if float(alpha).is_integer() and alpha >= 1 else 1.0
    labels, factor = _bordered_block(support, np.ones(m),
                                     BORDER_SCALE * np.linspace(low, 2.0, m))
    matrix = factor_gram(factor)
    lam = certify_not_psd(_power(matrix, alpha, family))
    proof = {"matrix": matrix}
    if lam is None:
        proved = _interval_certificate(factor, alpha, 20 + 5 * m, family)
        if proved is None:
            return None
        proof, lam = {"certificate": proved[0]}, proved[1]
    return WitnessReport.on_support(g, labels, alpha=alpha, family=family,
                                    image_min_eigenvalue=lam,
                                    construction="rank_one_bordered", **proof)


def _bordered_search(g, alpha, family):
    """The closed-form witness (_closed_form_witness) on (v1, S[:m], v2),
    S the clique of the largest near-complete subgraph's certificate, at a
    power alpha < r - 2 off the family's lattice; None at any other."""
    r, v1, s, v2 = g.analysis.near_complete
    if r < 3 or alpha >= r - 2 or _lattice_contains(_LATTICE_FOR_FAMILY[family], alpha):
        return None
    m = max(1, math.floor(alpha) + 1)
    return _closed_form_witness(g, alpha, family, (v1, s[:m], v2))


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
    labels = sorted(cyc)
    place = {vert: k for k, vert in enumerate(labels)}
    matrix = np.eye(k2)
    for idx in range(k2):
        a, b = place[cyc[idx]], place[cyc[(idx + 1) % k2]]
        val = -x if idx == k2 - 1 else x
        matrix[a, b] = val
        matrix[b, a] = val
    image = entrywise_power(matrix, alpha, "even")
    lam = certify_not_psd(image)
    if lam is None:
        return None
    return WitnessReport.on_support(g, labels, alpha=alpha, family="even", matrix=matrix,
                                    image_min_eigenvalue=lam, construction="signed_cycle")


class _LazyGenerator:
    """np.random.default_rng(seed), built on the first call, which only the
    samples make: a search settled by the closed form or a signed cycle
    does not load numpy.random. Searches handed the same handle read one
    stream."""

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

    Strategies, in order: the closed-form rank-one bordered construction
    on a largest near-complete subgraph, at every power below r - 2 off
    the family's lattice; a signed even cycle for the even-power family;
    and random clique-sum samples. `budget` (>= 1) caps the samples; None
    means 500. Returns the first strictly certified witness, or None once
    the budget is exhausted (absence of a witness is evidence, not proof).
    An image that overflows proves nothing, in any strategy.

    Only the samples draw: np.random.default_rng(seed) is built at their
    first draw, and a search settled by the closed form or a signed cycle
    builds none, so it leaves a Generator passed as seed untouched. The
    samples are drawn a stack at a time: a sample witness leaves it after
    its stack.
    """
    _check_family(family)
    if not math.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    rng = seed if isinstance(seed, _LazyGenerator) else _LazyGenerator(seed)
    if g.n >= 2:
        report = _bordered_search(g, alpha, family)
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
    which is_psd accepts; the generator is left after its stack. A sample
    whose image overflows ends the search: its image proves nothing, and
    sample_spectra reads no further.
    """
    ranks = [2 if k % 5 == 4 else 1 for k in range(n_samples)]
    for stack, images in sample_spectra(g, ranks, alpha, family, rng):
        if not _cholesky_clears(images, WITNESS_TOL):
            lam, tol = least_eigenvalue(images, WITNESS_TOL)
            for b in np.flatnonzero(lam < -tol):
                matrix = stack[b].copy()
                if is_psd(matrix).is_psd:
                    return WitnessReport.on_support(
                        g, range(1, g.n + 1), alpha=alpha, family=family, matrix=matrix,
                        image_min_eigenvalue=float(lam[b]), construction="random_sample")
    return None


# ---------------------------------------------------------------------------
# numeric bracketing and the conjecture scan


#: spacing of the power grid that critical_exponent's walk covers
GRID_STEP = 1 / 16


def _walk(g, known, family, budget, seed):
    """(lower, upper) bracket of the critical exponent of g, whose power set
    is the partial `known`: the walk over the non-integer multiples of
    GRID_STEP in (0, n - 2], top-down. A power `known` proves outside the
    set, or a verified witness at it, is refuted (so CE > alpha), giving
    the lower end; the upper end is the grid power above it, capped by
    n - 2. Grid powers from the inner ray up (past every exclusion) are in
    the set, so the walk reads only the least of them, as the upper end
    should the next one down be refuted; an upper end there is proven,
    any other only means the search found no witness. Each unknown power
    gets find_counterexample with `budget` samples (120 if None); the
    searches read one generator, np.random.default_rng(seed), built at
    their first draw."""
    per_unit = round(1 / GRID_STEP)
    top = (g.n - 2) * per_unit  # the grid power top * GRID_STEP is n - 2
    start = max([known.inner_ray, *(x + 1e-9 for x in known.exclusions)])
    lowest = min(max(math.ceil(start / GRID_STEP), 1), top + 1)
    if lowest % per_unit == 0:
        lowest += 1
    prev_above = lowest * GRID_STEP if lowest <= top else float(g.n - 2)
    rng = _LazyGenerator(seed)
    for k in range(lowest - 1, 0, -1):
        if k % per_unit == 0:
            continue
        a = k * GRID_STEP
        proof = known.classify(a)
        if proof == "out" or (proof == "unknown" and find_counterexample(
                g, a, family, budget or 120, seed=rng) is not None):
            return a, prev_above
        prev_above = a
    return 0.0, prev_above


def critical_exponent(g, family="plain", budget=None, seed=0):
    """(record, known) for a pattern on >= 2 vertices: the record `ce
    --format json` prints, and the expected_hset description it rests on.
    An exact set gives ce, its ray start (an int at an integer), and method
    "exact", with no search; a partial one gives the bracket of the grid
    walk (_walk) on that same description, conjectured_ce = r - 2 and
    method "heuristic". Either way budget must be >= 1."""
    if g.n < 2:
        raise ValueError("critical exponents are defined for graphs with >= 2 vertices")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    r, known = g.analysis.near_complete_order, expected_hset(g, family)
    record = {"n": g.n, "edge_count": g.m, "r": r, "chordal": g.analysis.is_chordal}
    if known.exact:
        ce = known.ray_start
        record.update(ce=int(ce) if ce.is_integer() else ce, method="exact")
    else:
        lower, upper = _walk(g, known, family, budget, seed)
        record.update(bracket_lower=lower, bracket_upper=upper, conjectured_ce=r - 2,
                      method="heuristic")
    return record, known


def conjecture_scan(graphs, family="plain", *, budget=None, seed=0):
    """Check CE = r - 2 over a stream of graphs: per graph, its
    critical_exponent record, whose walk (on a partial set only) reads
    seed + index (index: its place in `graphs`, from 0), with
    conjectured_ce = r - 2 and, on an exact set, the bracket [ce, ce] in
    floats. A graph is flagged when its bracket excludes r - 2. A graph
    that raises gets index, n, edge_count and error, and the scan goes
    on."""
    _check_family(family)
    records = []
    for idx, g in enumerate(graphs):
        rec = {"index": idx, "n": g.n, "edge_count": g.m}
        try:
            rec.update(critical_exponent(g, family, budget, seed + idx)[0])
        except Exception as exc:  # per-graph errors must not kill the scan
            rec["error"] = f"{type(exc).__name__}: {exc}"
        else:
            if rec["method"] == "exact":
                rec["bracket_lower"] = rec["bracket_upper"] = float(rec["ce"])
            conj = rec["conjectured_ce"] = rec["r"] - 2
            rec["flagged"] = not rec["bracket_lower"] - 1e-9 <= conj <= rec["bracket_upper"] + 1e-9
        records.append(rec)
    summary = {"graphs": len(records), "flagged": sum(rec.get("flagged", 0) for rec in records),
               "errors": sum("error" in rec for rec in records), "family": family}
    return {"summary": summary, "records": records}


def __getattr__(name):
    # perfbench/spans.py patches `exponents.minimize` by name; the benchmark
    # follow-up (ROADMAP item 1) deletes this hook with that patch
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
