"""Symbolic power sets and critical exponents.

Exact descriptions of the powers preserving positive semidefiniteness for
complete and chordal patterns, the super-additivity thresholds, partial
descriptions for cycles and connected bipartite patterns, randomized
counterexample search with eigenvalue certificates, numeric bracketing of
the critical exponent, and the scan checking the observed identity
CE = r - 2 (r the largest near-complete subgraph order).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .chordal import NotChordalError, find_chordless_cycle, is_chordal, maximal_cliques_chordal
from .cones import (
    _check_family,
    _clique_sample_stack,
    _eig_range,
    _power,
    _samples_per_chunk,
    as_symmetric,
    certify_not_psd,
    conforms_to_pattern,
    entrywise_power,
    is_psd,
    matrix_from_json,
    matrix_to_json,
    witness_matrix,
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

    Largest entry of M^T M - 2 I over the vertex-by-maximal-clique incidence
    matrix M: the diagonal gives clique sizes minus two, the off-diagonal
    pairwise clique overlaps. Disconnected graphs are covered by the same
    expression, since cliques in different components never overlap.
    """
    if g.n < 2:
        raise ValueError(f"need at least 2 vertices, got {g.n}")
    cliques = maximal_cliques_chordal(g)
    k = len(cliques)
    inc = np.zeros((g.n, k), dtype=np.int64)
    for j, c in enumerate(cliques):
        for v in c:
            inc[v - 1, j] = 1
    gram = inc.T @ inc - 2 * np.eye(k, dtype=np.int64)
    return int(gram.max())


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


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A PSD pattern-conforming matrix whose entrywise power loses PSD-ness.

    The certificate is the least eigenvalue of the power image, strictly
    below the witness threshold; verify() recomputes everything from the
    stored data.
    """

    graph: Graph
    alpha: float
    family: str
    matrix: np.ndarray
    image_min_eigenvalue: float
    construction: str

    def verify(self, tol_scale=1e-9, witness_scale=1e-6):
        try:
            m = as_symmetric(self.matrix)
        except ValueError:
            return False
        if m.shape[0] != self.graph.n:
            return False
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
        return {
            "graph": graph_to_json(self.graph),
            "alpha": float(self.alpha),
            "family": self.family,
            "matrix": matrix_to_json(self.matrix),
            "image_min_eigenvalue": float(self.image_min_eigenvalue),
            "construction": self.construction,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            graph=graph_from_json(data["graph"]),
            alpha=float(data["alpha"]),
            family=str(data["family"]),
            matrix=matrix_from_json(data["matrix"]),
            image_min_eigenvalue=float(data["image_min_eigenvalue"]),
            construction=str(data["construction"]),
        )


def _embed_bordered(g, realization, u, v):
    """PSD rank-two witness supported on the near-complete subgraph."""
    v1, s, v2 = realization
    x1 = np.zeros(g.n)
    x2 = np.zeros(g.n)
    x1[v1 - 1] = 1.0
    x2[v2 - 1] = 1.0
    for uk, vk, vert in zip(u, v, s):
        x1[vert - 1] = uk
        x2[vert - 1] = vk
    return np.outer(x1, x1) + np.outer(x2, x2)


def _small_bordered_image_fails(u, v, alpha, family, witness_scale):
    mid = np.outer(u, u) + np.outer(v, v)
    w = witness_matrix(u, v, mid)
    image = entrywise_power(w, alpha, family)
    return certify_not_psd(image, witness_scale) is not None


def _mirror_pair(m, rng):
    t = np.linspace(-1.0, 1.0, m) if m > 1 else np.zeros(1)
    w = rng.uniform(0.8, 3.2)
    u = np.exp(w * t + 0.1 * rng.standard_normal(m))
    v = np.exp(-w * t + 0.1 * rng.standard_normal(m))
    c = math.sqrt((u @ u + v @ v) / (2 * m)) * math.exp(rng.uniform(-0.4, 0.4))
    return u / c, v / c


def _exp_pair(z, m):
    """u = exp(z[:m]), v = exp(z[m:]), with z clipped to [-9, 9]."""
    z = np.clip(z, -9.0, 9.0)
    return np.exp(z[:m]), np.exp(z[m:])


def _normalized_pair(z, m):
    """_exp_pair rescaled to u.u + v.v = 2m."""
    u, v = _exp_pair(z, m)
    c = math.sqrt((u @ u + v @ v) / (2 * m))
    return u / c, v / c


def _defect_value_grad(z, m, alpha):
    """Least eigenvalue of the plain-power defect for u = exp(z[:m]),
    v = exp(z[m:]) rescaled to u.u + v.v = 2m, with its gradient in z."""
    u, v = _normalized_pair(z, m)
    p, q = np.outer(u, u), np.outer(v, v)
    defect = _power(p + q, alpha) - _power(p, alpha) - _power(q, alpha)
    lam, vecs = np.linalg.eigh(defect)
    x = vecs[:, 0]
    val = lam[0]
    ru = _power(p + q, alpha - 1) - _power(p, alpha - 1)
    rv = _power(p + q, alpha - 1) - _power(q, alpha - 1)
    glam_u = 2 * alpha * x * (ru @ (u * x))
    glam_v = 2 * alpha * x * (rv @ (v * x))
    gu = u * glam_u - (alpha / m) * val * u * u
    gv = v * glam_v - (alpha / m) * val * v * v
    return val, np.concatenate([gu, gv])


def _defect_rel_value(z, m, alpha):
    """Least defect eigenvalue relative to max(1, spectral radius); this is
    the quantity the strict witness threshold measures."""
    u, v = _normalized_pair(z, m)
    p, q = np.outer(u, u), np.outer(v, v)
    defect = _power(p + q, alpha) - _power(p, alpha) - _power(q, alpha)
    eigs = np.linalg.eigvalsh(defect)
    return eigs[0] / max(1.0, abs(eigs[0]), abs(eigs[-1]))


def _rung_minimize(z, m, alpha, thorough):
    r = minimize(_defect_value_grad, z, args=(m, alpha), jac=True,
                 method="L-BFGS-B",
                 options={"maxiter": 150, "ftol": 1e-18, "gtol": 1e-16})
    best_z = np.clip(r.x, -9.0, 9.0)
    best_rel = _defect_rel_value(best_z, m, alpha)
    if thorough or best_rel > -1e-8:
        r2 = minimize(_defect_rel_value, best_z, args=(m, alpha), method="Nelder-Mead",
                      options={"maxfev": 1200, "fatol": 1e-16, "xatol": 1e-10})
        if r2.fun < best_rel:
            best_rel, best_z = r2.fun, np.clip(r2.x, -9.0, 9.0)
    return best_rel, best_z


def _image_rel_value(z, m, alpha):
    """Relative least eigenvalue of the bordered power image itself.

    Unlike the defect, the border pins the corner entries to 1, so the
    overall scale of (u, v) is a genuine degree of freedom here; z is used
    unnormalized.
    """
    u, v = _exp_pair(z, m)
    w = witness_matrix(u, v, np.outer(u, u) + np.outer(v, v))
    image = _power(w, alpha)
    eigs = np.linalg.eigvalsh(image)
    return eigs[0] / max(1.0, abs(eigs[0]), abs(eigs[-1]))


def _continuation_pair(m, alpha, rng, witness_scale, family):
    """Track the failing valley from just below the integer boundary m down
    to the target power, then polish the bordered image margin itself.

    Near the boundary nearly every pair fails, so the walk starts inside
    the basin; each rung re-minimizes the relative least defect eigenvalue,
    and the final stage optimizes the image margin over shape and scale.
    """
    delta_star = m - alpha
    d0 = min(1e-3, delta_star / 4)
    steps = max(2, int(math.ceil(math.log(delta_star / d0) / math.log(1.6))) + 1)
    deltas = d0 * (delta_star / d0) ** (np.arange(steps + 1) / steps)
    thorough = m >= 5
    t = np.linspace(-1.0, 1.0, m) if m > 1 else np.zeros(1)
    w = rng.uniform(1.0, 2.5)
    z = np.concatenate([w * t, -w * t]) + 0.1 * rng.standard_normal(2 * m)
    for d in deltas:
        _, z = _rung_minimize(z, m, m - d, thorough)
    u, v = _normalized_pair(z, m)
    z = np.concatenate([np.log(u), np.log(v)])
    # sweep the free overall scale, then polish the image margin directly
    best_val, best_z = np.inf, z
    for logc in np.linspace(-0.8, 0.8, 17):
        cand = z + logc
        val = _image_rel_value(cand, m, alpha)
        if val < best_val:
            best_val, best_z = val, cand
    r = minimize(_image_rel_value, best_z, args=(m, alpha), method="Nelder-Mead",
                 options={"maxfev": 2500, "fatol": 1e-16, "xatol": 1e-11})
    if r.fun < best_val:
        best_z = np.clip(r.x, -9.0, 9.0)
    u, v = _exp_pair(best_z, m)
    if _small_bordered_image_fails(u, v, alpha, family, witness_scale):
        return u, v
    return None


def _bordered_search(g, alpha, family, budget, rng, witness_scale, refine_attempts):
    """Rank-one bordered strategy: find (u, v) whose super-additivity defect
    fails on the separator clique, and embed the bordered matrix in P_G."""
    r = max_near_complete_order_fast(g)
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
    realization = g.analysis.realization(m)
    if realization is None:
        return None

    def finish(u, v):
        matrix = _embed_bordered(g, realization, u, v)
        image = entrywise_power(matrix, alpha, family)
        lam = certify_not_psd(image, witness_scale)
        if lam is None:
            return None
        return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                             image_min_eigenvalue=lam, construction="rank_one_bordered")

    # cheap draw phase
    for k in range(budget):
        if is_integer:
            u = rng.standard_normal(m)
            v = rng.standard_normal(m)
        elif family != "plain" and k % 3 == 2:
            u = rng.standard_normal(m)
            v = rng.standard_normal(m)
        elif k % 2 == 0:
            u, v = _mirror_pair(m, rng)
        else:
            u = np.abs(rng.standard_normal(m))
            v = np.abs(rng.standard_normal(m))
        if _small_bordered_image_fails(u, v, alpha, family, witness_scale):
            report = finish(u, v)
            if report is not None:
                return report
    # guided continuation (nonnegative pairs fail identically for all three
    # families at non-integer powers, so the plain-power defect drives it)
    if not is_integer:
        for _ in range(refine_attempts):
            pair = _continuation_pair(m, alpha, rng, witness_scale, family)
            if pair is not None:
                report = finish(*pair)
                if report is not None:
                    return report
    return None


# --- signed even cycles (even-power family only) ---------------------------


def _find_even_cycle(g, max_len=12):
    """A shortest even cycle as an ordered vertex list, or None.

    4-cycles come from common-neighborhood pairs; longer even lengths from
    bounded depth-first search (the cycle need not be induced).
    """
    best4 = None
    for a, b in itertools.combinations(range(1, g.n + 1), 2):
        common = sorted(g.neighbors(a) & g.neighbors(b))
        if len(common) >= 2:
            cand = [a, common[0], b, common[1]]
            if best4 is None or cand < best4:
                best4 = cand
    if best4 is not None:
        return best4
    for length in range(6, max_len + 1, 2):
        cyc = _simple_cycle_of_length(g, length)
        if cyc is not None:
            return cyc
    return None


def _simple_cycle_of_length(g, length, step_cap=500_000):
    steps = 0
    for start in g.vertices:
        stack = [(start, [start])]
        while stack:
            steps += 1
            if steps > step_cap:
                return None
            v, path_ = stack.pop()
            if len(path_) == length:
                if start in g.neighbors(v):
                    return path_
                continue
            for u in sorted(g.neighbors(v), reverse=True):
                if u > start and u not in path_:
                    stack.append((u, path_ + [u]))
    return None


def _signed_cycle_witness(g, alpha, witness_scale):
    """Even-cycle matrix with one negated edge: PSD further out than its
    entrywise absolute value, so even powers below the threshold fail.

    A 2k-cycle with entries +/-x and unit diagonal is PSD up to
    x = 1/(2 cos(pi/2k)), while the even-power image needs x^alpha <= 1/2;
    the construction covers alpha < log 2 / log(2 cos(pi/2k)).
    """
    if alpha <= 0:
        return None
    cyc = _find_even_cycle(g)
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
                        bordered_budget=None, sample_budget=None,
                        refine_attempts=3, tol_scale=1e-9, witness_scale=1e-6):
    """Search for a PSD matrix in the pattern cone whose entrywise power
    fails PSD-ness at the given alpha.

    Strategies, in order: the rank-one bordered construction on a largest
    near-complete subgraph (guided by super-additivity failures), a signed
    even cycle for the even-power family, and random clique-sum samples.
    Returns the first strictly certified witness, or None once the budgets
    are exhausted (absence of a witness is evidence, not proof).
    """
    _check_family(family)
    if not np.isfinite(alpha):
        raise ValueError(f"power must be finite, got {alpha}")
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    for name, value in (("bordered_budget", bordered_budget), ("sample_budget", sample_budget)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    rng = np.random.default_rng(seed)
    n_bordered = bordered_budget if bordered_budget is not None else (budget or 200)
    n_samples = sample_budget if sample_budget is not None else (budget or 500)
    if g.n >= 2:
        report = _bordered_search(g, alpha, family, n_bordered, rng,
                                  witness_scale, refine_attempts)
        if report is not None:
            return report
    if family == "even":
        report = _signed_cycle_witness(g, alpha, witness_scale)
        if report is not None:
            return report
    return _sample_search(g, alpha, family, n_samples, rng, tol_scale, witness_scale)


def _sample_search(g, alpha, family, n_samples, rng, tol_scale, witness_scale):
    """Random clique-sum samples (every fifth of rank two), drawn and
    eigensolved a stack at a time. The witness is the first sample, in
    draw order, whose image clears the witness threshold and which is PSD
    within tol_scale; the generator is left where drawing the samples one
    at a time up to that one would leave it.
    """
    ranks = [2 if k % 5 == 4 else 1 for k in range(n_samples)]
    nonnegative = family == "plain"
    step = _samples_per_chunk(g.n)
    for first in range(0, n_samples, step):
        chunk = ranks[first:first + step]
        state = rng.bit_generator.state
        stack = _clique_sample_stack(g, chunk, rng, nonnegative)
        images = _power(stack, alpha, family)
        # a non-finite image stops the search there, as certifying it would
        finite = np.isfinite(images).all(axis=(1, 2))
        stop = len(chunk) if finite.all() else int(np.argmin(finite))
        lam, spectral = _eig_range(images[:stop])
        for b in np.flatnonzero(lam < -witness_scale * np.maximum(1.0, spectral)):
            matrix = stack[b].copy()
            if is_psd(matrix, tol_scale).is_psd:
                rng.bit_generator.state = state
                _clique_sample_stack(g, chunk[:b + 1], rng, nonnegative)
                return WitnessReport(graph=g, alpha=alpha, family=family, matrix=matrix,
                                     image_min_eigenvalue=float(lam[b]),
                                     construction="random_sample")
        if stop < len(chunk):
            raise ValueError("matrix has non-finite entries")
    return None


# ---------------------------------------------------------------------------
# numeric bracketing and the conjecture scan


def estimate_ce_numeric(g, family="plain", grid_step=1 / 16, budget=None, seed=0, *,
                        refine_attempts=3, witness_scale=1e-6):
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
    if grid_step <= 0:
        raise ValueError(f"grid_step must be positive, got {grid_step}")
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
        report = find_counterexample(
            g, a, family, seed=rng,
            bordered_budget=point_budget, sample_budget=point_budget,
            refine_attempts=refine_attempts, witness_scale=witness_scale)
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
