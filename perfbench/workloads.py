"""The benchmark's workloads: inputs built from the workload seed, the CLI
calls that make up one pass, and the checks on their outputs.

An op is one or two calls of `hadamard_powers.cli.main`. Its `run` takes a
`call(argv) -> (exit_code, stdout, stderr)` and returns an `Outcome`; it
never raises for a wrong answer, it reports it. Why each workload exists is
written up in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("scan", "witness", "exact-chordal")

# Per-op time limit. An op that fails (raises, exits 2, gives a wrong or
# unverifiable answer, or runs past this limit) is charged 2 x this in par2_s.
# It is about 1.6 x the slowest op at the seed commit (ce on
# random_chordal(1500), 18.6 s).
OP_LIMIT_S = 30.0


@dataclass
class Outcome:
    ok: bool
    status: str
    digest: str
    found: bool | None = None     # witness ops: a witness was found
    width: float | None = None    # scan ops: bracket_upper - bracket_lower


@dataclass
class Op:
    name: str
    run: Callable[[Callable], Outcome]


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _graph_seeds(seed, k):
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=k)]


def _write_graph(workdir, name, g):
    from hadamard_powers.graphs import to_edge_list

    path = Path(workdir) / f"{name}.edges"
    path.write_text(to_edge_list(g), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# scan: numeric brackets, one CLI call per graph


def scan_graphs(seed):
    """The criterion-10 scan set plus cycle(20), random members drawn from
    `seed`. Labels name each graph in reports."""
    from hadamard_powers import graphs as G

    s = _graph_seeds(seed, 7)
    out = [("tree(8)", G.random_tree(8, seed=s[0])),
           ("band(7,3)", G.band(7, 3)),
           ("near_complete(6)", G.near_complete(6)),
           ("apollonian(8)", G.apollonian(8, seed=s[1]))]
    out += [(f"random_chordal(8,0.75)#{k}", G.random_chordal(8, density=0.75, seed=s[2 + k]))
            for k in range(5)]
    out += [(f"cycle({n})", G.cycle(n)) for n in range(4, 9)]
    out += [(f"K(2,{b})", G.complete_bipartite(2, b)) for b in range(2, 6)]
    out.append(("cycle(20)", G.cycle(20)))
    return out


def scan_op(label, path, seed):
    argv = ["scan", path, "--powers", "plain", "--seed", str(seed)]

    def run(call):
        code, out, err = call(argv)
        digest = _digest(code, out)
        if code != 0:
            return Outcome(False, f"exit {code}: {err.strip()[-200:]}", digest)
        lines = [json.loads(line) for line in out.splitlines() if line.strip()]
        records = [rec for rec in lines if "summary" not in rec]
        if len(records) != 1:
            return Outcome(False, f"wrong: {len(records)} records", digest)
        rec = records[0]
        if "error" in rec:
            return Outcome(False, f"wrong: error record: {rec['error']}", digest)
        if rec["flagged"]:
            return Outcome(False, "wrong: flagged", digest)
        lo, hi, ce = rec["bracket_lower"], rec["bracket_upper"], rec["r"] - 2
        if not lo - 1e-9 <= ce <= hi + 1e-9:
            return Outcome(False, f"wrong: r - 2 = {ce} outside [{lo}, {hi}]", digest)
        return Outcome(True, "ok", digest, width=hi - lo)

    return Op(f"scan {label}", run)


def _scan_ops(seed, workdir):
    return [scan_op(label, _write_graph(workdir, f"scan-{i:02d}", g), seed + i)
            for i, (label, g) in enumerate(scan_graphs(seed))]


# ---------------------------------------------------------------------------
# witness: bordered search and continuation, every power provably outside

WITNESS_PAIRS = ((("band", 10, 5), (4.5, 4.95)),
                 (("band", 14, 6), (5.5, 4.75)),
                 (("near_complete", 9), (6.5, 5.75)))
WITNESS_FAMILIES = ("plain", "odd", "even")


def witness_op(label, path, alpha, family, seed, report_path):
    """Search, then re-verify the written report. A miss is not a failure."""
    search = ["witness", path, "--alpha", repr(alpha), "--powers", family,
              "--seed", str(seed), "-o", report_path]

    def run(call):
        code, out, err = call(search)
        if code == 1:
            return Outcome(True, "miss", _digest(code, out, err), found=False)
        if code != 0:
            return Outcome(False, f"exit {code}: {err.strip()[-200:]}",
                           _digest(code, out, err))
        try:
            raw = Path(report_path).read_bytes()
        except OSError as exc:
            return Outcome(False, f"wrong: no report: {exc}", _digest(code, out))
        digest = _digest(code, raw)
        vcode, vout, verr = call(["witness", "--verify", report_path])
        if vcode != 0:
            return Outcome(False, f"wrong: --verify exit {vcode}: "
                           f"{(vout + verr).strip()[-200:]}", digest)
        try:
            rep = json.loads(Path(report_path).read_text(encoding="utf-8"))
            lam = float(rep["image_min_eigenvalue"])
            same = rep["alpha"] == alpha and rep["family"] == family
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome(False, f"wrong: report does not reload: {exc}", digest)
        if not same:
            return Outcome(False, "wrong: report is for another power", digest)
        if not lam < 0:
            return Outcome(False, f"wrong: image eigenvalue {lam} not negative", digest)
        return Outcome(True, "found", digest, found=True)

    return Op(f"witness {label} {family} alpha={alpha}", run)


def _witness_ops(seed, workdir):
    from hadamard_powers import graphs as G

    ops = []
    for spec, alphas in WITNESS_PAIRS:
        family, *params = spec
        label = f"{family}({','.join(map(str, params))})"
        path = _write_graph(workdir, f"witness-{family}-{'-'.join(map(str, params))}",
                            G.generate(family, **dict(zip(("n", "d"), params))))
        for alpha in alphas:
            for fam in WITNESS_FAMILIES:
                k = len(ops)
                ops.append(witness_op(label, path, alpha, fam, seed + k,
                                      str(Path(workdir) / f"witness-{k:02d}.json")))
    return ops


# ---------------------------------------------------------------------------
# exact-chordal: graph analysis only, no sampling

EXACT_SIZES = (500, 1000, 1500)


def ce_exact_op(label, path):
    argv = ["ce", path, "--format", "json"]

    def run(call):
        code, out, err = call(argv)
        digest = _digest(code, out)
        if code != 0:
            return Outcome(False, f"exit {code}: {err.strip()[-200:]}", digest)
        rec = json.loads(out)
        if rec.get("method") != "exact":
            return Outcome(False, f"wrong: method {rec.get('method')}", digest)
        if rec["ce"] != rec["r"] - 2:
            return Outcome(False, f"wrong: ce {rec['ce']} != r - 2 = {rec['r'] - 2}", digest)
        return Outcome(True, "ok", digest)

    return Op(f"ce {label}", run)


def families_op(seed):
    argv = ["families", "--max-n", "10", "--seed", str(seed)]

    def run(call):
        code, out, err = call(argv)
        digest = _digest(code, out)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if code != 0 or not last.endswith(" 0 mismatches"):
            return Outcome(False, f"wrong: exit {code}, {last or err.strip()[-200:]}", digest)
        return Outcome(True, "ok", digest)

    return Op("families --max-n 10", run)


def _exact_ops(seed, workdir):
    from hadamard_powers import graphs as G

    ops = []
    for n, s in zip(EXACT_SIZES, _graph_seeds(seed, len(EXACT_SIZES))):
        g = G.random_chordal(n, seed=s)
        ops.append(ce_exact_op(f"random_chordal({n})", _write_graph(workdir, f"chordal-{n}", g)))
    ops.append(families_op(seed))
    return ops


_MAKE_OPS = {"scan": _scan_ops, "witness": _witness_ops, "exact-chordal": _exact_ops}


def build(workload, seed, workdir):
    """Write the workload's input files into `workdir` and return its ops."""
    return _MAKE_OPS[workload](seed, workdir)
