"""Command line interface.

Subcommands: ce (critical exponent), hset (symbolic power set), witness
(counterexample search / re-verification), verify (sampling check over a
power grid), families (closed-form table for the named chordal families),
and scan (CE = r - 2 consistency over a stream of edge lists).

Exit codes: 0 success, 1 not-found / mismatch / flags / scan records with
errors, 2 usage or domain errors. With a fixed --seed the JSON output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import graphs
from .chordal import NotChordalError, is_chordal
from .cones import least_eigenvalue, sample_spectra
from .exponents import (
    WitnessReport,
    conjecture_scan,
    critical_exponent_clique_formula,
    estimate_ce_numeric,
    expected_hset,
    find_counterexample,
)
from .graphs import (
    GraphParseError,
    graph_from_json,
    max_near_complete_order_fast,
    parse_edge_list,
)

SEED_ENV_VAR = "HADAMARD_POWERS_SEED"


@dataclass
class RunConfig:
    seed: int
    tol_scale: float
    witness_scale: float
    budget: int | None
    output_format: str


class CliError(Exception):
    """Usage or domain error; maps to exit code 2."""


def _json_dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sig6(x):
    return float(f"{x:.6g}")


# ---------------------------------------------------------------------------
# argument plumbing


#: generator parameters whose command-line flags carry another name
_FLAG_FOR_PARAM = {"seed": "graph_seed", "attach_degrees": "attach"}


def _add_graph_arguments(p):
    p.add_argument("graph_file", nargs="?", default=None,
                   help="edge-list file ('n <count>' header optional) or .json graph")
    p.add_argument("--family",
                   choices=sorted(name.replace("_", "-") for name in graphs.FAMILY_GENERATORS),
                   help="generate a named family member instead of reading a file")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--clique-size", type=int, dest="clique_size")
    p.add_argument("--independent-size", type=int, dest="independent_size")
    p.add_argument("--attach", type=int, help="attachment degree for split graphs")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--graph-seed", type=int, default=0, dest="graph_seed")


def _add_run_arguments(p, needs_powers=True):
    if needs_powers:
        p.add_argument("--powers", choices=("plain", "odd", "even"), default="plain",
                       help="power family: plain x^a, odd sgn(x)|x|^a, even |x|^a")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--strict", action="store_true",
                   help="require an explicit --seed (for reproducible CI runs)")
    p.add_argument("--tol-scale", type=float, default=1e-9, dest="tol_scale")
    p.add_argument("--witness-scale", type=float, default=1e-6, dest="witness_scale")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="output_format")


def _resolve_config(args):
    seed = args.seed
    if seed is None:
        if args.strict:
            raise CliError("--strict requires an explicit --seed")
        env = os.environ.get(SEED_ENV_VAR)
        seed = int(env) if env else 0
    tol = args.tol_scale
    wit = args.witness_scale
    if tol <= 0 or wit <= 0:
        raise CliError("tolerances must be positive")
    if args.budget is not None and args.budget < 1:
        raise CliError("--budget must be >= 1")
    return RunConfig(seed=seed, tol_scale=tol, witness_scale=wit,
                     budget=args.budget, output_format=args.output_format)


def _load_graph(args):
    if args.graph_file is not None and args.family is not None:
        raise CliError("give either a graph file or --family flags, not both")
    if args.graph_file is not None:
        try:
            with open(args.graph_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {args.graph_file}: {exc}") from None
        try:
            if args.graph_file.endswith(".json"):
                return graph_from_json(json.loads(text))
            return parse_edge_list(text)
        except (GraphParseError, ValueError, json.JSONDecodeError) as exc:
            raise CliError(f"{args.graph_file}: {exc}") from None
    if args.family is None:
        raise CliError("need a graph file or --family")
    # the generator's parameters come from the flags of the same name; a
    # parameter without a default needs its flag
    gen = graphs.FAMILY_GENERATORS[args.family.replace("-", "_")]
    params = {}
    for param in inspect.signature(gen).parameters.values():
        attr = _FLAG_FOR_PARAM.get(param.name, param.name)
        value = getattr(args, attr)
        if value is not None:
            params[param.name] = value
        elif param.default is param.empty:
            raise CliError(f"family {args.family} needs --{attr.replace('_', '-')}")
    try:
        return gen(**params)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ce(args):
    cfg = _resolve_config(args)
    g = _load_graph(args)
    if g.n < 2:
        raise CliError("critical exponents are defined for graphs with >= 2 vertices")
    r = max_near_complete_order_fast(g)
    out = {"n": g.n, "edge_count": len(g.edges), "r": r, "chordal": is_chordal(g)}
    if out["chordal"]:
        ce_formula = critical_exponent_clique_formula(g)
        if ce_formula != r - 2:
            raise AssertionError(
                f"clique formula {ce_formula} disagrees with r - 2 = {r - 2}")
        out["ce"] = ce_formula
        out["method"] = "exact"
        text = f"chordal graph: CE = {ce_formula} (r = {r}; both exact routes agree)"
    else:
        lower, upper = estimate_ce_numeric(
            g, args.powers, budget=cfg.budget, seed=cfg.seed,
            witness_scale=cfg.witness_scale)
        out.update({"bracket_lower": lower, "bracket_upper": upper,
                    "conjectured_ce": r - 2, "method": "heuristic"})
        text = (f"non-chordal graph: numeric CE bracket [{_sig6(lower)}, {_sig6(upper)}]"
                f" (heuristic; r - 2 = {r - 2})")
    if cfg.output_format == "json":
        print(_json_dump(out))
    else:
        print(text)
    return 0


def _cmd_hset(args):
    cfg = _resolve_config(args)
    g = _load_graph(args)
    if g.n < 2:
        raise CliError("power sets are defined for graphs with >= 2 vertices")
    hs = expected_hset(g, args.powers)
    if hs is None:
        raise CliError("no exact or partial description known for this graph; "
                       "use 'ce' for a numeric bracket")
    if cfg.output_format == "json":
        print(_json_dump({"powers": args.powers, "hset": hs.to_json()}))
    else:
        kind = "exact" if hs.exact else "partial"
        print(f"{kind}: {hs.describe()}")
        print(_json_dump(hs.to_json()))
    return 0


def _cmd_witness(args):
    cfg = _resolve_config(args)
    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="utf-8") as fh:
                report = WitnessReport.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot load witness report: {exc}") from None
        ok = report.verify(cfg.tol_scale, cfg.witness_scale)
        print("witness verified" if ok else "witness FAILED re-verification")
        return 0 if ok else 1
    if args.alpha is None:
        raise CliError("witness needs --alpha (or --verify FILE)")
    g = _load_graph(args)
    report = find_counterexample(
        g, args.alpha, args.powers, budget=cfg.budget, seed=cfg.seed,
        tol_scale=cfg.tol_scale, witness_scale=cfg.witness_scale)
    if report is None:
        print("none found in budget", file=sys.stderr)
        return 1
    payload = _json_dump(report.to_json())
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        route = ("float" if report.certificate is None
                 else f"interval, {report.certificate.digits} digits")
        print(f"witness written to {args.output}: power image eigenvalue "
              f"{_sig6(report.image_min_eigenvalue)} ({report.construction}; "
              f"certificate: {route})")
    else:
        print(payload)
    return 0


def _cmd_verify(args):
    cfg = _resolve_config(args)
    g = _load_graph(args)
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad --alphas list: {args.alphas!r}") from None
    if not alphas:
        raise CliError("--alphas must name at least one power")
    if args.samples < 1:
        raise CliError(f"--samples must be >= 1, got {args.samples}")
    expected = expected_hset(g, args.powers) if g.n >= 2 else None
    rng = np.random.default_rng(cfg.seed)
    rows = []
    violation = False
    for alpha in alphas:
        if not np.isfinite(alpha):
            raise CliError(f"power must be finite, got {alpha}")
        worst = np.inf
        preserved = True
        for *_, images in sample_spectra(g, [1] * args.samples, alpha, args.powers, rng):
            lam, tol = least_eigenvalue(images, cfg.tol_scale)
            worst = min(worst, float(lam.min(initial=np.inf)))
            preserved = preserved and bool((lam >= -tol).all())
        row = {"alpha": alpha, "samples": args.samples,
               "worst_min_eigenvalue": worst, "all_images_psd": preserved}
        if expected is not None:
            membership = expected.classify(alpha)
            row["expected"] = membership
            if membership == "in" and not preserved:
                row["status"] = "VIOLATION"
                violation = True
            elif membership == "out" and preserved:
                row["status"] = ("inconclusive: sampling found no violation; "
                                 "try the witness command")
            else:
                row["status"] = "ok"
        else:
            row["status"] = "no reference known"
        rows.append(row)
    if cfg.output_format == "json":
        print(_json_dump({"powers": args.powers, "rows": rows}))
    else:
        for row in rows:
            exp = row.get("expected", "?")
            print(f"alpha={row['alpha']:g}: worst eigenvalue {_sig6(row['worst_min_eigenvalue'])}, "
                  f"images PSD: {row['all_images_psd']}, expected: {exp} -> {row['status']}")
    return 1 if violation else 0


_SPLIT_CASES = ((4, 3, 2), (5, 2, 3), (3, 4, 1), (6, 3, 4))


def _families_rows(max_n, seed):
    rows = []
    for n in range(3, max_n + 1):
        rows.append(("tree", {"n": n}, graphs.random_tree(n, seed=seed + n), 1))
    for n in range(2, max_n + 1):
        rows.append(("complete", {"n": n}, graphs.complete(n), n - 2))
    for n in range(3, max_n + 1):
        rows.append(("apollonian", {"n": n}, graphs.apollonian(n, seed=seed + n),
                     min(3, n - 2)))
    for n in range(3, max_n + 1):
        rows.append(("max-outerplanar", {"n": n}, graphs.max_outerplanar(n),
                     min(2, n - 2)))
    for n in range(3, max_n + 1):
        for d in range(1, n):
            rows.append(("band", {"n": n, "d": d}, graphs.band(n, d), min(d, n - 2)))
    for c, m, deg in _SPLIT_CASES:
        if c + m <= max_n:
            g = graphs.split_graph(c, m, deg, seed=seed + c)
            rows.append(("split", {"clique": c, "independent": m, "attach": deg}, g,
                         max(c - 2, deg)))
    return rows


def _cmd_families(args):
    cfg = _resolve_config(args)
    mismatches = 0
    out_rows = []
    for name, params, g, expected in _families_rows(args.max_n, cfg.seed):
        computed = critical_exponent_clique_formula(g)
        ok = computed == expected
        mismatches += not ok
        out_rows.append({"family": name, "params": params,
                         "computed_ce": computed, "expected_ce": expected,
                         "match": ok})
    if cfg.output_format == "json":
        print(_json_dump({"rows": out_rows, "mismatches": mismatches}))
    else:
        for row in out_rows:
            params = ",".join(f"{k}={v}" for k, v in sorted(row["params"].items()))
            mark = "ok" if row["match"] else "MISMATCH"
            print(f"{row['family']}({params}): computed {row['computed_ce']} "
                  f"expected {row['expected_ce']} {mark}")
        print(f"{len(out_rows)} rows, {mismatches} mismatches")
    return 1 if mismatches else 0


def _cmd_scan(args):
    cfg = _resolve_config(args)
    if not (np.isfinite(args.grid_step) and args.grid_step > 0):
        raise CliError(f"--grid-step must be positive and finite, got {args.grid_step}")
    try:
        with open(args.stream_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.stream_file}: {exc}") from None
    blocks = [b for b in text.split("\n\n") if b.strip()]
    graphs_in = []
    for k, block in enumerate(blocks):
        try:
            graphs_in.append(parse_edge_list(block))
        except GraphParseError as exc:
            print(f"block {k}: {exc}", file=sys.stderr)
    report = conjecture_scan(graphs_in, args.powers, grid_step=args.grid_step,
                             budget=cfg.budget, seed=cfg.seed)
    for rec in report["records"]:
        print(_json_dump(rec))
    print(_json_dump({"summary": report["summary"]}))
    summary = report["summary"]
    return 1 if summary["flagged"] or summary["errors"] else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hadamard-powers",
        description="Entrywise powers preserving positive semidefiniteness "
                    "on graph-structured cones.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ce", help="critical exponent (exact for chordal graphs, "
                                  "numeric bracket otherwise)")
    _add_graph_arguments(p)
    _add_run_arguments(p)
    p.set_defaults(func=_cmd_ce)

    p = sub.add_parser("hset", help="symbolic set of positivity-preserving powers")
    _add_graph_arguments(p)
    _add_run_arguments(p)
    p.set_defaults(func=_cmd_hset)

    p = sub.add_parser(
        "witness", help="search for a power-map counterexample",
        epilog="Report JSON fields: graph, alpha, family, matrix, image_min_eigenvalue, "
               "construction, and, for witnesses proved by interval arithmetic, "
               "certificate: {factor (the columns of F, matrix = F F^T), test_vector "
               "(decimal strings), digits (working precision)}. Without a certificate "
               "the proof is the float least eigenvalue of the power image.")
    _add_graph_arguments(p)
    _add_run_arguments(p)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--verify", metavar="FILE", default=None,
                   help="re-verify a stored witness report instead of searching")
    p.add_argument("-o", "--output", default=None, help="write the report JSON here")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="sampling check of power preservation on a grid")
    _add_graph_arguments(p)
    _add_run_arguments(p)
    p.add_argument("--alphas", required=True, help="comma-separated powers, e.g. 1,1.5,2.5")
    p.add_argument("--samples", type=int, default=200)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("families", help="closed-form critical exponents of the "
                                        "named chordal families")
    _add_run_arguments(p, needs_powers=False)
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("scan", help="CE = r - 2 consistency scan over edge-list blocks")
    p.add_argument("stream_file", help="file of edge lists, blocks separated by blank lines")
    _add_run_arguments(p)
    p.add_argument("--grid-step", type=float, default=1 / 16, dest="grid_step")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotChordalError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
