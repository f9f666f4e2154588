"""Command line interface.

Subcommands: ce (critical exponent), hset (symbolic power set), witness
(counterexample search / re-verification), verify (sampling check over a
power grid), families (closed-form table for the named chordal families),
and scan (CE = r - 2 consistency over a stream of edge lists).

Exit codes: 0 success, 1 not-found / mismatch / flags / scan records with
errors, 2 usage or domain errors. Output is a function of the arguments
alone (an unset --seed is 0), byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import graphs
from ._lazy_numpy import np
from .cones import FAMILIES, PSD_TOL, least_eigenvalue, sample_spectra
from .exponents import (
    WitnessReport,
    conjecture_scan,
    critical_exponent,
    expected_hset,
    find_counterexample,
)
from .graphs import GraphParseError, graph_from_json, parse_edge_list


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


#: the default of a generator parameter that has none
_REQUIRED = object()


def _parameters(gen):
    """{parameter name: its default, or _REQUIRED} of a generator, in order,
    read off its code object: every generator in graphs.FAMILY_GENERATORS
    takes positional-or-keyword parameters only."""
    code, defaults = gen.__code__, gen.__defaults__ or ()
    names = code.co_varnames[:code.co_argcount]
    return dict(zip(names, (_REQUIRED,) * (len(names) - len(defaults)) + defaults))


@functools.cache
def _graph_params():
    """{parameter name: (its default in the first generator taking it, the
    families taking it)} over the generators in graphs.FAMILY_GENERATORS."""
    params = {}
    for family, gen in graphs.FAMILY_GENERATORS.items():
        for name, default in _parameters(gen).items():
            params.setdefault(name, (default, []))[1].append(family.replace("_", "-"))
    return params


def _add_graph_arguments(p):
    """A graph file, or --family with one flag per distinct parameter of the
    generators in graphs.FAMILY_GENERATORS. A flag defaults to None, so an
    unset one leaves the generator's own default in force."""
    p.add_argument("graph_file", nargs="?", default=None,
                   help="edge-list file ('n <count>' header optional) or .json graph")
    p.add_argument("--family",
                   choices=sorted(name.replace("_", "-") for name in graphs.FAMILY_GENERATORS),
                   help="generate a named family member instead of reading a file")
    for name, (default, families) in _graph_params().items():
        dest = _FLAG_FOR_PARAM.get(name, name)
        shown = "" if default is _REQUIRED else f" (default {default})"
        p.add_argument(f"--{dest.replace('_', '-')}", dest=dest, default=None,
                       type=float if isinstance(default, float) else int,
                       help=f"{name} of {', '.join(families)}{shown}")


#: the run flags and their add_argument keywords; a subcommand takes those it reads
_RUN_FLAGS = {
    "--powers": {"choices": FAMILIES, "default": "plain",
                 "help": "power family: plain x^a, odd sgn(x)|x|^a, even |x|^a"},
    "--seed": {"type": int, "default": None, "help": "random seed (default 0)"},
    "--budget": {"type": int, "default": None,
                 "help": "most random samples per witness search, >= 1 (default 500 in "
                         "witness, 120 per searched power in ce and scan)"},
    "--format": {"choices": ("text", "json"), "default": "text", "dest": "output_format"},
}


def _resolve_config(args):
    """Check the run flags present and set an unset --seed to 0."""
    if getattr(args, "verify", None) is not None:
        _reject_search_flags(args)
    if "seed" in args and args.seed is None:
        args.seed = 0
    if "budget" in args and args.budget is not None and args.budget < 1:
        raise CliError("--budget must be >= 1")


def _reject_unused_graph_flags(args, taken, source):
    """CliError for a graph flag whose parameter is not in `taken`."""
    for name in _graph_params():
        attr = _FLAG_FOR_PARAM.get(name, name)
        if name not in taken and getattr(args, attr) is not None:
            raise CliError(f"{source} takes no --{attr.replace('_', '-')}")


def _reject_search_flags(args):
    """CliError for a search flag next to witness --verify, whose re-check
    reads only the report."""
    given = {"graph file": args.graph_file, "--family": args.family, "--alpha": args.alpha,
             "--powers": args.powers, "--seed": args.seed, "--budget": args.budget,
             "-o": args.output}
    for flag, value in given.items():
        if value is not None:
            raise CliError(f"witness --verify takes no {flag}")
    _reject_unused_graph_flags(args, {}, "witness --verify")


def _load_graph(args):
    if args.graph_file is not None and args.family is not None:
        raise CliError("give either a graph file or --family flags, not both")
    if args.graph_file is not None:
        _reject_unused_graph_flags(args, {}, "a graph file")
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
    # parameter without a default needs its flag, and a flag the generator
    # does not take is an error
    gen = graphs.FAMILY_GENERATORS[args.family.replace("-", "_")]
    taken = _parameters(gen)
    _reject_unused_graph_flags(args, taken, f"family {args.family}")
    params = {}
    for name, default in taken.items():
        attr = _FLAG_FOR_PARAM.get(name, name)
        value = getattr(args, attr)
        if value is not None:
            params[name] = value
        elif default is _REQUIRED:
            raise CliError(f"family {args.family} needs --{attr.replace('_', '-')}")
    try:
        return gen(**params)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ce(args):
    out, known = critical_exponent(_load_graph(args), args.powers, args.budget, args.seed)
    r, ce = out["r"], out.get("ce")
    text = (f"non-chordal graph: numeric CE bracket [{_sig6(out['bracket_lower'])}, "
            f"{_sig6(out['bracket_upper'])}] (heuristic; r - 2 = {r - 2})" if ce is None else
            f"chordal graph: CE = {ce} (exact: r - 2 with r = {r})" if out["chordal"] else
            f"non-chordal graph: CE = {ce} (exact: {known.describe()}; r - 2 = {r - 2})")
    print(_json_dump(out) if args.output_format == "json" else text)
    return 0


def _cmd_hset(args):
    g = _load_graph(args)
    if g.n < 2:
        raise CliError("power sets are defined for graphs with >= 2 vertices")
    hs = expected_hset(g, args.powers)
    if args.output_format == "json":
        print(_json_dump({"powers": args.powers, "hset": hs.to_json()}))
    else:
        kind = "exact" if hs.exact else "partial"
        print(f"{kind}: {hs.describe()}")
        print(_json_dump(hs.to_json()))
    return 0


def _cmd_witness(args):
    if args.verify is not None:
        try:
            with open(args.verify, "r", encoding="utf-8") as fh:
                report = WitnessReport.from_json(json.load(fh))
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot load witness report: {exc}") from None
        ok = report.verify()
        print("witness verified" if ok else "witness FAILED re-verification")
        return 0 if ok else 1
    if args.alpha is None:
        raise CliError("witness needs --alpha (or --verify FILE)")
    g = _load_graph(args)
    report = find_counterexample(
        g, args.alpha, args.powers or "plain", budget=args.budget, seed=args.seed)
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
    g = _load_graph(args)
    if g.n < 1:
        raise CliError("graph must have at least one vertex")
    try:
        alphas = [float(tok) for tok in args.alphas.split(",") if tok.strip()]
    except ValueError:
        raise CliError(f"bad --alphas list: {args.alphas!r}") from None
    if not alphas:
        raise CliError("--alphas must name at least one power")
    if args.samples < 1:
        raise CliError(f"--samples must be >= 1, got {args.samples}")
    expected = expected_hset(g, args.powers)
    rng = np.random.default_rng(args.seed)
    rows = []
    violation = False
    for alpha in alphas:
        if not np.isfinite(alpha):
            raise CliError(f"power must be finite, got {alpha}")
        worst = np.inf
        preserved = True
        for samples, images in sample_spectra(g, [1] * args.samples, alpha, args.powers, rng):
            if len(images) < len(samples):
                raise ValueError("matrix has non-finite entries")
            lam, tol = least_eigenvalue(images, PSD_TOL)
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
    if args.output_format == "json":
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
    if args.max_n < 2:
        raise CliError(f"--max-n must be >= 2, got {args.max_n}")
    mismatches = 0
    out_rows = []
    for name, params, g, expected in _families_rows(args.max_n, args.seed):
        computed = g.analysis.near_complete_order - 2
        ok = computed == expected
        mismatches += not ok
        out_rows.append({"family": name, "params": params,
                         "computed_ce": computed, "expected_ce": expected,
                         "match": ok})
    if args.output_format == "json":
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
    try:
        with open(args.stream_file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {args.stream_file}: {exc}") from None
    # parse_edge_list skips a line of only whitespace, so such a line ends a block
    blocks = [b for b in re.split(r"\n\s*\n", text) if b.strip()]
    graphs_in, numbers = [], []
    for k, block in enumerate(blocks):
        try:
            graphs_in.append(parse_edge_list(block))
            numbers.append(k)
        except GraphParseError as exc:
            print(f"block {k}: {exc}", file=sys.stderr)
    # each graph keeps seed + its place among the parsed graphs, and its
    # record the number of its block, as stderr numbers the blocks
    report = conjecture_scan(graphs_in, args.powers, budget=args.budget, seed=args.seed)
    for rec in report["records"]:
        rec["index"] = numbers[rec["index"]]
        print(_json_dump(rec))
    print(_json_dump({"summary": report["summary"]}))
    summary = report["summary"]
    return 1 if summary["flagged"] or summary["errors"] else 0


class _Parser(argparse.ArgumentParser):
    """Reads an argument starting -<digit> or -.<digit> (-1e6, -0.5,1) as a
    value, not only -N and -N.M; no option starts so. Subparsers share it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


#: the graph input arguments (_add_graph_arguments) in a subcommand's list
_GRAPH = "graph"

#: the subcommands, in help order: add_parser keywords, the arguments in
#: order (_GRAPH, a run flag, or option strings and add_argument keywords),
#: the defaults set and the handler
_COMMANDS = {
    "ce": {
        "parser": {"help": "critical exponent (exact where the power set is proven, "
                           "numeric bracket otherwise)"},
        "arguments": (_GRAPH, "--powers", "--seed", "--budget", "--format"),
        "defaults": {"func": _cmd_ce},
    },
    "hset": {
        "parser": {"help": "symbolic set of positivity-preserving powers"},
        "arguments": (_GRAPH, "--powers", "--format"),
        "defaults": {"func": _cmd_hset},
    },
    "witness": {
        "parser": {
            "help": "search for a power-map counterexample",
            "epilog": "Report JSON fields: n, support (the sorted labels of U, the witness's "
                      "nonzero rows), edges (those of G[U], in G's labels), alpha, family, "
                      "image_min_eigenvalue, construction, and one proof: matrix (the U x U "
                      "block, proved by the float least eigenvalue of its power image) or, for "
                      "witnesses proved by interval arithmetic, certificate: {factor (the "
                      "columns of F on U; the witness is F F^T), test_vector (decimal strings "
                      "on U), digits (working precision)}."},
        "arguments": (
            _GRAPH, "--powers", "--seed", "--budget",
            (("--alpha",), {"type": float, "default": None}),
            (("--verify",), {"metavar": "FILE", "default": None,
                             "help": "re-verify a stored witness report instead of "
                                     "searching; takes no other flag"}),
            (("-o", "--output"), {"default": None, "help": "write the report JSON here"})),
        # an unset --powers searches plain powers; --verify rejects a set one
        "defaults": {"func": _cmd_witness, "powers": None},
    },
    "verify": {
        "parser": {"help": "sampling check of power preservation on a grid"},
        "arguments": (
            _GRAPH, "--powers", "--seed", "--format",
            (("--alphas",), {"required": True,
                             "help": "comma-separated powers, e.g. 1,1.5,2.5"}),
            (("--samples",), {"type": int, "default": 200})),
        "defaults": {"func": _cmd_verify},
    },
    "families": {
        "parser": {"help": "closed-form critical exponents of the named chordal families"},
        "arguments": ("--seed", "--format",
                      (("--max-n",), {"type": int, "default": 10, "dest": "max_n"})),
        "defaults": {"func": _cmd_families},
    },
    "scan": {
        "parser": {"help": "CE = r - 2 consistency scan over edge-list blocks"},
        "arguments": (
            (("stream_file",), {"help": "file of edge lists, blocks separated by blank lines"}),
            "--powers", "--seed", "--budget"),
        "defaults": {"func": _cmd_scan},
    },
}


@functools.cache
def build_parser(command=None):
    """The argument parser, built once per process and argument: with a
    subcommand name it carries that subcommand alone, with none all six.
    parse_args returns a fresh namespace each call, and no argument has a
    mutable default."""
    parser = _Parser(
        prog="hadamard-powers",
        description="Entrywise powers preserving positive semidefiniteness "
                    "on graph-structured cones.")
    # one subcommand's parser still prints every name in the top-level usage
    # line, as on an unrecognized argument; the full parser sets no metavar,
    # which would rename the command in its own missing and invalid choice
    # errors
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else [command]:
        spec = _COMMANDS[name]
        p = sub.add_parser(name, **spec["parser"])
        for arg in spec["arguments"]:
            if arg == _GRAPH:
                _add_graph_arguments(p)
            elif isinstance(arg, str):
                p.add_argument(arg, **_RUN_FLAGS[arg])
            else:
                p.add_argument(*arg[0], **arg[1])
        p.set_defaults(**spec["defaults"])
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        _resolve_config(args)
        return args.func(args)
    except (CliError, ValueError, MemoryError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
