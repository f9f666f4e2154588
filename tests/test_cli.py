"""Command line surface: flags, exit codes, determinism, and wire formats."""

import argparse
import contextlib
import functools
import hashlib
import inspect
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadamard_powers import cli, exponents, graphs
from hadamard_powers.cli import main
from hadamard_powers.cones import matrix_to_json
from hadamard_powers.exponents import (
    WitnessReport,
    expected_hset,
    find_counterexample,
)
from hadamard_powers.graphs import (
    FAMILY_GENERATORS,
    Graph,
    band,
    complete,
    complete_bipartite,
    cycle,
    near_complete,
    random_chordal,
    random_tree,
    to_edge_list,
)

from oracles import dense_report_json, estimate_ce_by_full_walk
from test_acceptance import SEED, criterion3_graphs
from test_records import replaced

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture()
def c4_file(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text("1 2\n2 3\n3 4\n1 4\n")
    return str(p)


_GRAPH_OPTIONS = ["--a", "--attach", "--b", "--clique-size", "--d", "--density", "--family",
                  "--graph-seed", "--independent-size", "--n"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ce_band(capsys):
    code, out, _ = run(capsys, ["ce", "--family", "band", "--n", "7", "--d", "3"])
    assert code == 0
    assert "CE = 3" in out


def test_ce_complete_two(capsys):
    code, out, _ = run(capsys, ["ce", "--family", "complete", "--n", "2"])
    assert code == 0 and "CE = 0" in out


def _chorded_cycle_file(tmp_path, n, a, b):
    """An edge-list file of the n-cycle with the chord a-b: neither a cycle
    nor bipartite, so expected_hset leaves its set partial and ce walks."""
    p = tmp_path / f"c{n}-{a}-{b}.edges"
    p.write_text(to_edge_list(Graph.from_edges(n, [*cycle(n).edges, (a, b)])))
    return str(p)


def test_ce_four_cycle_is_exact(capsys, c4_file):
    # the cycle theorem: exactly [1, oo) for plain powers, [2, oo) for even
    code, out, _ = run(capsys, ["ce", c4_file, "--seed", "1", "--budget", "60"])
    assert code == 0
    assert out == "non-chordal graph: CE = 1 (exact: [1, ∞); r - 2 = 1)\n"
    code, out, _ = run(capsys, ["ce", c4_file, "--powers", "even", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"ce": 2, "chordal": False, "edge_count": 4, "method": "exact",
                               "n": 4, "r": 3}


def test_ce_json_is_deterministic(capsys, tmp_path):
    argv = ["ce", _chorded_cycle_file(tmp_path, 5, 1, 3), "--seed", "7", "--format", "json",
            "--budget", "40"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["method"] == "heuristic"
    assert data["bracket_lower"] <= 1.0 <= data["bracket_upper"]


def test_ce_on_cycle_80_searches_only_below_the_triangulation_bound(capsys, tmp_path):
    # the chorded cycle's triangulation has r(H) = 4, so only the powers in
    # (0, 2) are searched; walking all of (0, 78] took seconds
    argv = ["ce", _chorded_cycle_file(tmp_path, 80, 1, 41), "--seed", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert (data["bracket_lower"], data["bracket_upper"]) == (0.9375, 1.0625)


# `ce --format json` records of an earlier version of the search. Brackets are
# grid values, so they do not depend on the BLAS build; a change to a budget
# or an RNG stream that moves them shows here. The 8-cycle and K_{2,4} (even
# powers) have sets expected_hset proves exact, so their records are exact.
@pytest.mark.parametrize("case", json.loads((FIXTURES / "ce_brackets.json").read_text()),
                         ids=lambda case: " ".join(case["argv"][1:-2]))
def test_ce_brackets_are_pinned(capsys, case):
    code, out, _ = run(capsys, case["argv"])
    assert code == 0
    assert json.loads(out) == case["output"]


CE_GRAPHS = st.one_of(
    st.integers(2, 8).flatmap(lambda n: st.builds(
        Graph.from_edges, st.just(n),
        st.sets(st.sampled_from([(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])))),
    st.builds(cycle, st.integers(3, 8)),
    st.builds(complete_bipartite, st.integers(1, 4), st.integers(1, 4)))


@settings(max_examples=40, deadline=None)
@given(CE_GRAPHS, st.sampled_from(["plain", "odd", "even"]), st.integers(0, 2**16))
@example(cycle(8), "even", 0)  # partial: the cycle theorem's sandwich with 1 excluded
@example(complete_bipartite(3, 4), "odd", 0)  # partial: an inner lattice, ray 3
@example(Graph.from_edges(5, [*cycle(5).edges, (1, 3)]), "plain", 0)  # the r/r(H) sandwich
@example(Graph.from_edges(8, [*cycle(4).edges, (5, 6), (6, 7), (7, 8), (5, 8)]), "even", 0)
def test_ce_is_exact_exactly_where_expected_hset_is(g, family, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text(to_edge_list(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["ce", str(path), "--powers", family, "--seed", str(seed),
                         "--budget", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out.getvalue())
    known = expected_hset(g, family)
    if known.exact:
        assert data == {"n": g.n, "edge_count": len(g.edges), "r": g.analysis.near_complete_order,
                        "chordal": g.analysis.is_chordal, "ce": known.ray_start,
                        "method": "exact"}
        assert isinstance(data["ce"], int) == known.ray_start.is_integer()
    else:
        assert data["method"] == "heuristic"
        assert (data["bracket_lower"], data["bracket_upper"]) == estimate_ce_by_full_walk(
            g, family, budget=3, seed=seed)


def test_ce_walks_no_grid_on_a_proven_set(capsys, monkeypatch, tmp_path):
    # cycles and K_{2,b} by their theorems, K_250 plus a disjoint 4-cycle by
    # the sandwich (r(H) = r) and the component intersection, and the
    # bipartite grid: each set is exact, so ce reads CE off its ray
    calls = []
    walk = exponents._walk

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(exponents, "_walk", counted)
    k250c4 = tmp_path / "k250c4.edges"
    k250c4.write_text(to_edge_list(Graph.from_edges(
        254, [*complete(250).edges, (251, 252), (252, 253), (253, 254), (251, 254)])))
    grid = tmp_path / "grid30.edges"
    grid.write_text(to_edge_list(Graph.from_edges(
        900, [(30 * r + c + 1, 30 * r + c + 2) for r in range(30) for c in range(29)]
        + [(30 * r + c + 1, 30 * r + c + 31) for r in range(29) for c in range(30)])))
    cases = [(["--family", "cycle", "--n", str(n)], 1) for n in range(4, 21)]
    cases += [(["--family", "complete-bipartite", "--a", "2", "--b", str(b), "--powers", family],
               ce) for b in range(2, 7) for family, ce in (("plain", 1), ("even", 2))]
    cases += [([str(k250c4)], 248), ([str(grid)], 1)]
    for argv, ce in cases:
        code, out, _ = run(capsys, ["ce", *argv, "--seed", "1", "--format", "json"])
        assert code == 0, argv
        data = json.loads(out)
        assert (data["method"], data["ce"]) == ("exact", ce), argv
    assert calls == []


# `hset --format json` output of an earlier version, byte for byte, for 49
# graphs in the three families: chordal sandwiches, cycles and the even
# 6-cycle's excluded 1, bipartite patterns with their partial odd sets,
# non-chordal sandwiches, and exact and partial disjoint unions.
@pytest.mark.parametrize("case", json.loads((FIXTURES / "expected_hsets.json").read_text()),
                         ids=lambda case: case["graph"])
def test_hset_outputs_are_pinned(capsys, tmp_path, case):
    graph = tmp_path / "g.edges"
    graph.write_text(case["edges"])
    for family, want in case["outputs"].items():
        code, out, _ = run(capsys, ["hset", str(graph), "--powers", family, "--format", "json"])
        assert code == 0
        assert out == want, family


# `verify --format json` records of an earlier version of the sampler: band(40,
# 3) plain (the CI case, 300 samples over 8 stacks), band(12, 3) odd and
# cycle(6) even. Every field must match exactly except the worst eigenvalue,
# which LAPACK builds round differently; it must agree to well inside the
# 1e-9 PSD tolerance, so a change to a sample or an RNG stream shows here.
@pytest.mark.parametrize("case", json.loads((FIXTURES / "verify_spectra.json").read_text()),
                         ids=lambda case: " ".join(case["argv"][1:-2]))
def test_verify_rows_are_pinned(capsys, case):
    code, out, _ = run(capsys, case["argv"])
    assert code == 0
    got, worst = _split_worst(json.loads(out))
    want, pinned = _split_worst(case["output"])
    assert got == want
    assert worst == pytest.approx(pinned, rel=1e-9, abs=1e-11)


def _split_worst(output):
    rows = [dict(row) for row in output["rows"]]
    return {**output, "rows": rows}, [row.pop("worst_min_eigenvalue") for row in rows]


@pytest.mark.parametrize("command", [["ce", "--family", "cycle", "--n", "6"], ["scan"]],
                         ids=["ce", "scan"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_exits_two(capsys, tmp_path, command, budget):
    if command == ["scan"]:
        stream = tmp_path / "c5.edges"
        stream.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
        command = ["scan", str(stream)]
    code, out, err = run(capsys, command + ["--budget", budget, "--seed", "1"])
    assert code == 2 and out == ""
    assert "--budget must be >= 1" in err


_CE = ["ce", "--family", "cycle", "--n", "5"]
_VERIFY = ["verify", "--family", "cycle", "--n", "5", "--alphas", "0.5,1.5", "--samples", "50"]
_WITNESS = ["witness", "--family", "complete", "--n", "4", "--alpha", "1.5"]


# both tolerance flags on ce, verify and witness: the tolerances are the
# constants cones.PSD_TOL and cones.WITNESS_TOL, so no subcommand takes a flag
# that could set one to a value certifying a PSD image or nothing at all
@pytest.mark.parametrize("command, flag", [
    (_CE, "--tol-scale"), (_CE, "--witness-scale"),
    (_VERIFY, "--tol-scale"), (_VERIFY, "--witness-scale"),
    (_WITNESS, "--tol-scale"), (_WITNESS, "--witness-scale"),
], ids=["--tol-scale-ce", "--witness-scale-ce", "--tol-scale-verify", "--witness-scale-verify",
        "--tol-scale-witness", "--witness-scale-witness"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--seed", "1", flag, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


def test_a_power_of_the_schur_product_theorem_has_no_witness(capsys, tmp_path):
    # every integer power keeps P_G, so no tolerance may turn the eigensolver
    # noise of a cube image (about -1.8e-17 here) into a witness or a violation
    witness = ["witness", "--family", "complete", "--n", "4", "--alpha", "3", "--seed", "1"]
    code, out, err = run(capsys, witness)
    assert code == 1 and out == "" and "none found" in err
    out_file = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        main([*witness, "--witness-scale", "1e-300", "-o", str(out_file)])
    assert exc.value.code == 2 and not out_file.exists()
    assert "unrecognized arguments: --witness-scale" in capsys.readouterr().err
    code, out, _ = run(capsys, ["verify", "--family", "complete", "--n", "4", "--alphas", "3",
                                "--samples", "50", "--seed", "1"])
    assert code == 0 and out.endswith("-> ok\n")


# each subcommand takes only the run flags it reads; these it once accepted
# and ignored, or read before the tolerances and the scan's grid step became
# constants and --seed the only seed source
_REMOVED_FLAGS = {
    "ce": ["--tol-scale", "--witness-scale", "--strict"],
    "hset": ["--seed", "--strict", "--tol-scale", "--witness-scale", "--budget"],
    "witness": ["--format", "--tol-scale", "--witness-scale", "--strict"],
    "verify": ["--witness-scale", "--budget", "--tol-scale", "--strict"],
    "families": ["--tol-scale", "--witness-scale", "--budget", "--strict"],
    "scan": ["--tol-scale", "--witness-scale", "--format", "--strict", "--grid-step"],
}
_FLAG_VALUE = {"--seed": "3", "--tol-scale": "1e300", "--witness-scale": "1e-3",
               "--budget": "7", "--format": "json", "--strict": None, "--grid-step": "0.125"}


@pytest.mark.parametrize("command, flag", [(c, f) for c, flags in _REMOVED_FLAGS.items()
                                           for f in flags])
def test_removed_run_flag_exits_two(capsys, tmp_path, command, flag):
    stream = tmp_path / "c5.edges"
    stream.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    argv = {"ce": _CE, "hset": ["hset", "--family", "cycle", "--n", "5"], "witness": _WITNESS,
            "verify": _VERIFY, "families": ["families", "--max-n", "4"],
            "scan": ["scan", str(stream)]}[command]
    value = _FLAG_VALUE[flag]
    with pytest.raises(SystemExit) as exc:
        main(argv + ([flag] if value is None else [flag, value]))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["witness", "--family", "complete", "--n", "5", "--alpha", "-1e6", "--seed", "1"], 1),
    (["verify", "--family", "cycle", "--n", "5", "--alphas", "-0.5,1.5", "--seed", "1"], 0),
    (["verify", "--family", "cycle", "--n", "5", "--alphas", "-.5,1", "--samples", "20",
      "--seed", "1"], 0),
], ids=["witness-alpha", "verify-list", "verify-leading-point"])
def test_negative_power_is_a_value_not_an_option(capsys, argv, code):
    # argparse before Python 3.13 reads -1e6 or -0.5,1.5 as an option and
    # exits 2 with "expected one argument"
    got, out, err = run(capsys, argv)
    assert got == code, err
    if argv[0] == "verify":
        assert out.startswith("alpha=-0.5: ")


def test_hset_complete_odd(capsys):
    code, out, _ = run(capsys, ["hset", "--family", "complete", "--n", "4",
                                "--powers", "odd"])
    assert code == 0
    assert "(2N-1)" in out and "[2, ∞)" in out and "exact" in out


def test_hset_cycle_even_partial(capsys):
    code, out, _ = run(capsys, ["hset", "--family", "cycle", "--n", "6",
                                "--powers", "even", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["hset"]["exact"] is False
    assert data["hset"]["exclusions"] == [1.0]


def test_hset_complete_bipartite_even_exact(capsys):
    code, out, _ = run(capsys, ["hset", "--family", "complete-bipartite",
                                "--a", "2", "--b", "3", "--powers", "even"])
    assert code == 0
    assert "exact: [2, ∞)" in out


def test_hset_graph_without_a_theorem_gets_the_sandwich(capsys, tmp_path):
    # neither chordal, a cycle nor bipartite: r = 3 and r(H) = 4 bound the set
    g = cycle(5)
    chord = "1 3\n"
    p = tmp_path / "odd.edges"
    p.write_text(to_edge_list(g) + chord)
    code, out, _ = run(capsys, ["hset", str(p)])
    assert code == 0
    assert out.startswith("partial: contains N ∪ [2, ∞), contained in [1, ∞)\n")


def test_witness_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "w.json"
    code, _, _ = run(capsys, ["witness", "--family", "complete", "--n", "5",
                              "--alpha", "2.5", "--seed", "11", "-o", str(out_file)])
    assert code == 0
    report = WitnessReport.from_json(json.loads(out_file.read_text()))
    assert report.verify()
    code, out, _ = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 0 and "verified" in out


@pytest.mark.parametrize("argv, route", [
    (["--family", "complete", "--n", "4", "--alpha", "1.5"], "certificate: float)"),
    (["--family", "near-complete", "--n", "9", "--alpha", "6.5"],
     "certificate: interval, 55 digits)"),
])
def test_witness_line_names_the_certificate_route(capsys, tmp_path, argv, route):
    out_file = tmp_path / "w.json"
    code, out, _ = run(capsys, ["witness", *argv, "--seed", "1", "-o", str(out_file)])
    assert code == 0 and out.rstrip().endswith(route)
    code, out, _ = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 0 and "verified" in out


def _integer_power_report(capsys, tmp_path, k, family):
    """The report of witness on K_{k+3} at the integer power k, in a family
    whose lattice misses k: the closed form with signed y."""
    out_file = tmp_path / "w.json"
    code, out, _ = run(capsys, ["witness", "--family", "complete", "--n", str(k + 3),
                                "--alpha", str(k), "--powers", family, "--seed", "1",
                                "-o", str(out_file)])
    assert code == 0 and f"interval, {20 + 5 * (k + 1)} digits" in out
    return json.loads(out_file.read_text())


def _verify_exit(capsys, tmp_path, data):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["witness", "--verify", str(path)])
    assert out == ("witness verified\n" if code == 0 else "witness FAILED re-verification\n")
    return code


@pytest.mark.parametrize("k, family", [(7, "even"), (8, "odd")])
def test_an_integer_power_report_with_one_sign_of_y_flipped_fails_verify(capsys, tmp_path, k,
                                                                         family):
    data = _integer_power_report(capsys, tmp_path, k, family)
    assert _verify_exit(capsys, tmp_path, data) == 0
    u, v = data["certificate"]["factor"]
    rows = [i for i, (a, b) in enumerate(zip(u, v)) if a and b]  # the rows of S
    assert len(rows) == k + 1 and min(v[i] for i in rows) < 0 < max(v[i] for i in rows)
    for i in rows:
        data["certificate"]["factor"][1][i] = -v[i]
        assert _verify_exit(capsys, tmp_path, data) == 1, i
        data["certificate"]["factor"][1][i] = -v[i]


@pytest.mark.parametrize("k, family, other", [(7, "even", "plain"), (8, "odd", "even")])
def test_a_signed_factor_fails_verify_in_another_family(capsys, tmp_path, k, family, other):
    # plain powers take no negative entry, even at 7 where the even-family
    # bound is negative; the odd report at 8 re-read in the even family has
    # the image |s|^8, PSD by the Schur product theorem
    data = _integer_power_report(capsys, tmp_path, k, family)
    assert _verify_exit(capsys, tmp_path, {**data, "family": other}) == 1


@pytest.mark.parametrize("field, value", [("test_vector", 5), ("test_vector", [0.5]),
                                          ("test_vector", "1234567"),
                                          ("factor", "x"), ("digits", None), ("digits", "45"),
                                          ("digits", "4_5"), ("digits", 45.9), ("digits", 45.0),
                                          ("digits", True)])
def test_witness_malformed_certificate_is_a_load_error(capsys, tmp_path, field, value):
    # digits is a JSON integer: a string or float that int() would read is
    # turned down, and so is a bool
    out_file = tmp_path / "w.json"
    run(capsys, ["witness", "--family", "near-complete", "--n", "7", "--alpha", "4.5",
                 "--seed", "1", "-o", str(out_file)])
    data = json.loads(out_file.read_text())
    assert data["certificate"]["digits"] == 45
    data["certificate"][field] = value
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 2 and "cannot load witness report: bad certificate JSON: " in err


_FLOAT_ROUTE = ["--family", "complete", "--n", "4", "--alpha", "1.5"]
_INTERVAL_ROUTE = ["--family", "near-complete", "--n", "7", "--alpha", "4.5"]


@pytest.mark.parametrize("argv, path, value, message", [
    (_FLOAT_ROUTE, ("matrix", "n"), str, "bad matrix JSON: expected an integer, got '4'"),
    (_FLOAT_ROUTE, ("matrix", "n"), lambda n: n + 0.9,
     "bad matrix JSON: expected an integer, got 4.9"),
    (_FLOAT_ROUTE, ("matrix", "n"), float, "bad matrix JSON: expected an integer, got 4.0"),
    (_FLOAT_ROUTE, ("matrix", "n"), bool, "bad matrix JSON: expected an integer, got True"),
    (_FLOAT_ROUTE, ("matrix", "rows", 0, 0), str, "bad matrix JSON: expected a number, got '"),
    (_FLOAT_ROUTE, ("matrix", "rows", 0, 0), bool, "bad matrix JSON: expected a number, got True"),
    (_FLOAT_ROUTE, ("matrix", "rows", 0, 0), lambda x: 10 ** 400, "bad matrix JSON: "),
    (_INTERVAL_ROUTE, ("certificate", "factor", 0, 0), str,
     "bad certificate JSON: expected a number, got '"),
    (_INTERVAL_ROUTE, ("certificate", "factor", 0, 0), bool,
     "bad certificate JSON: expected a number, got True"),
], ids=["n-string", "n-fraction", "n-float", "n-bool", "entry-string", "entry-bool",
        "entry-overflow", "factor-string", "factor-bool"])
def test_witness_report_numbers_are_checked_at_load(capsys, tmp_path, argv, path, value, message):
    # the matrix order is a JSON integer, and each matrix and factor entry a
    # JSON number: a string int() or float() would read, a bool or (for the
    # order) a float is turned down, as graph labels and digits are
    out_file = tmp_path / "w.json"
    assert main(["witness", *argv, "--seed", "1", "-o", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    *keys, last = path
    parent = functools.reduce(lambda node, key: node[key], keys, data)
    parent[last] = value(parent[last])
    out_file.write_text(json.dumps(data))
    capsys.readouterr()
    code, out, err = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load witness report: " + message)


def _witness_report_with(tmp_path, edit):
    # a float-route report, so each case reaches only the field it breaks
    out_file = tmp_path / "w.json"
    assert main(["witness", "--family", "complete", "--n", "4", "--alpha", "1.5",
                 "--seed", "1", "-o", str(out_file)]) == 0
    out_file.write_text(json.dumps(edit(json.loads(out_file.read_text()))))
    return str(out_file)


def _set(key, value):
    def edit(data):
        data[key] = value
        return data
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda data: [data], "expected an object, got list"),
    (lambda data: 4.5, "expected an object, got float"),
    (_set("alpha", [1]), "alpha must be a number, got [1]"),
    (_set("alpha", "1.5"), "alpha must be a number, got '1.5'"),
    (_set("image_min_eigenvalue", None), "image_min_eigenvalue must be a number"),
    (_set("image_min_eigenvalue", True), "image_min_eigenvalue must be a number"),
    (_set("family", 7), "family must be a string, got 7"),
    (_set("construction", ["x"]), "construction must be a string, got ['x']"),
    (_set("construction", None), "construction must be a string, got None"),
], ids=["list", "number", "alpha-list", "alpha-string", "eigenvalue-null", "eigenvalue-bool",
        "family-number", "construction-list", "construction-null"])
def test_witness_malformed_report_is_a_load_error(capsys, tmp_path, edit, message):
    # a report that does not load is a usage error (2), not a failed proof (1)
    path = _witness_report_with(tmp_path, edit)
    capsys.readouterr()
    code, out, err = run(capsys, ["witness", "--verify", path])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load witness report: bad witness JSON: ")
    assert message in err


_GRAPH_FLAG_VALUE = {"--density": "0.5", "--family": "cycle"}
_SEARCH_FLAGS = [
    (["GRAPH"], "graph file"),
    *[([flag, _GRAPH_FLAG_VALUE.get(flag, "3")], flag) for flag in _GRAPH_OPTIONS],
    (["--alpha", "9"], "--alpha"), (["--powers", "odd"], "--powers"),
    (["--powers", "plain"], "--powers"), (["--seed", "3"], "--seed"),
    (["--budget", "7"], "--budget"),
    (["-o", "OUT"], "-o"), (["--output", "OUT"], "-o"),
    (["--powers", "odd", "--seed", "3", "--budget", "7", "--alpha", "9", "--family", "cycle",
      "--n", "5"], "--family"),
]


@pytest.mark.parametrize("flags, named", _SEARCH_FLAGS,
                         ids=[" ".join(flags) for flags, _ in _SEARCH_FLAGS])
def test_witness_verify_rejects_a_search_flag(capsys, tmp_path, c4_file, flags, named):
    # the re-check reads only the report, so a search flag next to --verify
    # is a usage error, and -o writes nothing
    path = _witness_report_with(tmp_path, lambda data: data)
    out_file = tmp_path / "x.json"
    flags = [{"GRAPH": c4_file, "OUT": str(out_file)}.get(f, f) for f in flags]
    capsys.readouterr()
    code, out, err = run(capsys, ["witness", "--verify", path, *flags])
    assert code == 2 and out == ""
    assert err == f"error: witness --verify takes no {named}\n"
    assert not out_file.exists()


def test_witness_report_with_an_mpmath_test_vector_still_verifies(capsys):
    # written while the search's point arithmetic ran on mpmath: its test
    # vector differs from today's in the trailing digits
    path = FIXTURES / "witness_mpmath_test_vector.json"
    stored = json.loads(path.read_text())["certificate"]["test_vector"]
    found = find_counterexample(near_complete(9), 6.5, "plain", seed=1)
    assert list(found.certificate.test_vector) != stored
    code, out, _ = run(capsys, ["witness", "--verify", str(path)])
    assert code == 0 and "verified" in out


def test_witness_report_in_the_dense_form_is_a_load_error(capsys, tmp_path):
    g = near_complete(9)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(dense_report_json(find_counterexample(g, 6.5, seed=1), g)))
    code, out, err = run(capsys, ["witness", "--verify", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load witness report: bad witness JSON: the dense form")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["witness_float_route.json", "witness_mpmath_test_vector.json",
                                  "witness_mpmath_end_reports.json"])
def test_witness_committed_reports_verify(capsys, tmp_path, name):
    reports = json.loads((FIXTURES / name).read_text())
    for k, data in enumerate(reports if isinstance(reports, list) else [reports]):
        path = tmp_path / f"w{k}.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, ["witness", "--verify", str(path)])
        assert (code, out) == (0, "witness verified\n"), (name, k)


def test_witness_tampered_report_fails(capsys, tmp_path):
    out_file = tmp_path / "w.json"
    run(capsys, ["witness", "--family", "complete", "--n", "4",
                 "--alpha", "1.5", "--seed", "2", "-o", str(out_file)])
    data = json.loads(out_file.read_text())
    data["alpha"] = 2.0
    out_file.write_text(json.dumps(data))
    code, out, _ = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 1 and "FAILED" in out


def test_witness_not_found_exits_one(capsys):
    code, _, err = run(capsys, ["witness", "--family", "complete", "--n", "5",
                                "--alpha", "3", "--seed", "11", "--budget", "40"])
    assert code == 1
    assert "none found" in err


def test_witness_tree_below_threshold(capsys, tmp_path):
    out_file = tmp_path / "w.json"
    code, _, _ = run(capsys, ["witness", "--family", "tree", "--n", "8",
                              "--alpha", "0.5", "--seed", "5", "-o", str(out_file)])
    assert code == 0
    assert WitnessReport.from_json(json.loads(out_file.read_text())).verify()


def test_verify_cycle_five(capsys):
    code, out, _ = run(capsys, ["verify", "--family", "cycle", "--n", "5",
                                "--alphas", "1,1.5,2.5", "--samples", "80",
                                "--seed", "4"])
    assert code == 0
    assert out.count("-> ok") == 3


def test_verify_flags_refutable_power(capsys):
    # sampling alone rarely refutes a power below the threshold; the report
    # cross-references the witness command instead of passing silently
    code, out, _ = run(capsys, ["verify", "--family", "complete", "--n", "4",
                                "--alphas", "1.5", "--samples", "40", "--seed", "4"])
    assert code == 0
    assert "witness" in out


def test_families_closed_forms(capsys):
    code, out, _ = run(capsys, ["families", "--max-n", "7", "--seed", "3"])
    assert code == 0
    assert "0 mismatches" in out


@pytest.mark.parametrize("max_n", ["1", "0", "-4"])
def test_families_below_two_vertices_exits_two(capsys, max_n):
    # the table starts at complete(2); below it there is nothing to check
    code, out, err = run(capsys, ["families", "--max-n", max_n])
    assert code == 2 and out == ""
    assert err == f"error: --max-n must be >= 2, got {max_n}\n"
    code, out, _ = run(capsys, ["families", "--max-n", "2"])
    assert code == 0 and out.endswith("1 rows, 0 mismatches\n")


def test_scan_stream(capsys, tmp_path):
    stream = tmp_path / "graphs.txt"
    stream.write_text("1 2\n2 3\n3 4\n1 4\n\n1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, ["scan", str(stream), "--seed", "5", "--budget", "60"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[-1]["summary"]["flagged"] == 0
    assert all(not rec["flagged"] for rec in lines[:-1])


@pytest.mark.parametrize("separator", [" ", "\t"], ids=["space", "tab"])
def test_scan_splits_blocks_at_a_whitespace_only_line(capsys, tmp_path, separator):
    # the edge-list parser skips such a line, so a split on empty lines
    # alone read K_3 and C_4 as one graph
    stream = tmp_path / "graphs.txt"
    stream.write_text(f"1 2\n2 3\n1 3\n{separator}\n1 2\n2 3\n3 4\n1 4\n")
    code, out, _ = run(capsys, ["scan", str(stream), "--seed", "1"])
    assert code == 0
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert [(rec["n"], rec["edge_count"], rec["chordal"]) for rec in records] == [
        (3, 3, True), (4, 4, False)]
    assert summary["summary"]["graphs"] == 2


def test_scan_record_error_exits_one(capsys, tmp_path):
    # a one-vertex graph has no critical exponent; the scan records the
    # error, goes on to the path, and exits 1
    stream = tmp_path / "graphs.txt"
    stream.write_text("n 1\n\n1 2\n2 3\n")
    code, out, _ = run(capsys, ["scan", str(stream), "--seed", "2", "--budget", "20"])
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 1
    assert "error" in lines[0] and not lines[1]["flagged"]
    assert lines[-1]["summary"]["errors"] == 1 and lines[-1]["summary"]["flagged"] == 0


def test_scan_empty_stream(capsys, tmp_path):
    stream = tmp_path / "empty.txt"
    stream.write_text("\n")
    code, out, _ = run(capsys, ["scan", str(stream), "--seed", "5"])
    assert code == 0
    assert json.loads(out.strip().splitlines()[-1])["summary"]["graphs"] == 0


def test_graph_input_precedence_is_an_error(capsys, c4_file):
    code, _, err = run(capsys, ["ce", c4_file, "--family", "cycle", "--n", "4"])
    assert code == 2
    assert "not both" in err


def test_the_seed_environment_variable_is_not_read(capsys, monkeypatch):
    # --seed is the only seed source: the variable once read in its place
    # leaves the output of an unseeded call that of --seed 0
    argv = ["verify", "--family", "band", "--n", "40", "--d", "3", "--alphas", "1.5",
            "--samples", "300", "--format", "json"]
    code, seeded, _ = run(capsys, [*argv, "--seed", "0"])
    assert code == 0
    monkeypatch.setenv("HADAMARD_POWERS_SEED", "5")
    assert run(capsys, argv) == (0, seeded, "")
    assert run(capsys, [*argv, "--seed", "5"])[1] != seeded


def test_main_calls_share_no_parsed_state(capsys, monkeypatch):
    # the parser is built once per process; each call still parses afresh,
    # so a --seed does not carry over to the next call
    assert cli.build_parser() is cli.build_parser()
    seeds = []
    resolve = cli._resolve_config

    def record(args):
        resolve(args)
        seeds.append(args.seed)

    monkeypatch.setattr(cli, "_resolve_config", record)
    argv = ["ce", "--family", "complete", "--n", "4"]
    assert run(capsys, [*argv, "--seed", "5"])[0] == 0
    assert run(capsys, argv)[0] == 0
    assert run(capsys, [*argv, "--seed", "7"])[0] == 0
    assert seeds == [5, 0, 7]


def _parse(capsys, parser, argv):
    """(exit code or None, stdout, stderr, namespace or None) of one parse."""
    try:
        args, code = parser.parse_args(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, args


_VALID_CALLS = {
    "ce": ["ce", "--family", "cycle", "--n", "9", "--seed", "3", "--format", "json"],
    "hset": ["hset", "g.edges", "--powers", "odd"],
    "witness": ["witness", "--family", "complete", "--n", "5", "--alpha", "2.5", "-o", "w.json"],
    "verify": ["verify", "--family", "band", "--n", "6", "--d", "2", "--alphas", "1.5"],
    "families": ["families", "--max-n", "4", "--format", "json"],
    "scan": ["scan", "stream.txt", "--powers", "even", "--budget", "3"],
}


@pytest.mark.parametrize("argv, code", [
    *(([name, "--help"], 0) for name in _VALID_CALLS),
    *(([*argv, "--bogus"], 2) for argv in _VALID_CALLS.values()),
    (["verify", "--family", "cycle", "--n", "5"], 2),
    (["witness", "--verify", "f", "--alpha", "2"], None),  # main rejects it after parsing
    (["witness", "--alpha", "-1e6"], None),
    *((argv, None) for argv in _VALID_CALLS.values()),
], ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_one_subcommand_parser_parses_as_the_full_parser(capsys, argv, code):
    # help, usage lines and errors included: an unrecognized argument is
    # reported with the top-level usage, which names every subcommand
    got = _parse(capsys, cli.build_parser(argv[0]), argv)
    assert got == _parse(capsys, cli.build_parser(), argv)
    assert got[0] == code
    if argv[-1] == "--bogus":
        assert "{ce,hset,witness,verify,families,scan}" in got[2]


def test_main_builds_only_the_invoked_subcommands_parser(capsys, monkeypatch):
    # the top-level parser and one subparser, where the full parser has seven
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert run(capsys, ["families", "--max-n", "3"])[0] == 0
    assert built == ["hadamard-powers", "hadamard-powers families"]
    assert run(capsys, ["families", "--max-n", "4"])[0] == 0
    assert len(built) == 2


def test_json_graph_input(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 3]]}))
    code, out, _ = run(capsys, ["ce", str(p)])
    assert code == 0 and "CE = 1" in out


@pytest.mark.parametrize("data, message", [
    ({"n": 3, "edges": 5}, "'int' object is not iterable"),
    ({"n": 3, "edges": [[1, None]]}, "expected an integer, got None"),
    ({"n": 2, "edges": [[1, 2.7]]}, "expected an integer, got 2.7"),
    ({"n": "3", "edges": []}, "expected an integer, got '3'"),
])
def test_json_graph_labels_must_be_integers(capsys, tmp_path, data, message):
    p = tmp_path / "g.json"
    p.write_text(json.dumps(data))
    code, out, err = run(capsys, ["hset", str(p)])
    assert code == 2 and out == ""
    assert err == f"error: {p}: bad graph JSON: {message}\n"


def test_witness_report_with_a_bad_graph_label_is_a_load_error(capsys, tmp_path):
    def fractional_label(data):
        data["edges"][0][1] = 2.5
        return data

    path = _witness_report_with(tmp_path, fractional_label)
    capsys.readouterr()
    code, out, err = run(capsys, ["witness", "--verify", path])
    assert code == 2 and out == ""
    assert err == ("error: cannot load witness report: "
                   "bad witness JSON: expected an integer, got 2.5\n")


def test_scan_numbers_records_by_block(capsys, monkeypatch, tmp_path):
    # stderr and the records both number the blocks from 0, a malformed one
    # too; each graph's walk keeps the seed --seed plus its place among the
    # parsed graphs, so no RNG stream moves
    seeds = []
    walk = exponents._walk

    def seeded(g, known, family, budget, seed):
        seeds.append(seed)
        return walk(g, known, family, budget, seed)

    monkeypatch.setattr(exponents, "_walk", seeded)
    stream = tmp_path / "graphs.txt"
    stream.write_text("1 2\n2 3\n\nnot a graph\n\n1 2\n2 3\n3 4\n4 1\n\n"
                      "1 2\n2 3\n3 4\n4 5\n1 5\n1 3\n")
    code, out, err = run(capsys, ["scan", str(stream), "--seed", "7", "--budget", "3"])
    assert code == 0
    assert err == "block 1: line 1: expected 'i j', got 'not a graph'\n"
    *records, summary = [json.loads(line) for line in out.splitlines()]
    assert [(rec["index"], rec["n"], rec["method"]) for rec in records] == [
        (0, 3, "exact"), (2, 4, "exact"), (3, 5, "heuristic")]
    assert summary["summary"]["graphs"] == 3
    assert seeds == [9]


def _cli_lines(argv):
    """(exit code, the JSON lines printed) of one in-process call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def _assert_scan_agrees_with_ce(graphs, family, seed):
    # graph k of the stream is scanned at seed + k; `ce` at that seed prints
    # the same method and the same ce or bracket: the scan record holds each
    # key of ce's with its value, and an exact record the bracket [ce, ce]
    argv = ["--powers", family, "--budget", "3"]
    with tempfile.TemporaryDirectory() as tmp:
        stream = Path(tmp) / "stream.txt"
        stream.write_text("\n".join(map(to_edge_list, graphs)))
        code, (*records, summary) = _cli_lines(["scan", str(stream), "--seed", str(seed), *argv])
        assert code == (1 if summary["summary"]["flagged"] else 0)
        assert len(records) == len(graphs)
        for k, (g, rec) in enumerate(zip(graphs, records)):
            path = Path(tmp) / f"g{k}.edges"
            path.write_text(to_edge_list(g))
            code, [ce] = _cli_lines(["ce", str(path), "--seed", str(seed + k), *argv,
                                     "--format", "json"])
            assert code == 0
            assert {key: rec[key] for key in ce} == ce, (k, rec)
            if ce["method"] == "exact":
                assert rec["bracket_lower"] == rec["bracket_upper"] == ce["ce"], (k, rec)
                assert isinstance(rec["bracket_lower"], float)


AGREEMENT_GRAPHS = ([g for _, g in criterion3_graphs()]
                    + [cycle(n) for n in (4, 5, 6, 7, 8, 20)]
                    + [complete_bipartite(2, b) for b in range(2, 6)]
                    + [Graph.from_edges(5, [*cycle(5).edges, (1, 3)])])


@pytest.mark.parametrize("family", ["plain", "odd", "even"])
def test_scan_and_ce_give_one_answer(family):
    # the criterion-10 set, cycle(20) and the chorded 5-cycle, whose sets
    # are partial in every family
    _assert_scan_agrees_with_ce(AGREEMENT_GRAPHS, family, SEED)


@settings(max_examples=40, deadline=None)
@given(st.lists(CE_GRAPHS.filter(lambda g: g.n <= 7), min_size=1, max_size=3),
       st.sampled_from(["plain", "odd", "even"]), st.integers(0, 2**16))
def test_scan_and_ce_give_one_answer_on_small_graphs(graphs, family, seed):
    _assert_scan_agrees_with_ce(graphs, family, seed)


def test_scan_skips_malformed_blocks(capsys, tmp_path):
    stream = tmp_path / "graphs.txt"
    stream.write_text("1 2\n2 3\n\nnot a graph\n")
    code, out, err = run(capsys, ["scan", str(stream), "--seed", "2", "--budget", "40"])
    assert code == 0
    assert "block 1" in err
    assert json.loads(out.strip().splitlines()[-1])["summary"]["graphs"] == 1


def test_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("1 2\nfoo\n")
    code, _, err = run(capsys, ["ce", str(bad)])
    assert code == 2
    assert "line 2" in err


def test_missing_family_params_exit_two(capsys):
    code, _, err = run(capsys, ["ce", "--family", "band", "--n", "5"])
    assert code == 2
    assert "--d" in err


@pytest.mark.parametrize("flags, unused", [(["--a", "3"], "--a"),
                                           (["--density", "0.1"], "--density"),
                                           (["--graph-seed", "5"], "--graph-seed")])
def test_family_flag_the_generator_does_not_take_exits_two(capsys, flags, unused):
    code, out, err = run(capsys, ["ce", "--family", "band", "--n", "7", "--d", "3", *flags])
    assert code == 2 and not out
    assert f"family band takes no {unused}" in err


@pytest.mark.parametrize("flags, unused", [(["--n", "50", "--d", "3"], "--n"),
                                           (["--d", "3"], "--d"),
                                           (["--graph-seed", "5"], "--graph-seed"),
                                           (["--attach", "2"], "--attach")])
def test_graph_flag_next_to_a_graph_file_exits_two(capsys, c4_file, flags, unused):
    code, out, err = run(capsys, ["ce", str(c4_file), *flags])
    assert code == 2 and not out
    assert f"a graph file takes no {unused}" in err


# per generator: (required parameters, parameters with a default), with
# values that build another graph than the defaults do
GENERATOR_ARGS = {
    "complete": ({"n": 5}, {}),
    "near_complete": ({"n": 5}, {}),
    "cycle": ({"n": 6}, {}),
    "path": ({"n": 4}, {}),
    "tree": ({"n": 9}, {"seed": 3}),
    "complete_bipartite": ({"a": 2, "b": 3}, {}),
    "band": ({"n": 8, "d": 3}, {}),
    "split": ({"clique_size": 4, "independent_size": 3, "attach_degrees": 2}, {"seed": 1}),
    "apollonian": ({"n": 9}, {"seed": 2}),
    "max_outerplanar": ({"n": 7}, {}),
    "random_chordal": ({"n": 12}, {"density": 0.3, "seed": 4}),
}
FLAG_FOR_PARAM = {"n": "--n", "a": "--a", "b": "--b", "d": "--d",
                  "clique_size": "--clique-size", "independent_size": "--independent-size",
                  "attach_degrees": "--attach", "density": "--density", "seed": "--graph-seed"}


def _family_graph(family, params):
    argv = ["ce", "--family", family.replace("_", "-")]
    for name, value in params.items():
        argv += [FLAG_FOR_PARAM[name], str(value)]
    return cli._load_graph(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("family", sorted(GENERATOR_ARGS))
def test_family_flags_build_the_generators_graph(family):
    assert set(GENERATOR_ARGS) == set(FAMILY_GENERATORS)
    gen = FAMILY_GENERATORS[family]
    required, optional = GENERATOR_ARGS[family]
    everything = {**required, **optional}
    assert _family_graph(family, everything) == gen(**everything)
    assert _family_graph(family, required) == gen(**required)
    if optional:
        # a dropped --graph-seed or --density would show here
        assert gen(**everything) != gen(**required)


@pytest.mark.parametrize("family", sorted(FAMILY_GENERATORS))
def test_generator_parameters_are_those_of_the_signature(family):
    # inspect is the oracle: the CLI reads the code object and does not import it
    gen = FAMILY_GENERATORS[family]
    expected = {p.name: cli._REQUIRED if p.default is p.empty else p.default
                for p in inspect.signature(gen).parameters.values()}
    assert list(cli._parameters(gen).items()) == list(expected.items())
    assert {p.kind for p in inspect.signature(gen).parameters.values()} == {
        inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_subcommand_option_strings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings)
           for name, p in sub.choices.items()}
    seeded = ["--help", "-h", "--seed"]
    assert got == {
        "ce": sorted(_GRAPH_OPTIONS + seeded + ["--powers", "--budget", "--format"]),
        "hset": sorted(_GRAPH_OPTIONS + ["--help", "-h", "--powers", "--format"]),
        "witness": sorted(_GRAPH_OPTIONS + seeded + ["--powers", "--budget", "--alpha",
                                                     "--output", "--verify", "-o"]),
        "verify": sorted(_GRAPH_OPTIONS + seeded + ["--powers", "--format", "--alphas",
                                                    "--samples"]),
        "families": sorted(seeded + ["--format", "--max-n"]),
        "scan": sorted(seeded + ["--powers", "--budget"]),
    }


def test_verify_rejects_a_graph_without_vertices(capsys, tmp_path):
    p = tmp_path / "z.edges"
    p.write_text("n 0\n")
    code, out, err = run(capsys, ["verify", str(p), "--alphas", "1"])
    assert code == 2 and out == ""
    assert "graph must have at least one vertex" in err


def test_ce_on_cycle_past_twenty_vertices(capsys, tmp_path):
    code, out, err = run(capsys, ["ce", _chorded_cycle_file(tmp_path, 21, 1, 11), "--budget",
                                  "20", "--seed", "0", "--format", "json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["r"] == 3
    assert data["bracket_lower"] <= 1.0 <= data["bracket_upper"]


def test_witness_on_cycle_past_sixty_four_vertices(capsys, tmp_path):
    report = str(tmp_path / "c70.json")
    code, _, err = run(capsys, ["witness", "--family", "cycle", "--n", "70", "--alpha", "0.5",
                                "--seed", "0", "-o", report])
    assert code == 0, err
    code, out, _ = run(capsys, ["witness", "--verify", report])
    assert code == 0 and "witness verified" in out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_fewer_than_one_sample(capsys, samples):
    code, out, err = run(capsys, ["verify", "--family", "cycle", "--n", "5",
                                  "--alphas", "1.5", "--samples", samples, "--seed", "1"])
    assert code == 2 and out == ""
    assert f"--samples must be >= 1, got {samples}" in err


def test_ce_exact_on_a_large_chordal_graph(capsys):
    # the exact route reads one clique tree; a dense clique Gram here
    # would be 10,000 x ~8,000 int64 before its product
    code, out, err = run(capsys, ["ce", "--family", "random-chordal", "--n", "10000",
                                  "--format", "json"])
    assert code == 0, err
    data = json.loads(out)
    assert data["method"] == "exact"
    assert data["ce"] == data["r"] - 2


def _python_process(*args, preexec_fn=None):
    """A fresh `python ARGS` importing from this src/, on one OpenBLAS thread."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=preexec_fn)


def _cli_process(*args, preexec_fn=None):
    """A fresh `python -m hadamard_powers.cli ARGS`, as _python_process."""
    return _python_process("-m", "hadamard_powers.cli", *args, preexec_fn=preexec_fn)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_an_allocation_past_the_memory_limit_is_one_error_line():
    # the sample search of a 20,000-vertex graph asks for a 2.98 GiB stack:
    # under a 2 GiB address-space limit that is exit 2 and one error line
    run = _cli_process("witness", "--family", "random-chordal", "--n", "20000",
                       "--alpha", "50.5", "--budget", "1", "--seed", "1",
                       preexec_fn=_limit_address_space)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: Unable to allocate") and run.stderr.count("\n") == 1


def test_a_pair_search_whose_images_overflow_finds_none_quietly():
    run = _cli_process("witness", "--family", "complete", "--n", "400", "--alpha", "320",
                       "--powers", "odd", "--seed", "1")
    assert (run.returncode, run.stdout, run.stderr) == (1, "", "none found in budget\n")


def test_a_report_whose_image_overflows_fails_re_verification(tmp_path):
    report = replaced(find_counterexample(complete(4), 1.5, seed=1), alpha=5000.5)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(report.to_json()))
    run = _cli_process("witness", "--verify", str(path))
    assert (run.returncode, run.stdout, run.stderr) == (
        1, "witness FAILED re-verification\n", "")


def test_verify_of_an_overflowing_image_prints_one_error_line():
    run = _cli_process("verify", "--family", "complete", "--n", "3", "--alphas", "-400",
                       "--samples", "5", "--seed", "1")
    assert (run.returncode, run.stdout, run.stderr) == (
        2, "", "error: matrix has non-finite entries\n")


# --- numpy is imported at its first use -------------------------------------

# numpy's own modules: the lazily bound `numpy` sits in sys.modules unrun
_NUMPY_RAN = "('numpy._core' in sys.modules)"
# the modules that @dataclass and inspect.signature would load
_INTROSPECTION_LOADED = "sorted({'dataclasses', 'inspect'} & sys.modules.keys())"

_EXACT_RUNS_SCRIPT = f"""
import contextlib, io, json, sys
from pathlib import Path
import hadamard_powers
from hadamard_powers import cli
from hadamard_powers.graphs import band, cycle, near_complete, to_edge_list
assert not {_NUMPY_RAN}, "import hadamard_powers ran numpy"
assert not {_INTROSPECTION_LOADED}, {_INTROSPECTION_LOADED}
work, runs = Path(sys.argv[1]), json.loads(sys.argv[2])
for name, g in [("band", band(10, 5)), ("near_complete", near_complete(9)), ("cycle", cycle(7))]:
    (work / f"{{name}}.edges").write_text(to_edge_list(g), encoding="utf-8")
results = []
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([code, out.getvalue(), {_NUMPY_RAN}, {_INTROSPECTION_LOADED}])
print(json.dumps(results))
"""


def test_the_exact_routes_run_no_numpy(capsys, tmp_path):
    files = [str(tmp_path / f"{name}.edges") for name in ("band", "near_complete", "cycle")]
    runs = [[command, path, *fmt] for path in files for command in ("hset", "ce")
            for fmt in ([], ["--format", "json"])]
    runs += [["hset", "--family", "cycle", "--n", "7"],
             ["hset", "--family", "complete", "--n", "5", "--powers", "odd"],
             ["hset", "--family", "complete-bipartite", "--a", "3", "--b", "4",
              "--powers", "even"],
             ["ce", "--family", "cycle", "--n", "600", "--seed", "3"],
             ["ce", "--family", "cycle", "--n", "4", "--powers", "even", "--format", "json"],
             ["ce", "--family", "complete", "--n", "40", "--format", "json"]]
    process = _python_process("-c", _EXACT_RUNS_SCRIPT, str(tmp_path), json.dumps(runs))
    assert process.returncode == 0, process.stderr
    results = json.loads(process.stdout)
    for argv, (code, out, numpy_ran, loaded) in zip(runs, results, strict=True):
        assert not numpy_ran and not loaded, (argv, loaded)
        assert (code, out) == run(capsys, argv)[:2], argv  # as with numpy loaded


_WITNESS_SCRIPT = f"""
import contextlib, io, json, os, sys
os.chdir(sys.argv[1])  # the reports are written here, by relative path
if sys.argv[2] == "numpy first":
    import numpy
from hadamard_powers import cli
assert {_NUMPY_RAN} == (sys.argv[2] == "numpy first")
results = []
for family in ("plain", "odd", "even"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["witness", "--family", "near-complete", "--n", "9", "--alpha", "6.5",
                         "--powers", family, "--seed", "1", "--output", f"{{family}}.json"])
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def test_a_search_that_imports_numpy_first_writes_the_same_reports(tmp_path):
    reports = {}
    for when in ("numpy first", "numpy at first use"):
        work = tmp_path / when.replace(" ", "_")
        work.mkdir()
        process = _python_process("-c", _WITNESS_SCRIPT, str(work), when)
        assert process.returncode == 0, process.stderr
        reports[when] = (process.stdout, {family: (work / f"{family}.json").read_bytes()
                                          for family in ("plain", "odd", "even")})
    assert reports["numpy at first use"] == reports["numpy first"]
    pinned = {rec["family"]: rec for rec in json.loads(
        (FIXTURES / "witness_certificates.json").read_text())
        if rec["graph"] == "near_complete(9)" and rec["alpha"] == 6.5}
    for family, report in reports["numpy first"][1].items():
        w = WitnessReport.from_json(json.loads(report))
        rows = matrix_to_json(w.dense())["rows"]
        rec = pinned[family]
        assert (repr(w.image_min_eigenvalue), w.certificate.digits, w.construction,
                hashlib.sha256(json.dumps(rows).encode()).hexdigest()) == (
            rec["image_min_eigenvalue"], rec["digits"], rec["construction"],
            rec["matrix_sha256"]), family


_WHOLE_TEXT_SCRIPT = f"""
import json, sys
from hadamard_powers import graphs
text = graphs.to_edge_list(graphs.band(60, 3))
assert len(text) >= graphs.WHOLE_TEXT_MIN_CHARS and not {_NUMPY_RAN}
whole = graphs._parse_whole_text(text)  # builds its byte mask now
print(json.dumps([whole is not None and whole == graphs._parse_lines(text), {_NUMPY_RAN}]))
"""


def test_the_whole_text_parser_reads_its_first_text_as_the_line_parser():
    process = _python_process("-c", _WHOLE_TEXT_SCRIPT)
    assert process.returncode == 0, process.stderr
    assert json.loads(process.stdout) == [True, True]


_COLD_CE_SCRIPT = f"""
import contextlib, io, json, sys
from hadamard_powers import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["ce", sys.argv[1], "--format", "json"])
print(json.dumps([code, out.getvalue(), {_NUMPY_RAN}]))
"""


def test_an_exact_ce_of_a_short_clean_file_runs_no_numpy(capsys, tmp_path):
    # band(60, 3) is 1,001 characters of clean text: past the whole-text
    # pass's break-even once numpy is loaded, far below the one that pays
    # numpy's import, so a fresh process reads it line by line
    path = tmp_path / "band60.edges"
    path.write_text(to_edge_list(band(60, 3)))
    size = len(path.read_text())
    assert graphs.WHOLE_TEXT_MIN_CHARS <= size < graphs.WHOLE_TEXT_COLD_MIN_CHARS
    process = _python_process("-c", _COLD_CE_SCRIPT, str(path))
    assert process.returncode == 0, process.stderr
    code, out, numpy_ran = json.loads(process.stdout)
    assert not numpy_ran
    assert (code, out) == run(capsys, ["ce", str(path), "--format", "json"])[:2]
