"""Command line surface: flags, exit codes, determinism, and wire formats."""

import argparse
import json
from pathlib import Path

import pytest

from hadamard_powers import cli
from hadamard_powers.cli import SEED_ENV_VAR, main
from hadamard_powers.exponents import WitnessReport, find_counterexample
from hadamard_powers.graphs import FAMILY_GENERATORS, cycle, near_complete, to_edge_list

FIXTURES = Path(__file__).resolve().parent / "fixtures"


@pytest.fixture()
def c4_file(tmp_path):
    p = tmp_path / "c4.edges"
    p.write_text("1 2\n2 3\n3 4\n1 4\n")
    return str(p)


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


def test_ce_four_cycle_is_heuristic(capsys, c4_file):
    code, out, _ = run(capsys, ["ce", c4_file, "--seed", "1", "--budget", "60"])
    assert code == 0
    assert "heuristic" in out
    assert "CE bracket" in out
    low, high = out.split("[")[1].split("]")[0].split(",")
    assert float(low) <= 1.0 <= float(high)


def test_ce_json_is_deterministic(capsys):
    argv = ["ce", "--family", "cycle", "--n", "5", "--seed", "7", "--format", "json",
            "--budget", "40"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["method"] == "heuristic"
    assert data["bracket_lower"] <= 1.0 <= data["bracket_upper"]


def test_ce_on_cycle_80_searches_only_below_the_triangulation_bound(capsys):
    # a triangulated cycle has r(H) = 4, so only the powers in (0, 2) are
    # searched; walking all of (0, 78] took seconds
    argv = ["ce", "--family", "cycle", "--n", "80", "--seed", "3", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    data = json.loads(out)
    assert (data["bracket_lower"], data["bracket_upper"]) == (0.9375, 1.0625)


# `ce --format json` records of an earlier version of the search. Brackets are
# grid values, so they do not depend on the BLAS build; a change to a budget
# or an RNG stream that moves them shows here.
@pytest.mark.parametrize("case", json.loads((FIXTURES / "ce_brackets.json").read_text()),
                         ids=lambda case: " ".join(case["argv"][1:-2]))
def test_ce_brackets_are_pinned(capsys, case):
    code, out, _ = run(capsys, case["argv"])
    assert code == 0
    assert json.loads(out) == case["output"]


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



@pytest.mark.parametrize("command", [
    ["ce", "--family", "cycle", "--n", "5"],
    ["verify", "--family", "cycle", "--n", "5", "--alphas", "0.5,1.5", "--samples", "50"],
], ids=["ce", "verify"])
@pytest.mark.parametrize("flag", ["--tol-scale", "--witness-scale"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_exits_two(capsys, command, flag, value):
    code, out, err = run(capsys, command + ["--seed", "1", flag, value])
    assert code == 2 and out == ""
    assert "tolerances must be positive and finite" in err

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


@pytest.mark.parametrize("field, value", [("test_vector", 5), ("test_vector", [0.5]),
                                          ("factor", "x"), ("digits", None)])
def test_witness_malformed_certificate_is_a_load_error(capsys, tmp_path, field, value):
    out_file = tmp_path / "w.json"
    run(capsys, ["witness", "--family", "near-complete", "--n", "7", "--alpha", "4.5",
                 "--seed", "1", "-o", str(out_file)])
    data = json.loads(out_file.read_text())
    data["certificate"][field] = value
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, ["witness", "--verify", str(out_file)])
    assert code == 2 and "cannot load witness report" in err


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
], ids=["list", "number", "alpha-list", "alpha-string", "eigenvalue-null", "eigenvalue-bool"])
def test_witness_malformed_report_is_a_load_error(capsys, tmp_path, edit, message):
    # a report that does not load is a usage error (2), not a failed proof (1)
    path = _witness_report_with(tmp_path, edit)
    capsys.readouterr()
    code, out, err = run(capsys, ["witness", "--verify", path])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load witness report: bad witness JSON: ")
    assert message in err


def test_witness_report_with_an_mpmath_test_vector_still_verifies(capsys):
    # written while the search's point arithmetic ran on mpmath: its test
    # vector differs from today's in the trailing digits
    path = FIXTURES / "witness_mpmath_test_vector.json"
    stored = json.loads(path.read_text())["certificate"]["test_vector"]
    found = find_counterexample(near_complete(9), 6.5, "plain", seed=1)
    assert list(found.certificate.test_vector) != stored
    code, out, _ = run(capsys, ["witness", "--verify", str(path)])
    assert code == 0 and "verified" in out


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


def test_scan_stream(capsys, tmp_path):
    stream = tmp_path / "graphs.txt"
    stream.write_text("1 2\n2 3\n3 4\n1 4\n\n1 2\n2 3\n1 3\n")
    code, out, _ = run(capsys, ["scan", str(stream), "--seed", "5", "--budget", "60"])
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[-1]["summary"]["flagged"] == 0
    assert all(not rec["flagged"] for rec in lines[:-1])


@pytest.mark.parametrize("step", ["0", "-1", "nan", "inf"])
def test_scan_rejects_bad_grid_step(capsys, tmp_path, step):
    stream = tmp_path / "c5.edges"
    stream.write_text("1 2\n2 3\n3 4\n4 5\n1 5\n")
    code, out, err = run(capsys, ["scan", str(stream), "--grid-step", step, "--seed", "1"])
    assert code == 2 and out == ""
    assert "--grid-step must be positive and finite" in err


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


def test_strict_mode_requires_seed(capsys):
    code, _, err = run(capsys, ["witness", "--family", "complete", "--n", "4",
                                "--alpha", "1.5", "--strict"])
    assert code == 2
    assert "--seed" in err


def test_env_seed_honored_outside_strict(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv(SEED_ENV_VAR, "11")
    out_file = tmp_path / "w.json"
    code, _, _ = run(capsys, ["witness", "--family", "complete", "--n", "5",
                              "--alpha", "2.5", "-o", str(out_file)])
    assert code == 0
    with_env = out_file.read_text()
    monkeypatch.delenv(SEED_ENV_VAR)
    code, _, _ = run(capsys, ["witness", "--family", "complete", "--n", "5",
                              "--alpha", "2.5", "--seed", "11", "-o", str(out_file)])
    assert code == 0
    assert out_file.read_text() == with_env


def test_main_calls_share_no_parsed_state(capsys, monkeypatch):
    # the parser is built once per process; each call still parses afresh,
    # so neither --seed nor --strict carries over to the next call
    assert cli.build_parser() is cli.build_parser()
    seeds = []
    resolve = cli._resolve_config

    def record(args):
        resolve(args)
        seeds.append(args.seed)

    monkeypatch.setattr(cli, "_resolve_config", record)
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    argv = ["ce", "--family", "complete", "--n", "4"]
    assert run(capsys, [*argv, "--seed", "5", "--strict"])[0] == 0
    assert run(capsys, argv)[0] == 0
    monkeypatch.setenv(SEED_ENV_VAR, "7")
    assert run(capsys, argv)[0] == 0
    assert seeds == [5, 0, 7]


def test_json_graph_input(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 3]]}))
    code, out, _ = run(capsys, ["ce", str(p)])
    assert code == 0 and "CE = 1" in out


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


_GRAPH_OPTIONS = ["--a", "--attach", "--b", "--clique-size", "--d", "--density", "--family",
                  "--graph-seed", "--independent-size", "--n"]
_RUN_OPTIONS = ["--budget", "--format", "--help", "--seed", "--strict", "--tol-scale",
                "--witness-scale", "-h"]


def test_subcommand_option_strings_are_pinned():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings)
           for name, p in sub.choices.items()}
    graph_run = _GRAPH_OPTIONS + _RUN_OPTIONS + ["--powers"]
    assert got == {
        "ce": sorted(graph_run),
        "hset": sorted(graph_run),
        "witness": sorted(graph_run + ["--alpha", "--output", "--verify", "-o"]),
        "verify": sorted(graph_run + ["--alphas", "--samples"]),
        "families": sorted(_RUN_OPTIONS + ["--max-n"]),
        "scan": sorted(_RUN_OPTIONS + ["--grid-step", "--powers"]),
    }


def test_verify_rejects_a_graph_without_vertices(capsys, tmp_path):
    p = tmp_path / "z.edges"
    p.write_text("n 0\n")
    code, out, err = run(capsys, ["verify", str(p), "--alphas", "1"])
    assert code == 2 and out == ""
    assert "graph must have at least one vertex" in err


def test_ce_on_cycle_past_twenty_vertices(capsys):
    code, out, err = run(capsys, ["ce", "--family", "cycle", "--n", "21", "--budget", "20",
                                  "--seed", "0", "--format", "json"])
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
