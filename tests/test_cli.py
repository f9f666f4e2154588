"""Command line surface: flags, exit codes, determinism, and wire formats."""

import json

import pytest

from hadamard_powers.cli import SEED_ENV_VAR, main
from hadamard_powers.exponents import WitnessReport
from hadamard_powers.graphs import cycle, to_edge_list


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


def test_hset_unknown_graph_is_an_error(capsys, tmp_path):
    g = cycle(5)
    chord = "1 3\n"
    p = tmp_path / "odd.edges"
    p.write_text(to_edge_list(g) + chord)
    code, _, err = run(capsys, ["hset", str(p)])
    assert code == 2
    assert "numeric bracket" in err


def test_witness_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "w.json"
    code, _, _ = run(capsys, ["witness", "--family", "complete", "--n", "5",
                              "--alpha", "2.5", "--seed", "11", "-o", str(out_file)])
    assert code == 0
    report = WitnessReport.from_json(json.loads(out_file.read_text()))
    assert report.verify()
    code, out, _ = run(capsys, ["witness", "--verify", str(out_file)])
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
