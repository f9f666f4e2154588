"""Self-test of the benchmark harness on tiny inputs: failure accounting,
output checks and the tracer's install/uninstall."""

import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from worker import SpeedProbe, call_cli, run_op  # noqa: E402

from hadamard_powers import graphs  # noqa: E402

LIMIT = 5.0


def _witness_op(tmp_path):
    path = workloads._write_graph(tmp_path, "k4", graphs.complete(4))
    return workloads.witness_op("complete(4)", path, 1.5, "plain", 3, str(tmp_path / "w.json"))


def _tampering(report_path, damage):
    """A CLI caller that damages the report right after the search writes it."""
    def call(argv):
        result = call_cli(argv)
        if "-o" in argv:
            damage(Path(report_path))
        return result
    return call


def test_good_witness_is_found_and_verified(tmp_path):
    outcome, seconds, charged = run_op(_witness_op(tmp_path), call_cli, LIMIT)
    assert outcome.ok and outcome.found, outcome.status
    assert charged == seconds < LIMIT


def _truncate(path):
    path.write_text(path.read_text()[:40])


def _flip_matrix_sign(path):
    rep = json.loads(path.read_text())
    rep["matrix"]["rows"] = [[-x for x in row] for row in rep["matrix"]["rows"]]
    path.write_text(json.dumps(rep))


def _positive_eigenvalue(path):
    rep = json.loads(path.read_text())
    rep["image_min_eigenvalue"] = 0.5
    path.write_text(json.dumps(rep))


@pytest.mark.parametrize("damage", [_truncate, _flip_matrix_sign, _positive_eigenvalue])
def test_corrupted_witness_report_counts_as_failed(tmp_path, damage):
    op = _witness_op(tmp_path)
    outcome, _, charged = run_op(op, _tampering(tmp_path / "w.json", damage), LIMIT)
    assert not outcome.ok, outcome.status
    assert charged == 2 * LIMIT


def test_raising_op_is_charged_twice_the_limit():
    def run(call):
        raise RuntimeError("boom")

    outcome, _, charged = run_op(workloads.Op("raises", run), call_cli, LIMIT)
    assert not outcome.ok and outcome.status.startswith("raised RuntimeError")
    assert charged == 2 * LIMIT


def test_op_past_the_limit_is_stopped_and_failed():
    def run(call):
        time.sleep(2)
        return workloads.Outcome(True, "ok", "")

    t0 = time.perf_counter()
    outcome, _, charged = run_op(workloads.Op("slow", run), call_cli, 0.1)
    assert time.perf_counter() - t0 < 1
    assert not outcome.ok and outcome.status.startswith("timeout")
    assert charged == 0.2


def test_probe_time_is_taken_off_the_op():
    class Probe:
        spent = 0.0

    probe = Probe()

    def run(call):
        time.sleep(0.2)
        probe.spent += 0.15
        return workloads.Outcome(True, "ok", "")

    outcome, seconds, charged = run_op(workloads.Op("probed", run), call_cli, LIMIT, probe)
    assert outcome.ok and charged == seconds
    assert 0.04 < seconds < 0.15


def test_speed_probe_samples_on_cpu_time():
    with SpeedProbe() as probe:
        t_end = time.process_time() + 0.6
        while time.process_time() < t_end:
            pass
    assert len(probe.samples) >= 2  # one on entry, at least one from the timer
    assert probe.spent == pytest.approx(sum(probe.samples)) and probe.spent > 0


def _scan_record(**fields):
    rec = {"index": 0, "n": 5, "edge_count": 5, "r": 3, "conjectured_ce": 1,
           "chordal": False, "bracket_lower": 0.9375, "bracket_upper": 1.0625,
           "flagged": False}
    rec.update(fields)
    return json.dumps(rec) + "\n" + json.dumps({"summary": {}}) + "\n"


@pytest.mark.parametrize("code,out,ok", [
    (0, _scan_record(), True),
    (0, _scan_record(bracket_lower=1.5, bracket_upper=2.0), False),
    (0, _scan_record(flagged=True), False),
    (0, _scan_record(error="ValueError: too big"), False),
    (2, "", False),
])
def test_scan_check(code, out, ok):
    op = workloads.scan_op("fake", "unused.edges", 0)
    outcome, _, charged = run_op(op, lambda argv: (code, out, ""), LIMIT)
    assert outcome.ok is ok, outcome.status
    assert (charged == 2 * LIMIT) is not ok


@pytest.mark.parametrize("out,ok", [
    ('{"ce": 2, "r": 4, "method": "exact"}', True),
    ('{"ce": 3, "r": 4, "method": "exact"}', False),
    ('{"bracket_lower": 1, "r": 4, "method": "heuristic"}', False),
])
def test_exact_ce_check(out, ok):
    outcome, _, _ = run_op(workloads.ce_exact_op("fake", "unused.edges"),
                           lambda argv: (0, out, ""), LIMIT)
    assert outcome.ok is ok, outcome.status


def test_tracer_counts_calls_and_uninstalls(tmp_path):
    import numpy as np
    from hadamard_powers import cli, cones

    from spans import Tracer

    original = (cli.main, cones.is_psd, np.linalg.eigvalsh)
    tracer = Tracer()
    tracer.install()
    try:
        path = workloads._write_graph(tmp_path, "k4", graphs.complete(4))
        code, _, _ = call_cli(["witness", path, "--alpha", "1.5", "--seed", "1"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, cones.is_psd, np.linalg.eigvalsh) == original
    layers = tracer.summary()
    assert layers["cli.main.calls"] == 1
    assert layers["exponents.find_counterexample.calls"] == 1
    assert layers["linalg.matrices"] >= layers["linalg.eigvalsh.calls"] > 0
    assert all(v >= 0 for k, v in layers.items() if k.endswith(".self_s"))
