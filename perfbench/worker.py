"""One timed sample of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --mode setup|pass [--trace-to FILE]

Times `import hadamard_powers` and building the input files (set-up); in
`pass` mode it then runs every op of the workload once, in-process through
`hadamard_powers.cli.main`, and checks each output. It prints one JSON
object per line: the set-up, the op names, one line per finished op, and an
end line with peak memory (and per-layer figures when traced). `run.py`
starts it; the package is imported from the checkout's `src`.
"""

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 10  # speed samples taken right after set-up


class OpTimeout(BaseException):
    """Raised into an op that runs past the limit. A BaseException, so the
    library's per-graph `except Exception` handlers do not swallow it."""


def call_cli(argv):
    """Run `hadamard_powers.cli.main(argv)`, capturing its output."""
    from hadamard_powers import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _on_alarm(_signum, _frame):
    raise OpTimeout()


class SpeedProbe:
    """Samples how fast the machine runs while a pass runs.

    The benchmark runs on shared virtual CPUs whose speed drifts by up to 2x
    over tens of seconds, the same for any code. A fixed reference kernel
    (Python arithmetic and small eigensolves) runs after every op and, from
    a SIGVTALRM handler, after every INTERVAL_S of CPU time; `run.py` scales
    pass time by reference / mean sample. `spent` is the probe's own time,
    which `run_op` takes off the op it interrupted.
    """

    INTERVAL_S = 0.25

    def __init__(self):
        import numpy as np

        self._m = np.eye(8) + 0.1
        self._eigvalsh = np.linalg.eigvalsh
        self.samples = []
        self.spent = 0.0

    def sample(self, *_signal_args):
        t0 = time.perf_counter()
        x = 0
        for i in range(20000):
            x += i * i % 7
        for _ in range(40):
            self._eigvalsh(self._m)
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self.sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, self.INTERVAL_S, self.INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)


def run_op(op, call, limit, probe=None):
    """Run one op under the time limit. Returns (outcome, seconds, charged):
    a failed op is charged 2 x limit, a good one its own time (without the
    time `probe` spent inside it)."""
    from workloads import Outcome

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    probed = probe.spent if probe is not None else 0.0
    t0 = time.perf_counter()
    try:
        outcome = op.run(call)
    except OpTimeout:
        outcome = Outcome(False, f"timeout: over {limit} s", "")
    except Exception as exc:  # an op that raises is a failed op, not a dead pass
        outcome = Outcome(False, f"raised {type(exc).__name__}: {exc}"[:300], "")
    finally:
        seconds = time.perf_counter() - t0
        if probe is not None:
            seconds -= probe.spent - probed
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if outcome.ok and seconds > limit:
        outcome.ok, outcome.status = False, f"timeout: {seconds:.3f} s over {limit} s"
    return outcome, seconds, seconds if outcome.ok else 2 * limit


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "pass"), required=True)
    p.add_argument("--trace-to", default=None, help="write spans here (.npz)")
    args = p.parse_args()
    emit_to = sys.stdout

    def emit(obj):
        emit_to.write(json.dumps(obj) + "\n")
        emit_to.flush()

    src = ROOT / "src"
    if not (src / "hadamard_powers" / "__init__.py").is_file():
        sys.exit(f"no hadamard_powers package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(Path(__file__).resolve().parent))

    t_import = time.perf_counter()
    import hadamard_powers  # noqa: F401  (timed: this is the set-up users pay)
    t_inputs = time.perf_counter()
    import workloads

    scratch = ROOT / ".perfbench" / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        t_ready = time.perf_counter()
        import numpy
        import scipy

        setup_probe = SpeedProbe()
        for _ in range(SETUP_PROBES):
            setup_probe.sample()
        emit({"setup": {"import_s": t_inputs - t_import, "inputs_s": t_ready - t_inputs,
                        "probe_s": setup_probe.samples,
                        "versions": {"python": sys.version.split()[0],
                                     "numpy": numpy.__version__,
                                     "scipy": scipy.__version__}}})
        if args.mode == "setup":
            return
        emit({"ops": [op.name for op in ops]})
        tracer = probe = None
        if args.trace_to:
            from spans import Tracer, span_cost

            tracer = Tracer()
            tracer.install()
        else:
            probe = SpeedProbe()
        with probe or contextlib.nullcontext():
            for k, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = k
                outcome, seconds, charged = run_op(op, call_cli, workloads.OP_LIMIT_S, probe)
                if probe is not None:
                    probe.sample()
                emit({"op": k, "name": op.name, "ok": outcome.ok, "status": outcome.status,
                      "digest": outcome.digest, "found": outcome.found,
                      "width": outcome.width, "seconds": seconds, "charged": charged})
        end = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        if probe is not None:
            end["probe_s"] = probe.samples
        if tracer is not None:
            tracer.uninstall()
            end["layers"] = tracer.summary()
            end["span_cost_s"] = span_cost()
            tracer.save(args.trace_to)
        emit({"end": end})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
