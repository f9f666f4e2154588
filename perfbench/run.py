"""The repo benchmark: one command, three workloads, run from a checkout.

    python3 perfbench/run.py --workload scan|witness|exact-chordal \
        --seed N --seconds S --trace 0|1

Each timed sample is a fresh interpreter (`worker.py`) that imports
`hadamard_powers` from this checkout's `src`, builds the workload's input
files from the seed and runs the workload's ops back to back through
`hadamard_powers.cli.main`: a closed loop with one caller and BLAS pinned to
one thread. Fresh interpreters keep the library's module-level caches cold,
as every CLI user sees them.

With `--trace 0` the run makes set-up samples and then whole passes until
`--seconds` is used up (at least one), and reports the end-to-end metrics.
With `--trace 1` it makes one traced pass and reports the per-layer metrics;
the tracing overhead is estimated as the span count times the cost of one
span (`spans.span_cost`). Untraced passes are scaled to a reference machine
speed measured while they run (`worker.SpeedProbe`). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Details of every run (metadata, per-op records, digests) are written under
`.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import OP_LIMIT_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5       # set-up is measured this many times per run
RUN_DEADLINE_S = 165.0  # a pass still running then is stopped; its ops fail
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
# Mean duration of worker.SpeedProbe's reference kernel at the machine's
# usual speed; par2_s is pass time scaled to this speed.
REF_PROBE_S = 0.002

END_TO_END = {"setup_s": "s", "par2_s": "s", "peak_rss_mb": "MB"}

# name -> unit; see README.md for which end-to-end metric each should move.
PER_LAYER = {
    **{f"{layer}.{kind}": ("count" if kind == "calls" else "s")
       for layer in ("cones.random_psd_for_graph", "cones.entrywise_power",
                     "cones.certify_not_psd", "cones.is_psd",
                     "linalg.eigvalsh", "linalg.eigh",
                     "chordal.mcs_order", "chordal.maximal_cliques_chordal",
                     "chordal.maximal_cliques_general",
                     "graphs.max_near_complete_order_fast",
                     "exponents.critical_exponent_clique_formula",
                     "exponents.find_counterexample", "scipy.minimize")
       for kind in ("calls", "self_s")},
    "linalg.matrices": "count",
    "linalg.flops_computed": "flop",
    "chordal.is_chordal.calls": "count",
    "chordal.enumerations_per_graph": "count/graph",
    "exponents.samples_per_search": "count/search",
    "scipy.minimize.nfev": "count",
    "cli.main.self_s": "s",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.overhead_share": "ratio",
    "ops.failed_share": "ratio",
    "ops.witness_share": "ratio",
    "ops.bracket_width_mean": "exponent",
}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def worker_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HADAMARD_POWERS_SEED")}
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    return env


def run_worker(workload, seed, mode, deadline, trace_to=None):
    """Start worker.py, wait for it (killing it at `deadline`), and return
    its JSON lines and whether it was stopped."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if trace_to is not None:
        cmd += ["--trace-to", str(trace_to)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=worker_env(), cwd=ROOT,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        stopped = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        stopped = True
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    setup = next((d["setup"] for d in lines if "setup" in d), None)
    if setup is None:
        raise BenchError(f"worker {mode} for {workload} failed (exit {proc.returncode})")
    return lines, stopped


def run_pass(workload, seed, deadline, trace_to=None):
    t0 = time.monotonic()
    lines, stopped = run_worker(workload, seed, "pass", deadline, trace_to)
    names = next((d["ops"] for d in lines if "ops" in d), None)
    if names is None:
        raise BenchError(f"worker pass for {workload} listed no ops")
    ops = {d["op"]: d for d in lines if "op" in d}
    records = [ops.get(k) or {"op": k, "name": nm, "ok": False, "digest": "",
                              "status": "not run: the pass's interpreter stopped",
                              "found": None, "width": None,
                              "seconds": 0.0, "charged": 2 * OP_LIMIT_S}
               for k, nm in enumerate(names)]
    end = next((d["end"] for d in lines if "end" in d), {})
    probe = end.get("probe_s") or [REF_PROBE_S]
    scale = REF_PROBE_S / statistics.fmean(probe)
    return {"setup": next(d["setup"] for d in lines if "setup" in d),
            "ops": records,
            "par2_s": sum(r["seconds"] * scale if r["ok"] else r["charged"] for r in records),
            "par2_wall_s": sum(r["charged"] for r in records),
            "pass_s": sum(r["seconds"] for r in records),
            "slowdown": 1 / scale,
            "probes": len(probe),
            "peak_rss_mb": end.get("peak_rss_mb"),
            "layers": end.get("layers"),
            "span_cost_s": end.get("span_cost_s", 0.0),
            "wall_s": time.monotonic() - t0,
            "stopped": stopped}


def quartiles(values):
    """(median, q1, q3); q1 = q3 = median for a single value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def source_hash():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_digests(out_dir, key, passes):
    """Compare each good op's output digest with the other passes of this
    run and with earlier runs under the same `key` (source hash, workload and
    seed). Returns the names of ops whose output changed."""
    seen, changed = {}, set()
    for p in passes:
        for r in p["ops"]:
            if r["ok"]:
                if seen.setdefault(r["name"], r["digest"]) != r["digest"]:
                    changed.add(r["name"])
    store = out_dir / "digests.json"
    try:
        known = json.loads(store.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    earlier = known.setdefault(key, {})
    for name, digest in seen.items():
        if earlier.setdefault(name, digest) != digest:
            changed.add(name)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, store)
    return sorted(changed)


def describe(name, value, unit, values=None, note=""):
    line = f"{name} = {value:.6g} {unit}"
    if values is not None and len(values) > 1:
        med, q1, q3 = quartiles(values)
        line += f" (median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})"
    elif values is not None:
        line += " (1 sample)"
    return line + (f" {note}" if note else "")


def bench(workload, seed, seconds, trace):
    if not (ROOT / "src" / "hadamard_powers" / "__init__.py").is_file():
        raise BenchError(f"no hadamard_powers sources under {ROOT / 'src'}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    t_start = time.monotonic()
    deadline = t_start + RUN_DEADLINE_S
    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "op_limit_s": OP_LIMIT_S,
            "loadavg_start": os.getloadavg(), "source": source_hash()}

    run_worker(workload, seed, "setup", deadline)  # warm-up: writes bytecode caches
    setups = [run_worker(workload, seed, "setup", deadline)[0][0]["setup"]
              for _ in range(SETUP_SAMPLES - 1)]
    spans_file = None
    if trace:
        (out_dir / "spans").mkdir(exist_ok=True)
        spans_file = out_dir / "spans" / f"{workload}-seed{seed}.npz"
    passes = []
    while True:
        passes.append(run_pass(workload, seed, deadline, spans_file))
        elapsed = time.monotonic() - t_start
        if trace or elapsed + passes[-1]["wall_s"] > seconds or passes[-1]["stopped"]:
            break
    setups += [p["setup"] for p in passes]
    meta["versions"] = setups[0]["versions"]
    meta["loadavg_end"] = os.getloadavg()

    records = [r for p in passes for r in p["ops"]]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    searches = [r for r in records if r["found"] is not None]
    witness_share = (sum(r["found"] for r in searches) / len(searches)) if searches else 0.0
    widths = [r["width"] for r in passes[-1]["ops"] if r["width"] is not None]
    width_mean = sum(widths) / len(widths) if widths else 0.0
    changed = check_digests(out_dir, f"{meta['source']} {workload} {seed}", passes)

    setup_wall = [s["import_s"] + s["inputs_s"] for s in setups]
    setup_s = [w * REF_PROBE_S / statistics.fmean(s["probe_s"])
               for w, s in zip(setup_wall, setups)]
    par2 = [p["par2_s"] for p in passes]
    # a pass stopped at the deadline reports no peak; the largest child's is the fallback
    rss = [p["peak_rss_mb"] or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
           for p in passes]
    summary = {"setup_s": quartiles(setup_s)[0], "par2_s": quartiles(par2)[0],
               "peak_rss_mb": quartiles(rss)[0]}
    print(f"workload {workload}, seed {seed}: {len(passes)} pass(es) of "
          f"{len(passes[0]['ops'])} ops; per-op limit {OP_LIMIT_S:g} s")
    print(describe("setup_s", summary["setup_s"], "s", setup_s, note="at the reference speed"))
    print(describe("setup wall-clock", quartiles(setup_wall)[0], "s", setup_wall))
    if not trace:
        print(describe("par2_s", summary["par2_s"], "s", par2, note="at the reference speed"))
        print(describe("par2 wall-clock", quartiles([p["par2_wall_s"] for p in passes])[0],
                       "s", [p["par2_wall_s"] for p in passes],
                       note=f"(machine {passes[0]['slowdown']:.3f} x slower than reference, "
                            f"{passes[0]['probes']} probes)"))
    print(describe("failed_share", failed / attempted, "ratio", note=f"({failed}/{attempted})"))
    if workload == "witness":
        print(describe("witness_share", witness_share, "ratio",
                       note=f"({sum(r['found'] for r in searches)}/{len(searches)})"))
    if workload == "scan":
        print(describe("bracket_width_mean", width_mean, "exponent",
                       note=f"(over {len(widths)} graphs)"))
    if not trace:
        print(describe("peak_rss_mb", summary["peak_rss_mb"], "MB", rss))
    for r in records:
        if not r["ok"]:
            print(f"FAILED op {r['name']}: {r['status']}")
    print(f"digests: {len(changed)} op(s) changed output at this seed"
          + (f": {', '.join(changed)}" if changed else ""))
    print("meta: " + json.dumps(meta, sort_keys=True))

    if trace:
        traced = passes[0]
        layers = dict(traced["layers"] or {})
        overhead_s = traced["span_cost_s"] * layers.get("trace.spans", 0)
        layers.update({
            "setup.import_s": quartiles([s["import_s"] for s in setups])[0],
            "setup.inputs_s": quartiles([s["inputs_s"] for s in setups])[0],
            "trace.overhead_share": overhead_s / max(traced["pass_s"] - overhead_s, 1e-9),
            "ops.failed_share": failed / attempted,
            "ops.witness_share": witness_share,
            "ops.bracket_width_mean": width_mean,
        })
        metrics = {nm: {"value": layers.get(nm, 0), "unit": unit}
                   for nm, unit in PER_LAYER.items()}
        print(f"traced pass {traced['pass_s']:.6g} s: {layers.get('trace.spans', 0)} spans "
              f"at {traced['span_cost_s'] * 1e6:.3g} us each, about {overhead_s:.3g} s")
    else:
        metrics = {nm: {"value": summary[nm], "unit": unit}
                   for nm, unit in END_TO_END.items()}

    detail = {"meta": meta,
              "metrics": metrics,
              "counts": {"attempted": attempted, "failed": failed, "changed": changed,
                         "witness_share": witness_share, "bracket_width_mean": width_mean},
              # deterministic per-op fields, apart from the wall-clock ones
              "ops": [{k: r[k] for k in ("name", "ok", "status", "digest", "found", "width")}
                      for r in passes[-1]["ops"]],
              "op_seconds": [[r["seconds"] for r in p["ops"]] for p in passes],
              "passes": [{k: p[k] for k in ("par2_s", "par2_wall_s", "pass_s", "slowdown", "probes")}
                         for p in passes],
              "setup": setups}
    results = out_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    return {"correct": failed == 0 and not changed, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
