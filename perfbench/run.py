"""Run a monoport benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

``NAME`` is one of the workloads in ``workloads.py``, or ``all`` to run
each in turn.  Repetitions run one at a time (closed loop, one client),
each in a fresh process, until ``S`` seconds have passed; a run that has
used its time still finishes the repetition in flight.  Before the first
repetition an untimed process imports monoport, which fills the bytecode
cache and reports the versions for the environment stamp.

``--trace 0``: every repetition is untraced, and a timed calibration
process (``CALIBRATION``) runs before the first and after each one.  The
last line of output holds the end-to-end metrics: ``wall_cal`` and
``steps_per_cal`` are the medians of each repetition's wall time and step
rate in units of the mean of the calibrations around it; ``setup_s`` and
``peak_rss_mb`` are medians as measured.  The raw medians, quartiles and
repetition counts are printed above it.
``--trace 1``: repetitions alternate untraced and traced; the last line
holds the per-layer metrics (medians over the traced repetitions) and
``trace.overhead_s``, the traced minus the untraced median wall time.

Every repetition is checked by the gate in ``gate.py``; one that crashes,
exits with an unexpected code or fails a check counts as failed.  The
exit code is 0 when no repetition failed, 1 when one did, and 2 when the
checkout holds no monoport sources to run.  Full per-repetition records
and the spans of traced repetitions are kept under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import tracer
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

#: BLAS threads in every workload process, the same on both sides of any
#: comparison; with one, a repetition never competes with itself for cores.
BLAS_THREADS = 1

#: A run stops starting repetitions at ``--seconds``; a repetition still
#: running this long after the run started is killed and counts as failed.
RUN_LIMIT_S = 170.0

#: Fixed work, independent of monoport, timed in a fresh process before
#: and after every untraced repetition: importing the numerical stack
#: monoport runs on.  It measures the host's speed (see ``summarize``).
CALIBRATION = "import numpy, scipy.linalg, scipy.sparse, scipy.sparse.linalg"

#: Per-repetition measurements, printed and stored for every run;
#: ``calibration_s`` is the mean of the calibrations around a repetition.
MEASURED = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
            "calibration_s": "s"}

#: The end-to-end metrics of the result line (``BENCHMARK.json``).
END_TO_END = {"wall_cal": "cal", "setup_s": "s", "steps_per_cal": "1/cal", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{name: "s" for name in tracer.ACCOUNTED},
    "phs.bd_basis_s": "s", "phs.bd_basis_calls": "count",
    "boundary.build_bc_s": "s",
    "relations.check_monotone_s": "s", "relations.check_monotone_calls": "count",
    "relations.check_maximal_s": "s", "relations.check_maximal_calls": "count",
    "relations.solve_inclusion_s": "s", "relations.solve_inclusion_calls": "count",
    "relations.solve_inclusion_nested_calls": "count",
    "solver.discretize_s": "s", "solver.simulate_s": "s", "solver.simulate_self_s": "s",
    "solver.step_calls": "count", "solver.step_self_s": "s",
    "solver.energy_s": "s", "solver.energy_calls": "count",
    "solver.resolve_A_s": "s", "solver.resolve_A_calls": "count",
    "solver.trajectory_mb": "MB",
    "verify.relation_s": "s", "verify.phs_s": "s", "verify.boundary_s": "s", "verify.solver_s": "s",
    "cli.simulate_self_s": "s", "cli.check_bc_s": "s",
    "cli.bytes_written": "bytes", "cli.bytes_identical": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(cmd: list, log_path: Path, deadline: float):
    """Run ``cmd`` in a fresh process and wait for it.

    Returns ``(exit code, spawn time, exit time, peak RSS in MB)``; the
    peak RSS is the child's own, from ``wait4``.  The child is killed if
    it is still running at ``deadline``.
    """
    lock = threading.Lock()
    reaped = []

    def kill():
        with lock:
            if not reaped:
                proc.kill()

    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = now()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
    timer = threading.Timer(max(1.0, deadline - now()), kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        t_exit = now()
        with lock:
            reaped.append(True)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        timer.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t_spawn, t_exit, usage.ru_maxrss / 1024.0


def reference(which: str) -> dict:
    with open(HERE / "reference" / "wave_damped.json", encoding="utf-8") as fh:
        return json.load(fh)[which]


def evaluate(name: str, quick: bool, seed: int, res: dict, out_dir: Path):
    """Correctness gate of one repetition from its result and output files.

    Returns ``(problems, steps, bytes_identical)``: ``steps`` is the work
    unit of ``steps_per_s`` (time steps; CLI commands for the sweep).
    """
    kind = wl.WORKLOADS[name]["kind"]
    spec = wl.size(name, quick)
    if kind == "api":
        return list(res["ledger"]["problems"]), res["steps"], 0
    if kind == "cli":
        ref = reference(spec["reference"])
        problems = [] if res["exit"] == 0 else [f"monoport simulate exited {res['exit']}"]
        try:
            parsed = gate.read_cli_outputs(out_dir, ref["state_rows"])
        except (OSError, ValueError, IndexError) as exc:
            return problems + [f"unreadable simulate output: {exc}"], ref["steps"], 0
        more, identical = gate.check_cli(parsed, ref)
        return problems + more, ref["steps"], int(identical)
    seeds = list(range(seed, seed + spec["seeds"]))
    problems = gate.check_sweep(res["records"], seeds, wl.CHECK_BC_EXPECTED_EXIT)
    return problems, len(res["records"]), 0


def run_rep(name: str, quick: bool, seed: int, index: int, traced: bool,
            work: Path, deadline: float) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result_path = work / f"rep{index}.json"
    spans_path = work / f"rep{index}.spans.jsonl"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
           "--trace", str(int(traced)), "--run-id", f"{name}-seed{seed}-rep{index}",
           "--out", str(out), "--result", str(result_path), "--spans", str(spans_path)]
    if quick:
        cmd.append("--quick")
    log = work / f"rep{index}.log"
    code, t_spawn, t_exit, rss = spawn(cmd, log, deadline)
    rep = {"index": index, "traced": traced, "exit": code, "peak_rss_mb": rss, "problems": []}
    if code != 0:
        rep["problems"].append(f"exit code {code}; see {log}")
    elif not result_path.is_file():
        rep["problems"].append(f"no result file; see {log}")
    else:
        with open(result_path, encoding="utf-8") as fh:
            res = json.load(fh)
        # the benchmark's own gate and span writing are not the program's time
        wall = (t_exit - t_spawn) - (res["t_pre_exit"] - res["t_work_end"])
        problems, steps, identical = evaluate(name, quick, seed, res, out)
        rep["problems"] += problems
        rep.update(wall_s=wall, setup_s=res["t_ready"] - t_spawn,
                   steps_per_s=steps / res["t_loop"], steps=steps)
        if traced:
            try:
                layers = tracer.layer_metrics(tracer.read_spans(spans_path), wall)
            except ValueError as exc:
                rep["problems"].append(f"trace: {exc}")
            else:
                counters = res["counters"]
                layers["solver.trajectory_mb"] = counters.get("solver.trajectory_mb", 0.0)
                layers["cli.bytes_written"] = counters.get("cli.bytes_written", 0)
                layers["cli.bytes_identical"] = identical
                layers["trace.wall_s"] = wall
                rep["layers"] = layers
    rep["ok"] = not rep["problems"]
    return rep


def calibrate(work: Path, index: int, deadline: float):
    """Time one calibration process; ``None`` if it failed."""
    code, t_spawn, t_exit, _ = spawn([sys.executable, "-c", CALIBRATION],
                                     work / f"calibration{index}.log", deadline)
    return t_exit - t_spawn if code == 0 else None


def describe(values: list, unit: str) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(reps: list, trace: bool) -> dict:
    """Attempted/failed counts and metric statistics over the passing
    repetitions (all repetitions when none passed)."""
    ok = [r for r in reps if r["ok"]] or reps
    untraced = [r for r in ok if not r["traced"] and "wall_s" in r]
    traced = [r for r in ok if "layers" in r]
    stats = {}
    if not trace and all("calibration_s" in r for r in untraced) and untraced:
        stats = {m: describe([r[m] for r in untraced], u) for m, u in MEASURED.items()}
        # The host runs the same code up to 1.6x slower for minutes at a time;
        # the calibrations around a repetition slow down with it, so the
        # ratio removes most of the host's speed from the comparison.
        stats["wall_cal"] = describe([r["wall_s"] / r["calibration_s"] for r in untraced], "cal")
        stats["steps_per_cal"] = describe(
            [r["steps_per_s"] * r["calibration_s"] for r in untraced], "1/cal")
    elif trace and traced:
        for metric, unit in PER_LAYER.items():
            if metric != "trace.overhead_s":
                stats[metric] = describe([r["layers"][metric] for r in traced], unit)
        base = statistics.median(r["wall_s"] for r in untraced) if untraced else stats["trace.wall_s"]["value"]
        overhead = stats["trace.wall_s"]["value"] - base
        stats["trace.overhead_s"] = {"value": overhead, "unit": "s", "q1": overhead,
                                     "q3": overhead, "n": len(traced)}
    failed = sum(1 for r in reps if not r["ok"])
    return {"attempted": len(reps), "failed": failed, "fail_frac": failed / max(1, len(reps)),
            "metrics": stats}


def environment_stamp() -> dict:
    """Versions, cores, pinned BLAS threads and the program's identity."""
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--stamp"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-1]) if proc.returncode == 0 and lines else {
        "error": f"version probe exited {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    stamp["nproc"] = os.cpu_count()
    stamp["blas_threads_pinned"] = BLAS_THREADS
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if git.returncode == 0:
            commit = git.stdout.strip()
    stamp["git_commit"] = commit
    sha = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sha.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    stamp["src_sha256"] = sha.hexdigest()
    return stamp


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stamp = environment_stamp()
    stamp["seed"] = "unused (the shipped config is the input)" if name == "cli_wave_damped" else seed
    start = now()
    deadline = start + RUN_LIMIT_S
    reps, calibrations = [], []
    while True:
        traced = trace and len(reps) % 2 == 1
        if not trace:
            calibrations.append(calibrate(work, len(calibrations), deadline))
        reps.append(run_rep(name, quick, seed, len(reps), traced, work, deadline))
        have_traced = any(r["traced"] for r in reps)
        if (quick or now() - start >= seconds) and (have_traced or not trace):
            break
    if not trace:
        # each repetition is bracketed by the calibrations before and after it
        calibrations.append(calibrate(work, len(calibrations), deadline))
        for rep, before, after in zip(reps, calibrations, calibrations[1:]):
            if before is None or after is None:
                rep["problems"].append("calibration process failed; see its log")
                rep["ok"] = False
            else:
                rep["calibration_s"] = (before + after) / 2
    summary = summarize(reps, trace)
    summary.update(workload=name, why=wl.WORKLOADS[name]["why"], trace=int(trace),
                   quick=quick, seconds=seconds, stamp=stamp, repetitions=reps)
    with open(WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return summary


def report(summary: dict) -> None:
    print(f"workload {summary['workload']}: {summary['attempted']} repetitions, "
          f"{summary['failed']} failed (fail_frac {summary['fail_frac']:.3g})")
    for metric, s in summary["metrics"].items():
        print(f"  {metric:<40} {s['value']:<14.6g} {s['unit']:<6} "
              f"(median of {s['n']}; quartiles {s['q1']:.6g} .. {s['q3']:.6g})")
    for rep in summary["repetitions"]:
        for problem in rep["problems"]:
            print(f"  FAILED repetition {rep['index']}: {problem}")
    print("  stamp: " + json.dumps(summary["stamp"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one repetition per mode (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "monoport" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no monoport sources (src/monoport, configs)", file=sys.stderr)
        return 2

    names = sorted(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.quick)
                 for n in names]
    for summary in summaries:
        report(summary)
    failed = sum(s["failed"] for s in summaries)
    prefix = len(summaries) > 1
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {(f"{s['workload']}." if prefix else "") + m: {"value": v["value"], "unit": v["unit"]}
               for s in summaries for m, v in s["metrics"].items() if m in names}
    print(json.dumps({"correct": failed == 0, "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
