"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Quick mode: runs every workload once at tiny size, untraced and then
   traced, through ``run.main``.  Each run must pass its gate and report
   exactly the metrics ``BENCHMARK.json`` names; the traced run must count
   one solver-side inclusion solve per step on the API workloads, and its
   self times plus ``other_s`` must add up to the traced wall time.
2. Falsifiability: feeds the gates a trajectory with one state perturbed,
   a wrong ``check-bc`` exit code, a failing ``verify`` summary and a
   corrupted ``energy.csv``, and checks that each one makes its repetition
   count as failed.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import gate
import run
import tracer
import workloads as wl

ROOT = run.ROOT
FAILURES: list = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def counts_as_failure(problems: list) -> bool:
    """Whether a repetition with these gate problems is counted as failed
    next to a passing one."""
    good = {"ok": True, "traced": False, "problems": [], "wall_s": 1.0, "setup_s": 0.5,
            "steps_per_s": 10.0, "peak_rss_mb": 50.0, "calibration_s": 0.3}
    bad = dict(good, ok=not problems, problems=problems)
    summary = run.summarize([good, bad], trace=False)
    return summary["attempted"] == 2 and summary["failed"] == 1


def quick_mode() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    expect(end_to_end == set(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    expect(per_layer == set(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = run.main(["--workload", name, "--seed", "3", "--trace", str(trace), "--quick"])
            last = json.loads(buf.getvalue().splitlines()[-1])
            metrics = last["metrics"]
            expect(code == 0 and last["correct"] and last["failed"] == 0,
                   f"{name} trace={trace}: quick run passes its gate")
            expect(set(metrics) == (per_layer if trace else end_to_end),
                   f"{name} trace={trace}: reports every metric")
            if not trace or set(metrics) != per_layer:
                continue
            total = sum(metrics[m]["value"] for m in tracer.ACCOUNTED)
            expect(abs(total - metrics["trace.wall_s"]["value"]) < 1e-9,
                   f"{name}: self times plus other_s add up to the traced wall time")
            if wl.WORKLOADS[name]["kind"] == "api":
                spec = wl.size(name, quick=True)
                steps = round(spec["T"] / spec["dt"])
                expect(metrics["solver.step_calls"]["value"] == steps
                       and metrics["relations.solve_inclusion_calls"]["value"] == steps,
                       f"{name}: {steps} steps and {steps} solver-side inclusion solves traced")


def falsify_ledger() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import monoport
    import child

    spec = wl.size("friction_dr", quick=True)
    scenario, ops = child.build_api_case(monoport, spec, seed=0)
    traj = monoport.solver.simulate(scenario, ops)
    good = gate.check_ledger(traj, ops, spec["theta"])
    expect(good["ok"], f"ledger gate passes the true trajectory (defect {good['defect']:.2e})")
    states = traj.states.copy()
    k = len(states) // 2
    states[k, :, 0] += 1e-6 * abs(states[k]).max()
    bad = gate.check_ledger(replace(traj, states=states), ops, spec["theta"])
    expect(not bad["ok"], f"ledger gate rejects state {k} perturbed by 1e-6")
    problems, _, _ = run.evaluate("friction_dr", True, 0, {"steps": len(traj) - 1, "ledger": bad}, None)
    expect(counts_as_failure(problems), "a perturbed trajectory counts as a failed repetition")


def falsify_sweep() -> None:
    seeds = [0]
    records = [{"command": "verify", "seed": 0, "exit": 0, "summary": "26/26 invariants hold"}]
    records += [{"command": "check-bc", "config": name, "exit": code}
                for name, code in wl.CHECK_BC_EXPECTED_EXIT.items()]
    expect(not gate.check_sweep(records, seeds, wl.CHECK_BC_EXPECTED_EXIT),
           "sweep gate passes the expected exit codes")
    wrong = [dict(r, exit=0) if r.get("config") == "robin_wrong_sign.cfg" else r for r in records]
    problems, _, _ = run.evaluate("verify_sweep", True, 0, {"records": wrong}, None)
    expect(problems and counts_as_failure(problems),
           "check-bc exit 0 on robin_wrong_sign counts as a failed repetition")
    failing = [dict(r, exit=1, summary="25/26 invariants hold") if r["command"] == "verify" else r
               for r in records]
    expect(bool(gate.check_sweep(failing, seeds, wl.CHECK_BC_EXPECTED_EXIT)),
           "sweep gate rejects a verify run with a failed invariant")


def falsify_cli() -> None:
    from monoport import cli

    out = run.WORK / "selftest" / "cli"
    shutil.rmtree(out, ignore_errors=True)
    config = wl.size("cli_wave_damped", quick=True)["config"]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(ROOT / config), "--out", str(out)])
    problems, _, identical = run.evaluate("cli_wave_damped", True, 0, {"exit": code}, out)
    expect(not problems and identical == 1, "cli gate passes and finds the outputs byte-identical")
    energy = out / "energy.csv"
    rows = energy.read_text(encoding="utf-8").splitlines()
    t, e, d = rows[5].split(",")
    rows[5] = f"{t},{float(e) * (1 + 1e-6)!r},{d}"
    energy.write_text("\n".join(rows) + "\n", encoding="utf-8")
    problems, _, identical = run.evaluate("cli_wave_damped", True, 0, {"exit": code}, out)
    expect(problems and identical == 0 and counts_as_failure(problems),
           "a corrupted energy.csv counts as a failed repetition")


def main() -> int:
    quick_mode()
    falsify_ledger()
    falsify_sweep()
    falsify_cli()
    print(f"{len(FAILURES)} self-test check(s) failed" if FAILURES else "self-test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
