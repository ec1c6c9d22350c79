"""One repetition of one benchmark workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand::

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 [--quick]
        --run-id ID --out DIR --result FILE [--spans FILE]
    python3 perfbench/child.py --stamp

All timestamps are ``CLOCK_MONOTONIC``, the clock the parent reads before
spawning this process, so the parent can subtract them.  The result file
holds ``t_ready`` (set-up done: the time loop or first command can start),
``t_loop`` (duration of the timed program call), ``t_work_end`` (the last
program call returned) and ``t_pre_exit`` (the benchmark's own gate and
span writing done), plus the workload's gate data.  With ``--trace 1``
every layer function is wrapped (see ``tracer.py``) and the spans are
written to ``--spans`` after the work ends.
"""

import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = now()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, install  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_monoport(kind: str, tracer):
    start = now()
    import monoport
    if kind != "api":
        import monoport.cli  # noqa: F401
    if tracer is not None:
        tracer.add("import.monoport", "child", start, now())
        install(tracer)
    return monoport


def seeded_u0(kind: str, seed: int, nodes, n: int, b: float):
    """Smooth initial data drawn from ``seed``: one Gaussian pulse in the
    first component, or three modulated Gaussians per component.

    The pulse parameters vary only a few percent: how long the pulse
    presses on the frictional port sets the Douglas-Rachford work, and
    every seed should cost the same."""
    import numpy as np

    rng = np.random.default_rng(seed)
    x = nodes / b
    u = np.zeros((len(nodes), n), dtype=complex)
    if kind == "gaussian":
        amp, width, centre = rng.uniform(0.95, 1.05), rng.uniform(7.6, 8.4), rng.uniform(-0.05, 0.05)
        u[:, 0] = amp * np.exp(-width * (x - centre) ** 2)
        return u
    for c in range(n):
        for _ in range(3):
            amp, width, centre = rng.uniform(0.2, 1.0), rng.uniform(10.0, 20.0), rng.uniform(-0.3, 0.3)
            freq, phase = rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0 * np.pi)
            u[:, c] += amp * np.exp(-width * (x - centre) ** 2) * np.cos(freq * x + phase)
    return u


def build_api_case(monoport, spec: dict, seed: int):
    """Set-up of an API workload: config, trace basis, certified boundary
    condition, grid operators and seeded initial data."""
    cfg = monoport.config.load_config(ROOT / spec["config"])
    phs = cfg.build_phs()
    basis = monoport.phs.bd_basis(phs)
    bc = cfg.build_bc(basis)
    ops = monoport.solver.discretize(phs, spec["m"])
    u0 = seeded_u0(spec["u0"], seed, ops.grid.nodes, phs.n, phs.b)
    scenario = monoport.solver.Scenario(phs=phs, bc=bc, u0=u0, T=spec["T"], dt=spec["dt"],
                                        theta=spec["theta"])
    return scenario, ops


def run_api(monoport, spec, args, res):
    scenario, ops = build_api_case(monoport, spec, args.seed)
    res["t_ready"] = start = now()
    traj = monoport.solver.simulate(scenario, ops)
    res["t_work_end"] = end = now()
    res["t_loop"] = end - start
    res["steps"] = len(traj) - 1
    res["ledger"] = gate.check_ledger(traj, ops, spec["theta"], spec.get("min_dissipation_total"))


def run_cli(monoport, spec, args, res):
    argv = ["simulate", "--config", spec["config"], "--out", args.out]
    res["t_ready"] = start = now()
    res["exit"] = monoport.cli.main(argv)
    res["t_work_end"] = end = now()
    res["t_loop"] = end - start


def run_sweep(monoport, spec, args, res):
    records = []
    res["t_ready"] = start = now()
    for seed in range(args.seed, args.seed + spec["seeds"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = monoport.cli.main(["verify", "all", "--seed", str(seed)])
        lines = buf.getvalue().splitlines()
        records.append({"command": "verify", "seed": seed, "exit": code,
                        "summary": lines[-1] if lines else ""})
    for name in wl.SHIPPED_CONFIGS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = monoport.cli.main(["check-bc", "--config", f"configs/{name}", "--out", args.out])
        records.append({"command": "check-bc", "config": name, "exit": code})
    res["t_work_end"] = end = now()
    res["t_loop"] = end - start
    res["steps"] = len(records)
    res["records"] = records


RUNNERS = {"api": run_api, "cli": run_cli, "sweep": run_sweep}


def _blas(show_config) -> str:
    try:
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        return "unknown"


def stamp() -> dict:
    """Versions of what the workloads run on; importing monoport.cli here
    also fills the bytecode cache before any timed repetition."""
    import platform

    import numpy
    import scipy
    import monoport.cli  # noqa: F401

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": _blas(numpy.show_config),
            "scipy_blas": _blas(scipy.show_config),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stamp", action="store_true")
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    if args.stamp:
        print(json.dumps(stamp()))
        return 0

    kind = wl.WORKLOADS[args.workload]["kind"]
    tracer = Tracer(args.run_id, now) if args.trace else None
    res = {"t_start": T_START}
    monoport = import_monoport(kind, tracer)
    RUNNERS[kind](monoport, wl.size(args.workload, args.quick), args, res)
    if tracer is not None:
        tracer.write(args.spans)
        res["counters"] = tracer.counters
    res["t_pre_exit"] = now()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(res, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
