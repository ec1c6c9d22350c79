"""Microseconds per call of the entry points of a theta-step, measured in process.

Builds the run of CONFIG as ``monoport simulate`` does (on ``--m`` cells
instead of the config's ``m`` when it is given), runs it once with
``simulate``, and then times each entry point on that run's data, called
as the step calls it, best of ``--repeat`` repetitions, with
``time.perf_counter``:

* ``Stepper``: building the run's ``Stepper`` (certificate checks,
  factorisation, lift and inclusion plan);
* ``step``: ``step`` of each state of the run in order, written into a
  buffer, on a fresh ``Stepper`` per pass, warm-started as the run does;
* ``solve``: the resolvent solve of ``step``, ``_CoreSolver.solve``, on
  the same states and warm starts;
* ``solve_inclusion``: the boundary inclusion of each step, with the
  arguments that ``solve`` passed it;
* ``energy per state``: ``DiscreteOperators.energy`` on the ledger's
  blocks of states, per state.

Every row but ``Stepper`` is the time of one pass over the run's steps
divided by their count.  One line of the run, then one ``name  us`` line
per row.  The split of ``solve`` into its layers is
``perfbench/run.py --trace 1``'s.  numpy, the standard library and the
package from this checkout's ``src``; set ``OPENBLAS_NUM_THREADS=1`` for
figures that compare with the benchmark's.

Usage:
    python3 scripts/step_costs.py perfbench/configs/friction_dr.cfg --m 256 --repeat 7
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from monoport import solver  # noqa: E402
from monoport.cli import _build  # noqa: E402
from monoport.config import load_config  # noqa: E402


def best(repeat, run, count=1, setup=lambda: None):
    """The least time of ``repeat`` calls of ``run``, each on what an
    untimed ``setup()`` returns, in microseconds per one of its ``count``
    operations."""
    times = []
    for _ in range(repeat):
        arg = setup()
        start = time.perf_counter()
        run(arg)
        times.append(time.perf_counter() - start)
    return min(times) / count * 1e6


def step_costs(config, m=None, repeat=7):
    """``(description, rows)``: the run of ``config`` and ``(name, us)`` per entry point."""
    cfg = load_config(config)
    if m is not None:
        cfg = dataclasses.replace(cfg, m=m)
    ops, scenario = _build(cfg)
    traj = solver.simulate(scenario, ops)
    states, steps = traj.states, len(traj) - 1
    run = dataclasses.replace(scenario, dt=traj.times[1])  # the step simulate takes
    core = solver.Stepper(run, ops)._core
    out, flat = np.empty_like(states[0]), np.empty(states[0].size, dtype=states.dtype)

    # the arguments solve passes to solve_inclusion, recorded where solve looks it up
    calls, inclusion = [], solver.solve_inclusion

    def recording(plan, g, x0=None):
        calls.append((plan, g.copy(), x0))
        return inclusion(plan, g, x0=x0)

    def solves(_=None):
        e = None
        for k in range(steps):
            e = core.solve(states[k].ravel(), x0=e, out=flat)[2]

    solver.solve_inclusion = recording
    try:
        solves()
    finally:
        solver.solve_inclusion = inclusion

    def steps_in_order(stepper):
        for k in range(steps):
            solver.step(states[k], stepper, out=out)

    def inclusions(_):
        for plan, g, x0 in calls:
            solver.solve_inclusion(plan, g, x0=x0)

    per_block = max(1, solver.LEDGER_BLOCK_BYTES // states[0].nbytes)

    def energy(_):
        for lo in range(0, steps + 1, per_block):
            ops.energy(states[lo: lo + per_block])

    rows = [("Stepper", best(repeat, lambda _: solver.Stepper(run, ops))),
            ("step", best(repeat, steps_in_order, steps, lambda: solver.Stepper(run, ops))),
            ("solve", best(repeat, solves, steps)),
            ("solve_inclusion", best(repeat, inclusions, steps)),
            ("energy per state", best(repeat, energy, steps + 1))]
    description = (f"{config}: m = {ops.grid.m}, {steps} steps, {states.dtype}, "
                   f"{type(calls[0][0]).__name__}, best of {repeat}")
    return description, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("--m", type=int, default=None, help="cells (default: the config's m)")
    parser.add_argument("--repeat", type=int, default=7, help="repetitions; the least time is kept")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    description, rows = step_costs(args.config, args.m, args.repeat)
    print(description)
    for name, us in rows:
        print(f"{name:<18}{us:12.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
