"""Correctness gates, computed by the benchmark outside the program.

A repetition whose gate reports a problem counts as failed, exactly like
a crash or an unexpected exit code.

* ``check_ledger``: the exact per-step energy identity of the theta-scheme,
  recomputed from the returned ``Trajectory`` and the grid operators,
      E_{k+1} - E_k = -dt D_k - (theta - 1/2) dt^2 sum_j omega_j a_j^H H_j a_j,
  with ``a = (w_{k+1} - w_k)/dt``, plus ``D_k >= -tol`` and agreement of
  the recorded energies with recomputed ones.  ``tol = LEDGER_RTOL E_0``.
* ``check_cli``: the files ``monoport simulate`` wrote, against reference
  numbers (every energy, the dissipation sum and the final state) stored
  in ``reference/wave_damped.json``, to ``CLI_RTOL``
  relative to the largest reference magnitude; byte identity with the
  stored SHA-256 digests is reported, not gated.
* ``check_sweep``: every ``verify all`` reports ``N/N invariants hold``
  with ``N >= MIN_INVARIANTS``, and ``check-bc`` exits 1 on the
  wrong-signed Robin config and 0 on every other shipped config.
"""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path

#: Ledger defect bound relative to E_0.  Observed worst defects are about
#: 1e-16 (affine relations) and 1e-10 (Douglas-Rachford path) relative.
LEDGER_RTOL = 1e-8

#: Relative tolerance for CLI numbers against the stored reference; the
#: CSV files carry 12 significant digits.
CLI_RTOL = 1e-9

#: The invariant count of ``verify all`` when this benchmark was written.
MIN_INVARIANTS = 26

CLI_FILES = ("states.csv", "energy.csv", "report.txt")


def check_ledger(traj, ops, theta: float, min_dissipation_total=None) -> dict:
    """Exact discrete energy identity of every step of ``traj``; with
    ``min_dissipation_total`` also that the boundary dissipated at least that."""
    import numpy as np

    omega, hgrid = ops.omega, ops.hgrid

    def energy(w):
        hw = np.einsum("jab,jb->ja", hgrid, w)
        return 0.5 * float(np.sum(omega * np.einsum("ja,ja->j", w.conj(), hw).real))

    states, times, diss = traj.states, traj.times, traj.boundary_dissipation
    energies = [energy(w) for w in states]
    tol = LEDGER_RTOL * energies[0]
    defects = np.zeros(len(states) - 1)
    for k in range(len(states) - 1):
        dt = times[k + 1] - times[k]
        a = (states[k + 1] - states[k]) / dt
        predicted = -dt * diss[k + 1] - (theta - 0.5) * dt * dt * 2.0 * energy(a)
        defects[k] = abs(energies[k + 1] - energies[k] - predicted)
    worst_step = int(np.argmax(np.where(np.isnan(defects), np.inf, defects))) if len(defects) else -1
    worst = float(defects[worst_step]) if len(defects) else 0.0
    total = float(np.sum(np.diff(times) * diss[1:]))
    recorded_gap = float(np.max(np.abs(np.asarray(energies) - traj.energies)))
    min_d = float(np.min(diss[1:])) if len(diss) > 1 else 0.0
    problems = []
    if not worst <= tol:
        problems.append(f"ledger defect {worst:.3e} at step {worst_step} exceeds {tol:.3e}")
    if not min_d >= -tol:
        problems.append(f"negative boundary dissipation {min_d:.3e}")
    if not recorded_gap <= tol:
        problems.append(f"recorded energies differ from recomputed ones by {recorded_gap:.3e}")
    if min_dissipation_total is not None and not total >= min_dissipation_total:
        problems.append(f"total boundary dissipation {total:.3e} below {min_dissipation_total:g}: "
                        "the boundary relation was not exercised")
    return {"ok": not problems, "problems": problems, "defect": worst, "tol": tol,
            "min_dissipation": min_d, "total_dissipation": total,
            "recorded_energy_gap": recorded_gap, "steps": len(states) - 1}


# --------------------------------------------------------------------- cli


def _digest_and_lines(path: Path):
    sha, lines = hashlib.sha256(), 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            sha.update(chunk)
            lines += chunk.count(b"\n")
    return sha.hexdigest(), lines


def _tail_lines(path: Path, count: int) -> list:
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        size = fh.tell()
        fh.seek(max(0, size - 200 * count))
        return fh.read().decode("utf-8").splitlines()[-count:]


def read_cli_outputs(out_dir: Path, state_rows: int) -> dict:
    """Digests, row counts, the final state and the energy table of one
    ``simulate`` run; ``state_rows`` is the number of rows per state."""
    out_dir = Path(out_dir)
    digests, line_counts = {}, {}
    for name in CLI_FILES:
        digests[name], line_counts[name] = _digest_and_lines(out_dir / name)
    with open(out_dir / "states.csv", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    final = [row.split(",") for row in _tail_lines(out_dir / "states.csv", state_rows)]
    with open(out_dir / "energy.csv", encoding="utf-8") as fh:
        energy_rows = [row.split(",") for row in fh.read().splitlines()[1:]]
    return {
        "sha256": digests,
        "state_lines": line_counts["states.csv"],
        "states_header": header,
        "final_time": float(final[0][0]),
        "final_state": [[float(r[3]), float(r[4])] for r in final],
        "energies": [float(r[1]) for r in energy_rows],
        "dissipation": [float(r[2]) for r in energy_rows],
    }


def check_cli(parsed: dict, ref: dict):
    """Compare parsed ``simulate`` outputs with the reference; returns
    ``(problems, bytes_identical)``."""
    problems = []
    steps = ref["steps"]
    if parsed["states_header"] != "t,x,comp,re,im":
        problems.append(f"unexpected states.csv header {parsed['states_header']!r}")
    want_lines = 1 + (steps + 1) * ref["state_rows"]
    if parsed["state_lines"] != want_lines:
        problems.append(f"states.csv has {parsed['state_lines']} lines, expected {want_lines}")
    if abs(parsed["final_time"] - ref["T"]) > 1e-12 * ref["T"]:
        problems.append(f"last state is at t = {parsed['final_time']}, expected {ref['T']}")

    def compare(what, got, want):
        if len(got) != len(want):
            problems.append(f"{what}: {len(got)} values, expected {len(want)}")
            return
        scale = max(abs(v) for v in want) or 1.0
        gap = max((abs(g - w) for g, w in zip(got, want)), default=0.0)
        if not gap <= CLI_RTOL * scale:
            problems.append(f"{what} differs from the reference by {gap:.3e} "
                            f"(allowed {CLI_RTOL * scale:.3e})")

    flat = [v for pair in parsed["final_state"] for v in pair]
    compare("final state", flat, [v for pair in ref["final_state"] for v in pair])
    energies, diss = parsed["energies"], parsed["dissipation"]
    if len(energies) != steps + 1:
        problems.append(f"energy.csv has {len(energies)} rows, expected {steps + 1}")
    else:
        compare("energies", energies, ref["energies"])
        compare("boundary dissipation sum", [math.fsum(diss)], [ref["dissipation_sum"]])
        tol = CLI_RTOL * energies[0]
        rises = [b - a for a, b in zip(energies, energies[1:])]
        if rises and not max(rises) <= tol:
            problems.append(f"energy rises by {max(rises):.3e} in one step")
        if diss and not min(diss) >= -tol:
            problems.append(f"negative boundary dissipation {min(diss):.3e}")
    identical = all(parsed["sha256"][name] == ref["sha256"][name] for name in CLI_FILES)
    return problems, identical


# ------------------------------------------------------------------- sweep

_SUMMARY = re.compile(r"(\d+)/(\d+) invariants hold")


def check_sweep(records: list, seeds: list, expected_exit: dict) -> list:
    """Problems in the records of one ``verify_sweep`` repetition."""
    problems = []
    verify = {r["seed"]: r for r in records if r["command"] == "verify"}
    for seed in seeds:
        rec = verify.get(seed)
        if rec is None:
            problems.append(f"verify --seed {seed} did not run")
            continue
        m = _SUMMARY.fullmatch(rec["summary"])
        if rec["exit"] != 0 or m is None or m[1] != m[2] or int(m[2]) < MIN_INVARIANTS:
            problems.append(f"verify --seed {seed}: exit {rec['exit']}, {rec['summary']!r}")
    check_bc = {r["config"]: r["exit"] for r in records if r["command"] == "check-bc"}
    for name, want in expected_exit.items():
        got = check_bc.get(name)
        if got != want:
            problems.append(f"check-bc {name}: exit {got}, expected {want}")
    return problems
