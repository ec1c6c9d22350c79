"""The four benchmark workloads: what each runs, at full and at quick size.

Every repetition of a workload runs in its own fresh process
(``child.py``); the parent (``run.py``) runs repetitions one at a time,
closed loop, a single client.  ``full`` sizes are what the benchmark
measures; ``quick`` sizes are tiny, for the self-test.
"""

from __future__ import annotations

#: The configs shipped with the program, all certified by ``check-bc``
#: except the deliberately wrong-signed one.
SHIPPED_CONFIGS = ("friction.cfg", "robin_wrong_sign.cfg", "transport.cfg",
                   "wave_conservative.cfg", "wave_damped.cfg")
CHECK_BC_EXPECTED_EXIT = {name: (1 if name == "robin_wrong_sign.cfg" else 0)
                          for name in SHIPPED_CONFIGS}

WORKLOADS = {
    "cli_wave_damped": {
        "why": "what users run: `monoport simulate` on the wave_damped config (500 steps), "
               "dominated by CSV output (cli) and import; the seed is unused",
        "kind": "cli",
        "full": {"config": "perfbench/configs/wave_damped_short.cfg", "reference": "full"},
        "quick": {"config": "perfbench/configs/wave_damped_quick.cfg", "reference": "quick"},
    },
    "bulk_midpoint": {
        "why": "Python API simulate on the wave system with unitary V at m=16384, theta=1/2: "
               "bulk SuperLU solve, explicit leg and energy ledger; affine inclusion, no cli",
        "kind": "api",
        "full": {"config": "configs/wave_conservative.cfg", "m": 16384, "dt": 0.001,
                 "T": 0.25, "theta": 0.5, "u0": "smooth"},
        "quick": {"config": "configs/wave_conservative.cfg", "m": 64, "dt": 0.001,
                  "T": 0.01, "theta": 0.5, "u0": "smooth"},
    },
    "friction_dr": {
        "why": "Python API simulate with friction + Robin ports on a coupled P1: every step "
               "takes the Douglas-Rachford inclusion path; sampled certificate in set-up",
        "kind": "api",
        "full": {"config": "perfbench/configs/friction_dr.cfg", "m": 256, "dt": 0.002,
                 "T": 2.0, "theta": 1.0, "u0": "gaussian", "min_dissipation_total": 1e-3},
        "quick": {"config": "perfbench/configs/friction_dr.cfg", "m": 32, "dt": 0.002,
                  "T": 0.04, "theta": 1.0, "u0": "gaussian"},
    },
    "verify_sweep": {
        "why": "certification path: `verify all` on 4 seeds plus `check-bc` on every shipped "
               "config, through cli.main; many small factorisations in the solver suite",
        "kind": "sweep",
        "full": {"seeds": 4},
        "quick": {"seeds": 1},
    },
}


def size(name: str, quick: bool) -> dict:
    return WORKLOADS[name]["quick" if quick else "full"]
