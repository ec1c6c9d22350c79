"""Regenerate ``reference/wave_damped.json`` from the program as it stands.

    python3 perfbench/make_reference.py

Runs ``monoport simulate`` on the config of ``cli_wave_damped`` at full
and quick size and stores the numbers its gate compares against (every
energy, the dissipation sum, the final state) and the SHA-256 digests
behind ``cli.bytes_identical``.  The stored file was made from the code
the benchmark was introduced with; regenerate it only on purpose, since
it defines what "correct" and "byte-identical" mean.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import gate
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def make(which: str) -> dict:
    from monoport import cli
    from monoport.config import load_config

    config = wl.size("cli_wave_damped", which == "quick")["config"]
    cfg = load_config(ROOT / config)
    out = ROOT / ".bench_work" / "reference" / which
    out.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(ROOT / config), "--out", str(out)])
    if code != 0:
        raise SystemExit(f"monoport simulate exited {code} on {config}")
    state_rows = (cfg.m + 1) * cfg.n
    parsed = gate.read_cli_outputs(out, state_rows)
    return {
        "config": config,
        "steps": int(round(cfg.T / cfg.dt)),
        "state_rows": state_rows,
        "T": cfg.T,
        "energies": parsed["energies"],
        "dissipation_sum": math.fsum(parsed["dissipation"]),
        "final_state": parsed["final_state"],
        "sha256": parsed["sha256"],
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    refs = {which: make(which) for which in ("full", "quick")}
    path = HERE / "reference" / "wave_damped.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
