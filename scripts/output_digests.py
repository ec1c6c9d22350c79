"""SHA-256 digests of every output the program writes for a fixed input set.

Runs, each in a fresh process with ``OPENBLAS_NUM_THREADS=1`` and the
package from this checkout's ``src``:

* ``monoport check-bc`` and ``monoport simulate`` on every config in
  ``configs/`` and ``perfbench/configs/``;
* ``monoport verify all --seed k`` for k = 0..3;
* the ``state``, ``pairing`` and ``derivative`` convergence studies on
  ``configs/transport.cfg``, and the ``state`` study on
  ``configs/friction.cfg`` (no transport oracle: the finest-grid
  reference);
* the three experiment scripts.

Output files go to a temporary directory that is removed afterwards.
One ``sha256  name`` line is printed per written file and per captured
stdout, so two checkouts are compared with one ``diff`` of two runs.
The exit code is 1 if any run exits unexpectedly: 1 for ``check-bc``
and ``simulate`` on ``robin_wrong_sign.cfg`` (its certificate fails),
0 everywhere else.  Standard library only.

Usage:
    python3 scripts/output_digests.py > digests.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Configs whose boundary condition is certified non-monotone.
FAILING_CONFIGS = ("robin_wrong_sign.cfg",)


def _cases():
    """Yield ``(name, argv, expected_exit_code)`` for every run."""
    cli = [sys.executable, "-m", "monoport.cli"]
    configs = sorted((ROOT / "configs").glob("*.cfg")) + sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))
    for cfg in configs:
        label = f"{cfg.parent.relative_to(ROOT).as_posix()}/{cfg.stem}"
        code = 1 if cfg.name in FAILING_CONFIGS else 0
        for command in ("check-bc", "simulate"):
            name = f"{command}/{label}"
            yield name, cli + [command, "--config", str(cfg), "--out", name], code
    for seed in range(4):
        yield f"verify/seed{seed}", cli + ["verify", "all", "--seed", str(seed)], 0
    for study in ("state", "pairing", "derivative"):
        name = f"convergence/{study}"
        yield name, cli + ["convergence", "--config", str(ROOT / "configs" / "transport.cfg"),
                           "--study", study, "--out", name], 0
    name = "convergence/friction-state"
    yield name, cli + ["convergence", "--config", str(ROOT / "configs" / "friction.cfg"),
                       "--study", "state", "--out", name], 0
    for script in ("bc_gallery", "transport_convergence", "wave_energy_ledger"):
        yield f"scripts/{script}", [sys.executable, str(ROOT / "scripts" / f"{script}.py")], 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="monoport-digests-") as tmp:
        for name, command, expected in _cases():
            proc = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            if proc.returncode != expected:
                failures += 1
                print(f"{name}: exit code {proc.returncode}, expected {expected}\n"
                      + proc.stderr.decode(errors="replace"), file=sys.stderr)
            print(f"{_sha256(proc.stdout)}  {name}/stdout", flush=True)
            out_dir = Path(tmp) / name
            if out_dir.is_dir():
                for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                    print(f"{_sha256(path.read_bytes())}  {path.relative_to(tmp).as_posix()}",
                          flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
