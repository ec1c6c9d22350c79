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
* ``monoport check-bc`` on one invalid config per value rule that only a
  constructor on the build path checks (system, boundary condition,
  grid, initial data, scenario; :data:`INVALID_CONFIGS`), each a shipped
  config with one edit, written to the temporary directory;
* ``monoport simulate`` on a fine grid (:data:`FINE_CONFIGS`), a shipped
  config with its grid edited, written there too, on two friction ports
  on a coupled ``P1``, with real and with complex data, and on three
  ports, Robin between two friction ports (:data:`FRICTION_CONFIGS`);
* two usage errors that name no config file (:data:`USAGE_ERRORS`): a
  ``--config`` that is a directory and a negative ``--seed``.

Output files go to a temporary directory that is removed afterwards, or,
with ``--keep DIR``, to ``DIR`` (new or empty), which is kept with each
run's stdout as ``DIR/<name>/stdout`` (and, where it is digested, its
stderr as ``DIR/<name>/stderr``) for ``scripts/output_diff.py``; the
printed digests are the same either way.  One ``sha256  name`` line is
printed per written file and per captured stdout, and for an invalid
config or a usage error one more for its stderr, with its exit code, so
two checkouts are compared with one ``diff`` of two runs.  The exit code is 1 if any run exits
unexpectedly: 1 for ``check-bc`` and ``simulate`` on
``robin_wrong_sign.cfg`` (its certificate fails), 2 for an invalid
config and a usage error, 0 everywhere else.  Standard library only.

Usage:
    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py --keep outputs > digests.txt
"""

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Configs whose boundary condition is certified non-monotone.
FAILING_CONFIGS = ("robin_wrong_sign.cfg",)

#: ``(rule, shipped config, text, replacement)``: the replacement breaks one
#: value rule, which the config parser leaves to the constructor.
INVALID_CONFIGS = (
    ("phs-n", "transport.cfg", "n = 1", "n = 0"),
    ("phs-b", "transport.cfg", "b = 1.0", "b = 0"),
    ("phs-P1-shape", "transport.cfg", "P1 = 1", "P1 = 1 0; 0 1"),
    ("phs-P0-shape", "transport.cfg", "P1 = 1", "P1 = 1\nP0 = 0 0"),
    ("phs-H-shape", "transport.cfg", "P1 = 1", "P1 = 1\nH = 1 0; 0 1"),
    ("bc-V-shape", "wave_damped.cfg", "V = 0 0.5; -0.5 0", "V = 0.5"),
    ("bc-M-shape", "robin_wrong_sign.cfg", "M = 1 0.3; 0.3 0.5", "M = 1"),
    ("bc-C-shape", "transport.cfg", "kind = v-matrix\nV = 0", "kind = custom\nC_e = 1 0\nC_f = 1 0"),
    ("bc-value-length", "transport.cfg", "kind = v-matrix\nV = 0", "kind = dirichlet\nvalue = 0 0"),
    ("bc-port-kind", "friction.cfg", "port.0 = friction 0.5", "port.0 = teleport 0.5"),
    ("bc-port-arity", "friction.cfg", "port.1 = dirichlet 0", "port.1 = dirichlet"),
    ("bc-port-real", "friction.cfg", "port.0 = friction 0.5", "port.0 = friction 0.5+1j"),
    ("bc-port-range", "friction.cfg", "port.1 = dirichlet 0", "port.2 = dirichlet 0"),
    ("bc-port-coverage", "friction.cfg", "port.1 = dirichlet 0\n", ""),
    ("bc-port-twice", "friction.cfg", "port.1 = dirichlet 0", "port.1 = dirichlet 0\nport.00 = dirichlet 0"),
    ("grid-m-odd", "transport.cfg", "m = 128", "m = 7"),
    ("grid-m-small", "transport.cfg", "m = 128", "m = 6"),
    ("grid-dt-negative", "transport.cfg", "dt = 0.015625", "dt = -0.1"),
    ("grid-T-inf", "transport.cfg", "T = 1.0", "T = inf"),
    ("grid-dt-inf", "transport.cfg", "dt = 0.015625", "dt = inf"),
    ("grid-theta", "transport.cfg", "theta = 1.0", "theta = 0.2"),
    ("scenario-unknown", "transport.cfg", "scenario = transport", "scenario = vortex"),
    ("scenario-wave-one-field", "transport.cfg", "scenario = transport", "scenario = wave"),
    ("phs-profile-shape", "wave_damped.cfg", "P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = sine-well"),
    ("phs-P0-nan", "wave_damped.cfg", "P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0 nan; nan 0"),
    ("phs-H-inf", "wave_damped.cfg", "P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = 1 0; 0 inf"),
    ("bc-value-nan", "transport.cfg", "kind = v-matrix\nV = 0", "kind = dirichlet\nvalue = nan"),
    ("bc-port-value-nan", "friction.cfg", "port.1 = dirichlet 0", "port.1 = neumann nan"),
    ("bc-port-friction-inf", "friction.cfg", "port.0 = friction 0.5", "port.0 = friction inf"),
    ("phs-P0-overflow", "wave_damped.cfg", "P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0 1e300; 1e300 0"),
    ("phs-b-tiny", "transport.cfg", "b = 1.0", "b = 1e-300"),
    ("bc-M-huge", "wave_damped.cfg", "kind = v-matrix\nV = 0 0.5; -0.5 0", "kind = robin\nM = -1e300 0; 0 1"),
    ("bc-V-huge", "wave_damped.cfg", "V = 0 0.5; -0.5 0", "V = 1e200 0; 0 0.5"),
    ("bc-value-huge", "transport.cfg", "kind = v-matrix\nV = 0", "kind = neumann\nvalue = 1e300"),
    ("phs-b-huge", "transport.cfg", "b = 1.0", "b = 1e300"),
)

#: ``(name, shipped config, edits)``: a run on a grid fine enough that the
#: band factor swaps rows in a head (J = 10 of 32,766 at m = 16384 and
#: mu / h_x = 4.1) and most of the interior lift underflows below the normal
#: range; 5 theta = 1/2 steps.
FINE_CONFIGS = (
    ("wave_conservative-m16384", "wave_conservative.cfg", (("m = 256", "m = 16384"), ("T = 2.0", "T = 0.005"))),
)

#: The edits of :data:`FRICTION_CONFIGS` besides ``P1``.
_FRICTION_EDITS = (("port.1 = dirichlet 0", "port.1 = friction 0.3"), ("theta = 1.0", "theta = 0.5"))

#: ``(name, shipped config, edits)``: friction ports on a coupled ``P1`` at
#: ``theta = 1/2``: two, in a real run (each step solved on an affine piece
#: of the relation) and a complex one (a skew ``P0``: each step one
#: splitting solve), and three ports with a Robin port between two friction
#: ports, a real run whose pieces mix linear and friction columns.
FRICTION_CONFIGS = (
    ("friction-coupled", "friction.cfg", (("P1 = 0 1; 1 0", "P1 = 1 0.7; 0.7 1.5"), *_FRICTION_EDITS)),
    ("friction-complex", "friction.cfg",
     (("P1 = 0 1; 1 0", "P1 = 1 0.7; 0.7 1.5\nP0 = 0 0.5j; 0.5j 0"), *_FRICTION_EDITS)),
    ("friction-three", "friction.cfg",
     (("n = 2", "n = 3"), ("P1 = 0 1; 1 0", "P1 = 1 0.5 0; 0.5 1.5 0.3; 0 0.3 2"),
      ("port.1 = dirichlet 0", "port.1 = robin 1.0\nport.2 = friction 0.3"), ("theta = 1.0", "theta = 0.5"))),
)

#: ``(name, arguments)``: usage errors that name no config file.  A path is
#: relative to the run's working directory, so stderr holds no temporary path.
USAGE_ERRORS = (
    ("config-directory", ("check-bc", "--config", ".")),
    ("verify-seed-negative", ("verify", "all", "--seed", "-1")),
)

#: Exit code of an invalid config and of a usage error.
EXIT_USAGE = 2


def _cases(tmp: Path):
    """Yield ``(name, argv, expected_exit_code)`` for every run; the
    invalid configs are written to ``tmp``."""
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
    for rule, shipped, text, replacement in INVALID_CONFIGS:
        original = (ROOT / "configs" / shipped).read_text(encoding="utf-8")
        if text not in original:
            raise SystemExit(f"{shipped} no longer contains {text!r}; update INVALID_CONFIGS")
        cfg = tmp / "invalid" / f"{rule}.cfg"
        cfg.parent.mkdir(exist_ok=True)
        cfg.write_text(original.replace(text, replacement, 1), encoding="utf-8")
        name = f"check-bc-invalid/{rule}"
        yield name, cli + ["check-bc", "--config", str(cfg), "--out", name], EXIT_USAGE
    for label, arguments in USAGE_ERRORS:
        yield f"usage/{label}", cli + list(arguments), EXIT_USAGE
    for kind, table in (("fine", FINE_CONFIGS), ("friction", FRICTION_CONFIGS)):
        for label, shipped, edits in table:
            text = (ROOT / "configs" / shipped).read_text(encoding="utf-8")
            for old, new in edits:
                if old not in text:
                    raise SystemExit(f"{shipped} no longer contains {old!r}; update {kind.upper()}_CONFIGS")
                text = text.replace(old, new, 1)
            cfg = tmp / kind / f"{label}.cfg"
            cfg.parent.mkdir(exist_ok=True)
            cfg.write_text(text, encoding="utf-8")
            name = f"simulate-{kind}/{label}"
            yield name, cli + ["simulate", "--config", str(cfg), "--out", name], 0


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="write the outputs to DIR (new or empty) and keep them, with each run's stdout")
    keep = parser.parse_args(argv).keep
    if keep is not None:
        keep = keep.resolve()
        if keep.exists() and (not keep.is_dir() or any(keep.iterdir())):
            parser.error(f"--keep: {keep} is not a new or empty directory")
        keep.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    failures = 0
    with (contextlib.nullcontext(str(keep)) if keep is not None
          else tempfile.TemporaryDirectory(prefix="monoport-digests-")) as tmp:
        for name, command, expected in _cases(Path(tmp)):
            proc = subprocess.run(command, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
            if proc.returncode != expected:
                failures += 1
                print(f"{name}: exit code {proc.returncode}, expected {expected}\n"
                      + proc.stderr.decode(errors="replace"), file=sys.stderr)
            print(f"{_sha256(proc.stdout)}  {name}/stdout", flush=True)
            if expected == EXIT_USAGE:
                print(f"{_sha256(proc.stderr)}  {name}/stderr, exit {proc.returncode}", flush=True)
            out_dir = Path(tmp) / name
            if out_dir.is_dir():
                for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
                    print(f"{_sha256(path.read_bytes())}  {path.relative_to(tmp).as_posix()}",
                          flush=True)
            if keep is not None:  # after the listing, so that the digests stay the same
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / "stdout").write_bytes(proc.stdout)
                if expected == EXIT_USAGE:
                    (out_dir / "stderr").write_bytes(proc.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
