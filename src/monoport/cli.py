"""Command-line drivers: certificate reports, simulation CSV, verification.

Four subcommands on one entry point (``monoport``):

* ``check-bc``   — build the run from a config file as ``simulate`` does
  and report the boundary condition's certificates; exit 0 only if it is
  maximal monotone.
* ``simulate``   — run the scenario and write ``states.csv``,
  ``energy.csv`` and ``report.txt``.
* ``verify``     — run the seeded invariant suites; exit 0 only if
  every invariant holds.
* ``convergence``— rerun a scenario on m, 2m, 4m, … and report observed
  orders against the closed-form oracle or the finest grid.

Exit codes: 0 success, 1 certificate/verification failure, 2 usage or
config error.  All files are UTF-8 with ``"\\n"`` line endings and
locale-independent number formatting (fixed-point decimal, significant
digits set by the config ``precision`` key), so byte-level comparison of
two runs is meaningful.  The bytes do not depend on the BLAS thread
count either: one thread and two write the same files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from . import solver as sol
from .boundary import check_skew_selfadjoint, subspace_gap
from .config import SCENARIO_PRESETS, Config, ConfigError, load_config
from .phs import bd_basis
from .relations import LinearGraph, NonconvergenceError
from .sbp import sbp42
from .verify import SUITE_NAMES, _pairing_gap, format_report, run_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Constant in the advertised transport error bound C (h_x + dt); the
#: observed ratio stays near 4 for the shipped profile, so 5 leaves an
#: honest margin without hiding a regression.
TRANSPORT_ERROR_CONSTANT = 5.0


def _fmt(value: float, precision: int = 12) -> str:
    """Fixed-point decimal, never an exponent: the shortest digits that
    read back as ``value`` if there are at most ``precision`` of them,
    else ``value`` rounded to ``precision`` significant digits.  ``-0.0``
    prints as ``"0"`` so output bytes do not depend on sign tricks.

    C's ``%.*g`` always rounds to ``precision`` digits.  Up to 15 digits
    that rounding already is the shortest form whenever the shortest form
    fits, so a finite ``%.*g`` result without an exponent is the answer.
    At 16 and 17 digits it is not (``9738031576.56157`` prints as
    ``9738031576.561569`` under ``%.16g``), and numpy formats those."""
    v = float(value)
    if v == 0.0:
        return "0"
    if precision <= 15:
        s = "%.*g" % (precision, v)
        if "e" not in s and "n" not in s:  # no exponent, nan or inf
            return s
    return np.format_float_positional(v, precision=precision, unique=True,
                                      fractional=False, trim="-")


def _write_text(path: Path, text: Union[str, Iterable[str]]) -> None:
    """Write ``text``, a string or an iterable of string chunks."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def _out_path(args, cfg: Config, key: str) -> Path:
    return Path(args.out) / cfg.outputs[key]


def _build(cfg: Config, level: int = 0, phs=None, bc=None):
    """Grid operators and run of ``cfg`` on ``m 2^level`` cells with step
    ``dt / 2^level``, built the one way every command builds them; given
    ``phs`` and ``bc``, those are reused.  A refusal by ``discretize`` or
    ``Scenario`` is a ``[grid]`` config error."""
    if phs is None:
        phs = cfg.build_phs()
        bc = cfg.build_bc(bd_basis(phs))
    try:
        ops = sol.discretize(phs, cfg.m * 2 ** level)
        u0 = cfg.build_u0(ops.grid.nodes)
        return ops, sol.Scenario(phs=phs, bc=bc, u0=u0, T=cfg.T, dt=cfg.dt / 2 ** level,
                                 theta=cfg.theta)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None


# ------------------------------------------------------------- check-bc


def _vec(v: np.ndarray) -> str:
    parts = []
    for z in np.atleast_1d(np.asarray(v)):
        z = complex(z)
        s = _fmt(z.real, 6)
        if z.imag != 0.0:
            s += f"{'+' if z.imag > 0 else '-'}{_fmt(abs(z.imag), 6)}j"
        parts.append(s)
    return "[" + ", ".join(parts) + "]"


def _certificate_lines(bc) -> List[str]:
    lines = []
    for name in ("monotone", "maximal"):
        cert = bc.certificates[name]
        lines.append(f"{name}: {getattr(cert, name)} ({cert.method})")
    try:
        skew = check_skew_selfadjoint(bc)
    except ValueError:
        lines.append("skew-selfadjoint: not applicable (not a linear relation)")
    else:
        wit = skew.witness
        if "max_angle" in wit:
            detail = f"largest principal angle {_fmt(wit['max_angle'], 6)}"
        else:
            detail = f"graph dimension {wit['dim_h']}, adjoint graph dimension {wit['dim_adjoint']}"
        lines.append(f"skew-selfadjoint: {skew.skew} ({detail})")

    if bc.provenance == "V-matrix":
        wit = bc.certificates["maximal"].witness
        # (1 + V, 1 - V) is monotone exactly when V is a contraction
        contraction = "yes" if bc.certificates["monotone"].monotone == "yes" else "NO"
        lines.append(f"V*V largest eigenvalue: {_fmt(wit['vv_top_eigenvalue'])} (contraction: {contraction})")
        lines.append("closing-matrix singular values: "
                     + ", ".join(_fmt(s) for s in wit["sigmas"]))

    mono = bc.certificates["monotone"]
    if mono.monotone == "no" and mono.witness:
        (xa, ya) = mono.witness["pair_a"]
        (xb, yb) = mono.witness["pair_b"]
        lines.append("monotonicity witness (flow/effort graph pairs):")
        lines.append(f"  pair a: x = {_vec(xa)}")
        lines.append(f"          y = {_vec(ya)}")
        lines.append(f"  pair b: x = {_vec(xb)}")
        lines.append(f"          y = {_vec(yb)}")
        lines.append(f"  Re<dx, dy> = {_fmt(mono.witness['value'])}  (negative pairing)")
    return lines


def cmd_check_bc(args) -> int:
    cfg = load_config(args.config)
    bc = _build(cfg)[1].bc

    lines = [
        "boundary-condition report",
        f"scenario: {cfg.scenario}",
        f"kind: {cfg.bc_kind} ({bc.provenance})",
        f"ports: {bc.ports}",
        "",
    ]
    lines += _certificate_lines(bc)
    ok = bc.is_maximal_monotone
    lines += ["", "verdict: " + ("maximal monotone" if ok else "NOT maximal monotone")]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_text(_out_path(args, cfg, "report"), text)
    return EXIT_OK if ok else EXIT_FAIL


# ------------------------------------------------------------- simulate


def _states_csv(traj, nodes: np.ndarray, precision: int) -> Iterator[str]:
    """Yield ``states.csv`` (``t,x,comp,re,im``): the header, then one
    chunk per state with a row per node and component.

    Each state is one ``%`` operation on per-run row templates, one
    ``%.{p}g`` per value.  That text is ``_fmt``'s whenever it has no
    exponent and is not nan or inf, up to 15 digits (see ``_fmt``), so
    only a value outside ``1e-4 <= |v| < 10**p / 2`` (zero, nan and inf
    included), and every value beyond 15 digits, takes a ``%s`` cell and
    ``_fmt``'s text.  A real run writes the ``im`` column as ``0``."""
    n = traj.states.shape[2]
    width = 2 if np.iscomplexobj(traj.states) else 1  # values per row
    spec = (f"%.{precision}g", "%s")
    tail = "\n" if width == 2 else ",0\n"
    prefixes = [f",{_fmt(x, precision)},{c}," for x in nodes for c in range(n)]
    # rows[code][k]: row k, where bit j of code marks value j as a %s value
    rows = [[prefix + ",".join(spec[code >> j & 1] for j in range(width)) + tail
             for prefix in prefixes] for code in range(2 ** width)]
    bits = 1 << np.arange(width)
    # %g switches to an exponent once |v| rounds to 10**p; above 15 digits never use it
    hi = 0.5 * 10.0 ** precision if precision <= 15 else 0.0
    yield "t,x,comp,re,im\n"
    for t, state in zip(traj.times, traj.states):
        ts = _fmt(t, precision)
        flat = state.reshape(-1)
        vals = np.stack((flat.real, flat.imag), axis=1) if width == 2 else flat[:, None]
        mag = np.abs(vals)
        slow = ~((mag >= 1e-4) & (mag < hi))
        values = vals.reshape(-1).tolist()
        for i in np.flatnonzero(slow).tolist():
            values[i] = _fmt(values[i], precision)
        codes = slow @ bits
        cells = rows[0].copy()
        for k in np.flatnonzero(codes).tolist():
            cells[k] = rows[codes[k]][k]
        yield (ts + ts.join(cells)) % tuple(values)


def _energy_csv(traj, precision: int) -> str:
    rows = ["t,E,boundary_dissipation"]
    for t, e, d in zip(traj.times, traj.energies, traj.boundary_dissipation):
        rows.append(f"{_fmt(t, precision)},{_fmt(e, precision)},{_fmt(d, precision)}")
    return "\n".join(rows) + "\n"


def _transport_oracle_applicable(cfg: Config, scenario) -> bool:
    """Whether the characteristics solution of the ``transport`` preset
    solves the run: unit speed to the right, no zero-order term, identity
    energy, and the absorbing relation ``w = e`` (the graph of ``V = 0``,
    inflow ``u(-b) = 0``) at the boundary."""
    phs, rel = scenario.phs, scenario.bc.port_relation
    return (cfg.scenario == "transport" and phs.n == 1
            and abs(phs.p1[0, 0] - 1.0) < 1e-14
            and np.abs(phs.p0).max() < 1e-14
            and phs.hamiltonian is None
            and isinstance(rel, LinearGraph) and not rel.shifted
            and subspace_gap(rel.stacked, LinearGraph(rel.space, [[1]], [[1]]).stacked) < 1e-12)


def _transport_error(cfg: Config, ops, traj) -> float:
    """Sup-norm distance of the final state from the closed-form
    characteristics solution of the ``transport`` preset."""
    u0_func = lambda y: SCENARIO_PRESETS["transport"](1, cfg.b, np.atleast_1d(y))[:, 0]
    oracle = sol.oracle_transport(u0_func, traj.times[-1], ops.grid.nodes, cfg.b)
    return float(np.abs(traj.states[-1][:, 0] - oracle).max())


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    ops, scenario = _build(cfg)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an --out naming a file fails before the run
    traj = sol.simulate(scenario, ops)

    # simulate takes at least one step, so times[1] exists
    dt = traj.times[1] - traj.times[0]
    e0, ef = traj.energies[0], traj.energies[-1]
    # Every entry is finite (the ledger check of simulate), but a sum of
    # them can still overflow: such totals refuse the run, as that check does.
    with np.errstate(over="ignore", invalid="ignore"):
        max_rise = float(np.diff(traj.energies).max())
        total = float(np.sum(traj.boundary_dissipation[1:])) * dt
    if not (np.isfinite(max_rise) and np.isfinite(total)):
        raise ValueError(f"the energy ledger is not finite (largest single-step energy increase {max_rise:.6g}, "
                         f"total boundary dissipation {total:.6g}); the run overflows double precision")

    prec = cfg.precision
    _write_text(_out_path(args, cfg, "states"), _states_csv(traj, ops.grid.nodes, prec))
    _write_text(_out_path(args, cfg, "energy"), _energy_csv(traj, prec))

    lines = [
        "simulation report",
        f"scenario: {cfg.scenario}",
        f"grid: m = {cfg.m} (h_x = {_fmt(ops.grid.h_x, prec)}), "
        f"steps = {len(traj) - 1} (dt = {_fmt(dt, prec)}), theta = {_fmt(cfg.theta, prec)}",
        f"energy: E(0) = {_fmt(e0, prec)}, E(T) = {_fmt(ef, prec)}",
        f"largest single-step energy increase: {_fmt(max_rise, prec)}",
        f"total boundary dissipation (sum of stage pairings x dt): {_fmt(total, prec)}",
    ]

    status = EXIT_OK
    if _transport_oracle_applicable(cfg, scenario):
        err = _transport_error(cfg, ops, traj)
        if args.tol is None:
            tol, label = TRANSPORT_ERROR_CONSTANT * (ops.grid.h_x + dt), "C (h_x + dt)"
        else:
            tol, label = args.tol, "(--tol)"
        ok = err <= tol
        lines += [
            "",
            "transport oracle comparison (closed-form characteristics):",
            f"  max |u(T) - oracle| = {_fmt(err, prec)}",
            f"  tolerance {label} = {_fmt(tol, prec)}",
            f"  within tolerance: {'yes' if ok else 'NO'}",
        ]
        if not ok:
            status = EXIT_FAIL

    text = "\n".join(lines) + "\n"
    print(text, end="")
    _write_text(_out_path(args, cfg, "report"), text)
    return status


# ------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    results = run_suites(args.suite, seed=args.seed)
    text, all_ok = format_report(results, args.seed, tolerance_scale=args.tol)
    print(text, end="")
    return EXIT_OK if all_ok else EXIT_FAIL


# ------------------------------------------------------------- convergence


def _state_study(cfg: Config, ops, scenario, levels: int, seed: int):
    """L-infinity state error under simultaneous (h, dt) refinement.

    Against the closed-form transport oracle when the scenario admits
    one; otherwise against the finest grid, whose nodes contain every
    coarser grid's nodes.  A level keeps only its error or a copy of its
    final state, so its trajectory is freed before the next runs."""
    use_oracle = _transport_oracle_applicable(cfg, scenario)
    rows, finals = [], []
    for i in range(levels):
        if i:
            ops, scenario = _build(cfg, i, scenario.phs, scenario.bc)
        m, dt = ops.grid.m, scenario.dt
        traj = sol.simulate(scenario, ops)
        if use_oracle:
            rows.append((m, ops.grid.h_x, dt, _transport_error(cfg, ops, traj)))
        else:
            rows.append((m, ops.grid.h_x, dt))
            finals.append(traj.states[-1].copy())
        del traj
    if use_oracle:
        return rows
    fine = finals[-1]
    return [row + (float(np.abs(final - fine[::2 ** (levels - 1 - i)]).max()),)
            for i, (row, final) in enumerate(zip(rows[:-1], finals))]


def _pairing_study(cfg: Config, ops, scenario, levels: int, seed: int):
    """Gap in the discrete trace-pairing identity on smooth fields."""
    rng = np.random.default_rng(seed)
    n = scenario.phs.n
    cu = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    cv = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    rows = []
    for i in range(levels):
        m = cfg.m * 2 ** i
        if i:
            ops = sol.discretize(scenario.phs, m)
        xs = ops.grid.nodes
        u = sum(cu[k][None, :] * np.cos((k + 0.5) * xs / cfg.b)[:, None] for k in range(3))
        v = sum(cv[k][None, :] * np.sin((k + 1) * 0.9 * xs / cfg.b)[:, None] for k in range(3))
        rows.append((m, ops.grid.h_x, None, _pairing_gap(ops, scenario.bc.basis, u, v)))
    return rows


def _derivative_study(cfg: Config, ops, scenario, levels: int, seed: int):
    """L-infinity error of the discrete derivative on a smooth function."""
    rows = []
    for i in range(levels):
        m = cfg.m * 2 ** i
        h_x = 2.0 * cfg.b / m
        xs = np.linspace(-cfg.b, cfg.b, m + 1)
        f = np.exp(xs / cfg.b)
        df = f / cfg.b
        scalar_d = sbp42(m, h_x)[0]
        err = float(np.abs(scalar_d @ f - df).max())
        rows.append((m, h_x, None, err))
    return rows


_STUDIES = {"state": _state_study, "pairing": _pairing_study, "derivative": _derivative_study}


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    ops, scenario = _build(cfg)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an --out naming a file fails before the study
    rows = _STUDIES[args.study](cfg, ops, scenario, args.levels, args.seed)

    prec = cfg.precision
    errs = np.array([r[3] for r in rows])
    orders = np.log2(errs[:-1] / errs[1:])

    csv_rows = ["study,m,h_x,dt,error,order"]
    out_lines = [f"convergence study: {args.study}"]
    for i, (m, h_x, dt, err) in enumerate(rows):
        dt_s = _fmt(dt, prec) if dt is not None else ""
        order_s = _fmt(orders[i - 1], prec) if i > 0 else ""
        csv_rows.append(f"{args.study},{m},{_fmt(h_x, prec)},{dt_s},{_fmt(err, prec)},{order_s}")
        msg = f"  m = {m:6d}: error = {_fmt(err, prec)}"
        if i > 0:
            msg += f"  (order {_fmt(orders[i - 1], 4)})"
        out_lines.append(msg)
    if len(orders):
        out_lines.append(f"observed orders: {', '.join(_fmt(o, 4) for o in orders)}")

    text = "\n".join(out_lines) + "\n"
    print(text, end="")
    _write_text(_out_path(args, cfg, "convergence"), "\n".join(csv_rows) + "\n")
    return EXIT_OK


# ------------------------------------------------------------- entry point


def _int_at_least(low: int, what: str):
    """An argparse type: an integer of at least ``low``, else ``needs <what>``."""
    def parse(text: str) -> int:
        if not text.lstrip("-").isdigit() or int(text) < low:
            raise argparse.ArgumentTypeError(f"needs {what}, got {text!r}")
        return int(text)
    return parse


def _positive_finite(text: str) -> float:
    """``--tol`` of ``simulate`` and ``verify``.  ``verify`` multiplies
    upper bounds by it and divides lower bounds, so 0 divides by zero, a
    negative value passes every lower bound and ``inf`` every upper
    bound; ``simulate`` compares the oracle error against it, which
    ``inf`` or ``nan`` would switch off."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"needs a positive finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monoport",
        description="Certified monotone boundary conditions for 1D port-Hamiltonian systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-bc", help="report boundary-condition certificates")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.set_defaults(func=cmd_check_bc)

    p = sub.add_parser("simulate", help="run a scenario and write CSV output")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--tol", type=_positive_finite, default=None,
                   help="override the oracle-comparison tolerance (positive, finite)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the seeded invariant suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=SUITE_NAMES + ("all",),
                   help="which suite to run (default: all)")
    p.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"), default=0,
                   help="suite RNG seed, a non-negative integer (default: 0)")
    p.add_argument("--tol", type=_positive_finite, default=1.0,
                   help="scale every pass threshold (positive, finite); values << 1 tighten the "
                        "checks until they fail (falsifiability hook)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convergence", help="refinement study with observed orders")
    p.add_argument("--config", required=True, help="scenario config file")
    p.add_argument("--out", default=".", help="output directory (default: .)")
    p.add_argument("--study", default="state", choices=sorted(_STUDIES),
                   help="which quantity to refine (default: state)")
    p.add_argument("--levels", type=_int_at_least(2, "an integer of at least 2 levels"), default=3,
                   help="number of refinement levels m, 2m, 4m, ..., at least 2 (default: 3)")
    p.add_argument("--seed", type=_int_at_least(0, "a non-negative integer"), default=0,
                   help="RNG seed for the pairing study's fields, a non-negative integer (default: 0)")
    p.set_defaults(func=cmd_convergence)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an unreadable config, an --out that is a file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, NonconvergenceError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
