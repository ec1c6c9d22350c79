import copy
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg.lapack import get_lapack_funcs

from monoport import boundary as bnd
from monoport.config import HAMILTONIAN_PROFILES, load_config
from monoport.phs import PortHamiltonian, bd_basis
from monoport.relations import SeparableProx, direct_sum, transform
from monoport.solver import (
    Scenario,
    _CoreSolver,
    Stepper,
    discretize,
    oracle_transport,
    resolve_A,
    simulate,
    step,
)
from monoport.spaces import InnerProductSpace, LinearMap
from monoport.verify import _monolithic_resolve

from conftest import ComplexWarning, rand_contraction, rand_unitary

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
PHS1 = PortHamiltonian(n=1, b=1.0, p1=[[1.0]])
BASIS1 = bd_basis(PHS1)
PHS2 = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]])
BASIS2 = bd_basis(PHS2)


def bump(z):
    zz = np.asarray(z, dtype=float)
    w = (zz + 0.35) / 0.6
    return np.where(np.abs(w) < 1, (1 - np.minimum(w**2, 1.0)) ** 3, 0.0).astype(complex)


# -------------------------------------------------------------- discretize


def test_discretize_grid_and_weights():
    ops = discretize(PHS1, 64)
    assert ops.grid.m == 64 and ops.nnodes == 65
    assert np.allclose(ops.grid.nodes, -ops.grid.nodes[::-1])
    assert ops.omega.min() > 0
    assert np.sum(ops.omega) == pytest.approx(2.0)


def test_discretize_derivative_exact_on_affine():
    ops = discretize(PHS1, 32)
    xs = ops.grid.nodes.astype(complex)
    assert np.abs(ops.Gfull @ xs - 1.0).max() < 1e-12
    assert np.abs(ops.Gfull @ np.ones_like(xs)).max() < 1e-12


def test_discretize_duality_pairing(rng):
    ops = discretize(PHS1, 48)
    for _ in range(25):
        u = rng.normal(size=49) + 1j * rng.normal(size=49)
        v = rng.normal(size=49) + 1j * rng.normal(size=49)
        v[0] = v[-1] = 0.0  # closed-route functions vanish at the ends
        lhs = np.sum(ops.omega * (ops.Dc @ v).conj() * u)
        rhs = -np.sum(ops.omega * v.conj() * (ops.Gfull @ u))
        assert abs(lhs - rhs) < 1e-10


def test_discretize_derivative_order():
    errs = []
    for m in (64, 128, 256):
        ops = discretize(PHS1, m)
        xs = ops.grid.nodes
        errs.append(np.abs(ops.Gfull @ np.exp(xs).astype(complex) - np.exp(xs)).max())
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


def test_discretize_rejects_bad_cell_count():
    with pytest.raises(ValueError):
        discretize(PHS1, 7)  # odd cell count breaks the parity split


@pytest.mark.parametrize("m", [64.9, "64", True], ids=["float", "str", "bool"])
def test_discretize_refuses_a_cell_count_that_is_not_an_integer(m):
    """``int`` would truncate 64.9 to 64 cells and parse ``"64"``."""
    with pytest.raises(ValueError, match=rf"^cell count {re.escape(repr(m))} is not an integer$"):
        discretize(PHS1, m)


def test_discretize_takes_a_numpy_integer_cell_count():
    ops = discretize(PHS1, np.int64(64))
    assert ops.grid.m == 64 and type(ops.grid.m) is int and ops.nnodes == 65


# -------------------------------------------------------------- resolve_A


def test_resolve_zero_rhs_gives_zero():
    ops = discretize(PHS1, 64)
    res = resolve_A(ops, bnd.neumann(0.0, BASIS1), 1.0,
                    (np.zeros(65), np.zeros(65)))
    assert np.abs(res.u).max() == 0.0 and np.abs(res.v).max() == 0.0
    assert res.residual == 0.0


def test_resolve_hyperbolic_closed_form_convergence():
    errs = []
    for m in (128, 256, 512):
        ops = discretize(PHS1, m)
        xs = ops.grid.nodes
        res = resolve_A(ops, bnd.neumann(0.0, BASIS1), 1.0,
                        (np.cosh(xs), np.sinh(xs)))
        assert res.residual < 1e-8
        errs.append(np.abs(res.u[:, 0] - np.cosh(xs)).max())
    assert errs[-1] < 5e-8
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert orders.min() > 1.9


def test_resolve_matches_assembled_system(rng):
    ops = discretize(PHS2, 128)
    xs = ops.grid.nodes
    f = np.stack([np.cos(xs), np.cos(2 * xs)], axis=1).astype(complex)
    g = np.stack([np.sin(xs), np.sin(0.5 * xs)], axis=1).astype(complex)
    conditions = [
        bnd.dirichlet(0.0, BASIS2),
        bnd.neumann(0.0, BASIS2),
        bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2),
        bnd.from_V(rand_contraction(rng, 2), BASIS2),
    ]
    for bc in conditions:
        res = resolve_A(ops, bc, 0.8, (f, g))
        ref = _monolithic_resolve(ops, bc, 0.8, (f + g).ravel())
        gap = np.abs((res.u + res.v).ravel() - ref).max() / max(1.0, np.abs(ref).max())
        assert gap < 1e-8


def test_resolve_matches_assembled_system_shifted():
    ops = discretize(PHS1, 96)
    xs = ops.grid.nodes
    bc = bnd.dirichlet(0.7, BASIS1)
    res = resolve_A(ops, bc, 0.5, (np.cos(xs), np.sin(xs)))
    ref = _monolithic_resolve(ops, bc, 0.5, (np.cos(xs) + np.sin(xs)).astype(complex))
    assert np.abs((res.u + res.v).ravel() - ref).max() < 1e-8


def test_resolve_honours_energy_density():
    """``resolve_A`` solves ``(1 + mu L H) w = f + g`` with the density
    ``H`` of ``ops``: it agrees with the assembled system, whose mass block
    is ``H^{-1}``, and with one implicit Euler step at ``dt = mu``.
    Ignoring ``H`` puts it off by 0.38 and 0.48, on fields of size 1.1
    and 1.3."""
    phs = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]],
                          hamiltonian=np.array([[2.0, 0.3], [0.3, 1.0]]))
    ops = discretize(phs, 64)
    xs = ops.grid.nodes
    f = np.stack([np.cos(xs), np.cos(2 * xs)], axis=1).astype(complex)
    g = np.stack([np.sin(xs), np.sin(0.5 * xs)], axis=1).astype(complex)
    mu = 0.8
    for bc in (bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), bd_basis(phs)),
               bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), bd_basis(phs))):
        res = resolve_A(ops, bc, mu, (f, g))
        w = res.u + res.v
        assert res.residual < 1e-12
        ref = _monolithic_resolve(ops, bc, mu, (f + g).ravel())
        assert np.abs(w.ravel() - ref).max() <= 1e-12 * np.abs(ref).max()
        scn = Scenario(phs=phs, bc=bc, u0=f + g, T=mu, dt=mu, theta=1.0)
        assert np.abs(step(f + g, Stepper(scn, ops)) - w).max() <= 1e-12 * np.abs(w).max()


def test_resolve_honours_position_dependent_density():
    """A density that varies from node to node, so the nodewise
    ``H^{-1}`` blocks of the solver must each sit on their own node: the
    eliminated solve agrees with the assembled system."""
    def density(x):
        return np.array([[2.0 + np.sin(x), 0.3 * np.cos(x)], [0.3 * np.cos(x), 1.0]])

    phs = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]], hamiltonian=density)
    ops = discretize(phs, 64)
    xs = ops.grid.nodes
    f = np.stack([np.cos(xs), np.cos(2 * xs)], axis=1).astype(complex)
    g = np.stack([np.sin(xs), np.sin(0.5 * xs)], axis=1).astype(complex)
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), bd_basis(phs))
    res = resolve_A(ops, bc, 0.8, (f, g))
    ref = _monolithic_resolve(ops, bc, 0.8, (f + g).ravel())
    assert np.abs((res.u + res.v).ravel() - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("ports, splits", [
    ([(0, ("friction", 0.5)), (1, ("robin", 1.0))], False),
    ([(0, ("friction", 0.5)), (1, ("friction", 0.3))], True),
], ids=["friction-robin", "friction-friction"])
def test_steps_solve_no_fixed_system_again(monkeypatch, ports, splits):
    """The boundary block and Douglas-Rachford's ``1 + gamma phi`` are
    inverted once per run: no step, and no splitting iteration, calls a
    dense LU solve.  The splitting case is a complex run, whose
    inclusions have no affine pieces."""
    import scipy.linalg

    import monoport.relations as rels

    phs = PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]])
    bc = bnd.multiport(ports, bd_basis(phs))
    ops = discretize(phs, 32)
    u0 = np.zeros((33, 2), dtype=complex if splits else float)
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2) * (1.0 + 0.5j if splits else 1.0)
    lu_calls, dr_calls = [], []

    def counting(calls, func):
        def counted(*args, **kwargs):
            calls.append(args)
            return func(*args, **kwargs)
        return counted

    monkeypatch.setattr(scipy.linalg, "lu_solve", counting(lu_calls, scipy.linalg.lu_solve))
    monkeypatch.setattr(rels, "_douglas_rachford", counting(dr_calls, rels._douglas_rachford))
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=0.2, dt=0.01, theta=1.0), ops)
    assert len(traj) == 21 and len(dr_calls) == (20 if splits else 0)
    assert lu_calls == []


@pytest.mark.parametrize("m, dt, subnormal", [(4096, 1e-3, 16_864), (16384, 1e-3, 92_212), (4096, 7.8125e-3, 0)],
                         ids=["m4096", "head-swaps", "slow-decay"])
def test_lift_has_no_subnormal_parts_and_solve_matches_assembled_system(m, dt, subnormal):
    """On a fine grid the interior lift ``A_ii^{-1} A_ib`` decays below the
    normal range (16,864 subnormal parts at m = 4096 and mu / h_x = 1, 92,212
    at m = 16384 and mu / h_x = 4.1, where the factor also swaps rows in a
    head), which made every step's ``lift @ beta`` run at subnormal speed.
    The lift is solved on windows and cut at ``2^-60`` of each column's
    largest part, within that cut of the full solve on the pivot-scaled
    ``gbtrf`` factor (:func:`_gbtrs_reference`); at mu / h_x = 8 it keeps
    1,088 rows per end, more than the first window holds.  The eliminated
    solve still matches the assembled one."""
    theta = 0.5
    ops = discretize(PHS2, m)
    bc = bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), BASIS2)
    scn = Scenario(phs=PHS2, bc=bc, u0=np.zeros((m + 1, 2)), T=1.0, dt=dt, theta=theta)
    core = Stepper(scn, ops)._core
    assert core.lift.flags.f_contiguous
    assert (core._j > 0) == (theta * dt / ops.grid.h_x > 2)
    tiny = np.finfo(float).tiny
    for part in (core.lift.real, core.lift.imag):
        assert not np.any((np.abs(part) > 0) & (np.abs(part) < tiny))

    ends = np.r_[0:2, 2 * ops.nnodes - 2: 2 * ops.nnodes]
    full = _gbtrs_reference(core, core.amat[2:-2][:, ends].toarray())
    assert np.count_nonzero((np.abs(full) < tiny) & (full != 0)) == subnormal
    _assert_lift_cut(core.lift, full)

    xs = ops.grid.nodes
    r_flat = np.stack([np.exp(-8 * xs**2) * np.cos(3 * xs),
                       np.exp(-6 * xs**2) * np.sin(2 * xs)], axis=1).ravel()
    p = core.solve(r_flat)[0]
    ref = _monolithic_resolve(ops, bc, theta * dt, r_flat)
    assert np.abs(p - ref).max() <= 1e-12 * np.abs(ref).max()

    # A step multiplies only the rows of the lift around its zero middle,
    # cut at multiples of 256 rows, each block its own Fortran-ordered copy,
    # and gets the bits of the whole product.
    (top, top_rows), (bottom, bottom_rows) = core._lift_rows
    assert top.start == 0 and top.stop % 256 == 0 == bottom.start % 256 and bottom.stop == 2 * m - 2
    assert top.stop < bottom.start and not core.lift[top.stop: bottom.start].any()
    for rows, block in core._lift_rows:
        assert block.flags.f_contiguous and _bitwise(block, core.lift[rows])
    if m == 16384:
        assert top.stop <= 768 and bottom.stop - bottom.start <= 768
    whole = copy.copy(core)
    whole._lift_rows = [(slice(0, 2 * m - 2), core.lift)]
    assert _bitwise(core.solve(r_flat)[0], whole.solve(r_flat)[0])


def _refuse_before_factoring(monkeypatch):
    """Fail the test if the run factors anything before its refusal."""
    import monoport.solver as solver

    monkeypatch.setattr(solver, "get_lapack_funcs", lambda *args: pytest.fail("factored before refusing"))


def test_resolve_rejects_uncertified_condition(monkeypatch):
    ops = discretize(PHS2, 32)
    bad = bnd.robin(-np.eye(2), BASIS2)
    rhs = (np.zeros((33, 2)), np.zeros((33, 2)))
    res = resolve_A(ops, bad, 1.0, rhs, allow_uncertified=True)
    assert np.abs(res.u).max() < 1e-12
    _refuse_before_factoring(monkeypatch)
    with pytest.raises(ValueError, match="certificate"):
        resolve_A(ops, bad, 1.0, rhs)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
def test_resolve_refuses_a_parameter_that_is_not_positive_and_finite(monkeypatch, mu):
    """Without the finiteness check, ``mu = inf`` passed ``not mu > 0`` and
    LAPACK failed inside the boundary solve ("SVD did not converge")."""
    ops = discretize(PHS2, 32)
    _refuse_before_factoring(monkeypatch)
    with pytest.raises(ValueError, match="resolvent parameter mu must be positive and finite"):
        resolve_A(ops, bnd.robin(np.eye(2), BASIS2), mu, (np.zeros((33, 2)), np.zeros((33, 2))))


def test_runs_refuse_data_that_is_not_finite(monkeypatch):
    """A ``nan`` in the initial state ran to ``nan`` states, and one in the
    right-hand side was solved; both are refused before anything is
    factored."""
    ops = discretize(PHS2, 32)
    bc = bnd.robin(np.eye(2), BASIS2)
    u0 = np.zeros((33, 2))
    u0[5, 1] = np.nan
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.1, dt=0.01)
    _refuse_before_factoring(monkeypatch)
    for run in (lambda: Stepper(scn, ops), lambda: simulate(scn, ops),
                lambda: resolve_A(ops, bc, 0.1, (np.zeros((33, 2)), u0 * 1j))):
        with pytest.raises(ValueError, match="^initial state or right-hand side must be finite$"):
            run()


def test_value_types_compare_by_identity():
    """Equal but distinct values compare unequal and every type hashes; a
    generated ``__eq__`` compared arrays ("truth value ... is ambiguous"),
    and the generated ``__hash__`` failed on them."""
    def build():
        phs = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]])
        basis = bd_basis(phs)
        bc = bnd.robin(np.eye(2), basis)
        ops = discretize(phs, 32)
        u0 = np.zeros((33, 2))
        scn = Scenario(phs=phs, bc=bc, u0=u0, T=0.02, dt=0.01)
        space = InnerProductSpace(2)
        return (space, LinearMap(space, space, np.eye(2)), phs, basis, bc, ops.grid, ops, scn,
                resolve_A(ops, bc, 0.1, (u0, u0)), simulate(scn, ops))

    for a, b in zip(build(), build()):
        assert type(a) is type(b) and a != b and a == a and a in [a] and b not in [a]
        assert len({a, b}) == 2


def test_resolve_validates_rhs_shape():
    ops = discretize(PHS1, 32)
    with pytest.raises(ValueError, match="grid"):
        resolve_A(ops, bnd.neumann(0.0, BASIS1), 1.0,
                  (np.zeros(10), np.zeros(10)))


# -------------------------------------------------------------- stepping


def test_simulate_constant_field_is_stationary():
    u0 = np.full((65, 1), 2.0 + 0.5j)
    scn = Scenario(phs=PHS1, bc=bnd.neumann(0.0, BASIS1), u0=u0,
                   T=0.5, dt=0.1, theta=1.0)
    traj = simulate(scn)
    assert np.abs(traj.states[-1] - u0).max() < 1e-12
    assert traj.times[-1] == pytest.approx(0.5)
    assert len(traj.times) == len(traj.energies) == len(traj.states) == 6


def test_simulate_energy_dissipates_under_contraction(rng):
    ops = discretize(PHS2, 64)
    xs = ops.grid.nodes
    bc = bnd.from_V(0.5 * rand_unitary(rng, 2), BASIS2)
    u0 = np.stack([np.exp(-8 * xs**2), xs * np.exp(-6 * xs**2)], axis=1)
    traj = simulate(Scenario(phs=PHS2, bc=bc, u0=u0, T=0.5, dt=0.01, theta=1.0), ops)
    assert np.diff(traj.energies).max() <= 1e-12 * traj.energies[0]
    assert traj.energies[-1] < traj.energies[0]


def test_simulate_energy_conserved_for_unitary_midpoint(rng):
    ops = discretize(PHS2, 64)
    xs = ops.grid.nodes
    bc = bnd.from_V(rand_unitary(rng, 2), BASIS2)
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    traj = simulate(Scenario(phs=PHS2, bc=bc, u0=u0, T=0.5, dt=0.01, theta=0.5), ops)
    drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
    assert drift < 1e-10


def test_midpoint_step_is_weighted_isometry(rng):
    ops = discretize(PHS2, 16)
    bc = bnd.from_V(rand_unitary(rng, 2), BASIS2)
    scn = Scenario(phs=PHS2, bc=bc, u0=np.zeros((17, 2)), T=1.0, dt=0.05, theta=0.5)
    # one stepper for every column: the affine plan of a linear graph ignores the warm start
    stepper = Stepper(scn, ops)
    dim = 17 * 2
    cols = []
    for j in range(dim):
        wj = np.zeros(dim, dtype=complex)
        wj[j] = 1.0
        cols.append(step(wj.reshape(17, 2), stepper).ravel())
    tmat = np.stack(cols, axis=1)
    wdiag = np.repeat(ops.omega, 2)
    dev = np.abs(tmat.conj().T @ (wdiag[:, None] * tmat) - np.diag(wdiag)).max()
    assert dev / wdiag.max() < 1e-9


def test_solver_suite_factors_each_resolvent_once(monkeypatch):
    """``verify``'s solver suite factors one ``_CoreSolver`` per run or
    resolvent it checks: the isometry check steps all 66 columns through
    one stepper (74 factorisations when each column built its own)."""
    import monoport.solver as solver
    from monoport import verify

    built = []
    core = solver._CoreSolver
    monkeypatch.setattr(solver, "_CoreSolver", lambda *args: built.append(args) or core(*args))
    results = verify._suite_solver(0)
    assert all(r.passed() for r in results)
    assert 0 < len(built) <= 10


def test_simulate_refuses_uncertified_condition(monkeypatch):
    """Without the gate this run's energy climbs from 0.222 to 32.1."""
    ops = discretize(PHS2, 128)
    xs = ops.grid.nodes
    bad = bnd.robin(-np.array([[1.0, 0.3], [0.3, 0.5]]), BASIS2)
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    scn = Scenario(phs=PHS2, bc=bad, u0=u0, T=1.0, dt=0.01, theta=1.0)
    _refuse_before_factoring(monkeypatch)
    with pytest.raises(ValueError, match="certificate"):
        simulate(scn, ops)
    with pytest.raises(ValueError, match="certificate"):
        Stepper(scn, ops)


@pytest.mark.parametrize("other", [
    dict(b=2.0, p1=[[0.0, 2.0], [2.0, 0.0]]),
    dict(b=2.0),
    dict(p1=[[0.0, 2.0], [2.0, 0.0]]),
    dict(p0=[[0.0, 0.5], [-0.5, 0.0]]),
    dict(hamiltonian=np.array([[2.0, 0.3], [0.3, 1.0]])),
], ids=["b-and-p1", "b", "p1", "p0", "density"])
def test_stepper_refuses_grid_operators_of_another_system(other):
    """Without the check, Robin on the b = 1 wave system ran 10 steps on
    the operators of a b = 2 system with P1 doubled, and reported an
    energy twice that of the run on its own grid."""
    xs = discretize(PHS2, 32).grid.nodes
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2)
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.1, dt=0.01, theta=1.0)
    spec = dict(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]]) | other
    ops = discretize(PortHamiltonian(**spec), 32)
    for run in (lambda: Stepper(scn, ops), lambda: simulate(scn, ops)):
        with pytest.raises(ValueError, match="another system than the scenario's"):
            run()


def test_stepper_takes_grid_operators_of_an_equal_system():
    """The same system, or an equal one in another object, passes, and the
    runs are bitwise one run; another grid is refused as before."""
    xs = discretize(PHS2, 32).grid.nodes
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2)
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.1, dt=0.01, theta=1.0)
    own = simulate(scn, discretize(PHS2, 32))
    equal = simulate(scn, discretize(PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]]), 32))
    assert own.states.tobytes() == equal.states.tobytes() == simulate(scn).states.tobytes()
    with pytest.raises(ValueError, match="initial state does not match the grid"):
        Stepper(scn, discretize(PHS2, 64))


@pytest.mark.parametrize("rows", [255, 259])
def test_step_refuses_a_state_on_another_grid(rows):
    """``wave_damped.cfg`` has 257 nodes: a 259-row state returned a
    259-row "next state", and a 255-row one died inside BLAS; both are
    refused, as ``Stepper`` refuses such a ``u0``."""
    cfg = load_config(CONFIG_DIR / "wave_damped.cfg")
    phs = cfg.build_phs()
    ops = discretize(phs, cfg.m)
    stepper = Stepper(Scenario(phs=phs, bc=cfg.build_bc(bd_basis(phs)), u0=cfg.build_u0(ops.grid.nodes),
                               T=cfg.T, dt=cfg.dt, theta=cfg.theta), ops)
    assert ops.nnodes == 257
    with pytest.raises(ValueError, match=f"^state does not match the grid: {rows} rows, 257 nodes$"):
        step(np.zeros((rows, phs.n)), stepper)


@pytest.mark.parametrize("theta", [0.5, 0.75])
def test_theta_update_multiplies_by_the_inverse_of_theta(theta):
    """``step`` ends with ``w_next = (y - (1 - theta) w) * (1 / theta)``:
    bitwise the division ``(y - (1 - theta) w) / theta`` at ``theta = 1/2``,
    and within one unit in the last place of it at ``theta = 3/4``."""
    xs = discretize(PHS2, 64).grid.nodes
    u0 = np.stack([np.exp(-8 * xs**2) * np.cos(3 * xs), np.exp(-6 * xs**2) * np.sin(2 * xs)], axis=1)
    bc = bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), BASIS2)
    stepper = Stepper(Scenario(phs=PHS2, bc=bc, u0=u0, T=0.1, dt=0.01, theta=theta), discretize(PHS2, 64))
    y = stepper._core.solve(u0.ravel())[0].reshape(u0.shape)
    divided = (y - (1.0 - theta) * u0) / theta
    new = step(u0, stepper)
    if theta == 0.5:
        assert _bitwise(new, divided)
    else:
        assert not _bitwise(new, divided)
        assert np.all(np.abs(new - divided) <= np.maximum(np.spacing(np.abs(divided)), np.spacing(np.abs(new))))


def test_douglas_rachford_steps_keep_exact_energy_ledger(monkeypatch):
    """Two friction ports on a coupled ``P1`` with complex initial data: a
    complex inclusion has no affine pieces, so every step solves it by
    Douglas-Rachford splitting, warm-started from the previous effort,
    and the energy identity of the module docstring holds per step to
    the splitting tolerance."""
    import monoport.relations as rels

    phs = PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]])
    bc = bnd.multiport([(0, ("friction", 0.5)), (1, ("friction", 0.3))], bd_basis(phs))
    ops = discretize(phs, 32)
    xs = ops.grid.nodes
    u0 = np.zeros((33, 2), dtype=complex)
    u0[:, 0] = np.exp(-8 * xs**2) * (1.0 + 0.5j)
    theta, dt = 1.0, 0.01
    warm_starts = []
    real_dr = rels._douglas_rachford

    def counted(plan, g, x0):
        warm_starts.append(x0)
        return real_dr(plan, g, x0)

    monkeypatch.setattr(rels, "_douglas_rachford", counted)
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=1.0, dt=dt, theta=theta), ops)
    assert len(traj) == 101 and len(warm_starts) == 100
    assert warm_starts[0] is None and all(x0 is not None for x0 in warm_starts[1:])

    e = traj.energies
    for k in range(100):
        a = (traj.states[k + 1] - traj.states[k]) / dt
        predicted = -dt * traj.boundary_dissipation[k + 1] - (theta - 0.5) * dt**2 * 2 * ops.energy(a)
        assert abs(e[k + 1] - e[k] - predicted) <= 1e-8 * e[0], k
    assert dt * traj.boundary_dissipation[1:].sum() > 1e-2


@pytest.mark.parametrize("p1, make_bc, theta", [
    # LinearGraph branch with offsets on every step; the Robin value
    # supplies energy, so dissipation is negative
    ([[1.0, 0.7], [0.7, 1.5]], lambda basis: bnd.robin(np.eye(2), basis, value=0.3), 0.5),
    # block-diagonal DirectSum branch: phi is diagonal when P1 is
    ([[1.0, 0.0], [0.0, 2.0]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("robin", 1.0))], basis), 1.0),
    # piece branch: a real coupled phi, solved exactly on the affine piece
    # whose signs hold, next to a linear port or a second friction port
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("robin", 1.0))], basis), 1.0),
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis), 1.0),
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("robin", 1.0, 0.2))], basis), 1.0),
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("friction", 0.3))], basis), 1.0),
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd.multiport([(0, ("friction", 0.5)), (1, ("friction", 0.3))], basis), 0.5),
    # SeparableProx against a diagonal, non-scalar phi: soft thresholding
    # per coordinate
    ([[1.0, 0.0], [0.0, 2.0]],
     lambda basis: bnd._finalize(basis, SeparableProx(InnerProductSpace(2), [0.5] * 2), "Prox"), 1.0),
    # a congruence: the ports of robin ⊕ friction swapped back, and the
    # substitution hands the piece branch the in-order problem
    ([[1.0, 0.7], [0.7, 1.5]],
     lambda basis: bnd._finalize(basis, transform(
         LinearMap(InnerProductSpace(2), InnerProductSpace(2), [[0.0, 1.0], [1.0, 0.0]]),
         direct_sum([bnd._scalar_part("robin", (1.0,)), bnd._scalar_part("friction", (0.5,))])),
         "Swapped"), 1.0),
], ids=["affine-coupled", "direct-sum-diagonal", "pieces-robin", "pieces-dirichlet",
        "pieces-shifted-robin", "pieces-friction", "pieces-friction-midpoint", "prox-diagonal",
        "pieces-listed-reversed"])
def test_non_scalar_fast_paths_skip_splitting_and_keep_ledger(monkeypatch, p1, make_bc, theta):
    import monoport.relations as rels

    phs = PortHamiltonian(n=2, b=1.0, p1=p1)
    bc = make_bc(bd_basis(phs))
    ops = discretize(phs, 32)
    u0 = np.zeros((33, 2))
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2)
    dt = 0.01
    dr_calls = []
    real_dr = rels._douglas_rachford

    def counted(*args):
        dr_calls.append(args)
        return real_dr(*args)

    monkeypatch.setattr(rels, "_douglas_rachford", counted)
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=1.0, dt=dt, theta=theta), ops)
    assert len(traj) == 101 and dr_calls == []

    e = traj.energies
    for k in range(100):
        a = (traj.states[k + 1] - traj.states[k]) / dt
        predicted = -dt * traj.boundary_dissipation[k + 1] - (theta - 0.5) * dt**2 * 2 * ops.energy(a)
        assert abs(e[k + 1] - e[k] - predicted) <= 1e-12 * e[0], k


def _h_weighted_energy(ops, w):
    """``(1/2) sum_j omega_j w_j^H H_j w_j``, restated from the grid density."""
    hw = np.einsum("jab,jb->ja", ops.hgrid, w)
    return 0.5 * float(np.sum(ops.omega * np.einsum("ja,ja->j", w.conj(), hw).real))


@pytest.mark.parametrize("phs, make_bc, theta, u0", [
    (PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]],
                     hamiltonian=np.array([[2.0, 0.3], [0.3, 1.0]])),
     lambda basis: bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), basis), 0.5,
     lambda xs: np.stack([np.exp(-8 * xs**2) * np.cos(3 * xs),
                          np.exp(-6 * xs**2) * np.sin(2 * xs)], axis=1)),
    (PortHamiltonian(n=1, b=1.0, p1=[[1.0]], hamiltonian=HAMILTONIAN_PROFILES["sine-well"]),
     lambda basis: bnd.from_V(0.0, basis), 1.0, lambda xs: bump(xs)[:, None]),
], ids=["wave-constant-density", "transport-sine-well"])
def test_non_identity_density_keeps_exact_ledger(phs, make_bc, theta, u0):
    """A Hamiltonian density other than the identity takes the ``H^{-1}``
    mass block, the ``hinv`` map back to the state and the ``hgrid``
    weight of the energy; the H-weighted identity holds on every step."""
    ops = discretize(phs, 64)
    assert not ops.identity_density
    xs = ops.grid.nodes
    dt = 0.01
    traj = simulate(Scenario(phs=phs, bc=make_bc(bd_basis(phs)), u0=u0(xs),
                             T=0.5, dt=dt, theta=theta), ops)
    e = [_h_weighted_energy(ops, w) for w in traj.states]
    assert np.abs(np.asarray(e) - traj.energies).max() <= 1e-14 * e[0]
    for k in range(len(traj) - 1):
        a = (traj.states[k + 1] - traj.states[k]) / dt
        predicted = -dt * traj.boundary_dissipation[k + 1] - (theta - 0.5) * dt**2 * 2 * _h_weighted_energy(ops, a)
        assert abs(e[k + 1] - e[k] - predicted) <= 1e-12 * e[0], k


@pytest.mark.parametrize("case", ["midpoint", "implicit-euler", "complex", "density"])
def test_identity_density_paths_are_bitwise_and_states_preallocated(case):
    """At identity density the energy skips the ``hgrid`` product and
    agrees bitwise with it, and so does its in-place float64 form at a
    constant density.  ``simulate`` writes every state into one array,
    each one bitwise the step of the one before.  ``step(w, s, out=buf)``
    returns ``buf``, holding the bits of ``step(w, s)``: at theta = 1/2
    and 1, on a complex run and at a non-identity density."""
    cfg = load_config(CONFIG_DIR / "wave_conservative.cfg")
    phs = PHS_DENSITY if case == "density" else cfg.build_phs()
    ops = discretize(phs, cfg.m)
    assert ops.identity_density == (case != "density")
    u0 = cfg.build_u0(ops.grid.nodes) * (1.0 + 0.5j if case == "complex" else 1.0)
    nsteps = 50
    scn = Scenario(phs=phs, bc=cfg.build_bc(bd_basis(phs)), u0=u0, T=nsteps * cfg.dt, dt=cfg.dt,
                   theta=1.0 if case == "implicit-euler" else cfg.theta)
    traj = simulate(scn, ops)

    states = traj.states
    assert states.shape == (nsteps + 1, ops.nnodes, phs.n)
    assert states.dtype == (np.complex128 if case == "complex" else np.float64)
    assert states.flags.c_contiguous and states.flags.owndata
    for w in states:
        assert ops.energy(w) == _h_weighted_energy(ops, w)

    run = replace(scn, dt=scn.T / nsteps)
    stepper, fresh = Stepper(run, ops), Stepper(run, ops)
    buf = np.empty_like(states[0])
    for k in range(nsteps):
        assert step(states[k], stepper, out=buf) is buf
        assert buf.tobytes() == states[k + 1].tobytes(), k
        assert step(states[k], fresh).tobytes() == states[k + 1].tobytes(), k
    with pytest.raises(ValueError, match="apart from the state"):
        step(states[0], stepper, out=states[0])


PHS3 = PortHamiltonian(n=3, b=1.0, p1=[[1.0, 0.3, 0.0], [0.3, -1.0, 0.2], [0.0, 0.2, 2.0]])


def _ledger_case(case):
    """``(phs, bc, m, u0 of the nodes, steps)`` of one run of the ledger test."""
    wave = lambda xs: np.stack([np.exp(-8 * xs**2) * np.cos(3 * xs), np.exp(-6 * xs**2) * np.sin(2 * xs)], axis=1)
    skew = lambda basis: bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), basis)
    return {
        "real-n1": (PHS1, bnd.from_V(0.0, BASIS1), 64, lambda xs: bump(xs).real[:, None], 40),
        "real-n2": (PHS2, skew(BASIS2), 64, wave, 100),
        "real-n3": (PHS3, bnd.from_V(0.5 * np.eye(3), bd_basis(PHS3)), 32,
                    lambda xs: np.stack([np.exp(-8 * xs**2), xs * np.exp(-6 * xs**2), np.cos(xs)], axis=1), 60),
        "complex": (PHS2, skew(BASIS2), 64, lambda xs: wave(xs) * (1.0 + 0.5j), 70),
        "density": (PHS_DENSITY, skew(bd_basis(PHS_DENSITY)), 64, wave, 70),
        "one-per-block": (PHS2, skew(BASIS2), 4096, wave, 3),
    }[case]


@pytest.mark.parametrize("case", ["real-n1", "real-n2", "real-n3", "complex", "density", "one-per-block"])
def test_block_ledger_keeps_the_bits_of_each_state(monkeypatch, case):
    """``simulate`` computes the energies once per block of consecutive
    states of at most ``LEDGER_BLOCK_BYTES`` (at least one state), and each
    recorded energy is bitwise ``ops.energy`` of its state alone: on real
    runs of one, two and three components, a complex run, a non-identity
    density, runs whose last block is partial (all but the last case) and
    states larger than a block (one state per block)."""
    from monoport.solver import LEDGER_BLOCK_BYTES, DiscreteOperators

    phs, bc, m, u0, nsteps = _ledger_case(case)
    ops = discretize(phs, m)
    blocks, energy = [], DiscreteOperators.energy
    monkeypatch.setattr(DiscreteOperators, "energy",
                        lambda self, states: blocks.append(len(states)) or energy(self, states))
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0(ops.grid.nodes), T=nsteps * 0.01, dt=0.01, theta=0.5), ops)
    monkeypatch.undo()
    assert traj.states.dtype == (np.complex128 if case == "complex" else np.float64)
    assert ops.identity_density == (case != "density")
    size = max(1, LEDGER_BLOCK_BYTES // traj.states[0].nbytes)
    assert (size == 1) == (case == "one-per-block")
    assert blocks == [size] * ((nsteps + 1) // size) + ([(nsteps + 1) % size] if (nsteps + 1) % size else [])
    assert (nsteps + 1) % size != 0 or size == 1
    alone = np.array([ops.energy(w) for w in traj.states])
    assert traj.energies.tobytes() == alone.tobytes()
    assert ops.energy(traj.states).tobytes() == alone.tobytes()


@pytest.mark.parametrize("path", [CONFIG_DIR.parent / "perfbench" / "configs" / "friction_dr.cfg",
                                  CONFIG_DIR / "wave_conservative.cfg"], ids=lambda p: p.stem)
def test_simulate_steps_and_solves_the_inclusion_once_per_step(monkeypatch, path):
    """A run of ``N`` steps calls ``solver.step`` and, from ``solve``,
    ``solver.solve_inclusion`` exactly ``N`` times each: the benchmark's
    traced runs count those two spans and check both counts against the
    step count."""
    import monoport.solver as solver

    cfg = load_config(path)
    phs = cfg.build_phs()
    ops = discretize(phs, 32)
    calls = {"step": 0, "solve_inclusion": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(solver, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    nsteps = 20
    traj = simulate(Scenario(phs=phs, bc=cfg.build_bc(bd_basis(phs)), u0=cfg.build_u0(ops.grid.nodes),
                             T=nsteps * cfg.dt, dt=cfg.dt, theta=cfg.theta), ops)
    assert len(traj) == nsteps + 1
    assert calls == {"step": nsteps, "solve_inclusion": nsteps}


def test_simulate_refuses_a_ledger_that_is_not_finite(tmp_path):
    """Neumann data of 3e150, below the readers' bound of 2^500, against a
    density of 1e10 gives the first step an energy of 7.8e306 and an
    infinite dissipation: ``simulate`` raises ``ValueError`` naming that
    step, its time and the values, without a numpy warning (an error in
    every test)."""
    path = tmp_path / "overflow.cfg"
    path.write_text("scenario = gaussian\n[phs]\nn = 2\nb = 1.5\nP1 = 1 0.4; 0.4 1\nH = 1e10 0; 0 1e10\n"
                    "[bc]\nkind = neumann\nvalue = 3e150\n[grid]\nm = 16\ndt = 0.01\nT = 0.1\n", encoding="utf-8")
    cfg = load_config(path)
    phs = cfg.build_phs()
    ops = discretize(phs, cfg.m)
    scn = Scenario(phs=phs, bc=cfg.build_bc(bd_basis(phs)), u0=cfg.build_u0(ops.grid.nodes), T=cfg.T, dt=cfg.dt)
    with pytest.raises(ValueError, match=re.escape("step 0 (t = 0): the energy ledger is not finite "
                                                   "(E = 7.77535e+306 at t = 0.01, boundary dissipation -inf)")):
        simulate(scn, ops)


def _ledger_defects(traj, ops, theta, dt):
    """Per-step defect of the exact energy identity of the module docstring."""
    out = []
    for k in range(len(traj) - 1):
        a = (traj.states[k + 1] - traj.states[k]) / dt
        predicted = -dt * traj.boundary_dissipation[k + 1] - (theta - 0.5) * dt**2 * 2 * ops.energy(a)
        out.append(abs(traj.energies[k + 1] - traj.energies[k] - predicted))
    return np.asarray(out)


@pytest.mark.parametrize("ports", [
    [(0, ("friction", 0.5)), (1, ("robin", 1.0))],
    [(0, ("friction", 0.5)), (1, ("friction", 0.3))],
], ids=["friction-robin", "friction-friction"])
def test_midpoint_runs_on_friction_with_exact_ledger(ports):
    """Friction ports at ``theta = 1/2`` on a coupled ``P1``: each step is
    one resolvent solve plus an extrapolation, exact on the affine
    pieces, so the energy identity holds for the set-valued relation
    too, to roundoff, and the pairing never supplies energy."""
    phs = PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]])
    bc = bnd.multiport(ports, bd_basis(phs))
    m, dt = 256, 0.01
    ops = discretize(phs, m)
    u0 = np.zeros((m + 1, 2))
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2)
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=1.0, dt=dt, theta=0.5), ops)
    e0 = traj.energies[0]
    assert len(traj) == 101
    assert _ledger_defects(traj, ops, 0.5, dt).max() <= 1e-12 * e0
    assert traj.boundary_dissipation.min() >= -1e-12 * e0
    assert dt * traj.boundary_dissipation[1:].sum() > 0.1 * e0


def test_fresh_and_chained_steppers_take_the_same_step(rng):
    """At ``theta = 1/2`` on an affine relation the step carries nothing
    but the warm start, which the affine solve does not use: a fresh
    ``Stepper`` maps every recorded state to the next one bitwise."""
    ops = discretize(PHS2, 32)
    xs = ops.grid.nodes
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2, value=0.3)
    assert bc.port_relation.affine
    u0 = np.stack([np.exp(-8 * xs**2), xs * np.exp(-6 * xs**2)], axis=1)
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.2, dt=0.01, theta=0.5)
    traj = simulate(scn, ops)
    for k in range(len(traj) - 1):
        fresh = Stepper(replace(scn, dt=scn.T / (len(traj) - 1)), ops)
        assert step(traj.states[k], fresh).tobytes() == traj.states[k + 1].tobytes(), k
        assert fresh.dissipation == traj.boundary_dissipation[k + 1], k


@pytest.mark.parametrize("parts", [
    [(0, ("robin", 1.0)), (1, ("dirichlet", 0.0))],
    [(1, ("dirichlet", 0.0)), (0, ("robin", 1.0))],
], ids=["port-order", "listed-reversed"])
def test_midpoint_runs_on_linear_multiport(parts):
    """A multiport of linear ports is one linear graph, and the midpoint
    rule keeps the exact ledger on it, in either listing order."""
    bc = bnd.multiport(parts, BASIS2)
    assert bc.port_relation.affine
    ops = discretize(PHS2, 32)
    u0 = np.zeros((33, 2))
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2)
    dt = 0.01
    traj = simulate(Scenario(phs=PHS2, bc=bc, u0=u0, T=1.0, dt=dt, theta=0.5), ops)
    assert len(traj) == 101
    assert _ledger_defects(traj, ops, 0.5, dt).max() <= 1e-12 * traj.energies[0]
    assert dt * traj.boundary_dissipation[1:].sum() > 1e-3


def test_linear_multiport_on_coupled_p1_takes_one_linear_solve(monkeypatch):
    """Robin next to Dirichlet on a coupled ``P1``: the boundary response
    is not block diagonal, and the relation is one linear graph, so no
    step falls back to Douglas-Rachford splitting."""
    import monoport.relations as rels

    phs = PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]])
    bc = bnd.multiport([(0, ("robin", 1.0)), (1, ("dirichlet", 0.0))], bd_basis(phs))
    ops = discretize(phs, 32)
    u0 = np.zeros((33, 2))
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2)
    dt = 0.01
    dr_calls = []
    real_dr = rels._douglas_rachford

    def counted(*args):
        dr_calls.append(args)
        return real_dr(*args)

    monkeypatch.setattr(rels, "_douglas_rachford", counted)
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=1.0, dt=dt, theta=1.0), ops)
    assert len(traj) == 101 and dr_calls == []
    assert _ledger_defects(traj, ops, 1.0, dt).max() <= 1e-12 * traj.energies[0]


def test_run_plans_its_inclusion_once_and_solves_it_every_step(monkeypatch):
    """Friction next to Robin on a coupled ``P1``: the run builds one
    inclusion plan, and each of its 100 steps applies it through
    ``solver.solve_inclusion``."""
    import monoport.solver as solver

    phs = PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]])
    bc = bnd.multiport([(0, ("friction", 0.5)), (1, ("robin", 1.0))], bd_basis(phs))
    ops = discretize(phs, 32)
    u0 = np.zeros((33, 2))
    u0[:, 0] = np.exp(-8 * ops.grid.nodes**2)
    plans, solves = [], []
    real_plan, real_solve = solver.plan_inclusion, solver.solve_inclusion

    def counted_plan(phi, rel):
        plans.append(rel)
        return real_plan(phi, rel)

    def counted_solve(plan, g, x0=None):
        solves.append(plan)
        return real_solve(plan, g, x0)

    monkeypatch.setattr(solver, "plan_inclusion", counted_plan)
    monkeypatch.setattr(solver, "solve_inclusion", counted_solve)
    traj = simulate(Scenario(phs=phs, bc=bc, u0=u0, T=1.0, dt=0.01, theta=1.0), ops)
    assert len(traj) == 101
    assert len(plans) == 1 and len(solves) == 100
    assert all(plan is solves[0] for plan in solves)


def test_transport_pulse_matches_characteristics():
    m = 128
    ops = discretize(PHS1, m)
    xs = ops.grid.nodes
    scn = Scenario(phs=PHS1, bc=bnd.from_V(0.0, BASIS1), u0=bump(xs)[:, None],
                   T=1.0, dt=2.0 / m, theta=1.0)
    traj = simulate(scn, ops)
    exact = oracle_transport(bump, 1.0, xs, 1.0)
    assert np.abs(traj.states[-1][:, 0] - exact).max() < 0.15


def test_step_failure_names_its_step_and_keeps_residual(monkeypatch):
    """A failed inclusion solve surfaces from ``simulate`` with the step
    and time it happened at, and with the solve's last residual."""
    import monoport.solver as solver
    from monoport.relations import NonconvergenceError

    calls = []
    real_solve = solver.solve_inclusion

    def third_fails(plan, g, x0=None):
        calls.append(g)
        if len(calls) == 3:
            raise NonconvergenceError("no convergence", residual=0.25)
        return real_solve(plan, g, x0)

    monkeypatch.setattr(solver, "solve_inclusion", third_fails)
    bc = bnd.multiport([(0, ("friction", 0.5))], BASIS1)
    scn = Scenario(phs=PHS1, bc=bc, u0=bump(discretize(PHS1, 32).grid.nodes)[:, None],
                   T=0.25, dt=0.05, theta=0.5)
    with pytest.raises(NonconvergenceError) as err:
        simulate(scn)
    assert str(err.value).startswith("step 2 (t = 0.1): no convergence")
    assert err.value.residual == 0.25


def test_scenario_validation(rng):
    u0 = np.zeros((33, 1))
    bc = bnd.neumann(0.0, BASIS1)
    with pytest.raises(ValueError, match="time step"):
        Scenario(phs=PHS1, bc=bc, u0=u0, T=1.0, dt=0.0)
    with pytest.raises(ValueError, match="final time"):
        Scenario(phs=PHS1, bc=bc, u0=u0, T=-1.0, dt=0.1)
    # an infinite T has no step count; an infinite dt would be one step of length T
    with pytest.raises(ValueError, match="final time must be positive and finite"):
        Scenario(phs=PHS1, bc=bc, u0=u0, T=np.inf, dt=0.1)
    with pytest.raises(ValueError, match="time step must be positive and finite"):
        Scenario(phs=PHS1, bc=bc, u0=u0, T=1.0, dt=np.inf)
    with pytest.raises(ValueError, match="theta"):
        Scenario(phs=PHS1, bc=bc, u0=u0, T=1.0, dt=0.1, theta=0.25)


@pytest.mark.parametrize("other", [
    dict(b=2.0, p1=[[1.0, 0.7], [0.7, 1.5]]),
    dict(b=2.0),
    dict(p1=[[1.0, 0.7], [0.7, 1.5]]),
    dict(p1=[[1.0, 0.0], [0.0, -1.0]]),
    dict(n=1, p1=[[1.0]]),
], ids=["b-and-p1", "b", "p1", "p1-eigenvectors", "ports"])
def test_runs_refuse_a_condition_on_another_systems_basis(monkeypatch, other):
    """Every run refuses, before factoring, a condition built on the trace
    basis of another system (a ``P1`` with the same eigenvalues and other
    eigenvectors and another port count included); a scenario holds one.
    Without the check, Robin built on the basis of a b = 2 system with a
    coupled ``P1`` ran 10 steps on the b = 1 wave system and reported
    E(T) = 0.2198088683 against 0.2198088637, and ``resolve_A`` (m = 32,
    mu = 0.1) solved it to a residual of 1.6e-16 with ``u[0] = [0.003461,
    -0.001095]`` against ``[0.003425, -0.000377]`` on the system's own."""
    phs = PortHamiltonian(**(dict(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]]) | other))
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]])[: phs.n, : phs.n], bd_basis(phs))
    ops = discretize(PHS2, 32)
    u0 = np.stack([np.exp(-8 * ops.grid.nodes**2), np.zeros(33)], axis=1)
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.1, dt=0.01)
    _refuse_before_factoring(monkeypatch)
    for run in (lambda: Stepper(scn, ops), lambda: simulate(scn, ops), lambda: simulate(scn),
                lambda: resolve_A(ops, bc, 0.1, (u0, np.zeros_like(u0)))):
        with pytest.raises(ValueError, match="^boundary condition is built on the trace basis of another system$"):
            run()


def test_scenario_keeps_a_float64_u0_and_runs_it_as_its_complex_copy():
    """A float64 ``u0`` stays float64 in the scenario, not copied, and a
    run from it has the bits of a run from its complex-typed copy."""
    xs = discretize(PHS2, 32).grid.nodes
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2)
    scns = [Scenario(phs=PHS2, bc=bc, u0=w, T=0.1, dt=0.01, theta=0.5) for w in (u0, u0.astype(complex))]
    assert scns[0].u0 is u0 and scns[1].u0.dtype == np.complex128
    runs = [simulate(scn) for scn in scns]
    assert runs[0].states.tobytes() == runs[1].states.tobytes()
    assert runs[0].energies.tobytes() == runs[1].energies.tobytes()


def test_scenario_takes_a_condition_on_an_equal_systems_basis():
    """The basis of an equal system in another object is bitwise the
    system's own, so the condition built on it passes and runs the same."""
    xs = discretize(PHS2, 32).grid.nodes
    u0 = np.stack([np.exp(-8 * xs**2), np.zeros_like(xs)], axis=1)
    m = np.array([[1.0, 0.2], [0.2, 0.5]])
    runs = [simulate(Scenario(phs=PHS2, bc=bnd.robin(m, basis), u0=u0, T=0.1, dt=0.01))
            for basis in (BASIS2, bd_basis(PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]])))]
    assert runs[0].states.tobytes() == runs[1].states.tobytes()


def test_simulate_checks_grid_agreement():
    scn = Scenario(phs=PHS1, bc=bnd.neumann(0.0, BASIS1),
                   u0=np.zeros((33, 1)), T=0.1, dt=0.05)
    with pytest.raises(ValueError, match="grid"):
        simulate(scn, discretize(PHS1, 64))


# -------------------------------------------------------------- oracle


def test_oracle_transport_shifts_and_clips():
    xs = np.linspace(-1.0, 1.0, 9)
    vals = oracle_transport(bump, 0.25, xs, 1.0)
    assert np.allclose(vals, np.where(xs - 0.25 >= -1.0, bump(xs - 0.25), 0.0))
    # characteristic entering through the inflow end carries zero data
    assert oracle_transport(lambda z: np.ones_like(np.asarray(z)), 1.5, -0.8, 1.0) == 0.0
    scalar = oracle_transport(bump, 0.0, -0.35, 1.0)
    assert isinstance(scalar, complex) and scalar == pytest.approx(1.0)


# ------------------------------------------------ real and complex arithmetic

SHIPPED_CONFIGS = sorted(CONFIG_DIR.glob("*.cfg")) + sorted((CONFIG_DIR.parent / "perfbench" / "configs").glob("*.cfg"))


def _wave_parts(xs):
    """Two real initial fields on the wave system."""
    a = np.stack([np.exp(-8 * xs**2) * np.cos(3 * xs), np.exp(-6 * xs**2) * np.sin(2 * xs)], axis=1)
    b = np.stack([np.exp(-5 * xs**2), xs * np.exp(-4 * xs**2)], axis=1)
    return a, b


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("make_bc", [
    lambda basis: bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), basis),
    lambda basis: bnd.from_V(np.array([[0.0, 0.5], [-0.5, 0.0]]), basis),
    lambda basis: bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), basis),
], ids=["robin", "contraction", "unitary"])
def test_complex_run_is_the_real_runs_of_its_parts(make_bc, theta):
    """On a real linear relation the complex run of ``a + i b`` (complex
    arithmetic throughout) is the real run of ``a`` plus ``i`` times the
    real run of ``b`` (float64 throughout), and all three keep the ledger."""
    ops = discretize(PHS2, 64)
    bc = make_bc(BASIS2)
    a, b = _wave_parts(ops.grid.nodes)
    dt = 0.01
    runs = [simulate(Scenario(phs=PHS2, bc=bc, u0=u0, T=0.5, dt=dt, theta=theta), ops)
            for u0 in (a, b, a + 1j * b)]
    assert [r.states.dtype for r in runs] == [np.float64, np.float64, np.complex128]
    combined = runs[0].states + 1j * runs[1].states
    assert np.abs(runs[2].states - combined).max() <= 1e-13 * np.abs(combined).max()
    for traj in runs:
        assert _ledger_defects(traj, ops, theta, dt).max() <= 1e-12 * traj.energies[0]


@pytest.mark.parametrize("path, theta", [
    *[(p, None) for p in SHIPPED_CONFIGS if p.name != "robin_wrong_sign.cfg"],
    (CONFIG_DIR / "friction.cfg", 0.5),
], ids=lambda v: getattr(v, "stem", str(v)))
def test_shipped_configs_run_in_float64(path, theta):
    """Every certified shipped config has real data, so its run factors,
    solves and stores in float64; friction at ``theta = 1/2`` too."""
    cfg = load_config(path)
    phs = cfg.build_phs()
    ops = discretize(phs, cfg.m)
    theta = cfg.theta if theta is None else theta
    scn = Scenario(phs=phs, bc=cfg.build_bc(bd_basis(phs)), u0=cfg.build_u0(ops.grid.nodes),
                   T=5 * cfg.dt, dt=cfg.dt, theta=theta)
    stepper = Stepper(scn, ops)
    core = stepper._core
    assert core.amat.dtype == core.lift.dtype == core.phi.dtype == np.float64
    traj = simulate(scn, ops)
    assert traj.states.dtype == np.float64
    assert step(traj.states[0], stepper).dtype == np.float64
    assert _ledger_defects(traj, ops, theta, cfg.dt).max() <= 1e-12 * traj.energies[0]


#: The plan of each shipped config's inclusion, with the plans of its
#: blocks (``robin_wrong_sign`` is refused before any plan).
SHIPPED_PLANS = {
    "friction": ["_BlockPlan", "_ThresholdPlan", "_AffinePlan"],
    "friction_dr": ["_PiecePlan"],
    **{name: ["_AffinePlan"] for name in ("transport", "wave_conservative", "wave_damped",
                                          "wave_damped_quick", "wave_damped_short")},
}


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
def test_each_shipped_config_takes_its_plan(path):
    """Which inclusion plan each shipped config's run takes, built the way
    every command builds it, so that a dispatch change fails here and every
    plan a run reaches stays named."""
    from monoport import cli

    ops, scn = cli._build(load_config(path))
    assert sorted([*SHIPPED_PLANS, "robin_wrong_sign"]) == sorted(p.stem for p in SHIPPED_CONFIGS)
    if path.stem == "robin_wrong_sign":
        with pytest.raises(ValueError, match="lacks a maximal-monotonicity certificate"):
            Stepper(scn, ops)
        return
    plan = Stepper(scn, ops)._core._plan
    assert [type(p).__name__ for p in [plan, *(b for _, b in getattr(plan, "blocks", []))]] == SHIPPED_PLANS[path.stem]


#: Two friction ports on a coupled ``P1`` with a skew complex ``P0``, at
#: ``theta = 1/2`` (``friction-complex`` of ``scripts/output_digests.py``):
#: a complex run, each inclusion solved by Douglas–Rachford splitting.
FRICTION_COMPLEX_EDITS = (("P1 = 0 1; 1 0", "P1 = 1 0.7; 0.7 1.5\nP0 = 0 0.5j; 0.5j 0"),
                          ("port.1 = dirichlet 0", "port.1 = friction 0.3"), ("theta = 1.0", "theta = 0.5"))


@pytest.mark.parametrize("name", [*SHIPPED_PLANS, "friction-complex"])
def test_solve_meets_its_rows_and_relation_on_every_shipped_plan(tmp_path, name):
    """On 25 states spread over each shipped config's run, a
    ``_CoreSolver.solve`` leaves a residual (bulk rows and relation row,
    :meth:`_CoreSolver.residual`) of at most 1e-12; on the complex
    friction data, where the plan is splitting, at most its tolerance.
    The friction runs reach a nonzero effort (a slip) on some state."""
    from monoport import cli
    from monoport.relations import TOL_ITERATIVE

    if name == "friction-complex":
        text = (CONFIG_DIR / "friction.cfg").read_text(encoding="utf-8")
        for old, new in FRICTION_COMPLEX_EDITS:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "friction-complex.cfg"
        path.write_text(text, encoding="utf-8")
    else:
        path = next(p for p in SHIPPED_CONFIGS if p.stem == name)
    ops, scn = cli._build(load_config(path))
    core = Stepper(scn, ops)._core
    plans = [core._plan, *(b for _, b in getattr(core._plan, "blocks", []))]
    if name == "friction-complex":
        assert not core.real and [type(p).__name__ for p in plans] == ["_SplittingPlan"]
        bound = TOL_ITERATIVE
    else:
        assert [type(p).__name__ for p in plans] == SHIPPED_PLANS[name]
        bound = 1e-12
    states = simulate(scn, ops).states
    efforts = []
    for k in np.linspace(0, len(states) - 1, 25).astype(int):
        r_flat = states[k].ravel()
        p, s, e, fhat = core.solve(r_flat)
        assert core.residual(p, s, r_flat, e, fhat) <= bound, k
        efforts.append(e)
    if name in ("friction_dr", "friction-complex"):
        assert np.abs(efforts).max() > 0.1


def _plan_arrays(plan):
    """Every array of an inclusion plan: its own, its blocks' and its base's,
    and those of a piece plan's all-stick and all-slip pieces."""
    from monoport import relations as rels

    for value in vars(plan).values():
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, rels._Plan):
            yield from _plan_arrays(value)
    for _, block in getattr(plan, "blocks", []):
        yield from _plan_arrays(block)
    if hasattr(plan, "friction"):
        for s in (0, 1):
            yield from _plan_arrays(plan.piece((s,) * len(plan.friction)))


@pytest.mark.parametrize("path", [p for p in SHIPPED_CONFIGS if p.stem != "robin_wrong_sign"],
                         ids=lambda p: p.stem)
def test_real_run_plans_and_solves_in_float64(path):
    """A real run's inclusion plan holds only float64 arrays, and a solve
    returns float64 ``p``, slack, effort ``e`` and flow ``fhat``: the step
    never leaves float64."""
    from monoport import cli

    ops, scn = cli._build(load_config(path))
    core = Stepper(scn, ops)._core
    assert core.real
    arrays = list(_plan_arrays(core._plan))
    assert arrays and all(a.dtype == np.float64 for a in arrays)
    assert core.endpoint_map.dtype == core.b_e.dtype == np.float64
    p, s, e, fhat = core.solve(scn.u0.real.ravel())
    assert [a.dtype for a in (p, s, e, fhat)] == [np.float64] * 4


@pytest.mark.parametrize("n, m", [(1, 8), (2, 8), (2, 256), (3, 16)])
def test_endpoint_blocks_reproduce_the_endpoint_rows(n, m):
    """The gather index reads the ``2n`` endpoint rows and the ``3n``
    interior columns at each end that the endpoint rows reach at sbp42,
    and the one map on it gives ``[G_rho; B_rho]`` applied to the endpoint
    rows of ``r - amat p`` (``p`` zero at the endpoints), where
    ``[G_rho; B_rho]`` are the map's columns of the endpoint rows."""
    rng = np.random.default_rng(n * m)
    a = rng.normal(size=(n, n))
    phs = PortHamiltonian(n=n, b=1.0, p1=a + a.T + 2 * n * np.eye(n), p0=(a - a.T) / 2.0)
    bc = bnd.robin(np.eye(n), bd_basis(phs))
    ops = discretize(phs, m)
    core = _CoreSolver(ops, bc, 0.01, np.zeros(1))
    nn, nint = ops.nnodes, core.nint
    ends = np.r_[0:n, nn * n - n: nn * n]
    interior = np.r_[0:3 * n, nint - 3 * n: nint]
    assert np.array_equal(core.gather, np.r_[ends, n + interior])
    for _ in range(3):
        v = rng.normal(size=nn * n)
        rho = v[ends] - core.amat[ends][:, n:-n] @ v[n:-n]
        scale = np.abs(core.endpoint_map).max() * np.abs(core.amat[ends]).sum(axis=1).max() * np.abs(v).max()
        assert np.abs(core.endpoint_map @ v[core.gather] - core.endpoint_map[:, : 2 * n] @ rho).max() <= 1e-13 * scale


def test_complex_relation_keeps_complex_arithmetic():
    """A complex relation with real initial data runs in complex
    arithmetic throughout, factor included, as before real runs existed."""
    ops = discretize(PHS2, 64)
    bc = bnd.from_V(np.array([[0.0, 1j], [1j, 0.0]]), BASIS2)
    assert not bc.port_relation.real
    u0, _ = _wave_parts(ops.grid.nodes)
    dt = 0.01
    scn = Scenario(phs=PHS2, bc=bc, u0=u0, T=0.5, dt=dt, theta=0.5)
    core = Stepper(scn, ops)._core
    assert not core.real and core.amat.dtype == core.lift.dtype == np.complex128
    traj = simulate(scn, ops)
    assert traj.states.dtype == np.complex128
    assert _ledger_defects(traj, ops, 0.5, dt).max() <= 1e-12 * traj.energies[0]


def test_complex_value_into_float64_states_fails_the_suite():
    """The suite turns every warning into an error (``pyproject.toml``), so a
    complex state stored into a real run's float64 ``states`` array fails
    a test instead of silently dropping its imaginary part."""
    states = np.empty((2, 3))
    with pytest.raises(ComplexWarning):
        states[1] = np.array([1.0, 1e-3j, 0.0])


def _real_robin_run(theta):
    """A real Robin run on ``PHS2`` at m = 64 and the fields ``f``, ``g``
    of real values in complex type."""
    ops = discretize(PHS2, 64)
    xs = ops.grid.nodes
    bc = bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), BASIS2)
    f = np.stack([np.cos(xs), np.cos(2 * xs)], axis=1).astype(complex)
    g = np.stack([np.sin(xs), np.sin(0.5 * xs)], axis=1).astype(complex)
    scn = Scenario(phs=PHS2, bc=bc, u0=np.zeros((65, 2)), T=0.8, dt=0.8, theta=theta)
    return ops, bc, scn, f, g


def test_complex_typed_right_hand_side_takes_the_real_factor():
    """A complex-typed right-hand side with real values is solved on the
    real factor and matches the monolithic solve."""
    ops, bc, _, f, g = _real_robin_run(1.0)
    res = resolve_A(ops, bc, 0.8, (f, g))
    assert res.u.dtype == res.v.dtype == np.float64
    p_mono = _monolithic_resolve(ops, bc, 0.8, (f + g).ravel())
    assert np.abs((res.u + res.v).ravel() - p_mono).max() <= 1e-12 * np.abs(p_mono).max()


@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_real_run_steps_only_real_states(theta):
    """A real run steps in float64 only: it refuses a state with a nonzero
    imaginary part, and steps a complex-typed state whose imaginary part
    is zero as its real part, to the bit."""
    ops, _, scn, f, g = _real_robin_run(theta)
    stepper = Stepper(scn, ops)
    assert stepper._core.real
    with pytest.raises(ValueError, match="build the Stepper from this state for a complex run"):
        step(f + 1j * g, stepper)
    y = step((f + g).astype(complex), stepper)
    assert y.dtype == np.float64
    assert _bitwise(y, step((f + g).real, Stepper(scn, ops)))
    with pytest.raises(ValueError, match="dtype float64"):
        step(f + g, stepper, out=np.empty((65, 2), dtype=complex))


def test_complex_run_steps_any_state():
    """A run built from a complex state is complex: it matches the
    monolithic solve on that state, and steps a float64 state as the
    complex-typed one of the same values."""
    ops, bc, scn, f, g = _real_robin_run(1.0)
    w = f + 1j * g
    stepper = Stepper(replace(scn, u0=w), ops)
    assert not stepper._core.real
    y = step(w, stepper)
    assert y.dtype == np.complex128
    p_mono = _monolithic_resolve(ops, bc, 0.8, w.ravel())
    assert np.abs(y.ravel() - p_mono).max() <= 1e-12 * np.abs(p_mono).max()
    y_real = step((f + g).real, stepper)
    assert _bitwise(y_real, step(f + g, stepper))
    p_mono = _monolithic_resolve(ops, bc, 0.8, (f + g).ravel())
    assert np.abs(y_real.ravel() - p_mono).max() <= 1e-12 * np.abs(p_mono).max()


# ------------------------------------------------- interior band factor

PHS_DENSITY = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]],
                              hamiltonian=np.array([[2.0, 0.3], [0.3, 1.0]]))


def _refactor(core):
    """``gbtrf`` of the interior block again, in LAPACK band storage: the
    full-width factor that the solver keeps only in compact form."""
    kl, ku = core.kl, core.ku
    a_int = core.amat[core.n:-core.n, core.n:-core.n].tocoo()
    ab = np.zeros((2 * kl + ku + 1, a_int.shape[0]), dtype=float if core.real else complex, order="F")
    ab[kl + ku + a_int.row - a_int.col, a_int.col] = a_int.data
    lu, piv, info = get_lapack_funcs("gbtrf", (ab,))(ab, kl, ku)
    assert info == 0
    return lu, piv


def _scaled(lu, kl, ku):
    """``lu`` with every column of its ``U`` divided by its pivot and the
    diagonal set to exactly 1, and the pivots: ``U = U'' D``."""
    pivots = lu[kl + ku].copy()
    scaled = lu.copy(order="F")
    scaled[: kl + ku + 1] /= pivots
    scaled[kl + ku] = 1.0
    return scaled, pivots


def _gbtrs_reference(core, r):
    """LAPACK ``gbtrs`` on the refactored block with its ``U`` columns
    divided by their pivots, then one division by the pivots."""
    lu, piv = _refactor(core)
    scaled, pivots = _scaled(lu, core.kl, core.ku)
    x = get_lapack_funcs("gbtrs", (scaled,))(scaled, core.kl, core.ku, r, piv)[0]
    return x / (pivots if x.ndim == 1 else pivots[:, None])


def _band_solve(core, r):
    """The solver's whole band solve of ``r``, on a copy."""
    return core._sweep(np.array(r, dtype=core.dtype, order="F"), 0, core.nint)


def _bitwise(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_lift_cut(lift, full):
    """Every part of ``lift`` lies within ``2^-60`` of its column's largest
    part of the whole solve ``full``, and every part it keeps is at or
    above that cut."""
    assert lift.dtype == full.dtype and lift.shape == full.shape
    parts = (lambda a: (a,)) if lift.dtype == np.float64 else (lambda a: (a.real, a.imag))
    cut = 2.0 ** -60 * np.max([np.abs(part).max(axis=0) for part in parts(full)], axis=0)
    for kept, whole in zip(parts(lift), parts(full)):
        assert np.all(np.abs(kept - whole) <= cut)
        assert np.all((kept == 0) | (np.abs(kept) >= cut))


#: (cells, mu / h_x): 0.25 needs no row swap (J = 0); at 4 the wave block
#: swaps in its first columns only; at 50 it swaps throughout (J ~ N).
BLOCKS = {"m32": (32, 4.8), "no-swaps": (256, 0.25), "head-swaps": (256, 4.0),
          "pivots-throughout": (256, 50.0)}


@pytest.mark.parametrize("block", list(BLOCKS))
@pytest.mark.parametrize("phs, v, real", [
    (PHS2, [[0.0, 1.0], [-1.0, 0.0]], True),
    (PHS2, [[0.0, 1j], [1j, 0.0]], False),
    (PHS_DENSITY, [[0.0, 1.0], [-1.0, 0.0]], True),
], ids=["real", "complex", "density"])
def test_band_factor_solves_the_interior_block(rng, phs, v, real, block):
    """The band LU of ``amat[n:-n, n:-n]`` solves it like a dense solve,
    for a real and a complex factor and the ``H^{-1}`` mass block of a
    non-identity density, each on right-hand sides of its own dtype; the
    band widths come from the SBP42 stencil: 2 nodes of 2 components.

    The solve (head, then the ``tbsv`` sweeps of the compact factor, then
    one division by the pivots) is bitwise ``gbtrs`` on the ``gbtrf``
    factor with its ``U`` columns divided by their pivots and a diagonal of
    exact ones, followed by that division, right-hand sides with exact
    signed zeros included, with or without row swaps.  The compact factor
    is that factor's ``L`` from column ``J`` and its scaled ``U``, with
    exact unit diagonals: ``ku`` superdiagonals from column ``C`` on, all
    ``kl + ku`` before, and the tail's couplings to the head in the ``ku``
    columns from ``C``; the kept pivots are ``gbtrf``'s.  The lift is that
    solve of the endpoint columns, cut at ``2^-60`` of each column's
    largest part."""
    m, mu_h = BLOCKS[block]
    ops = discretize(phs, m)
    core = _CoreSolver(ops, bnd.from_V(np.array(v), bd_basis(phs)), mu_h * ops.grid.h_x, 0.0)
    assert core.real == real
    kl, ku, j, c = core.kl, core.ku, core._j, core._c
    assert (kl, ku) == (5, 5)
    lu, piv = _refactor(core)
    nint = lu.shape[1]
    assert np.array_equal(piv[j:], np.arange(j, nint))
    assert j == 0 or piv[j - 1] != j - 1
    assert not lu[:kl, c:].any() and (c == 0 or lu[:kl, c - 1].any())
    assert core._lower.dtype == core._upper.dtype == lu.dtype == (np.float64 if real else np.complex128)
    assert _bitwise(core._pivots, lu[kl + ku])
    scaled, _ = _scaled(lu, kl, ku)
    assert _bitwise(core._lower[1:], np.asfortranarray(lu[kl + ku + 1:, j:]))
    assert _bitwise(core._upper, np.asfortranarray(scaled[kl: kl + ku + 1, c:]))
    head_u = core._upper_head
    assert head_u.shape == (kl + ku + 1, min(c + ku, nint) if c else 0)
    assert _bitwise(head_u[:, :c], np.asfortranarray(scaled[: kl + ku + 1, :c]))
    for i in range(c, head_u.shape[1]):
        assert _bitwise(head_u[: kl + ku + c - i, i], scaled[: kl + ku + c - i, i])
    one = np.ones(1, dtype=lu.dtype)
    for diagonal in (core._upper[ku], head_u[kl + ku]):
        assert _bitwise(diagonal, np.repeat(one, diagonal.size))

    a_int = core.amat[2:-2, 2:-2].toarray()
    r = rng.normal(size=nint) + (0.0 if real else 1j * rng.normal(size=nint))
    x = _band_solve(core, r)
    want = np.linalg.solve(a_int, r)
    assert x.dtype == want.dtype
    assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
    ends = np.r_[0:2, 2 * ops.nnodes - 2: 2 * ops.nnodes]
    lift_rhs = core.amat[2:-2][:, ends].toarray()
    lift = np.linalg.solve(a_int, lift_rhs)
    assert np.abs(core.lift - lift).max() <= 1e-13 * np.abs(lift).max()

    signed_zeros = r.copy()
    signed_zeros[::3] = 0.0
    signed_zeros[1::3] = -0.0
    signed_zeros[: j + kl] = -0.0
    signed_zeros[-1] = 1.0
    for rhs in (r, signed_zeros, np.full(nint, -0.0), lift_rhs):
        assert _bitwise(_band_solve(core, rhs), _gbtrs_reference(core, rhs))
    _assert_lift_cut(core.lift, _gbtrs_reference(core, lift_rhs))


def test_band_factor_swaps_sit_in_a_head():
    """On the wave block the row swaps of ``gbtrf`` stop after a short
    prefix at moderate ``mu / h_x`` and run through the block at large
    ``mu / h_x``; without any, the solve has no head."""
    bc = bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), BASIS2)
    ops = discretize(PHS2, 256)
    heads = {name: _CoreSolver(ops, bc, BLOCKS[name][1] * ops.grid.h_x, 0.0)._j
             for name in ("no-swaps", "head-swaps", "pivots-throughout")}
    assert heads["no-swaps"] == 0
    assert 0 < heads["head-swaps"] <= 16
    assert heads["pivots-throughout"] >= 500


def test_singular_interior_block_raises():
    """A zero column in the interior block is a zero pivot of the band LU."""
    ops = discretize(PHS2, 32)
    g = ops.Gfull.tolil()
    g[:, 10] = 0.0
    g[10, 10] = -2.0  # amat = 1 + 0.5 Gfull then has a zero column 10
    bc = bnd.from_V(np.array([[0.0, 1.0], [-1.0, 0.0]]), BASIS2)
    with pytest.raises(RuntimeError, match="interior block is exactly singular: zero pivot"):
        _CoreSolver(replace(ops, Gfull=g.tocsr()), bc, 0.5, 0.0)


def test_importing_the_cli_leaves_sparse_linalg_unloaded():
    """The band factor needs no ``scipy.sparse.linalg``; only ``verify``'s
    independent monolithic solve imports it, on first use.  A fresh
    process checks that nothing on the import path brings it back."""
    src = str(Path(bnd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = "import sys, monoport.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse.linalg')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True, check=True)
    assert out.stdout.strip() == "[]"
