"""End-to-end acceptance checks, one test per advertised guarantee.

Each test prints a single ``ACCEPTANCE <k> PASS/FAIL`` line (visible with
``pytest -s`` and in captured output on failure) and enforces both the
stated tolerance and the stated runtime budget.
"""

import time

import numpy as np
import pytest

from monoport import boundary as bnd
from monoport import cli
from monoport.phs import PortHamiltonian, bd_basis, ddot_matrix
from monoport.relations import (
    LinearGraph,
    SeparableProx,
    check_maximal,
    graph_residual,
    principal_section,
    resolvent,
    resolvent_value,
    yosida,
)
from monoport.solver import Scenario, discretize, oracle_transport, resolve_A, simulate
from monoport.spaces import InnerProductSpace
from monoport.verify import _monolithic_resolve

from conftest import (
    rand_complex,
    rand_contraction,
    rand_herm_invertible,
    rand_monotone_matrix,
    rand_spd,
    rand_unitary,
)
from test_solver import bump

PHS1 = PortHamiltonian(n=1, b=1.0, p1=[[1.0]])
BASIS1 = bd_basis(PHS1)
PHS2 = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]])
BASIS2 = bd_basis(PHS2)


def verdict(num, desc, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status} — {desc} ({detail}; {elapsed:.2f}s < {limit:g}s)")
    assert elapsed < limit, f"criterion {num} runtime {elapsed:.2f}s over budget {limit}s"
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_channel_isometry():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    min_eig = np.inf
    for _ in range(200):
        n = int(rng.integers(1, 9))
        b = float(rng.uniform(0.3, 2.5))
        basis = bd_basis(PortHamiltonian(n=n, b=b, p1=rand_herm_invertible(rng, n)))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(basis.S).min()))
        v = rand_complex(rng, n)
        lhs = float(np.linalg.norm(basis.sqrtS @ basis.Qmat @ v) ** 2)
        rhs = float(np.real(v.conj() @ basis.gram_G @ v))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - start
    verdict(1, "trace-channel isometry over 200 random systems",
            worst <= 1e-8 and min_eig > 0.0,
            f"worst relative gap {worst:.3e} <= 1e-8, min eig(S) {min_eig:.3e} > 0",
            elapsed, 10.0)


def test_criterion_02_derivative_coefficient_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst_res = 0.0
    worst_comp = 0.0
    systems = [PHS1, PHS2] + [
        PortHamiltonian(n=int(n), b=float(rng.uniform(0.5, 2.0)),
                        p1=rand_herm_invertible(rng, int(n)))
        for n in rng.integers(1, 5, size=23)
    ]
    for system in systems:
        basis = bd_basis(system)
        # both channels share one Gram matrix, so the even-to-odd map is
        # the same matrix and the round trip is its square
        dmat, dres = ddot_matrix(basis)
        worst_res = max(worst_res, dres)
        comp = float(np.abs(dmat @ dmat - np.eye(basis.n)).max())
        worst_comp = max(worst_comp, comp)
    elapsed = time.perf_counter() - start
    verdict(2, "odd/even derivative maps are the coefficient identity",
            worst_res <= 1e-10 and worst_comp <= 1e-9,
            f"worst residual {worst_res:.3e} <= 1e-10, "
            f"worst composition gap {worst_comp:.3e}",
            elapsed, 5.0)


def test_criterion_03_contraction_certificates():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    bases = {1: BASIS1, 2: BASIS2,
             3: bd_basis(PortHamiltonian(n=3, b=1.0, p1=np.diag([1.0, -0.5, 2.0]))),
             4: bd_basis(PortHamiltonian(n=4, b=1.0, p1=np.diag([1.0, 1.0, -1.0, 0.7])))}
    min_sigma = np.inf
    all_monotone = True
    for _ in range(200):
        n = int(rng.integers(1, 5))
        bc = bnd.from_V(rand_contraction(rng, n), bases[n])
        all_monotone &= bc.certificates["monotone"].monotone == "yes"
        min_sigma = min(min_sigma, bc.certificates["maximal"].witness["sigma_min"])
    all_skew = True
    for _ in range(50):
        n = int(rng.integers(1, 5))
        bc = bnd.from_V(rand_unitary(rng, n), bases[n])
        all_skew &= bnd.check_skew_selfadjoint(bc).skew == "yes"
    elapsed = time.perf_counter() - start
    verdict(3, "200 contractions certified, 50 unitaries skew",
            all_monotone and min_sigma > 1e-8 and all_skew,
            f"monotone all yes: {all_monotone}, min sigma {min_sigma:.3e} > 1e-8, "
            f"skew all yes: {all_skew}",
            elapsed, 10.0)


def test_criterion_04_half_plane_rule():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    space = InnerProductSpace(1)
    disagreements = 0
    for _ in range(100):
        alpha = complex(rng.normal(), rng.normal())
        cert = check_maximal(LinearGraph.from_matrix(space, [[alpha]]))
        expected = "yes" if alpha.real >= 0 else "no"
        disagreements += cert.maximal != expected
    elapsed = time.perf_counter() - start
    verdict(4, "scalar graphs maximal iff Re alpha >= 0 (100 samples)",
            disagreements == 0, f"{disagreements} disagreements", elapsed, 1.0)


def test_criterion_05_yosida_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    space1 = InnerProductSpace(1)
    relations = [
        ("sign", SeparableProx(space1, [1.0])),
        ("identity", LinearGraph.from_matrix(space1, np.eye(1))),
        ("linear-4d", LinearGraph.from_matrix(InnerProductSpace(4),
                                              rand_monotone_matrix(rng, 4))),
    ]
    worst_res = 0.0
    worst_excess = -np.inf
    for _, rel in relations:
        dim = rel.space.dim
        for _ in range(1000):
            x = rand_complex(rng, dim) * rng.uniform(0.2, 3.0)
            lam = float(rng.uniform(0.1, 2.0))
            jx = resolvent(rel, lam, x)
            ax = yosida(rel, lam, x)
            worst_res = max(worst_res, graph_residual(rel, jx, ax))
            a0 = principal_section(rel, x)
            excess = float(np.linalg.norm(ax) - np.linalg.norm(a0))
            worst_excess = max(worst_excess, excess)
    elapsed = time.perf_counter() - start
    verdict(5, "Yosida pairs on-graph and norm-dominated (3 x 1000 points)",
            worst_res <= 1e-8 and worst_excess <= 1e-9,
            f"worst graph residual {worst_res:.3e} <= 1e-8, "
            f"worst norm excess {worst_excess:.3e} <= 1e-9",
            elapsed, 5.0)


def test_criterion_06_constructive_resolvent():
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    ops1 = discretize(PHS1, 512)
    ops2 = discretize(PHS2, 512)
    xs1 = ops1.grid.nodes
    xs2 = ops2.grid.nodes
    rhs1 = (np.cos(xs1) + 0.2j * np.sin(2 * xs1), np.sin(xs1))
    f2 = np.stack([np.cos(xs2), np.cos(2 * xs2)], axis=1).astype(complex)
    g2 = np.stack([np.sin(xs2), np.sin(0.5 * xs2)], axis=1).astype(complex)

    linear_cases = [
        (ops1, rhs1, bnd.dirichlet(0.0, BASIS1)),
        (ops1, rhs1, bnd.neumann(0.0, BASIS1)),
        (ops2, (f2, g2), bnd.robin(rand_spd(rng, 2), BASIS2)),
    ] + [
        (ops2, (f2, g2), bnd.from_V(rand_contraction(rng, 2), BASIS2))
        for _ in range(20)
    ]
    worst_lin = 0.0
    worst_mono = 0.0
    for ops, rhs, bc in linear_cases:
        res = resolve_A(ops, bc, 0.8, rhs)
        worst_lin = max(worst_lin, res.residual)
        ref = _monolithic_resolve(ops, bc, 0.8, (rhs[0] + rhs[1]).reshape(ops.nnodes, -1).ravel()
                                if rhs[0].ndim > 1 else (rhs[0] + rhs[1]).ravel())
        gap = np.abs((res.u + res.v).ravel() - ref).max() / max(1.0, np.abs(ref).max())
        worst_mono = max(worst_mono, float(gap))

    fric = bnd.multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], BASIS2)
    rng7 = np.random.default_rng(7)
    coeffs = rng7.normal(size=(3, 2)) + 1j * rng7.normal(size=(3, 2))
    f_fr = sum(coeffs[k][None, :] * np.cos((k + 1) * xs2)[:, None] for k in range(3))
    g_fr = sum(coeffs[k][None, :] * np.sin((k + 0.5) * xs2)[:, None] for k in range(3))
    res_fr = resolve_A(ops2, fric, 0.8, (f_fr, g_fr))
    elapsed = time.perf_counter() - start
    verdict(6, "implicit-step resolvent at m=512 (23 linear cases + friction)",
            worst_lin <= 1e-8 and worst_mono <= 1e-8 and res_fr.residual <= 1e-6,
            f"linear residual {worst_lin:.3e} <= 1e-8, "
            f"monolithic gap {worst_mono:.3e} <= 1e-8, "
            f"friction residual {res_fr.residual:.3e} <= 1e-6",
            elapsed, 30.0)


def test_criterion_07_pairing_identity_order():
    start = time.perf_counter()
    from monoport.phs import project_bd

    rng = np.random.default_rng(21)
    cu = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    cv = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    gaps = []
    for m in (64, 128, 256, 512):
        ops = discretize(PHS2, m)
        xs = ops.grid.nodes
        u = sum(cu[k][None, :] * np.cos((k + 0.5) * xs)[:, None] for k in range(3))
        v = sum(cv[k][None, :] * np.sin((k + 1) * 0.9 * xs)[:, None] for k in range(3))
        lhs = np.sum(ops.omega[:, None] * (
            (ops.Gfull @ v.ravel()).reshape(-1, 2).conj() * u +
            (ops.Gfull @ u.ravel()).reshape(-1, 2).conj() * v)).real
        xu = project_bd(BASIS2, "even", xs, u)
        yv = project_bd(BASIS2, "odd", xs, v)
        rhs = float((xu.conj() @ (BASIS2.gram_G @ yv)).real)
        gaps.append(abs(lhs - rhs))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    elapsed = time.perf_counter() - start
    verdict(7, "boundary pairing identity refines at order >= 1.5",
            float(orders.min()) >= 1.5,
            "orders " + ", ".join(f"{o:.2f}" for o in orders), elapsed, 20.0)


def test_criterion_08_transport_convergence():
    start = time.perf_counter()
    bc = bnd.from_V(0.0, BASIS1)
    errs = []
    hs = []
    for m in (128, 256, 512, 1024):
        ops = discretize(PHS1, m)
        xs = ops.grid.nodes
        dt = 2.0 / m
        scn = Scenario(phs=PHS1, bc=bc, u0=bump(xs)[:, None], T=1.0, dt=dt, theta=1.0)
        traj = simulate(scn, ops)
        exact = oracle_transport(bump, 1.0, xs, 1.0)
        errs.append(float(np.abs(traj.states[-1][:, 0] - exact).max()))
        hs.append(ops.grid.h_x + dt)
    errs = np.array(errs)
    ratios = errs / np.array(hs)
    orders = np.log2(errs[:-1] / errs[1:])
    elapsed = time.perf_counter() - start
    verdict(8, "transport pulse: first-order L-inf convergence to characteristics",
            float(ratios.max()) <= cli.TRANSPORT_ERROR_CONSTANT
            and float(orders.min()) >= 0.9,
            f"max err/(h+dt) {ratios.max():.2f} <= {cli.TRANSPORT_ERROR_CONSTANT:g}, "
            "orders " + ", ".join(f"{o:.3f}" for o in orders),
            elapsed, 60.0)


def test_criterion_09_wave_energy_budget():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    vu = rand_unitary(rng, 2)
    ops = discretize(PHS2, 256)
    xs = ops.grid.nodes
    u0 = np.stack([np.exp(-8 * xs**2), 0.5 * xs * np.exp(-6 * xs**2)], axis=1)

    cons = simulate(Scenario(phs=PHS2, bc=bnd.from_V(vu, BASIS2), u0=u0,
                             T=2.0, dt=1e-3, theta=0.5), ops)
    drift = float(abs(cons.energies[-1] - cons.energies[0]) / cons.energies[0])

    damp = simulate(Scenario(phs=PHS2, bc=bnd.from_V(0.5 * vu, BASIS2), u0=u0,
                             T=2.0, dt=1e-3, theta=1.0), ops)
    max_rise = float(np.diff(damp.energies).max() / damp.energies[0])
    elapsed = time.perf_counter() - start
    verdict(9, "wave system: midpoint conserves, implicit Euler dissipates",
            drift <= 1e-6 and max_rise <= 1e-12,
            f"relative drift {drift:.3e} <= 1e-6, "
            f"max relative step rise {max_rise:.3e} <= 1e-12",
            elapsed, 60.0)


def test_criterion_10_wrong_sign_falsifier():
    start = time.perf_counter()
    rng = np.random.default_rng(110)
    ok = True
    detail = ""
    for mmat in (np.array([[1.0, 0.3], [0.3, 0.5]]), rand_spd(rng, 2), rand_spd(rng, 2)):
        bc = bnd.robin_bad(mmat, BASIS2)
        cert = bc.certificates["monotone"]
        (xa, ya), (xb, yb) = cert.witness["pair_a"], cert.witness["pair_b"]
        on_graph = max(graph_residual(bc.port_relation, xa, ya),
                       graph_residual(bc.port_relation, xb, yb))
        pairing = float(np.real(np.conj(xa - xb) @ (ya - yb)))
        ok &= cert.monotone == "no" and on_graph < 1e-10 and pairing < 0
        detail = f"witness on-graph {on_graph:.1e}, pairing {pairing:.3e} < 0"
    elapsed = time.perf_counter() - start
    verdict(10, "wrong-sign impedance caught with re-verifiable witness",
            ok, detail, elapsed, 1.0)


def test_criterion_11_friction_port_hand_values():
    start = time.perf_counter()
    fric = bnd.multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], BASIS2)
    x_a = resolvent(fric.port_relation, 1.0, [0.3, 0.0])
    x_b = resolvent(fric.port_relation, 1.0, [1.0, 0.0])
    hand = max(float(np.abs(x_a - np.array([0.0, 0.0])).max()),
               float(np.abs(x_b - np.array([0.5, 0.0])).max()))

    rng = np.random.default_rng(111)
    worst_sample = 0.0
    for _ in range(50):
        y = rand_complex(rng, 2)
        x, w = resolvent_value(fric.h, 1.0, y)
        worst_sample = max(worst_sample,
                           float(np.linalg.norm(x + w - y)),
                           graph_residual(fric.h, x, w))
    elapsed = time.perf_counter() - start
    verdict(11, "friction port matches hand solution; composite maximal by sampling",
            hand <= 1e-9 and worst_sample <= 1e-7,
            f"hand-value gap {hand:.3e} <= 1e-9, "
            f"worst sampled inclusion residual {worst_sample:.3e}",
            elapsed, 5.0)


def test_criterion_12_verification_is_deterministic(capsys):
    start = time.perf_counter()
    code1 = cli.main(["verify", "all", "--seed", "7"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "all", "--seed", "7"])
    out2 = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    verdict(12, "verification report byte-identical under a fixed seed",
            code1 == 0 and code2 == 0 and out1 == out2,
            f"exit codes {code1}/{code2}, reports identical: {out1 == out2}",
            elapsed, 60.0)
