"""Runtime verification suites behind ``monoport verify``.

Each suite re-measures the structural invariants of one module on
seeded random instances and reports the worst residual per invariant.
Everything is deterministic under a fixed seed — the report contains no
timestamps, no machine identifiers, and formats every number explicitly
— so two runs with the same seed produce byte-identical output.

``tolerance_scale`` is the falsifiability hook: it multiplies the pass
threshold of every upper-bound check (and divides that of lower-bound
checks such as convergence orders).  A harness that cannot be made to
fail proves nothing, so the hook is part of the public surface and has
its own test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np
import scipy.linalg as sla

from . import boundary as bnd
from . import relations as rel
from .config import SCENARIO_PRESETS
from .phs import PortHamiltonian, bd_basis, ddot_matrix, flow_effort, flow_effort_via_bd, project_bd
from .spaces import InnerProductSpace, LinearMap

__all__ = ["CheckResult", "SUITE_NAMES", "run_suites", "format_report"]


@dataclass(frozen=True)
class CheckResult:
    """One invariant measurement.

    ``kind`` is ``"max"`` when ``worst`` must stay below ``tol`` (a
    residual) and ``"min"`` when it must stay above (an order).
    """

    suite: str
    name: str
    worst: float
    tol: float
    kind: str = "max"

    def passed(self, tolerance_scale: float = 1.0) -> bool:
        if self.kind == "max":
            return self.worst <= self.tol * tolerance_scale
        return self.worst >= self.tol / tolerance_scale


def _rng_for(seed: int, suite_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, suite_index])


def _random_contraction(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    top = np.linalg.svd(z, compute_uv=False)[0]
    return z / (top * (1.0 + rng.uniform(0.0, 1.0)))


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_p1(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    lam, u = np.linalg.eigh(h)
    lam = np.sign(lam) * np.clip(np.abs(lam), 0.4, 2.5)
    lam[lam == 0] = 1.0
    return (u * lam) @ u.conj().T


def _random_monotone_matrix(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    herm = z @ z.conj().T / n + 0.1 * np.eye(n)
    skew = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return herm + (skew - skew.conj().T) / 2.0


def _random_port(rng, kind):
    """One scalar port of ``kind``; half of the linear ones are shifted."""
    value = float(rng.normal()) if rng.uniform() < 0.5 else 0.0
    params = {"friction": (float(rng.uniform(0.1, 2.0)),),
              "robin": (float(rng.uniform(0.0, 2.0)), value),
              "dirichlet": (value,)}[kind]
    return bnd._scalar_part(kind, params)


# ---------------------------------------------------------------- relation


def _suite_relation(seed: int) -> List[CheckResult]:
    rng = _rng_for(seed, 0)
    out = []

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        space = InnerProductSpace(n)
        if rng.uniform() < 0.5:
            r = rel.LinearGraph.from_matrix(space, _random_monotone_matrix(rng, n))
        else:
            r = rel.SeparableProx(space, [float(rng.uniform(0, 2)) for _ in range(n)])
        lam = float(rng.uniform(0.1, 5.0))
        y1 = rng.normal(size=n) + 1j * rng.normal(size=n)
        y2 = rng.normal(size=n) + 1j * rng.normal(size=n)
        plan = rel.plan_inclusion(np.eye(n) / lam, r)  # one plan, both right-hand sides
        (j1, _), (j2, _) = (rel.solve_inclusion(plan, y / lam) for y in (y1, y2))
        worst = max(worst, np.linalg.norm(j1 - j2) - np.linalg.norm(y1 - y2))
    out.append(CheckResult("relation", "resolvent nonexpansive", float(worst), 1e-9))

    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        space = InnerProductSpace(n)
        r = rel.LinearGraph.from_matrix(space, _random_monotone_matrix(rng, n))
        lam = float(rng.uniform(0.1, 5.0))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ax = rel.yosida(r, lam, x)
        jx = x - lam * ax  # the resolvent the Yosida value came from, not solved again
        worst = max(worst, rel.graph_residual(r, jx, ax))
    out.append(CheckResult("relation", "yosida pair on graph", float(worst), 1e-8))

    disagreements = 0.0
    for _ in range(40):
        alpha = complex(rng.normal(), rng.normal())
        r = rel.LinearGraph.from_matrix(InnerProductSpace(1), np.array([[alpha]]))
        cert = rel.check_maximal(r)
        expected = "yes" if alpha.real >= 0 else "no"
        if cert.maximal != expected:
            disagreements += 1.0
    out.append(CheckResult("relation", "minty matches half-plane rule", disagreements, 0.5))

    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        space = InnerProductSpace(n)
        r = rel.LinearGraph.from_matrix(space, _random_monotone_matrix(rng, n))
        back = rel.adjoint_relation(rel.adjoint_relation(r))
        worst = max(worst, bnd.subspace_gap(r.stacked, back.stacked))
    out.append(CheckResult("relation", "adjoint involution", float(worst), 1e-10))

    worst = 0.0
    for _ in range(20):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        r1 = rel.LinearGraph.from_matrix(InnerProductSpace(n1), _random_monotone_matrix(rng, n1))
        r2 = rel.SeparableProx(InnerProductSpace(n2), [0.5] * n2)
        both = rel.direct_sum([r1, r2])
        lam = float(rng.uniform(0.2, 3.0))
        y = rng.normal(size=n1 + n2) + 1j * rng.normal(size=n1 + n2)
        joint = rel.resolvent(both, lam, y)
        split = np.concatenate([rel.resolvent(r1, lam, y[:n1]),
                                rel.resolvent(r2, lam, y[n1:])])
        worst = max(worst, float(np.linalg.norm(joint - split)))
    out.append(CheckResult("relation", "direct sum resolvent splits", float(worst), 1e-10))

    # Certificates are structural; this is the sampled evidence that they
    # are right.  A port permutation keeps the resolvent direct, while the
    # one non-unitary congruence couples the ports, so its complex
    # right-hand sides run Douglas-Rachford on the whole sum (real data
    # would take the affine pieces).  Splitting stops at TOL_ITERATIVE in the
    # substituted coordinates, and mapping back by T* (norm up to 2) can
    # grow x + w - y past it, hence the bound 1e-7.
    worst = 0.0
    for k in range(5):
        non_unitary = k == 4
        n = int(rng.integers(2, 5))
        parts = [bnd._scalar_part("friction", (float(rng.uniform(0.1, 2.0)),))]
        for _ in range(n - 1):
            parts.append(_random_port(rng, ("friction", "robin", "dirichlet")[int(rng.integers(3))]))
        tmat = np.eye(n)[rng.permutation(n)]
        if non_unitary:
            tmat = tmat @ (_random_unitary(rng, n) * rng.uniform(0.5, 2.0, size=n))
        space = InnerProductSpace(n)
        r = rel.transform(LinearMap(space, space, tmat), rel.direct_sum(parts))
        if rel.check_maximal(r).maximal != "yes":
            worst = max(worst, 1.0)
        plan = rel.plan_inclusion(np.eye(n), r)  # the resolvent at lam = 1
        for _ in range(2 if non_unitary else 4):
            y = rng.normal(size=n) + 1j * rng.normal(size=n)
            x, w = rel.solve_inclusion(plan, y)
            worst = max(worst, float(np.linalg.norm(x + w - y)), rel.graph_residual(r, x, w))
    out.append(CheckResult("relation", "structural maximality agrees with sampled resolvents",
                           float(worst), 1e-7))
    return out


# ---------------------------------------------------------------- phs


def _suite_phs(seed: int) -> List[CheckResult]:
    rng = _rng_for(seed, 1)
    out = []

    worst = 0.0
    worst_pd = np.inf
    bases = []
    for _ in range(25):
        n = int(rng.integers(1, 5))
        phs = PortHamiltonian(n=n, b=float(rng.uniform(0.5, 2.5)), p1=_random_p1(rng, n))
        basis = bd_basis(phs)
        bases.append((phs, basis))
        worst_pd = min(worst_pd, float(np.linalg.eigvalsh(basis.S)[0]))
        for _ in range(4):
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            lhs = float(np.linalg.norm(basis.sqrtS @ (basis.Qmat @ v)) ** 2)
            rhs = float(np.real(v.conj() @ (basis.gram_G @ v)))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    out.append(CheckResult("phs", "channel gram matches sqrt(S)Q energy", float(worst), 1e-8))
    out.append(CheckResult("phs", "S positive definite (min eigenvalue)", float(worst_pd), 1e-12, kind="min"))

    worst = 0.0
    for phs, basis in bases[:10]:
        worst = max(worst, ddot_matrix(basis)[1])
    out.append(CheckResult("phs", "derivative pairing is the identity", float(worst), 1e-10))

    phs1 = PortHamiltonian(n=1, b=1.0, p1=[[1.0]])
    basis1 = bd_basis(phs1)
    frozen = max(
        abs(basis1.S[0, 0] - np.tanh(1.0)),
        abs(basis1.Qmat[0, 0] - np.sqrt(2.0) * (1 + np.exp(-2.0)) / 2.0),
        abs(basis1.gram_G[0, 0] - (1 - np.exp(-4.0)) / 2.0),
    )
    out.append(CheckResult("phs", "closed forms at n=1, b=1", float(frozen), 1e-12))

    worst = 0.0
    xs = np.linspace(-1.0, 1.0, 257)
    for side in ("even", "odd"):
        prof = basis1.profiles(side, xs)
        for k in range(prof.shape[0]):
            coef = project_bd(basis1, side, xs, prof[k].astype(complex))
            unit = np.zeros(prof.shape[0]); unit[k] = 1.0
            worst = max(worst, float(np.linalg.norm(coef - unit)))
    out.append(CheckResult("phs", "projection exact on basis elements", float(worst), 1e-10))

    u = (np.cosh(xs) + 0.3j * np.sinh(xs) + 0.05 * xs ** 2 + 0.02 * xs ** 3).astype(complex)
    flow_a, effort_a = flow_effort(phs1, xs, u)
    flow_b, effort_b = flow_effort_via_bd(phs1, basis1, xs, u)
    gap = max(float(np.linalg.norm(flow_a - flow_b)),
              float(np.linalg.norm(effort_a - effort_b)))
    out.append(CheckResult("phs", "trace routes agree (endpoint vs projection)", gap, 1e-5))
    return out


# ---------------------------------------------------------------- boundary


def _suite_boundary(seed: int) -> List[CheckResult]:
    rng = _rng_for(seed, 2)
    out = []

    sys_cache = {}

    def basis_for(n):
        if n not in sys_cache:
            phs = PortHamiltonian(n=n, b=1.0, p1=_random_p1(rng, n))
            sys_cache[n] = bd_basis(phs)
        return sys_cache[n]

    failures = 0.0
    min_sigma = np.inf
    for _ in range(40):
        n = int(rng.integers(1, 5))
        v, basis, eye = _random_contraction(rng, n), basis_for(n), np.eye(n)
        if bnd.from_V(v, basis).certificates["monotone"].monotone != "yes":
            failures += 1.0
        # invertible for every contraction by the theorem; no certificate reads it
        min_sigma = min(min_sigma, float(sla.svdvals(-basis.S @ (eye + v) - (eye - v))[-1]))
    out.append(CheckResult("boundary", "contractions are monotone", failures, 0.5))
    out.append(CheckResult("boundary", "closing matrix invertible (min sigma)", float(min_sigma), 1e-8, kind="min"))

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        bc = bnd.from_V(_random_unitary(rng, n), basis_for(n))
        cert = bnd.check_skew_selfadjoint(bc)
        if cert.skew != "yes":
            worst = max(worst, 1.0)
        else:
            worst = max(worst, cert.witness["max_angle"])
    out.append(CheckResult("boundary", "unitary parameters give skew relations", float(worst), 1e-9))

    basis2 = basis_for(2)
    mmat = np.array([[1.0, 0.3], [0.3, 0.5]])
    good = bnd.robin(mmat, basis2)
    bad = bnd.robin(-(mmat + 0.1 * np.eye(2)), basis2)
    witness = bad.certificates["monotone"].witness
    (x1, y1), (x2, y2) = witness["pair_a"], witness["pair_b"]
    res_pairs = max(rel.graph_residual(bad.port_relation, x1, y1),
                    rel.graph_residual(bad.port_relation, x2, y2))
    ok = (good.certificates["monotone"].monotone == "yes"
          and bad.certificates["monotone"].monotone == "no"
          and bad.port_relation.space.inner(x1 - x2, y1 - y2).real < 0)
    out.append(CheckResult("boundary", "robin sign split with live witness",
                           float(res_pairs if ok else 1.0), 1e-9))

    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        bc = bnd.from_V(_random_contraction(rng, n), basis_for(n))
        rt = bnd.extract_h(bc.constraint(), basis_for(n))
        worst = max(worst, bnd.subspace_gap(bc.port_relation.stacked,
                                            rt.port_relation.stacked))
    out.append(CheckResult("boundary", "constraint emission round-trips", float(worst), 1e-10))

    fric = bnd.multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis2)
    x_a = rel.resolvent(fric.port_relation, 1.0, np.array([0.3 + 0j, 0.0 + 0j]))
    x_b = rel.resolvent(fric.port_relation, 1.0, np.array([1.0 + 0j, 0.0 + 0j]))
    hand = max(float(np.linalg.norm(x_a - np.array([0.0, 0.0]))),
               float(np.linalg.norm(x_b - np.array([0.5, 0.0]))))
    out.append(CheckResult("boundary", "friction threshold hand values", hand, 1e-9))
    return out


# ---------------------------------------------------------------- solver


def _suite_solver(seed: int) -> List[CheckResult]:
    from . import solver as sol

    rng = _rng_for(seed, 3)
    out = []

    phs1 = PortHamiltonian(n=1, b=1.0, p1=[[1.0]])
    basis1 = bd_basis(phs1)
    ops = sol.discretize(phs1, 64)
    xs = ops.grid.nodes
    exact = np.abs(ops.Gfull @ xs.astype(complex) - 1.0).max()
    worst_dual = 0.0
    for _ in range(50):
        u = rng.normal(size=65) + 1j * rng.normal(size=65)
        v = rng.normal(size=65) + 1j * rng.normal(size=65)
        v[0] = v[-1] = 0.0
        lhs = np.sum(ops.omega * (ops.Dc @ v).conj() * u)
        rhs = -np.sum(ops.omega * v.conj() * (ops.Gfull @ u))
        worst_dual = max(worst_dual, abs(lhs - rhs))
    out.append(CheckResult("solver", "derivative exact on degree <= 2", float(exact), 1e-10))
    out.append(CheckResult("solver", "closed/full duality pairing", float(worst_dual), 1e-10))

    ops256 = sol.discretize(phs1, 256)
    xs256 = ops256.grid.nodes
    bc_n = bnd.neumann(0.0, basis1)
    res = sol.resolve_A(ops256, bc_n, 1.0, (np.cosh(xs256), np.sinh(xs256)))
    err = float(np.abs(res.u[:, 0] - np.cosh(xs256)).max())
    out.append(CheckResult("solver", "resolvent residual (cosh problem)", res.residual, 1e-8))
    out.append(CheckResult("solver", "resolvent error vs closed form", err, 1e-5))

    phs2 = PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [1.0, 0.0]])
    basis2 = bd_basis(phs2)
    ops2 = sol.discretize(phs2, 128)
    xs2 = ops2.grid.nodes
    worst = 0.0
    for bc in (bnd.robin(np.array([[1.0, 0.2], [0.2, 0.5]]), basis2),
               bnd.from_V(_random_contraction(rng, 2), basis2)):
        f = np.stack([np.cos(xs2), np.cos(2 * xs2)], axis=1).astype(complex)
        g = np.stack([np.sin(xs2), np.sin(0.5 * xs2)], axis=1).astype(complex)
        r = sol.resolve_A(ops2, bc, 0.8, (f, g))
        p_mono = _monolithic_resolve(ops2, bc, 0.8, (f + g).ravel())
        gap = np.abs((r.u + r.v).ravel() - p_mono).max() / max(1.0, np.abs(p_mono).max())
        worst = max(worst, float(gap))
    out.append(CheckResult("solver", "elimination matches monolithic solve", worst, 1e-8))

    gaps = []
    for m in (64, 128, 256):
        opsm = sol.discretize(phs2, m)
        xsm = opsm.grid.nodes
        u = np.stack([np.cos(0.7 * xsm), np.cos(1.3 * xsm)], axis=1).astype(complex)
        v = np.stack([np.sin(1.1 * xsm), np.sin(0.6 * xsm)], axis=1).astype(complex)
        gaps.append(_pairing_gap(opsm, basis2, u, v))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    out.append(CheckResult("solver", "energy pairing identity order", float(orders.min()), 1.5, kind="min"))

    vu = _random_unitary(rng, 2)
    bc_d = bnd.from_V(0.5 * vu, basis2)
    u0 = np.stack([np.exp(-8 * xs2 ** 2), np.exp(-6 * xs2 ** 2) * xs2], axis=1).astype(complex)
    scn = sol.Scenario(phs=phs2, bc=bc_d, u0=u0, T=0.5, dt=0.01, theta=1.0)
    traj = sol.simulate(scn, ops2)
    rise = float(np.diff(traj.energies).max() / traj.energies[0])
    out.append(CheckResult("solver", "implicit step never gains energy", rise, 1e-12))

    bc_u = bnd.from_V(vu, basis2)
    ops_small = sol.discretize(phs2, 32)
    dim = 33 * 2
    scn_iso = sol.Scenario(phs=phs2, bc=bc_u, u0=np.zeros((33, 2)), T=1.0, dt=0.05, theta=0.5)
    # one stepper for every column: the affine plan of a linear graph ignores the warm start
    stepper = sol.Stepper(scn_iso, ops_small)
    cols = []
    for j in range(dim):
        wj = np.zeros(dim, dtype=complex)
        wj[j] = 1.0
        cols.append(sol.step(wj.reshape(33, 2), stepper).ravel())
    tmat = np.stack(cols, axis=1)
    wdiag = np.repeat(ops_small.omega, 2)
    dev = np.abs(tmat.conj().T @ (wdiag[:, None] * tmat) - np.diag(wdiag)).max() / wdiag.max()
    out.append(CheckResult("solver", "midpoint step is a weighted isometry", float(dev), 1e-9))

    bc_t = bnd.from_V(np.zeros((1, 1)), basis1)
    bump = lambda y: SCENARIO_PRESETS["transport"](1, 1.0, np.atleast_1d(y))[:, 0]
    errs = []
    for m in (128, 256, 512):
        opsm = sol.discretize(phs1, m)
        xsm = opsm.grid.nodes
        scn = sol.Scenario(phs=phs1, bc=bc_t, u0=bump(xsm)[:, None], T=1.0, dt=opsm.grid.h_x, theta=1.0)
        trajm = sol.simulate(scn, opsm)
        oracle = sol.oracle_transport(bump, 1.0, xsm, 1.0)
        errs.append(np.abs(trajm.states[-1][:, 0] - oracle).max())
    t_orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    out.append(CheckResult("solver", "transport convergence order", float(t_orders.min()), 0.9, kind="min"))

    # On real data, a real coupled phi against linear ports and friction
    # is solved on the affine pieces of the relation, exactly; splitting
    # the whole sum must agree with the pieces to the splitting tolerance.
    worst = 0.0
    for k in (1, 2):
        phi, r, g = _random_piece_instance(rng, k)
        z, w = rel.solve_inclusion(rel.plan_inclusion(phi, r), g)
        z_dr, w_dr = rel.solve_inclusion(rel._SplittingPlan(phi, r), g)
        worst = max(worst, float(np.linalg.norm(z - z_dr)), float(np.linalg.norm(w - w_dr)))
    out.append(CheckResult("solver", "affine pieces agree with splitting", worst, 1e-7))
    return out


def _pairing_gap(ops, basis, u, v) -> float:
    """Gap in the discrete trace-pairing identity for the fields ``u``
    and ``v``: ``Re sum omega (<G v, u> + <G u, v>)`` against
    ``<x_u, gram_G y_v>``, the even trace of ``u`` paired with the odd
    trace of ``v``."""
    n = u.shape[1]
    xs = ops.grid.nodes
    lhs = np.sum(ops.omega[:, None] * (
        (ops.Gfull @ v.ravel()).reshape(-1, n).conj() * u +
        (ops.Gfull @ u.ravel()).reshape(-1, n).conj() * v)).real
    xu = project_bd(basis, "even", xs, u)
    yv = project_bd(basis, "odd", xs, v)
    rhs = float((xu.conj() @ (basis.gram_G @ yv)).real)
    return float(abs(lhs - rhs))


def _random_piece_instance(rng, k):
    """A real, coupled, non-symmetric ``phi`` with Hermitian part at least
    ``1/2``, a real right-hand side, and a direct sum of ``k`` friction
    ports and one or two linear ports (Robin or Dirichlet, half of them
    shifted) in random order."""
    kinds = ["friction"] * k
    kinds += [("robin", "dirichlet")[int(rng.integers(2))] for _ in range(int(rng.integers(1, 3)))]
    parts = [_random_port(rng, kinds[idx]) for idx in rng.permutation(len(kinds))]
    n = len(parts)
    z, skew = rng.normal(size=(n, n)), rng.normal(size=(n, n))
    phi = z @ z.T / n + 0.5 * np.eye(n) + (skew - skew.T) / 2.0
    return phi, rel.direct_sum(parts), rng.normal(size=n)


def _monolithic_resolve(ops, bc, mu, r_flat):
    """Assemble the constrained discrete system whole and solve it directly.

    This is the brute-force counterpart of the elimination in
    :mod:`.solver` — kept deliberately separate so the two routes can
    disagree.  The bulk rows are ``H^{-1} p + mu (L p + E s) = r``, and the
    field ``w = H^{-1} p`` is returned flattened.  Linear (possibly
    shifted) relations only.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    port = bc.port_relation
    if not port.affine:
        raise ValueError("monolithic route requires a linear boundary relation")
    n = bc.ports
    zx, zy = port.zx, port.zy
    k = zx.shape[1]
    nn = ops.nnodes
    dim = nn * n
    mass = (sp.identity(dim, dtype=complex, format="csr") if ops.identity_density
            else sp.block_diag(list(ops.hinv), format="csr", dtype=complex))
    amat = (mass + mu * ops.Gfull).tocsr()
    omega_b = float(ops.omega[0])
    p1 = ops.phs.p1

    e_inj = sp.lil_matrix((dim, n), dtype=complex)
    tr_e = sp.lil_matrix((n, dim), dtype=complex)
    tr_f = sp.lil_matrix((n, dim), dtype=complex)
    for j in range(n):
        e_inj[j, j] = 1.0
        e_inj[dim - n + j, j] = 1.0
        tr_e[j, j] = 1.0 / np.sqrt(2.0)
        tr_e[j, dim - n + j] = 1.0 / np.sqrt(2.0)
        for i in range(n):
            tr_f[j, i] = -p1[j, i] / np.sqrt(2.0)
            tr_f[j, dim - n + i] = p1[j, i] / np.sqrt(2.0)

    top = sp.hstack([amat, mu * e_inj.tocsr(), sp.csr_matrix((dim, k), dtype=complex)])
    mid = sp.hstack([tr_e.tocsr(), sp.csr_matrix((n, n), dtype=complex), sp.csr_matrix(-zx)])
    bot = sp.hstack([tr_f.tocsr(), np.sqrt(2.0) * omega_b * sp.identity(n, dtype=complex),
                     sp.csr_matrix(-zy)])
    full = sp.vstack([top, mid, bot]).tocsc()
    rhs = np.concatenate([r_flat, port.x0, port.y0])
    return mass @ spla.splu(full).solve(rhs)[:dim]


_SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "relation": _suite_relation,
    "phs": _suite_phs,
    "boundary": _suite_boundary,
    "solver": _suite_solver,
}
SUITE_NAMES = tuple(_SUITES)


def run_suites(which: str, seed: int = 0) -> List[CheckResult]:
    """Run one named suite (or ``"all"``) and return its measurements."""
    if which == "all":
        names = SUITE_NAMES
    elif which in _SUITES:
        names = (which,)
    else:
        raise ValueError(f"unknown suite {which!r}; pick from {SUITE_NAMES + ('all',)}")
    results: List[CheckResult] = []
    for name in names:
        results.extend(_SUITES[name](seed))
    return results


def format_report(results: List[CheckResult], seed: int,
                  tolerance_scale: float = 1.0) -> "tuple[str, bool]":
    """Render the per-invariant report; returns (text, all_passed)."""
    lines = [f"verification report (seed {seed}, tolerance scale {tolerance_scale:g})"]
    all_ok = True
    for r in results:
        ok = r.passed(tolerance_scale)
        all_ok = all_ok and ok
        bound = "<=" if r.kind == "max" else ">="
        eff = r.tol * tolerance_scale if r.kind == "max" else r.tol / tolerance_scale
        lines.append(
            f"[{r.suite}] {r.name}: {'PASS' if ok else 'FAIL'} "
            f"(worst {r.worst:.6e}, needs {bound} {eff:.6e})"
        )
    counts = sum(1 for r in results if r.passed(tolerance_scale))
    lines.append(f"{counts}/{len(results)} invariants hold")
    return "\n".join(lines) + "\n", all_ok
