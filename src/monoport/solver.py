"""Evolution of 1D port-Hamiltonian fields under certified boundary relations.

The semidiscrete generator is ``A w = L (H w)`` with ``L`` the
summation-by-parts realization of ``P1 d/dx + P0`` on the symmetric
grid; a run integrates ``dw/dt = -A w``.  One implicit step is a
*constructive resolvent*: the linear bulk is eliminated through a
banded LU factorization (LAPACK ``gbtrf``) of its interior block,
solved by two BLAS ``tbsv`` sweeps on that factor (below), which
compresses the whole grid problem to an ``n``-dimensional
inclusion ``Phi e + R(e) ∋ g`` for the boundary effort trace ``e``,
where ``R`` is the boundary relation in flow/effort coordinates and
``Phi`` is the discrete boundary response (effort-to-flow) map of the
bulk.  ``Phi`` inherits a strictly positive Hermitian part from the
bulk energy estimate, so the inclusion is solvable for every maximal
monotone ``R`` — solving it *is* the proof of solvability, run
numerically.  A run builds what it fixes once, from the grid operators
alone (density ``H`` included): the interior factorization, the
inverted boundary block and the inclusion's plan
(:func:`.relations.plan_inclusion`).  Each step multiplies by those
maps and applies the plan; nothing fixed is solved again.

Two exact discrete identities carry the structure (both hold to
roundoff, not asymptotically):

* summation by parts gives ``Re<p, L p>_omega = -Re<e, f>`` with
  ``e = (p(b) + p(-b))/sqrt(2)``, ``f = (P1 p(-b) - P1 p(b))/sqrt(2)``;
* a boundary slack unknown, injected at the two endpoint rows and
  subtracted from the flow trace, extends this to the *truncated*
  scheme, so the fully discrete energy balance per theta-step is
  ``E_{k+1} - E_k = -dt * D_k - (theta - 1/2) dt^2 |a|^2_H`` with
  ``D_k`` the stage boundary pairing.  Monotone relations containing
  the origin therefore dissipate *every step exactly*, and skew
  relations conserve at ``theta = 1/2``.

A run is one :class:`Stepper`: it checks the boundary condition's
certificate, factors the resolvent ``J = (1 + theta dt A)^{-1}`` and
plans its boundary inclusion once.  ``step(w, stepper)`` is one
resolvent evaluation plus an affine extrapolation, the one-leg form of
the theta-method: ``y = J w`` and ``w_next = (y - (1 - theta) w) /
theta`` (``y`` itself at ``theta = 1``).  For a linear ``A`` this is
the two-leg scheme ``J (w - (1 - theta) dt A w)``; for any maximal
monotone relation it needs no generator action of ``w``, so every
state is admissible and a fresh ``Stepper`` takes the same step as a
chained one, which only warm-starts the inclusion from the previous
effort trace.  The step leaves the pairing of its one solve in
``stepper.dissipation``; :func:`simulate` is the loop
``w = step(w, stepper)``.

A run picks its arithmetic once, from its data.  When ``P1``, ``P0``,
the nodewise ``H^{-1}``, the boundary relation (:attr:`.Relation.real`)
and the initial state (for :func:`resolve_A`, the right-hand side) have
no imaginary part, the run factors, solves and stores its states in
float64; the real band solve takes 0.5 to 0.7 of the time of the
complex one on a coupled ``n = 2`` system (0.66 at m = 256, 0.52 at
m = 16384).  The inclusion itself stays complex; its solution is real,
because a real relation is closed under conjugation and the solution
is unique, so the run keeps its real part.  Any complex datum keeps the
whole run in complex arithmetic.  A real factor still takes a complex
right-hand side, such as a complex state handed to :func:`step`, as the
two real columns ``[Re r, Im r]`` of one bulk solve.

The band solve runs the operations of LAPACK ``gbtrs`` in fewer calls.
``gbtrs`` applies ``L`` column by column (a row swap, then that
column's multipliers) and then solves ``U``; its calls cost about 30 ns
per column whatever the band.  ``gbtrf`` swaps rows only in a prefix
of the columns: none at small ``mu / h_x`` (``mu = theta dt``), the
first 10 of 32,766 on the wave block at m = 16384 and ``mu / h_x =
4.1``, nearly all at the large ``mu / h_x`` of some of :mod:`.verify`'s
resolvent checks.  Past the last swap, at column ``J - 1``, ``L`` is a
plain unit lower band, so one BLAS ``tbsv`` sweeps it from column ``J``
and one more sweeps ``U``, both on the ``gbtrf`` array in place.  The
head, the first ``J`` columns of ``L`` with their swaps, is ``gbtrs``
on a copy of them (``J + kl`` rows, as far as they reach) with the
identity for ``U``.  Every entry so receives the updates of ``gbtrs``
in its order, and in OpenBLAS both routines compute them with the same
``axpy`` kernel; the head only adds products with exact zeros, which
can turn a ``-0`` into ``+0`` and change nothing else.  The Tier-1
tests check the result bitwise against ``gbtrs``, right-hand sides
with signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .boundary import BoundaryCondition
from .phs import PortHamiltonian, _as_field
from .relations import NonconvergenceError, graph_residual, plan_inclusion, solve_inclusion
from .sbp import MIN_CELLS, sbp42

__all__ = [
    "Grid",
    "DiscreteOperators",
    "discretize",
    "ResolveResult",
    "resolve_A",
    "Scenario",
    "Trajectory",
    "Stepper",
    "step",
    "simulate",
    "oracle_transport",
]


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric partition of ``[-b, b]`` with ``m`` cells."""

    m: int
    nodes: np.ndarray
    h_x: float


@dataclass(frozen=True)
class DiscreteOperators:
    """Grid realizations of the channel derivatives, plus quadrature.

    ``Gfull`` is the summation-by-parts realization of ``P1 d/dx + P0``;
    ``Dc`` is the same matrix composed with the endpoint mask (the
    discrete compact-support domain).  Both act on node-major flattened
    fields (``n`` components per node).  The quadrature ``omega`` is the
    one measure of both graph norms, which is what makes the duality
    ``<Dc v, u> = -<v, Gfull u>`` exact rather than asymptotic.  The
    nodewise density ``hgrid`` and its inverse ``hinv`` are float64 when
    ``H`` has no imaginary part, complex otherwise.
    """

    grid: Grid
    phs: PortHamiltonian
    Gfull: sp.csr_matrix
    omega: np.ndarray
    hgrid: np.ndarray
    hinv: np.ndarray
    identity_density: bool

    @property
    def nnodes(self) -> int:
        return self.grid.m + 1

    @cached_property
    def Dc(self) -> sp.csr_matrix:
        """``Gfull @ Z`` with ``Z`` the endpoint mask (built on first use)."""
        mask = np.ones(self.nnodes)
        mask[0] = mask[-1] = 0.0
        z = sp.kron(sp.diags(mask), sp.identity(self.phs.n, format="csr")).tocsr()
        return (self.Gfull @ z).tocsr()

    def energy(self, state) -> float:
        """``E = (1/2) sum_j omega_j w_j^H H_j w_j``; a float64 state
        stays real."""
        w = _field(state, self.phs.n)
        hw = w if self.identity_density else np.einsum("jab,jb->ja", self.hgrid, w)
        return float(0.5 * np.sum(self.omega * np.einsum("ja,ja->j", w.conj(), hw).real))

    def weighted_norm(self, flat: np.ndarray) -> float:
        w = np.repeat(self.omega, self.phs.n)
        return float(np.sqrt(np.sum(w * np.abs(flat) ** 2)))


def discretize(phs: PortHamiltonian, m: int) -> DiscreteOperators:
    """Build the summation-by-parts grid operators on ``m`` cells.

    ``m`` must be even (so that 0 is a node and parity splits are exact)
    and at least the stencil width requires.
    """
    m = int(m)
    if m % 2 != 0:
        raise ValueError(f"cell count must be even so the grid contains 0, got {m}")
    if m < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} cells, got {m}")
    h_x = 2.0 * phs.b / m
    nodes = -phs.b + h_x * np.arange(m + 1)
    nodes[m // 2] = 0.0  # exact midpoint, not b*(1 - 1) roundoff
    grid = Grid(m=m, nodes=nodes, h_x=h_x)

    d1, omega = sbp42(m, h_x)
    big = (sp.kron(d1, sp.csr_matrix(phs.p1)) +
           sp.kron(sp.identity(m + 1, format="csr"), sp.csr_matrix(phs.p0))).tocsr()

    hgrid = phs.hamiltonian_grid(nodes)
    hinv = np.linalg.inv(hgrid)
    if not (np.any(hgrid.imag) or np.any(hinv.imag)):
        hgrid, hinv = hgrid.real.copy(), hinv.real.copy()
    return DiscreteOperators(
        grid=grid,
        phs=phs,
        Gfull=big,
        omega=omega,
        hgrid=hgrid,
        hinv=hinv,
        identity_density=phs.hamiltonian is None,
    )


def _field(state, n: int) -> np.ndarray:
    """``state`` as an ``(N, n)`` field: float64 samples stay real, any
    other data is made complex by :func:`.phs._as_field`."""
    arr = np.asarray(state)
    shaped = arr.ndim == 2 and arr.shape[1] == n or arr.ndim == 1 and n == 1
    return arr.reshape(len(arr), n) if arr.dtype == np.float64 and shaped else _as_field(arr, n)


def _is_real(ops: DiscreteOperators, bc: BoundaryCondition, data) -> bool:
    """Whether a run on ``ops`` under ``bc`` with initial state or
    right-hand side ``data`` is real: ``P1``, ``P0``, the nodewise
    ``H^{-1}``, the port relation and ``data`` have no imaginary part."""
    phs = ops.phs
    return (bc.port_relation.real and not np.iscomplexobj(ops.hinv)
            and not any(np.any(np.imag(a)) for a in (phs.p1, phs.p0, data)))


class _CoreSolver:
    """Solver for ``M p + mu (L p + E s) = r`` with relation rows, its
    linear algebra built once from the grid operators ``ops``.

    ``M = H^{-1}`` nodewise (the identity for unit density), so the field
    of a solved ``p`` is ``w = H^{-1} p`` (:meth:`state`) and ``w + mu L H
    w = r`` away from the endpoints.  ``E`` injects the slack ``s`` at both
    endpoint node rows; the boundary relation couples the effort trace
    to the slack-corrected flow trace ``fhat = f - sqrt(2) omega_b s``.
    Interior elimination reduces everything to a dense ``3n x 3n``
    boundary block ``K``, inverted once and kept as three maps: the
    boundary unknowns ``beta = B_rho rho + B_e e``, the inclusion's
    right-hand side ``g = G_rho rho`` and the effort-to-flow response
    ``phi``, with ``rho`` the reduced boundary rows.  The remaining
    ``n``-dimensional inclusion ``phi e + R(e) ∋ g`` is planned here by
    the relation calculus, and every :meth:`solve` only multiplies by
    these maps and applies that plan.

    With ``real`` (see :func:`_is_real`) the matrix, its factor and the
    maps are float64; otherwise complex.
    """

    def __init__(self, ops: DiscreteOperators, bc: BoundaryCondition, mu: float, real: bool):
        if not mu > 0:
            raise ValueError("resolvent parameter mu must be positive")
        n = ops.phs.n
        if bc.ports != n:
            raise ValueError(f"boundary condition has {bc.ports} ports, system has {n}")
        nn = ops.nnodes
        self.ops = ops
        self.n = n
        self.mu = float(mu)
        self.rel = bc.port_relation
        self.real = real
        dtype = float if real else complex

        mblk = (sp.identity(nn * n, format="csr", dtype=dtype) if ops.identity_density
                else sp.bsr_matrix((ops.hinv, np.arange(nn), np.arange(nn + 1)),
                                   shape=(nn * n, nn * n), dtype=dtype).tocsr())
        self.amat = amat = (mblk + self.mu * (ops.Gfull.real if real else ops.Gfull)).tocsr()

        # The interior block a_int = amat[n:-n, n:-n] is banded (node-major
        # SBP stencil): LAPACK band storage ab[kl + ku + i - j, j] = a_int[i, j],
        # band widths read from its sparsity, factored in place by gbtrf.
        # ab is the start of a flat buffer with kl + ku entries to spare, so
        # that the multipliers of L (rows kl + ku .. 2 kl + ku) can be read
        # in place as a band array of their own (see interior_solve).
        a_int = amat[n:-n, n:-n]
        nint = a_int.shape[0]
        off = np.repeat(np.arange(nint), np.diff(a_int.indptr)) - a_int.indices
        self.kl, self.ku = kl, ku = int(off.max()), int(-off.min())
        ldab = 2 * kl + ku + 1
        buf = np.zeros(ldab * nint + kl + ku, dtype=dtype)
        ab = buf[: ldab * nint].reshape((ldab, nint), order="F")
        ab[kl + ku + off, a_int.indices] = a_int.data
        gbtrf, self._gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._tbsv = get_blas_funcs("tbsv", (ab,))
        self.lu, self.piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"interior block is exactly singular: zero pivot U[{info - 1}, {info - 1}]")

        # gbtrs applies L column by column (row swap, then the multipliers)
        # and then solves U.  Past the last row swap, L is a unit lower band
        # of width kl, swept in place from column J on.  The leading J
        # columns, swaps included, form the head: a copy that gbtrs applies
        # to the first J + kl rows, which those columns reach, with the
        # identity for U (ku = 0, the narrowest band gbtrs takes).
        swapped = np.flatnonzero(self.piv != np.arange(nint))
        self._j = j = int(swapped[-1]) + 1 if swapped.size else 0
        self._lower = buf[kl + ku + j * ldab: kl + ku + nint * ldab].reshape((ldab, nint - j), order="F")
        self._head = None
        if j:
            nh = min(j + kl, nint)
            head = np.zeros((2 * kl + 1, nh), dtype=dtype, order="F")
            head[kl] = 1.0
            head[kl + 1:, :j] = self.lu[kl + ku + 1:, :j]
            self._head = (head, self.piv[:nh])

        # The endpoint rows and columns; solve() reads them as [:n] and [-n:].
        ends = np.r_[0:n, nn * n - n: nn * n]
        rows_b = amat[ends]
        self.a_bi = rows_b[:, n:-n]
        self.lift = self.interior_solve(amat[n:-n, ends].toarray())

        eye = np.eye(n)
        k_full = np.zeros((3 * n, 3 * n), dtype=dtype)
        k_full[: 2 * n, : 2 * n] = rows_b[:, ends].toarray() - self.a_bi @ self.lift
        k_full[: 2 * n, 2 * n:] = self.mu * np.vstack([eye, eye])
        k_full[2 * n:, : 2 * n] = np.hstack([eye, eye]) / np.sqrt(2.0)
        k_inv = np.linalg.inv(k_full)  # cond(K) <= 2.3e4 on the benchmark workloads
        # The lift decays exponentially into the interior; on fine grids most
        # of its parts are subnormal, and every step's ``lift @ beta`` then
        # runs at subnormal speed.  Flushing them to 0 moves an interior
        # value by less than 2 sqrt(2) n * tiny * max|beta|.  The boundary
        # block above keeps the unflushed lift.
        tiny = np.finfo(float).tiny
        for part in (self.lift,) if real else (self.lift.real, self.lift.imag):
            part[np.abs(part) < tiny] = 0.0

        p1, omega_b = ops.phs.p1.real if real else ops.phs.p1, float(ops.omega[0])
        f_row = np.hstack([p1 / np.sqrt(2.0), -p1 / np.sqrt(2.0), -np.sqrt(2.0) * omega_b * eye])
        self.b_rho, self.b_e = k_inv[:, : 2 * n], k_inv[:, 2 * n:]
        self.g_rho = -f_row @ self.b_rho
        self.phi = f_row @ self.b_e
        herm_min = float(np.linalg.eigvalsh((self.phi + self.phi.conj().T) / 2.0)[0])
        if herm_min <= 0:
            raise RuntimeError(
                "boundary response lost positivity (smallest Hermitian eigenvalue "
                f"{herm_min:.3e}); the elliptic solve is unreliable at this resolution"
            )
        self._plan = plan_inclusion(self.phi, self.rel)

    def interior_solve(self, r: np.ndarray) -> np.ndarray:
        """``a_int^{-1} r`` by the band factor; a real factor takes a complex
        ``r`` as the two real columns ``[Re r, Im r]`` of one solve.

        The head (``gbtrs`` on the first ``J + kl`` rows, only when the
        factor swapped rows), then per column of ``r`` the unit lower
        ``tbsv`` sweep of ``L`` from column ``J`` and the upper one of
        ``U``: the operations of ``gbtrs`` on the whole factor, in its
        order (see the module docstring).
        """
        if self.real and np.iscomplexobj(r):
            cols = self.interior_solve(np.column_stack([r.real, r.imag]))
            return cols[:, 0] + 1j * cols[:, 1]
        x = np.array(r, dtype=self.lu.dtype, order="F")
        if self._head is not None:
            head, piv = self._head
            nh = head.shape[1]
            x[:nh] = self._gbtrs(head, self.kl, 0, x[:nh], piv)[0]
        for col in x.T if x.ndim == 2 else (x,):
            self._tbsv(self.kl, self._lower, col, offx=self._j, lower=1, diag=1, overwrite_x=1)
            self._tbsv(self.kl + self.ku, self.lu, col, overwrite_x=1)
        return x

    def solve(self, r_flat: np.ndarray, x0: Optional[np.ndarray] = None):
        """``(p, s, e, fhat)`` for the rows ``r_flat``; float64 exactly when
        the solver is real and ``r_flat`` is float64."""
        n = self.n
        p_part = self.interior_solve(r_flat[n:-n])
        rho = np.concatenate([r_flat[:n], r_flat[-n:]]) - self.a_bi @ p_part
        e, y = solve_inclusion(self._plan, self.g_rho @ rho, x0=x0)
        if not np.iscomplexobj(rho):  # real data and relation: the solution is real
            e, y = e.real, y.real
        beta = self.b_rho @ rho + self.b_e @ e
        p = np.empty(r_flat.shape[0], dtype=beta.dtype)
        p[:n] = beta[:n]
        p[-n:] = beta[n: 2 * n]
        p[n:-n] = p_part - self.lift @ beta[: 2 * n]
        return p, beta[2 * n:], e, -y

    def state(self, p: np.ndarray) -> np.ndarray:
        """The field ``w = H^{-1} p`` of a solved ``p``, one row per node."""
        w = p.reshape(self.ops.nnodes, self.n)
        return w if self.ops.identity_density else np.einsum("jab,jb->ja", self.ops.hinv, w)

    def residual(self, p: np.ndarray, s: np.ndarray, r_flat: np.ndarray,
                 e: np.ndarray, fhat: np.ndarray) -> float:
        n = self.n
        es = np.zeros_like(p)
        es[:n] += s
        es[-n:] += s
        rows = self.amat @ p + self.mu * es - r_flat
        row_res = self.ops.weighted_norm(rows) / max(1.0, self.ops.weighted_norm(r_flat))
        rel_res = graph_residual(self.rel, e, -fhat)
        rel_res /= max(1.0, float(np.linalg.norm(e)), float(np.linalg.norm(fhat)))
        return float(max(row_res, rel_res))


def _require_certified(bc: BoundaryCondition, allow_uncertified: bool):
    if bc.is_maximal_monotone or allow_uncertified:
        return
    raise ValueError(
        "boundary condition lacks a maximal-monotonicity certificate "
        f"(monotone={bc.certificates['monotone'].monotone}, "
        f"maximal={bc.certificates['maximal'].maximal})"
    )


@dataclass(frozen=True)
class ResolveResult:
    """Output of :func:`resolve_A`.

    ``u`` and ``v`` are the even and odd parity legs of the solved field,
    float64 when the system, the relation and the right-hand side are
    real (the run then solves in real arithmetic), complex otherwise;
    ``residual`` is the worst relative defect over the solved system's
    rows (bulk rows in the quadrature norm, relation row as graph
    distance).
    """

    u: np.ndarray
    v: np.ndarray
    residual: float


def resolve_A(ops: DiscreteOperators, bc: BoundaryCondition, mu: float, rhs,
              allow_uncertified: bool = False) -> ResolveResult:
    """Solve ``(1 + mu A)(u, v) = (f, g)`` for the boundary-coupled pair.

    ``A`` is the generator ``w -> L (H w)`` of the system ``ops``
    discretizes, energy density ``H`` included.  ``rhs = (f, g)`` are the
    even and odd legs of the right-hand side on the grid; the solver
    works on their sum (the two legs carry one field between them),
    solves ``(1 + mu L H) w = f + g`` and splits ``w`` by parity on the
    symmetric grid: one ``theta = 1`` step at ``dt = mu``.  The boundary
    relation enters through the trace inclusion described in the module
    docstring; any maximal monotone relation is admissible, linear or not.

    Uncertified conditions (a failed certificate) are
    rejected unless ``allow_uncertified`` is set — falsification runs
    want exactly that switch.
    """
    _require_certified(bc, allow_uncertified)
    f_leg, g_leg = rhs
    n = ops.phs.n
    f_leg = _as_field(f_leg, n)
    g_leg = _as_field(g_leg, n)
    if f_leg.shape[0] != ops.nnodes or g_leg.shape[0] != ops.nnodes:
        raise ValueError("right-hand side does not match the grid")
    r_flat = (f_leg + g_leg).ravel()
    real = _is_real(ops, bc, r_flat)
    core = _CoreSolver(ops, bc, mu, real)
    if real:
        r_flat = r_flat.real
    p, s, e, fhat = core.solve(r_flat)
    res = core.residual(p, s, r_flat, e, fhat)
    w = core.state(p)
    u = (w + w[::-1]) / 2.0
    v = (w - w[::-1]) / 2.0
    return ResolveResult(u=u, v=v, residual=res)


@dataclass(frozen=True)
class Scenario:
    """One evolution problem: system, boundary relation, data, scheme.

    ``u0`` is an initial grid field (its node count fixes the grid).
    ``theta`` interpolates between the midpoint rule (1/2, conservative
    for skew relations) and implicit Euler (1, unconditionally
    dissipative).
    """

    phs: PortHamiltonian
    bc: BoundaryCondition
    u0: np.ndarray
    T: float
    dt: float
    theta: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("time step must be positive and finite")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("final time must be positive and finite")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [1/2, 1]")
        if self.bc.ports != self.phs.n:
            raise ValueError("boundary condition and system have different port counts")
        object.__setattr__(self, "u0", _as_field(self.u0, self.phs.n))


@dataclass(frozen=True)
class Trajectory:
    """Recorded evolution: states with energies and boundary dissipation.

    ``boundary_dissipation[k]`` is the stage pairing ``-Re<e, fhat>`` of
    the step that produced state ``k`` (entry 0 is 0).  At ``theta =
    1/2`` the discrete energy balance is exact:
    ``energies[k] - energies[k-1] = -dt * boundary_dissipation[k]``.
    For ``theta > 1/2`` the scheme adds its own nonnegative damping, so
    the right-hand side is an upper bound whenever the boundary
    relation is monotone.  ``states`` is float64 when the system, the
    relation and ``u0`` are real, since the run then solves in real
    arithmetic (see the module docstring); complex otherwise.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    boundary_dissipation: np.ndarray

    def __len__(self):
        return len(self.times)


class Stepper:
    """One run of the theta-scheme: the factored resolvent and the warm start.

    Construction refuses a boundary condition without a maximal
    monotonicity certificate and factors ``1 + theta dt A`` once, in
    float64 when the system, the relation and ``u0`` are real.  Each
    :func:`step` then reuses the factorization and warm-starts the
    inclusion solve from the previous step's effort trace.
    ``dissipation`` is the boundary pairing ``-Re<e, fhat>`` of the last
    step's resolvent solve.
    """

    def __init__(self, scenario: Scenario, ops: DiscreteOperators):
        _require_certified(scenario.bc, False)
        self.scenario = scenario
        self.dissipation: Optional[float] = None
        self._core = _CoreSolver(ops, scenario.bc, scenario.theta * scenario.dt,
                                 _is_real(ops, scenario.bc, scenario.u0))
        self._effort: Optional[np.ndarray] = None


def step(state, stepper: Stepper) -> np.ndarray:
    """Advance ``state`` by one theta-step of the stepper's run.

    One resolvent solve ``y = (1 + theta dt A)^{-1} w``, then
    ``w_next = (y - (1 - theta) w) / theta``; at ``theta = 1`` the
    step returns ``y`` itself.  On a real run a float64 state gives a
    float64 state; any other state is complex.
    """
    core, theta = stepper._core, stepper.scenario.theta
    w = _field(state, stepper.scenario.phs.n)
    p, _, e, fhat = core.solve(w.ravel(), x0=stepper._effort)
    stepper.dissipation = -float(np.real(e.conj() @ fhat))
    stepper._effort = e
    y = core.state(p)
    return y if theta == 1.0 else (y - (1.0 - theta) * w) / theta


def simulate(scenario: Scenario, ops: Optional[DiscreteOperators] = None) -> Trajectory:
    """Run the theta-scheme to ``T`` and record the energy ledger.

    The step count is ``round(T/dt)`` and the step actually used is
    ``T/nsteps``, so the trajectory always lands exactly on ``T``.  An
    uncertified boundary condition raises ``ValueError`` before any step.
    """
    u0 = scenario.u0
    if ops is None:
        ops = discretize(scenario.phs, u0.shape[0] - 1)
    elif u0.shape[0] != ops.nnodes:
        raise ValueError("initial state does not match the grid")
    nsteps = max(1, int(round(scenario.T / scenario.dt)))
    dt_eff = scenario.T / nsteps
    stepper = Stepper(replace(scenario, dt=dt_eff), ops)

    w = u0.real.copy() if stepper._core.real else u0.astype(complex)
    times = [0.0]
    states = np.empty((nsteps + 1,) + w.shape, dtype=w.dtype)
    states[0] = w
    energies = [ops.energy(w)]
    dissipation = [0.0]
    for k in range(nsteps):
        try:
            w = step(w, stepper)
        except (NonconvergenceError, ValueError, RuntimeError) as exc:
            wrapped = type(exc)(f"step {k} (t = {k * dt_eff:.6g}): {exc}")
            wrapped.residual = getattr(exc, "residual", None)
            raise wrapped from exc
        times.append((k + 1) * dt_eff)
        states[k + 1] = w
        energies.append(ops.energy(w))
        dissipation.append(stepper.dissipation)
    return Trajectory(
        times=np.asarray(times),
        states=states,
        energies=np.asarray(energies),
        boundary_dissipation=np.asarray(dissipation),
    )


def oracle_transport(u0: Callable, t: float, x, b: float):
    """Closed-form transport solution with inflow absorbed at ``-b``.

    ``u(t, x) = u0(x - t)`` where the characteristic started inside the
    interval, 0 where it entered through the inflow boundary.  Valid for
    the scalar system ``P1 = [1]``, ``P0 = 0``, unit density, with the
    inflow-pinning boundary relation.
    """
    xarr = np.asarray(x, dtype=float)
    shift = xarr - float(t)
    vals = np.asarray(u0(shift), dtype=complex)
    out = np.where(shift >= -b, vals, 0.0)
    if np.isscalar(x) or xarr.ndim == 0:
        return complex(out)
    return out
