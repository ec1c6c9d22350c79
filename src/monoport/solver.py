"""Evolution of 1D port-Hamiltonian fields under certified boundary relations.

The semidiscrete generator is ``A w = L (H w)`` with ``L`` the
summation-by-parts realization of ``P1 d/dx + P0`` on the symmetric
grid; a run integrates ``dw/dt = -A w``.  One implicit step is a
*constructive resolvent*: the linear bulk is eliminated through a
banded LU factorization (LAPACK ``gbtrf``) of its interior block,
solved by BLAS ``tbsv`` sweeps on a compact copy of that factor (below), which
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
``w = step(w, stepper)``, each step written with ``out=`` into its row
of the preallocated states: the interior solve runs in that row, and
the extrapolation works there in place.  The energy ledger is computed
once per block of consecutive states, as many as fit in
:data:`LEDGER_BLOCK_BYTES` (64 KiB, at least one), right after the run
writes them: :meth:`DiscreteOperators.energy` of a stack gives each
state the bits it gets alone, and on a small grid one call per step
cost as much as a band sweep.

A run picks its arithmetic once, from its data.  When ``P1``, ``P0``,
the nodewise ``H^{-1}``, the boundary relation (:attr:`.Relation.real`)
and the initial state (for :func:`resolve_A`, the right-hand side) have
no imaginary part, the run factors, solves and stores its states in
float64; the real band solve takes 0.5 to 0.7 of the time of the
complex one on a coupled ``n = 2`` system (0.66 at m = 256, 0.52 at
m = 16384).  The boundary inclusion is real too: a real relation is
closed under conjugation and the solution is unique, so against the
real ``Phi`` its plan holds float64 maps and tables
(:func:`.relations.plan_inclusion`) and solves a float64 ``g`` in
float64.  A step so stays in float64 from the band sweep to the state
it returns.  Any complex datum keeps the whole run, inclusion included,
in complex arithmetic with the same code, and a real run steps only
real states (:func:`step`).

The band solve runs the operations of LAPACK ``gbtrs`` in fewer calls,
on the ``gbtrf`` factor with every column of ``U`` divided by its pivot
once, ``U = U'' D``, and ends with one division by the pivots ``D``.
``gbtrs`` applies ``L`` column by column (a row swap, then that
column's multipliers) and then solves ``U``; its calls cost about 30 ns
per column whatever the band.  ``gbtrf`` swaps rows only in a prefix
of the columns: none at small ``mu / h_x`` (``mu = theta dt``), the
first 10 of 32,766 on the wave block at m = 16384 and ``mu / h_x =
4.1``, nearly all at the large ``mu / h_x`` of some of :mod:`.verify`'s
resolvent checks.  Past the last swap, at column ``J - 1``, ``L`` is a
plain unit lower band, so one BLAS ``tbsv`` sweeps it from column
``J``.  The head, the first ``J`` columns of ``L`` with their swaps, is
``gbtrs`` on a copy of them (``J + kl`` rows, as far as they reach)
with the identity for ``U``.  The swaps fill ``U`` out to ``kl + ku``
superdiagonals only up to a column ``C`` (16 of 32,766 on that wave
block, 0 without swaps); from ``C`` on one ``tbsv`` sweeps
``U''`` with its ``ku``, and a last one, only when ``C > 0``, sweeps the
full-width head of ``U''``.  That head also holds the ``ku`` columns from
``C``, with nothing from row ``C`` down, so its sweep applies their
couplings to the rows above ``C`` and nothing else.  ``U''`` has a unit
diagonal, stored as exactly 1 (in complex arithmetic ``d / d`` need not
be), and both ``U`` sweeps take it as unit triangular: a ``tbsv`` that
divides by a pivot in every column waits for each division before the
next column, and on that wave block such a ``U`` sweep costs 1.7–1.8
times the equally wide unit ``L`` sweep.  The one division of the whole
vector by the pivots runs without that chain.  Dividing the columns of a
triangular factor by its diagonal keeps the componentwise backward-error
bound of the solve (Higham, *Accuracy and Stability of Numerical
Algorithms*, ch. 8).  The solver keeps the factor in this compact form
(``L`` from ``J``, the ``U''`` tail, the two heads and the pivots; 12 of
the 16 rows of the ``gbtrf`` array at m = 16384), not the ``gbtrf``
array itself.  Every entry so receives the updates of ``gbtrs`` on the
pivot-scaled factor in its order, and in OpenBLAS both routines compute
them with the same ``axpy`` kernel; the sweeps only skip or add products
with exact zeros, which could at most turn a ``-0`` into ``+0``.  The
Tier-1 tests check the result bitwise against ``gbtrs`` on the
pivot-scaled factor followed by the division, right-hand sides with
signed zeros included.

The interior lift, the solve of the interior block against the columns
of the endpoint unknowns, decays exponentially away from its endpoint,
and every part below ``tiny`` is set to 0, so that no step multiplies
subnormal numbers.  It is solved on windows from each endpoint that stop
a little past that decay (:meth:`_CoreSolver._lift`), which skips the
subnormal arithmetic of the full solve (42–44 ms, most of the set-up,
at m = 16384) and keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import get_blas_funcs
from scipy.linalg.lapack import get_lapack_funcs

from .boundary import BoundaryCondition, _integer
from .phs import PortHamiltonian, _as_field, eigendecompose
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

#: :func:`simulate` computes the energy ledger once per block of
#: consecutive states of at most this many bytes (at least one state), right
#: after it writes them, while they are still in cache.
LEDGER_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform symmetric partition of ``[-b, b]`` with ``m`` cells."""

    m: int
    nodes: np.ndarray
    h_x: float


@dataclass(frozen=True, eq=False)
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

    def energy(self, states):
        """``E = (1/2) sum_j omega_j w_j^H H_j w_j`` of one state, a float,
        or of each state of a ``(K, N, n)`` stack, a float64 array of ``K``;
        a float64 state stays real (:func:`.phs._as_field`).

        One state is a stack of one, and every state of a stack gets the
        bits it gets alone: the nodewise terms ``omega_j w_j^H H_j w_j`` are
        elementwise products (the ``einsum`` of the general case runs per
        state), and the sum over the nodes is one ``np.sum`` along the
        stack's last axis, the pairwise sum of each row.  For a float64
        field of one or two components the nodewise products are summed in
        place, in the order and to the bits of the ``einsum`` of the general
        case, at about half its memory traffic (with three or more,
        ``einsum`` pairs its terms in another order)."""
        arr, n = np.asarray(states), self.phs.n
        w = (_as_field(arr.reshape(-1, arr.shape[-1]), n).reshape(arr.shape) if arr.ndim == 3
             else _as_field(arr, n)[None])
        hw = w if self.identity_density else np.array([np.einsum("jab,jb->ja", self.hgrid, wk) for wk in w])
        if hw.dtype != np.float64 or n > 2:
            q = np.array([np.einsum("ja,ja->j", wk.conj(), hk).real for wk, hk in zip(w, hw)])
        else:
            prod = w * hw
            q = prod[:, :, 0] + prod[:, :, 1] if n == 2 else prod[:, :, 0]
        q *= self.omega
        e = 0.5 * np.sum(q, axis=1)
        return e if arr.ndim == 3 else float(e[0])

    def weighted_norm(self, flat: np.ndarray) -> float:
        w = np.repeat(self.omega, self.phs.n)
        return float(np.sqrt(np.sum(w * np.abs(flat) ** 2)))


def discretize(phs: PortHamiltonian, m: int) -> DiscreteOperators:
    """Build the summation-by-parts grid operators on ``m`` cells.

    ``m`` must be an integer (numpy integers included, not a ``bool`` and
    nothing that ``int`` would truncate), even (so that 0 is a node and
    parity splits are exact) and at least the stencil width requires.
    """
    m = _integer(m, "cell count")
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


class _CoreSolver:
    """Solver for ``M p + mu (L p + E s) = r`` with relation rows, its
    linear algebra built once from the grid operators ``ops``.

    ``M = H^{-1}`` nodewise (the identity for unit density), so the field
    of a solved ``p`` is ``w = H^{-1} p`` (:meth:`state`) and ``w + mu L H
    w = r`` away from the endpoints.  ``E`` injects the slack ``s`` at both
    endpoint node rows; the boundary relation couples the effort trace
    to the slack-corrected flow trace ``fhat = f - sqrt(2) omega_b s``.
    Interior elimination reduces everything to a dense ``3n x 3n``
    boundary block ``K``, inverted once and kept as maps: the inclusion's
    right-hand side ``g = G_rho rho`` stacked over the boundary unknowns'
    part ``B_rho rho`` (:attr:`rho_maps`, one product gives both), with
    ``beta = B_rho rho + B_e e``, and the effort-to-flow response ``phi``.
    ``rho`` are the endpoint rows reduced by the swept interior; the
    endpoint rows reach only the first and the last few interior columns
    (``3n`` each at sbp42, read from the sparsity), kept as two dense
    ``2n``-row blocks, so ``rho`` is two small products.  The remaining
    ``n``-dimensional inclusion ``phi e + R(e) ∋ g`` is planned here by
    the relation calculus, and every :meth:`solve` only multiplies by
    these maps and applies that plan, in the run's arithmetic.

    Every run (:class:`Stepper`, :func:`resolve_A`) is checked here once,
    before any factorisation: ``bc`` must be certified (unless
    ``allow_uncertified``) and built on the trace basis of ``ops.phs``
    (its ``b`` and the eigenvalues and eigenvectors of its ``P1``),
    ``mu`` positive and finite, and ``data`` (the initial state or the
    right-hand side) finite.  The run is ``real`` when ``P1``, ``P0``, the
    nodewise ``H^{-1}``, the port relation and ``data`` have no imaginary
    part: then the matrix, its factor, the maps and the inclusion's plan
    are float64; otherwise complex.
    """

    def __init__(self, ops: DiscreteOperators, bc: BoundaryCondition, mu: float, data,
                 allow_uncertified: bool = False):
        if not (bc.is_maximal_monotone or allow_uncertified):
            raise ValueError(
                "boundary condition lacks a maximal-monotonicity certificate "
                f"(monotone={bc.certificates['monotone'].monotone}, "
                f"maximal={bc.certificates['maximal'].maximal})")
        basis, (lambdas, eigvecs) = bc.basis, eigendecompose(ops.phs.p1)
        if basis.b != ops.phs.b or not (np.array_equal(basis.lambdas, lambdas)
                                        and np.array_equal(basis.eigvecs, eigvecs)):
            raise ValueError("boundary condition is built on the trace basis of another system")
        if not (np.isfinite(mu) and mu > 0):
            raise ValueError("resolvent parameter mu must be positive and finite")
        if not np.isfinite(data).all():
            raise ValueError("initial state or right-hand side must be finite")
        n, nn = ops.phs.n, ops.nnodes
        self.ops = ops
        self.n = n
        self.mu = float(mu)
        self.rel = bc.port_relation
        self.real = real = (self.rel.real and not np.iscomplexobj(ops.hinv)
                            and not any(np.any(np.imag(a)) for a in (ops.phs.p1, ops.phs.p0, data)))
        self.dtype = dtype = np.dtype(float if real else complex)

        mblk = (sp.identity(nn * n, format="csr", dtype=dtype) if ops.identity_density
                else sp.bsr_matrix((ops.hinv, np.arange(nn), np.arange(nn + 1)),
                                   shape=(nn * n, nn * n), dtype=dtype).tocsr())
        self.amat = amat = (mblk + self.mu * (ops.Gfull.real if real else ops.Gfull)).tocsr()

        # The interior block a_int = amat[n:-n, n:-n] is banded (node-major
        # SBP stencil): LAPACK band storage ab[kl + ku + i - j, j] = a_int[i, j],
        # band widths read from its sparsity, factored in place by gbtrf.
        a_int = amat[n:-n, n:-n]
        self.nint = nint = a_int.shape[0]
        off = np.repeat(np.arange(nint), np.diff(a_int.indptr)) - a_int.indices
        self.kl, self.ku = kl, ku = int(off.max()), int(-off.min())
        ab = np.zeros((2 * kl + ku + 1, nint), dtype=dtype, order="F")
        ab[kl + ku + off, a_int.indices] = a_int.data
        del a_int, off  # the compact copies of the factor below reuse their memory
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        self._tbsv = get_blas_funcs("tbsv", (ab,))
        lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"interior block is exactly singular: zero pivot U[{info - 1}, {info - 1}]")

        # gbtrs applies L column by column (row swap, then the multipliers)
        # and then solves U.  Past the last row swap, L is a unit lower band
        # of width kl, kept from column J on.  The leading J columns, swaps
        # included, form the head: a copy that gbtrs applies to the first
        # J + kl rows, which those columns reach, with the identity for U
        # (ku = 0, the narrowest band gbtrs takes).  The swaps also fill U
        # out to kl + ku superdiagonals, but only before a column C; from C
        # on, U is kept with its ku.  Columns
        # C .. C + ku - 1 couple that tail to the rows above C: the head of
        # U keeps them with a unit diagonal and zeros from row C down, so
        # its sweep applies exactly those couplings, in the column order and
        # with the vector lengths of the full sweep.  Every column of U is
        # divided by its pivot once, U = U'' D, and the diagonal of U'' is
        # stored as exactly 1 (d / d need not be 1 in complex arithmetic):
        # the sweeps take U'' as unit triangular, and one division by the
        # kept pivots D ends each solve.  The gbtrf array itself is not kept.
        swapped = np.flatnonzero(piv != np.arange(nint))
        self._j = j = int(swapped[-1]) + 1 if swapped.size else 0
        fill = np.flatnonzero(lu[:kl].any(axis=0))
        self._c = c = int(fill[-1]) + 1 if fill.size else 0
        self._pivots = lu[kl + ku].copy()
        lu[: kl + ku + 1] /= self._pivots
        lu[kl + ku] = 1.0
        self._lower = np.asfortranarray(lu[kl + ku:, j:])  # row 0, the unit diagonal, is not read
        self._upper = np.asfortranarray(lu[kl: kl + ku + 1, c:])
        self._upper_head = np.asfortranarray(lu[: kl + ku + 1, : min(c + ku, nint) if c else 0])
        for i in range(c, self._upper_head.shape[1]):  # couplings only: unit diagonal, rows >= C zeroed
            self._upper_head[kl + ku + c - i:, i] = 0.0
            self._upper_head[kl + ku, i] = 1.0
        self._head = None
        if j:
            nh = min(j + kl, nint)
            head = np.zeros((2 * kl + 1, nh), dtype=dtype, order="F")
            head[kl] = 1.0
            head[kl + 1:, :j] = lu[kl + ku + 1:, :j]
            self._head = (gbtrs, head, piv[:nh].copy())
        del ab, lu

        # The endpoint rows and columns; solve() reads them as [:n] and [-n:].
        ends = np.r_[0:n, nn * n - n: nn * n]
        rows_b = amat[ends]
        a_bi = rows_b[:, n:-n]
        # The endpoint rows couple to the first and the last few interior
        # columns (3n each at sbp42), their widths read from the sparsity as
        # kl and ku are; each stretch is kept as one dense 2n-row block.
        cols, half = a_bi.indices, nint // 2
        near, far = int(cols[cols < half].max(initial=-1)) + 1, int(cols[cols >= half].min(initial=nint))
        self._near, self._far = slice(0, near), slice(far, nint)
        self._a_near, self._a_far = a_bi[:, self._near].toarray(), a_bi[:, self._far].toarray()
        self.lift = self._lift(amat[n:-n, ends].toarray())
        # Past the windows of _lift, whole stretches of rows of the lift are
        # 0.  Each step multiplies only by the two blocks of rows around them,
        # cut at multiples of 256 rows: there the product is bitwise that of
        # the whole lift (gemv blocks its rows; cuts elsewhere move bits).
        live, half = self.lift.any(axis=1), nint // 2
        top, bottom = np.flatnonzero(live[:half]), np.flatnonzero(live[half:])
        a = -(-(int(top[-1]) + 1) // 256) * 256 if top.size else 0
        b = (half + int(bottom[0])) // 256 * 256 if bottom.size else nint
        rows = [slice(0, nint)] if a >= b else [slice(0, a), slice(b, nint)]
        self._lift_rows = [(r, self.lift[r]) for r in rows if r.start < r.stop]
        self._lifted = np.empty(nint, dtype=dtype)  # lift @ beta of the last solve
        self._rho = np.empty(2 * n, dtype=dtype)  # the endpoint rows of the last solve

        eye = np.eye(n)
        k_full = np.zeros((3 * n, 3 * n), dtype=dtype)
        k_full[: 2 * n, : 2 * n] = rows_b[:, ends].toarray() - a_bi @ self.lift
        k_full[: 2 * n, 2 * n:] = self.mu * np.vstack([eye, eye])
        k_full[2 * n:, : 2 * n] = np.hstack([eye, eye]) / np.sqrt(2.0)
        k_inv = np.linalg.inv(k_full)  # cond(K) <= 2.3e4 on the benchmark workloads

        p1, omega_b = ops.phs.p1.real if real else ops.phs.p1, float(ops.omega[0])
        f_row = np.hstack([p1 / np.sqrt(2.0), -p1 / np.sqrt(2.0), -np.sqrt(2.0) * omega_b * eye])
        b_rho, self.b_e = k_inv[:, : 2 * n], k_inv[:, 2 * n:]
        self.rho_maps = np.vstack([-f_row @ b_rho, b_rho])  # g = G_rho rho over B_rho rho
        self.phi = f_row @ self.b_e
        herm_min = float(np.linalg.eigvalsh((self.phi + self.phi.conj().T) / 2.0)[0])
        if herm_min <= 0:
            raise RuntimeError(
                "boundary response lost positivity (smallest Hermitian eigenvalue "
                f"{herm_min:.3e}); the elliptic solve is unreliable at this resolution"
            )
        self._plan = plan_inclusion(self.phi, self.rel)

    def _sweep(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Solve with the factor on the rows ``lo:hi`` of ``x`` (a vector or
        Fortran-ordered columns of the factor's dtype) in place; return ``x``.

        When ``lo = 0``, first the head (``gbtrs`` on its rows, if the factor
        swapped any).  Then per column: the unit lower ``tbsv`` sweep of
        ``L`` from column ``max(lo, J)``, the unit upper one of the
        pivot-scaled ``U`` tail (``ku`` superdiagonals) from column ``max(lo,
        C)``, then, when ``lo = 0``, that of the ``U`` head (``kl + ku``
        superdiagonals), which also applies the tail's couplings to the rows
        above ``C``; last, one division of the rows ``lo:hi`` by the pivots.
        ``lo = 0, hi = N`` is the whole solve, the operations of ``gbtrs`` on
        the pivot-scaled factor in its order, then that division (module
        docstring).  A window ``lo > 0`` is exact on its rows when
        the rows above it are zero in ``x`` and ``lo`` lies past the head
        rows and ``C + ku``; a window ``hi < N``, with ``hi`` past them,
        drops what ``U`` couples into it from the rows below.
        """
        j, c, kl, ku = self._j, self._c, self.kl, self.ku
        if lo == 0 and self._head is not None:
            gbtrs, head, piv = self._head
            nh = head.shape[1]
            x[:nh] = gbtrs(head, kl, 0, x[:nh], piv)[0]
        start, tail = max(lo, j), max(lo, c)
        lower = self._lower if start == j and hi == self.nint else self._lower[:, start - j: hi - j]
        upper = self._upper if tail == c and hi == self.nint else self._upper[:, tail - c: hi - c]
        for col in x.T if x.ndim == 2 else (x,):
            # positional (incx, offx, lower, trans, diag, overwrite_x): keyword
            # arguments cost a microsecond per call
            self._tbsv(kl, lower, col, 1, start, 1, 0, 1, 1)
            if hi > tail:
                self._tbsv(ku, upper, col, 1, tail, 0, 0, 1, 1)
            if c > lo:
                self._tbsv(kl + ku, self._upper_head, col, 1, 0, 0, 0, 1, 1)
        pivots = self._pivots[lo:hi]
        np.divide(x[lo:hi], pivots if x.ndim == 1 else pivots[:, None], out=x[lo:hi])
        return x

    def _lift(self, r: np.ndarray) -> np.ndarray:
        """``a_int^{-1} r`` for the endpoint columns ``r``, with every part
        below ``tiny`` set to 0.

        Such a column decays exponentially away from its endpoint, and on
        fine grids most of the full solve runs through subnormal numbers at
        a fraction of the normal speed (42–44 ms at m = 16384).  So each
        endpoint's columns are solved on a window from that endpoint, grown
        until the solution has fallen 32 bits below ``tiny`` inside it (the
        distance extrapolated from its decay) and until two windows, the
        second with the sub-``tiny`` stretch doubled, give the same flushed
        result; the rest is 0.  A window at the right end is the ``U`` sweep
        of a suffix: its ``L`` sweep meets only exact zeros, so it is exact
        on its rows.  A window at the left end is a prefix solve, which
        drops the couplings of ``U`` from below the window; those come from
        sub-``tiny`` rows, and the doubled window checks that they round
        away.  The first window has 1024 rows.  A column reaching both
        halves, a block too short for a first window past the head rows and
        ``C + ku``, and a window reaching them from the right take the whole
        solve.
        """
        tiny = np.finfo(float).tiny
        nint, window = self.nint, 1024
        edge = max(self._upper_head.shape[1], self._head[1].shape[1] if self._head is not None else 0)
        lift = np.zeros(r.shape, dtype=self.dtype, order="F")
        groups = [(np.ones(r.shape[1], dtype=bool), None)]
        if nint >= window + edge:
            live = r != 0
            first = ~live[nint // 2:].any(axis=0)
            last = ~live[: nint // 2].any(axis=0) & ~first
            groups = [(first, False), (last, True), (~(first | last), None)]
        for cols, from_end in groups:
            if not cols.any():
                continue
            block = r[:, cols]
            reach = nint
            if from_end is not None:
                support = np.flatnonzero(block.any(axis=1))
                extent = 0 if not support.size else nint - support[0] if from_end else support[-1] + 1
                reach = min(nint, max(window, edge, extent))
            prev = None
            while True:
                lo = nint - reach if from_end and reach <= nint - edge else 0
                hi = nint if from_end else reach
                x = np.zeros(block.shape, dtype=lift.dtype, order="F")
                x[lo:hi] = block[lo:hi]
                self._sweep(x, lo, hi)
                parts = (x,) if x.dtype == np.float64 else (x.real, x.imag)
                for part in parts:
                    part[np.abs(part) < tiny] = 0.0
                if hi - lo == nint or prev is not None and np.array_equal(x, prev):
                    break
                prev = x
                # Grow to where the decay over the middle of the normal stretch
                # reaches 32 bits below tiny, and at least double the
                # sub-tiny stretch at the window's open end.
                size = np.max([np.abs(part[lo:hi]).max(axis=1) for part in parts], axis=0)[::-1 if from_end else 1]
                normal = np.flatnonzero(size >= tiny)
                q = int(normal[-1]) if normal.size else 0
                a, b = q // 2, 3 * q // 4
                la, lb = np.log2(np.maximum(size[[a, b]], tiny))
                rate = (la - lb) / (b - a) if b > a else 0.0
                target = int(np.ceil(b + (lb - np.log2(tiny) + 32.0) / rate)) if rate > 0 else 2 * reach
                grown = max(target, 2 * reach - q - 1)
                reach = min(nint, grown if grown > reach else 2 * reach)
            lift[:, cols] = x
        return lift

    def solve(self, r_flat: np.ndarray, x0: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None):
        """``(p, s, e, fhat)`` in the solver's dtype for the rows ``r_flat``,
        float64 ones on a real solver.  ``p`` is solved in ``out`` when it is
        given, a contiguous vector of that dtype; its interior rows in place."""
        n = self.n
        p = np.empty(r_flat.shape[0], dtype=self.dtype) if out is None else out
        p[n:-n] = r_flat[n:-n]
        p_part = self._sweep(p[n:-n], 0, self.nint)
        rho = self._rho
        rho[:n] = r_flat[:n]
        rho[n:] = r_flat[-n:]
        rho -= self._a_near @ p_part[self._near]
        rho -= self._a_far @ p_part[self._far]
        g_beta = self.rho_maps @ rho
        e, y = solve_inclusion(self._plan, g_beta[:n], x0=x0)
        beta = g_beta[n:]
        beta += self.b_e @ e
        p[:n] = beta[:n]
        p[-n:] = beta[n: 2 * n]
        for rows, lift in self._lift_rows:
            p_part[rows] -= np.matmul(lift, beta[: 2 * n], out=self._lifted[rows])
        return p, beta[2 * n:], e, -y

    def state(self, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The field ``w = H^{-1} p`` of a solved ``p``, one row per node; at
        a non-identity density written into ``out`` when it is given."""
        w = p.reshape(self.ops.nnodes, self.n)
        return w if self.ops.identity_density else np.einsum("jab,jb->ja", self.ops.hinv, w, out=out)

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


@dataclass(frozen=True, eq=False)
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

    The run is checked by :class:`_CoreSolver` before any factorisation:
    a condition without a maximal-monotonicity certificate is refused
    unless ``allow_uncertified`` is set (falsification runs want exactly
    that switch), and so are a condition built on the trace basis of
    another system and a ``mu`` that is not positive and finite.
    """
    f_leg, g_leg = (_as_field(leg, ops.phs.n) for leg in rhs)
    if f_leg.shape[0] != ops.nnodes or g_leg.shape[0] != ops.nnodes:
        raise ValueError("right-hand side does not match the grid")
    r_flat = (f_leg + g_leg).ravel()
    core = _CoreSolver(ops, bc, mu, r_flat, allow_uncertified)
    if core.real:
        r_flat = r_flat.real
    p, s, e, fhat = core.solve(r_flat)
    res = core.residual(p, s, r_flat, e, fhat)
    w = core.state(p)
    u = (w + w[::-1]) / 2.0
    v = (w - w[::-1]) / 2.0
    return ResolveResult(u=u, v=v, residual=res)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One evolution problem: system, boundary relation, data, scheme.

    ``u0`` is an initial grid field (its node count fixes the grid); a
    float64 one stays float64, other data is made complex (:func:`.phs._as_field`).
    ``bc`` must be built on the trace basis of ``phs``: one with its
    ``b`` and the eigenvalues and eigenvectors of its ``P1``, which
    :func:`.phs.bd_basis` derives deterministically (:class:`Stepper`
    checks it; a scenario checks only ``dt``, ``T`` and ``theta``).
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
        object.__setattr__(self, "u0", _as_field(self.u0, self.phs.n))


@dataclass(frozen=True, eq=False)
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

    Construction refuses grid operators of another grid or system than
    the scenario's (:func:`_check_ops`), then builds the run's
    :class:`_CoreSolver`, which checks the boundary condition and factors
    ``1 + theta dt A`` once, in float64 when the system, the relation and
    ``u0`` are real.  Each :func:`step` then reuses the factorization and
    warm-starts the inclusion solve from the previous step's effort trace.
    ``dissipation`` is the boundary pairing ``-Re<e, fhat>`` of the last
    step's resolvent solve.
    """

    def __init__(self, scenario: Scenario, ops: DiscreteOperators):
        _check_ops(scenario, ops)
        self.scenario = scenario
        self.dissipation: Optional[float] = None
        self._core = core = _CoreSolver(ops, scenario.bc, scenario.theta * scenario.dt, scenario.u0)
        self._effort: Optional[np.ndarray] = None
        self._scaled = np.empty((ops.nnodes, ops.phs.n), dtype=core.dtype)  # (1 - theta) w of a step


def _check_ops(scenario: Scenario, ops: DiscreteOperators):
    """Refuse grid operators whose grid is not that of ``u0``, or whose
    system is not ``scenario.phs``: the same object, or one with the same
    ``n``, ``b``, ``P1``, ``P0`` and density on the grid."""
    if scenario.u0.shape[0] != ops.nnodes:
        raise ValueError("initial state does not match the grid")
    phs, other = scenario.phs, ops.phs
    if other is not phs and not (
            phs.n == other.n and phs.b == other.b and np.array_equal(phs.p1, other.p1)
            and np.array_equal(phs.p0, other.p0)
            and np.array_equal(phs.hamiltonian_grid(ops.grid.nodes), ops.hgrid)):
        raise ValueError("grid operators were built from another system than the scenario's")


def step(state, stepper: Stepper, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Advance ``state`` by one theta-step of the stepper's run.

    One resolvent solve ``y = (1 + theta dt A)^{-1} w``, then ``w_next =
    (y - (1 - theta) w) / theta`` (``y`` itself at ``theta = 1``), in the
    run's arithmetic and dtype, ``state`` read by :func:`.phs._as_field`
    (a complex128 one not copied), one row per grid node: a real run
    steps a complex-typed state of zero imaginary part as its real part,
    and refuses any other complex state (a ``Stepper`` built from it is a
    complex run).  The step is
    written into ``out`` when it is given, a C-contiguous ``(N, n)`` array
    of that dtype apart from ``state``, and returned, with the bits of a
    step without ``out``; at unit density the solve itself runs there.
    """
    core, theta = stepper._core, stepper.scenario.theta
    w = _as_field(state, stepper.scenario.phs.n)
    if w.shape[0] != core.ops.nnodes:
        raise ValueError(f"state does not match the grid: {w.shape[0]} rows, {core.ops.nnodes} nodes")
    if core.real and np.iscomplexobj(w):
        if np.any(w.imag):
            raise ValueError("a real run steps only real states; build the Stepper from this state for a complex run")
        w = w.real
    dtype = core.dtype
    if out is None:
        out = np.empty(w.shape, dtype=dtype)
    elif out.shape != w.shape or out.dtype != dtype or not out.flags.c_contiguous or np.may_share_memory(out, w):
        raise ValueError(f"out must be a C-contiguous {w.shape} array of dtype {dtype} apart from the state")
    unit = core.ops.identity_density
    p, _, e, fhat = core.solve(w.ravel(), x0=stepper._effort, out=out.reshape(-1) if unit else None)
    stepper.dissipation = -float(np.vdot(e, fhat).real)
    stepper._effort = e
    if not unit:
        core.state(p, out=out)
    if theta != 1.0:
        np.subtract(out, np.multiply(w, 1.0 - theta, out=stepper._scaled), out=out)
        np.divide(out, theta, out=out)
    return out


def simulate(scenario: Scenario, ops: Optional[DiscreteOperators] = None) -> Trajectory:
    """Run the theta-scheme to ``T`` and record the energy ledger.

    The step count is ``round(T/dt)`` and the step actually used is
    ``T/nsteps``, so the trajectory always lands exactly on ``T``.  An
    uncertified boundary condition, one on another system's trace basis
    and ``ops`` of another grid or system raise ``ValueError`` before any
    step (:class:`Stepper`).
    Each step is written into its row of the preallocated ``states``.
    The energies are computed per block of consecutive states of at most
    :data:`LEDGER_BLOCK_BYTES` (at least one state), once the block is
    written, by one :meth:`DiscreteOperators.energy` call on the block:
    each energy has the bits of that call on its state alone.  A block of
    one state, a state larger than the block size, is one call per state.
    A block whose energies or step dissipations are not finite (data that
    overflow double precision) raises ``ValueError`` naming the first such
    step.
    """
    u0 = scenario.u0
    if ops is None:
        ops = discretize(scenario.phs, u0.shape[0] - 1)
    nsteps = max(1, int(round(scenario.T / scenario.dt)))
    dt_eff = scenario.T / nsteps
    stepper = Stepper(replace(scenario, dt=dt_eff), ops)

    states = np.empty((nsteps + 1,) + u0.shape, dtype=stepper._core.dtype)
    states[0] = u0.real if stepper._core.real else u0
    energies = np.empty(nsteps + 1)
    dissipation = np.zeros(nsteps + 1)
    ledger = partial(_ledger_block, ops, states, energies, dissipation, dt_eff)
    block, first = max(1, LEDGER_BLOCK_BYTES // states[0].nbytes), 0
    for k in range(nsteps):
        if k + 1 - first == block:  # states first .. k, just written, fill a block
            ledger(first, k + 1)
            first = k + 1
        try:
            step(states[k], stepper, out=states[k + 1])
        except (NonconvergenceError, ValueError, RuntimeError) as exc:
            wrapped = type(exc)(f"{_at_step(k, dt_eff)}: {exc}")
            wrapped.residual = getattr(exc, "residual", None)
            raise wrapped from exc
        dissipation[k + 1] = stepper.dissipation
    ledger(first, nsteps + 1)
    return Trajectory(
        times=dt_eff * np.arange(nsteps + 1),
        states=states,
        energies=energies,
        boundary_dissipation=dissipation,
    )


def _at_step(k: int, dt: float) -> str:
    return f"step {k} (t = {k * dt:.6g})"


def _ledger_block(ops: DiscreteOperators, states: np.ndarray, energies: np.ndarray,
                  dissipation: np.ndarray, dt: float, lo: int, hi: int):
    """Write the energies of the states ``lo .. hi - 1`` and refuse the
    block if one of them, or the dissipation of a step that produced one,
    is not finite: ``ValueError`` naming the first such step (the initial
    state for state 0), its time and the values.  An overflowing energy is
    reported by this error, not by a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        energies[lo:hi] = ops.energy(states[lo:hi])
    if np.isfinite(energies[lo:hi]).all() and np.isfinite(dissipation[lo:hi]).all():
        return
    i = lo + int(np.argmin(np.isfinite(energies[lo:hi]) & np.isfinite(dissipation[lo:hi])))
    where = "initial state (t = 0)" if i == 0 else _at_step(i - 1, dt)
    raise ValueError(f"{where}: the energy ledger is not finite (E = {energies[i]:.6g} at t = {i * dt:.6g}, "
                     f"boundary dissipation {dissipation[i]:.6g}); the run overflows double precision")


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
