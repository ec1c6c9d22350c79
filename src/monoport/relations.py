"""Monotone relations on finite-dimensional complex inner-product spaces.

A relation is a subset of ``H x H``.  Monotonicity means
``Re<u - x | v - y> >= 0`` for every two members ``(x, y)``, ``(u, v)``;
maximal monotone relations additionally admit an everywhere-defined
resolvent ``J_lam = (1 + lam A)^{-1}``.  The module is organized around
that resolvent: every representation knows how to evaluate it, the
combinators reduce theirs to the wrapped ones, and the certification
routines decide monotonicity and maximality by exact rules — linear
algebra for linear graphs, closed forms for friction, and componentwise
or congruence arguments for the combinators.  No certificate is
sampled; the sampled cross-check lives in :mod:`.verify`.

Representations
---------------
``LinearGraph``
    the span of finitely many pairs, stored as an orthonormal basis of
    the graph subspace of ``H + H``, translated by an offset pair (zero
    unless the relation carries inhomogeneous data).
``SeparableProx``
    coordinatewise friction: per-coordinate scaled absolute values,
    each with a closed-form proximal map (soft thresholding).
``DirectSum``, ``Transformed``
    combinators: block sums, and the congruence ``T* B T`` by an
    invertible map ``T``.

An affine relation has one form, a ``LinearGraph``
(:attr:`Relation.affine`); :func:`direct_sum` and :func:`transform`
keep it, so ``DirectSum`` and ``Transformed`` always hold a non-affine
part.

Post-sets ``A[{x}]`` of affine relations are affine sets
(:func:`post_set`); :func:`principal_section` also has the closed form
for friction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .spaces import InnerProductSpace, LinearMap, adjoint as _map_adjoint

__all__ = [
    "TOL_LINEAR",
    "TOL_ITERATIVE",
    "MAX_ITER",
    "NonconvergenceError",
    "AffineSet",
    "Certificate",
    "Relation",
    "LinearGraph",
    "SeparableProx",
    "DirectSum",
    "Transformed",
    "post_set",
    "adjoint_relation",
    "resolvent",
    "resolvent_value",
    "yosida",
    "principal_section",
    "direct_sum",
    "transform",
    "check_monotone",
    "check_maximal",
    "graph_residual",
    "solve_inclusion",
]

#: Residual tolerance on direct linear solve paths.
TOL_LINEAR = 1e-10

#: Residual tolerance on iterative solve paths.
TOL_ITERATIVE = 1e-8

#: Iteration cap shared by every iterative solver in the module.
MAX_ITER = 10_000


class NonconvergenceError(RuntimeError):
    """An iterative or direct solve failed to reach its residual target.

    Carries the last residual in :attr:`residual`.
    """

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# set descriptions returned by post_set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSet:
    """``{base + directions @ t}`` — an affine subspace (possibly a point)."""

    base: np.ndarray
    directions: np.ndarray  # dim x k, k may be 0

    @property
    def is_point(self) -> bool:
        return self.directions.shape[1] == 0


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Verdicts of the certification routines.

    Each verdict is ``"yes"``, ``"no"`` or ``"unknown"``.  A ``"no"``
    always carries a concrete, re-verifiable witness in :attr:`witness`
    (a violating pair of graph points for monotonicity, an unreachable
    right-hand side for maximality, a mismatch direction for skewness).
    Every ``"yes"`` and ``"no"`` comes from an exact rule;
    :attr:`method` names it.
    """

    monotone: str = "unknown"
    maximal: str = "unknown"
    skew: str = "unknown"
    method: str = ""
    witness: Optional[dict] = None

    def describe(self) -> str:
        parts = []
        for name in ("monotone", "maximal", "skew"):
            verdict = getattr(self, name)
            if verdict != "unknown":
                parts.append(f"{name}={verdict}")
        if not parts:
            parts.append("all verdicts unknown")
        return f"{', '.join(parts)} [{self.method}]"


# ---------------------------------------------------------------------------
# small linear-algebra helpers
# ---------------------------------------------------------------------------


def _orthonormal_columns(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (rank-revealing, via SVD)."""
    if m.size == 0:
        return m.reshape(m.shape[0], 0)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return m[:, :0]
    rank = int(np.sum(s > 1e-12 * s[0]))
    return u[:, :rank]


def _nullspace(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of ``m`` (columns)."""
    if m.shape[1] == 0:
        return np.zeros((0, 0), dtype=complex)
    u, s, vh = np.linalg.svd(m, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > 1e-12 * max(smax, 1e-300)))
    return vh[rank:].conj().T


def _lstsq(m: np.ndarray, b: np.ndarray):
    """Least-squares solve returning (solution, residual_norm)."""
    if m.shape[1] == 0:
        return np.zeros(0, dtype=complex), float(np.linalg.norm(b))
    sol = np.linalg.lstsq(m, b, rcond=None)[0]
    return sol, float(np.linalg.norm(m @ sol - b))


# ---------------------------------------------------------------------------
# representation classes
# ---------------------------------------------------------------------------


class Relation:
    """Base class; concrete relations implement ``_resolve(lam, y, x0)``,
    the pair ``(x, w)`` with ``x + lam w = y``, warm-started from ``x0``.

    :attr:`affine` is true exactly for a ``LinearGraph``: one linear
    solve, exact certificates, and the explicit leg of a ``theta < 1``
    step.
    """

    space: InnerProductSpace
    affine = False

    def _resolve(self, lam, y, x0):
        raise NotImplementedError(f"resolvent not implemented for {type(self).__name__!r}")


class LinearGraph(Relation):
    """The affine relation ``{(x0 + zx c, y0 + zy c)}``: the span of
    finitely many pairs ``(x_i, y_i)``, translated by ``(x0, y0)``.

    The graph subspace is stored as an orthonormalized ``2 dim x k``
    basis (dependent input columns are dropped), split into the ``zx``
    and ``zy`` row blocks.  The offsets default to zero; translation
    keeps monotonicity and maximality.
    """

    affine = True

    def __init__(self, space: InnerProductSpace, zx, zy, x0=None, y0=None):
        zx = np.atleast_2d(np.asarray(zx, dtype=complex))
        zy = np.atleast_2d(np.asarray(zy, dtype=complex))
        if zx.shape[0] != space.dim or zy.shape[0] != space.dim:
            raise ValueError("graph blocks must have space.dim rows")
        if zx.shape[1] != zy.shape[1]:
            raise ValueError("graph blocks must have equally many columns")
        z = _orthonormal_columns(np.vstack([zx, zy]))
        self.space = space
        self.zx = z[: space.dim]
        self.zy = z[space.dim:]
        self.x0 = np.zeros(space.dim, dtype=complex) if x0 is None else space.check_vector(x0)
        self.y0 = np.zeros(space.dim, dtype=complex) if y0 is None else space.check_vector(y0)

    @classmethod
    def from_matrix(cls, space: InnerProductSpace, m) -> "LinearGraph":
        """Graph of the linear map ``x -> M x``."""
        m = np.atleast_2d(np.asarray(m, dtype=complex))
        return cls(space, np.eye(space.dim), m)

    @property
    def graph_dim(self) -> int:
        return self.zx.shape[1]

    @property
    def shifted(self) -> bool:
        """Whether the offset pair is nonzero: the relation is affine but
        not linear."""
        return bool(np.any(self.x0) or np.any(self.y0))

    @property
    def stacked(self) -> np.ndarray:
        return np.vstack([self.zx, self.zy])

    def _resolve(self, lam, y, x0):
        return self._solve(self.zx + lam * self.zy, y - self.x0 - lam * self.y0)

    def _solve(self, m, rhs):
        """The graph pair ``(x0 + zx c, y0 + zy c)`` with ``m c = rhs``; a
        residual above :data:`TOL_LINEAR` (relative) raises."""
        c, res = _lstsq(m, rhs)
        if res > TOL_LINEAR * max(1.0, float(np.linalg.norm(rhs))):
            raise NonconvergenceError(
                f"linear resolvent system is inconsistent (residual {res:.3e}); "
                "the relation is not maximal on this right-hand side",
                residual=res,
            )
        return self.x0 + self.zx @ c, self.y0 + self.zy @ c


class SeparableProx(Relation):
    """Coordinatewise friction, with a closed-form proximal map.

    ``pieces`` is one tuple per coordinate, ``("abs", mu)``: the
    set-valued derivative of ``mu |x|``, ``mu >= 0``, whose proximal map
    is soft thresholding.

    The space weight must be diagonal with positive real entries (the
    pieces are coordinatewise, and only then is the product monotone in
    the weighted inner product for free).
    """

    def __init__(self, space: InnerProductSpace, pieces: Sequence[tuple]):
        w = space.weight
        if not np.allclose(w, np.diag(np.diag(w).real), atol=1e-13 * max(1.0, np.linalg.norm(w))):
            raise ValueError("SeparableProx requires a real positive diagonal weight")
        pieces = tuple(tuple(p) for p in pieces)
        if len(pieces) != space.dim:
            raise ValueError(f"need {space.dim} pieces, got {len(pieces)}")
        for p in pieces:
            _validate_piece(p)
        self.space = space
        self.pieces = pieces

    def prox(self, lam: float, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex).reshape(-1)
        return np.array([_prox_piece(p, lam, vk) for p, vk in zip(self.pieces, v)])

    def _resolve(self, lam, y, x0):
        x = self.prox(lam, y)
        return x, (y - x) / lam


def _validate_piece(p: tuple):
    if p[0] != "abs":
        raise ValueError(f"unknown piece kind {p[0]!r}")
    if len(p) != 2 or not (float(p[1]) >= 0.0):
        raise ValueError(f"abs piece needs a nonnegative scale, got {p!r}")


def _prox_piece(p: tuple, lam: float, v: complex) -> complex:
    t = lam * p[1]
    av = abs(v)
    return 0.0 if av <= t else v * (1.0 - t / av)


def _sum_space(parts: Sequence[Relation]) -> InnerProductSpace:
    """The orthogonal sum of the parts' spaces (block-diagonal weight)."""
    weight = sla.block_diag(*[p.space.weight for p in parts])
    return InnerProductSpace(weight.shape[0], weight)


class DirectSum(Relation):
    """Block relation on the orthogonal sum of the component spaces.

    Built by :func:`direct_sum` only when some part is not affine; a sum
    of affine parts is one ``LinearGraph``.
    """

    def __init__(self, parts: Sequence[Relation]):
        parts = tuple(parts)
        if not parts:
            raise ValueError("direct sum needs at least one part")
        self.parts = parts
        dims = [p.space.dim for p in parts]
        offsets = np.concatenate([[0], np.cumsum(dims)])
        self.slices = tuple(slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:]))
        self.space = _sum_space(parts)

    def split(self, v: np.ndarray):
        v = self.space.check_vector(v)
        return [v[s] for s in self.slices]

    @cached_property
    def _affine_split(self):
        """``(a, f, graph, rest)``: the coordinates ``a`` of the affine
        parts and ``f`` of the others, the affine parts as one
        ``LinearGraph``, and the others as one relation; ``None`` when no
        part, or every part, is affine."""
        is_affine = [p.affine for p in self.parts]
        if all(is_affine) or not any(is_affine):
            return None

        def coords(flag):
            return np.concatenate([np.arange(s.start, s.stop)
                                   for s, aff in zip(self.slices, is_affine) if aff == flag])

        rest = [p for p in self.parts if not p.affine]
        return (coords(True), coords(False),
                direct_sum([p for p in self.parts if p.affine]),
                rest[0] if len(rest) == 1 else DirectSum(rest))

    def _resolve(self, lam, y, x0):
        ys = self.split(y)
        x0s = [None] * len(self.parts) if x0 is None else self.split(x0)
        xs, ws = [], []
        for part, yk, x0k in zip(self.parts, ys, x0s):
            xk, wk = part._resolve(lam, yk, x0k)
            xs.append(xk)
            ws.append(wk)
        return np.concatenate(xs), np.concatenate(ws)


class Transformed(Relation):
    """The congruence ``T* B T = {(x, T* w) : (T x, w) in B}`` by an
    invertible map ``T`` (square, condition number below ``1e12``).

    Constructed through :func:`transform`; affine ``B`` never reaches
    this class (its congruence is computed exactly as a ``LinearGraph``).
    """

    def __init__(self, tmap: LinearMap, base: Relation):
        m = tmap.matrix
        if m.shape[0] != m.shape[1] or not np.linalg.cond(m) < 1e12:
            raise ValueError(
                "the congruence of a nonlinear relation needs an invertible map"
            )
        self.tmap = tmap
        self.base = base
        self.space = tmap.source
        self.adj_matrix = _map_adjoint(tmap).matrix
        self.inv_matrix = np.linalg.inv(m)

    def _resolve(self, lam, y, x0):
        """:func:`solve_inclusion` at ``phi = 1/lam``, which substitutes
        ``u = T x``.  An iterative base meets :data:`TOL_ITERATIVE` in
        ``u`` only: the defect ``|x + lam w - y|`` of the returned pair
        is ``lam T*`` applied to the substituted defect, so it can exceed
        the tolerance by the factor ``lam |T*|``."""
        return solve_inclusion(np.eye(self.space.dim) / lam, self, y / lam, x0)


# ---------------------------------------------------------------------------
# the inclusion-solver primitive
# ---------------------------------------------------------------------------


def solve_inclusion(phi: np.ndarray, rel: Relation, g: np.ndarray, x0=None):
    """Solve ``phi z + rel(z) ∋ g`` for a Hermitian positive ``phi``.

    This is the primitive behind the boundary step of the solver, and
    behind every resolvent of a congruence; ``x0`` warm-starts the
    iterative paths.

    Returns ``(z, w)`` with ``w in rel(z)`` (exactly, for closed-form
    representations; to :data:`TOL_ITERATIVE` otherwise) and
    ``phi z + w - g`` small.  A linear system whose residual exceeds
    :data:`TOL_LINEAR` (relative) raises :class:`NonconvergenceError`.

    Dispatch: a congruence ``T* B T`` substitutes ``u = T z`` and solves
    ``T*^{-1} phi T^{-1} u + B(u) ∋ T*^{-1} g`` for ``(u, w)``, returning
    ``(T^{-1} u, T* w)``, so a ``multiport`` listed out of port order
    takes the path of one listed in order.  Otherwise scalar ``phi``
    reduces to the wrapped resolvent; a linear graph (every affine
    relation, offsets included) is solved by one least-squares solve;
    diagonal ``phi`` against coordinatewise pieces is solved per
    coordinate; block ``phi`` against a direct sum recurses; any other
    ``phi`` against a direct sum of affine and non-affine parts
    eliminates the affine coordinates by one Schur complement and
    recurses on the rest (:func:`_schur_reduce`), so one friction port
    next to linear ports has a closed form.  That answer is kept only if
    it passes the residual test of Douglas–Rachford splitting;
    otherwise, and in the general case, splitting runs between the
    affine part ``z -> phi z - g`` and the relation.
    """
    space = rel.space
    g = space.check_vector(g)
    phi = np.atleast_2d(np.asarray(phi, dtype=complex))
    d = space.dim
    if phi.shape != (d, d):
        raise ValueError(f"phi must be {d}x{d}")

    if isinstance(rel, Transformed):
        ts = rel.adj_matrix
        u, w = solve_inclusion(np.linalg.solve(ts, phi @ rel.inv_matrix), rel.base,
                               np.linalg.solve(ts, g),
                               x0=None if x0 is None else rel.tmap.matrix @ np.asarray(x0))
        return rel.inv_matrix @ u, ts @ w

    # scalar phi -> plain resolvent
    diag = np.diag(phi)
    scalar_dev = np.linalg.norm(phi - diag[0].real * np.eye(d))
    if scalar_dev <= 1e-14 * max(1.0, abs(diag[0])) and diag[0].real > 0:
        lam = 1.0 / diag[0].real
        z, w = rel._resolve(lam, lam * g, x0)
        return z, g - phi @ z

    if isinstance(rel, LinearGraph):
        return rel._solve(phi @ rel.zx + rel.zy, g - phi @ rel.x0 - rel.y0)

    offdiag = phi - np.diag(diag)
    if isinstance(rel, SeparableProx) and np.linalg.norm(offdiag) <= 1e-14 * max(1.0, np.linalg.norm(phi)) \
            and np.all(diag.real > 0) and np.allclose(diag.imag, 0.0, atol=1e-14):
        z = np.array([
            _prox_piece(p, 1.0 / dk.real, gk / dk.real)
            for p, dk, gk in zip(rel.pieces, diag, g)
        ])
        return z, g - phi @ z

    if isinstance(rel, DirectSum):
        blocks_ok = all(
            np.linalg.norm(phi[s1, s2]) <= 1e-14 * max(1.0, np.linalg.norm(phi))
            for i, s1 in enumerate(rel.slices)
            for j, s2 in enumerate(rel.slices)
            if i != j
        )
        if blocks_ok:
            zs, ws = [], []
            x0s = [None] * len(rel.parts) if x0 is None else rel.split(x0)
            for part, s, x0k in zip(rel.parts, rel.slices, x0s):
                zk, wk = solve_inclusion(phi[s, s], part, g[s], x0=x0k)
                zs.append(zk)
                ws.append(wk)
            return np.concatenate(zs), np.concatenate(ws)
        if rel._affine_split is not None:
            out = _schur_reduce(phi, rel, g, x0)
            # the residual test of _douglas_rachford: M near singular can
            # make the elimination return a wrong pair without raising
            if out is not None and space.norm(phi @ out[0] + out[1] - g) \
                    <= TOL_ITERATIVE * max(1.0, float(np.linalg.norm(g))):
                return out

    return _douglas_rachford(phi, rel, g, x0)


def _schur_reduce(phi, rel, g, x0):
    """Eliminate the affine coordinates of a direct sum exactly.

    With the affine parts written as ``(x0 + zx c, y0 + zy c)`` and
    ``M = phi_aa zx + zy``, the rows ``a`` give
    ``c = M^{-1}(h - phi_af z_f)`` with ``h = g_a - phi_aa x0 - y0``;
    the rows ``f`` leave ``phi' z_f + B(z_f) ∋ g'`` with the Schur
    complement ``phi' = phi_ff - phi_fa zx M^{-1} phi_af``, solved by
    recursion.  Returns ``None`` when ``M`` is not square or singular,
    or when the recursion does not converge; the caller tests the
    residual of the pair it returns.
    """
    a, f, graph, rest = rel._affine_split
    k = a.size
    order = np.concatenate([a, f])
    q = phi[np.ix_(order, order)]
    phi_aa, phi_af, phi_fa, phi_ff = q[:k, :k], q[:k, k:], q[k:, :k], q[k:, k:]
    m = phi_aa @ graph.zx + graph.zy
    if m.shape[0] != m.shape[1]:
        return None
    try:
        sol = np.linalg.solve(m, np.column_stack([g[a] - phi_aa @ graph.x0 - graph.y0, phi_af]))
    except np.linalg.LinAlgError:
        return None
    c_h, c_f = sol[:, 0], sol[:, 1:]
    phi_fa_zx = phi_fa @ graph.zx
    try:
        z_f, w_f = solve_inclusion(phi_ff - phi_fa_zx @ c_f, rest,
                                   g[f] - phi_fa @ graph.x0 - phi_fa_zx @ c_h,
                                   x0=None if x0 is None else np.asarray(x0)[f])
    except NonconvergenceError:
        return None
    c = c_h - c_f @ z_f
    z = np.empty(rel.space.dim, dtype=complex)
    w = np.empty(rel.space.dim, dtype=complex)
    z[a], z[f] = graph.x0 + graph.zx @ c, z_f
    w[a], w[f] = graph.y0 + graph.zy @ c, w_f
    return z, w


def _douglas_rachford(phi, rel, g, x0):
    """Splitting between the affine part ``z -> phi z - g`` and ``rel``."""
    space = rel.space
    d = space.dim
    w2 = space.weight
    # eigenvalue range of phi in the weighted sense sets the step length
    try:
        eigs = sla.eigvalsh(w2 @ phi, w2).real
        m, big = float(eigs.min()), float(eigs.max())
        gamma = 1.0 / np.sqrt(m * big) if m > 0 else 1.0
    except sla.LinAlgError:
        gamma = 1.0
    lu = sla.lu_factor(np.eye(d) + gamma * phi)
    scale = max(1.0, float(np.linalg.norm(g)))

    if x0 is not None:
        z0 = np.asarray(x0, dtype=complex)
        s = z0 - gamma * (g - phi @ z0)
    else:
        s = np.zeros(d, dtype=complex)

    best = None
    for _ in range(MAX_ITER):
        z1 = sla.lu_solve(lu, s + gamma * g)
        z2, w2val = rel._resolve(gamma, 2.0 * z1 - s, None)
        res = float(space.norm(phi @ z2 + w2val - g))
        if best is None or res < best[0]:
            best = (res, z2, w2val)
        if res <= TOL_ITERATIVE * scale:
            return z2, w2val
        s = s + z2 - z1
    raise NonconvergenceError(
        f"splitting iteration did not reach tol={TOL_ITERATIVE:.1e} in {MAX_ITER} steps "
        f"(best residual {best[0]:.3e})",
        residual=best[0],
    )


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def resolvent(rel: Relation, lam: float, y) -> np.ndarray:
    """Evaluate ``x = (1 + lam A)^{-1} y``: the unique ``x`` with
    ``(x, (y - x)/lam)`` in the relation.

    ``lam`` must be positive.  Linear systems are checked for
    consistency to :data:`TOL_LINEAR`, iterations run to
    :data:`TOL_ITERATIVE` within :data:`MAX_ITER` steps; a failure
    raises :class:`NonconvergenceError` carrying the last residual.
    For a :class:`Transformed` relation that tolerance holds only in the
    substituted coordinates ``z = T x``; the defect ``|x + lam w - y|``
    is ``lam T*`` applied to the substituted one, and reaches 5.9e-8 for
    ``|T*| <= 2``.
    """
    x, _ = resolvent_value(rel, lam, y)
    return x


def resolvent_value(rel: Relation, lam: float, y):
    """Like :func:`resolvent` but returns the graph pair ``(x, w)`` with
    ``w`` the relation value at ``x`` (so ``x + lam w = y`` up to the
    same tolerances)."""
    if not lam > 0:
        raise ValueError("resolvent parameter must be positive")
    y = rel.space.check_vector(y)
    return rel._resolve(float(lam), y, None)


def yosida(rel: Relation, lam: float, x) -> np.ndarray:
    """The single-valued regularization ``lam^{-1} (x - (1 + lam A)^{-1} x)``."""
    jx = resolvent(rel, lam, x)
    return (np.asarray(x, dtype=complex) - jx) / lam


def post_set(rel: Relation, x) -> Optional[AffineSet]:
    """Describe ``A[{x}] = {y : (x, y) in A}`` for an affine relation.

    Returns an :class:`AffineSet`, or ``None`` when ``x`` is outside the
    domain.  Other representations raise ``ValueError``.
    """
    if not isinstance(rel, LinearGraph):
        raise ValueError(f"post-set enumeration is not supported for representation {type(rel).__name__!r}")
    x = rel.space.check_vector(x) - rel.x0
    c, res = _lstsq(rel.zx, x)
    if res > TOL_LINEAR * max(1.0, float(np.linalg.norm(x))):
        return None
    base = rel.zy @ c + rel.y0
    null = _nullspace(rel.zx)
    dirs = _orthonormal_columns(rel.zy @ null) if null.shape[1] else np.zeros((rel.space.dim, 0), dtype=complex)
    return AffineSet(base=base, directions=dirs)


def principal_section(rel: Relation, x) -> np.ndarray:
    """Least-norm element of the post-set at ``x`` in the weighted norm.

    Affine relations take the least-norm point of :func:`post_set`, and
    raise ``ValueError`` outside the domain.  Friction has the closed
    form ``mu x / |x|`` per coordinate, and ``0`` at the kink
    ``|x| <= 1e-12``, where the post-set is the disk of radius ``mu``.
    """
    if isinstance(rel, SeparableProx):
        x = rel.space.check_vector(x)
        return np.array([0.0 if abs(xk) <= 1e-12 else p[1] * xk / abs(xk)
                         for p, xk in zip(rel.pieces, x)], dtype=complex)
    desc = post_set(rel, x)
    if desc is None:
        raise ValueError("empty post-set: the point is outside the relation's domain")
    if desc.is_point:
        return desc.base
    lh = rel.space._chol.conj().T
    t, _ = _lstsq(lh @ desc.directions, -(lh @ desc.base))
    return desc.base + desc.directions @ t


def adjoint_relation(rel: Relation) -> Relation:
    """For a linear relation: the orthogonal complement of
    ``{(-y, x) : (x, y) in A}`` in the weighted pair inner product.

    With identity weights this sends the graph of a matrix ``M`` to the
    graph of ``M^H``.
    """
    if not isinstance(rel, LinearGraph) or rel.shifted:
        raise ValueError("adjoint requires a linear relation (a LinearGraph without offsets)")
    d = rel.space.dim
    w2 = sla.block_diag(rel.space.weight, rel.space.weight)
    flipped = np.vstack([-rel.zy, rel.zx])
    comp = _nullspace(flipped.conj().T @ w2)
    return LinearGraph(rel.space, comp[:d], comp[d:])


def direct_sum(relations: Sequence[Relation]) -> Relation:
    """Block relation of the parts on the orthogonal sum space.

    When every part is affine the sum is one ``LinearGraph`` with
    block-diagonal ``zx``/``zy`` and concatenated offsets on the
    block-weighted sum space.  Any other mix is a lazy
    :class:`DirectSum`.
    """
    parts = tuple(relations)
    if not (parts and all(p.affine for p in parts)):
        return DirectSum(parts)
    return LinearGraph(_sum_space(parts), sla.block_diag(*[p.zx for p in parts]),
                       sla.block_diag(*[p.zy for p in parts]),
                       x0=np.concatenate([p.x0 for p in parts]),
                       y0=np.concatenate([p.y0 for p in parts]))


def transform(tmap, rel: Relation) -> Relation:
    """The congruence ``T* B T = {(x, T* w) : (T x, w) in B}``.

    For an affine ``B`` the result is computed exactly, for any map, as a
    ``LinearGraph``: the domain condition ``T x in dom B`` is pulled
    back by a null-space computation, and the offset by a particular
    solution (a shifted graph whose translated domain misses the range
    of ``T`` is empty, which is an error).
    Other representations are wrapped lazily in :class:`Transformed`,
    which needs ``T`` square and well conditioned; :func:`solve_inclusion`,
    and with it the resolvent, substitutes ``u = T x`` exactly.
    """
    if not isinstance(tmap, LinearMap):
        raise TypeError("transform expects a LinearMap")
    if tmap.target.dim != rel.space.dim:
        raise ValueError("map target must match the relation's space")
    if not rel.affine:
        return Transformed(tmap, rel)
    dx = tmap.source.dim
    sys = np.hstack([tmap.matrix, -rel.zx])
    null = _nullspace(sys)
    adj = _map_adjoint(tmap).matrix
    # solve T x - x0 = Zx c: particular solution + homogeneous family
    part, res = _lstsq(sys, rel.x0)
    if res > TOL_LINEAR * max(1.0, float(np.linalg.norm(rel.x0))):
        raise ValueError(
            "transform produced an empty relation: the map's range "
            "misses the (translated) domain"
        )
    return LinearGraph(tmap.source, null[:dx], adj @ (rel.zy @ null[dx:]),
                       x0=part[:dx], y0=adj @ (rel.y0 + rel.zy @ part[dx:]))


def graph_residual(rel: Relation, x, y) -> float:
    """A residual that vanishes exactly when ``(x, y)`` belongs to the
    relation, and is comparable to the distance from the graph.

    Linear graphs measure the orthogonal distance to the graph subspace;
    coordinatewise pieces use the proximal identity ``x = prox(x + y)``;
    combinators recurse.
    """
    space = rel.space
    x = space.check_vector(x)
    y = space.check_vector(y)
    if isinstance(rel, LinearGraph):
        z = rel.stacked
        w2 = sla.block_diag(space.weight, space.weight)
        p = np.concatenate([x - rel.x0, y - rel.y0])
        gram = z.conj().T @ w2 @ z
        c = np.linalg.solve(gram, z.conj().T @ (w2 @ p))
        r = p - z @ c
        return float(np.sqrt(abs(r.conj() @ (w2 @ r))))
    if isinstance(rel, SeparableProx):
        # the proximal identity: (x, y) is in the graph iff x = prox_1(x + y)
        xp = rel.prox(1.0, x + y)
        return float(np.sqrt(2.0) * space.norm(x - xp))
    if isinstance(rel, DirectSum):
        xs, ys = rel.split(x), rel.split(y)
        return float(np.sqrt(sum(graph_residual(p, xk, yk) ** 2
                                 for p, xk, yk in zip(rel.parts, xs, ys))))
    if isinstance(rel, Transformed):
        t = rel.tmap.matrix
        return graph_residual(rel.base, t @ x, np.linalg.solve(rel.adj_matrix, y))
    raise ValueError(f"no graph residual available for {type(rel).__name__!r}")


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def check_monotone(rel: Relation) -> Certificate:
    """Certify ``Re<u - x | v - y> >= 0`` over the relation.

    Exact for linear graphs (smallest eigenvalue of the symmetrized
    pairing restricted to the graph subspace) and for coordinatewise
    convex pieces (subdifferentials by construction); translations,
    direct sums and congruences by an invertible map carry the verdict
    of their parts over.  A ``"no"`` carries the violating pair of graph
    points, mapped into the relation's own coordinates.  A representation
    with no exact rule gets ``"unknown"``.
    """
    if isinstance(rel, LinearGraph):
        return _monotone_linear(rel)
    if isinstance(rel, SeparableProx):
        return Certificate(monotone="yes", method="closed-form: coordinatewise convex pieces")
    if isinstance(rel, DirectSum):
        worst = None
        for idx, part in enumerate(rel.parts):
            cert = check_monotone(part)
            if cert.monotone == "no":
                return _embed_sum_witness(rel, idx, cert)
            if cert.monotone == "unknown":
                worst = cert
        if worst is not None:
            return Certificate(monotone="unknown", method="componentwise: " + worst.method)
        return Certificate(monotone="yes", method="componentwise over direct summands")
    if isinstance(rel, Transformed):
        # (z, w) in B  <->  (T^{-1} z, T* w) in T* B T, with the same pairing
        cert = check_monotone(rel.base)
        return _lift_certificate(cert, "congruence preserves monotonicity: " + cert.method,
                                 lambda pair: (np.linalg.solve(rel.tmap.matrix, pair[0]),
                                               rel.adj_matrix @ pair[1]))
    return Certificate(monotone="unknown", method=f"no exact rule for {type(rel).__name__}")


def _lift_certificate(cert: Certificate, method: str, pair_map) -> Certificate:
    out = Certificate(monotone=cert.monotone, method=method)
    if cert.witness is not None and "pair_a" in cert.witness:
        out.witness = {
            "pair_a": pair_map(cert.witness["pair_a"]),
            "pair_b": pair_map(cert.witness["pair_b"]),
            "value": cert.witness["value"],
        }
    else:
        out.witness = cert.witness
    return out


def _embed_sum_witness(rel: DirectSum, idx: int, cert: Certificate) -> Certificate:
    def embed(vec, k):
        out = np.zeros(rel.space.dim, dtype=complex)
        out[rel.slices[k]] = vec
        return out

    wa = cert.witness["pair_a"]
    wb = cert.witness["pair_b"]
    return Certificate(
        monotone="no",
        method=f"componentwise (summand {idx}): {cert.method}",
        witness={
            "pair_a": (embed(wa[0], idx), embed(wa[1], idx)),
            "pair_b": (embed(wb[0], idx), embed(wb[1], idx)),
            "value": cert.witness["value"],
        },
    )


def _monotone_linear(rel: LinearGraph) -> Certificate:
    """The verdict of the linear part; a ``"no"`` witness is the pair
    ``(x0 + zx c, y0 + zy c)``, ``(x0, y0)`` of graph points."""
    w = rel.space.weight
    b = rel.zx.conj().T @ (w @ rel.zy)
    m = 0.5 * (b + b.conj().T)
    prefix = "translation-invariant: " if rel.shifted else ""
    if m.shape[0] == 0:
        return Certificate(monotone="yes", method=prefix + "exact: empty graph basis")
    vals, vecs = sla.eigh(m)
    scale = max(1.0, float(np.linalg.norm(m)))
    method = prefix + "exact: eigenvalues of the symmetrized graph pairing"
    if vals[0] >= -1e-10 * scale:
        return Certificate(monotone="yes", method=method,
                           witness={"min_eigenvalue": float(vals[0])})
    c = vecs[:, 0]
    dx, dy = rel.zx @ c, rel.zy @ c
    value = float(np.real(dx.conj() @ (w @ dy)))
    return Certificate(
        monotone="no",
        method=method,
        witness={"pair_a": (dx + rel.x0, dy + rel.y0),
                 "pair_b": (rel.x0.copy(), rel.y0.copy()), "value": value},
    )


def check_maximal(rel: Relation) -> Certificate:
    """Certify maximal monotonicity.

    Monotonicity is certified first; a failure there is decisive and its
    witness is returned.  On the maximality side, linear graphs get the
    exact surjectivity test (the forward-plus-backward block of the graph
    basis must have full rank); friction is a subdifferential of a convex
    function, hence maximal (Minty); translations, direct sums and
    congruences by an invertible map carry the verdict of their parts
    over.  A representation with no exact rule gets ``"unknown"``.
    """
    mono = check_monotone(rel)
    if mono.monotone == "no":
        return Certificate(monotone="no", maximal="no",
                           method="not monotone; " + mono.method,
                           witness=mono.witness)
    if mono.monotone == "unknown":
        return Certificate(monotone="unknown", maximal="unknown", method=mono.method)
    cert = _maximal_dispatch(rel)
    cert.monotone = "yes"
    return cert


def _maximal_dispatch(rel) -> Certificate:
    if isinstance(rel, LinearGraph):
        return _maximal_linear(rel)
    if isinstance(rel, SeparableProx):
        return Certificate(maximal="yes",
                           method="closed-form: every coordinate piece has a full-domain proximal map")
    if isinstance(rel, DirectSum):
        for idx, part in enumerate(rel.parts):
            cert = _maximal_dispatch(part)
            if cert.maximal == "no":
                rhs = np.zeros(rel.space.dim, dtype=complex)
                if cert.witness is not None and "rhs" in cert.witness:
                    rhs[rel.slices[idx]] = cert.witness["rhs"]
                return Certificate(maximal="no",
                                   method=f"componentwise (summand {idx}): {cert.method}",
                                   witness={"rhs": rhs})
            if cert.maximal == "unknown":
                return Certificate(maximal="unknown",
                                   method=f"componentwise (summand {idx}): {cert.method}")
        return Certificate(maximal="yes", method="componentwise over direct summands")
    if isinstance(rel, Transformed):
        cert = _maximal_dispatch(rel.base)
        cert.method = "congruence by an invertible map: " + cert.method
        return cert
    return Certificate(maximal="unknown", method=f"no exact rule for {type(rel).__name__}")


def _maximal_linear(rel: LinearGraph) -> Certificate:
    d = rel.space.dim
    r = rel.zx + rel.zy
    if r.shape[1] == 0:
        u, s, _ = np.eye(d, dtype=complex), np.zeros(0), None
        rank = 0
    else:
        u, s, _ = np.linalg.svd(r)
        rank = int(np.sum(s > 1e-10 * max(1.0, s[0])))
    prefix = "translation-invariant: " if rel.shifted else ""
    if rank == d:
        return Certificate(maximal="yes",
                           method=prefix + "exact: forward-plus-backward block has full rank")
    # orthogonal to the range, lifted by the offsets: unreachable by 1 + A
    witness_rhs = u[:, rank] + rel.x0 + rel.y0
    return Certificate(
        maximal="no",
        method=prefix + "exact: forward-plus-backward block is rank deficient",
        witness={"rhs": witness_rhs, "rank": rank, "dim": d},
    )
