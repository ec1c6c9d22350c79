"""Monotone relations on finite-dimensional complex inner-product spaces.

A relation is a subset of ``H x H``.  Monotonicity means
``Re<u - x | v - y> >= 0`` for every two members ``(x, y)``, ``(u, v)``;
maximal monotone relations additionally admit an everywhere-defined
resolvent ``J_lam = (1 + lam A)^{-1}``, the case ``phi = 1/lam`` of the
inclusion ``phi z + A(z) ∋ g`` around which the module is organized:
:func:`plan_inclusion` reads ``(phi, A)`` once, down through the
combinators, and :func:`solve_inclusion` applies that plan to each ``g``.
On real data a sum of linear graphs and friction is solved exactly on
its affine pieces, in float64; complex data is split (Douglas–Rachford).
:func:`certify` decides monotonicity and maximality in one walk, by
exact rules — linear algebra for linear graphs, closed forms for
friction, and componentwise or congruence arguments for the
combinators.  No certificate is sampled; the sampled cross-check lives
in :mod:`.verify`.

Representations
---------------
The set of representations is closed: certification, planning and
:func:`graph_residual` have one branch for each of the four below, and
raise ``TypeError`` for any other ``Relation`` subclass.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla

from .spaces import InnerProductSpace, LinearMap, _as_matrix, _as_vector, adjoint as _map_adjoint

__all__ = [
    "TOL_LINEAR",
    "TOL_ITERATIVE",
    "MAX_ITER",
    "NonconvergenceError",
    "Certificate",
    "Relation",
    "LinearGraph",
    "SeparableProx",
    "DirectSum",
    "Transformed",
    "adjoint_relation",
    "resolvent",
    "resolvent_value",
    "yosida",
    "direct_sum",
    "transform",
    "certify",
    "check_monotone",
    "check_maximal",
    "graph_residual",
    "plan_inclusion",
    "solve_inclusion",
]

#: Residual tolerance on direct linear solve paths.
TOL_LINEAR = 1e-10

#: Residual tolerance on iterative solve paths.
TOL_ITERATIVE = 1e-8

#: Iteration cap shared by every iterative solver in the module.
MAX_ITER = 10_000

#: The one sign rule: a linear relation is monotone when its symmetrized
#: graph pairing has no eigenvalue below ``-MONOTONE_TOL * max(1, |pairing|)``.
MONOTONE_TOL = 16 * np.finfo(float).eps


class NonconvergenceError(RuntimeError):
    """An iterative or direct solve failed to reach its residual target.

    Carries the failed solve's residual in :attr:`residual`: for an
    iteration, the best one it reached.
    """

    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """Verdicts of the certification routines.

    Each verdict is ``"yes"``, ``"no"`` or ``"unknown"``.  Every relation
    gets an exact monotone and maximal verdict, so ``"unknown"`` only
    marks a verdict that the producing check does not assess, such as
    ``skew`` on a monotonicity certificate.  A ``"no"`` carries a
    concrete, re-verifiable witness in :attr:`witness` (a violating pair
    of graph points for monotonicity, an unreachable right-hand side for
    maximality, a mismatch direction for skewness), with one exception:
    a maximality ``"no"`` carried over by a congruence whose map is not
    unitary has no right-hand side, and its :attr:`method` says so.
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
        return np.zeros(0, dtype=np.result_type(m, b)), float(np.linalg.norm(b))
    sol = np.linalg.lstsq(m, b, rcond=None)[0]
    return sol, float(np.linalg.norm(m @ sol - b))


# ---------------------------------------------------------------------------
# representation classes
# ---------------------------------------------------------------------------


class Relation:
    """Base class of the representations below: a relation on its
    :attr:`space`.  A representation holds data only; resolvents and
    inclusions are planned for it by :func:`plan_inclusion`.

    :attr:`affine` is true exactly for a ``LinearGraph``: one linear
    solve and exact certificates.  :attr:`real` is true when the data
    that defines the relation has no imaginary part; a representation
    never changes its arrays, so it is computed on first use and kept.
    Such a relation is closed under complex conjugation, so against a
    real ``phi`` and a real ``g`` the unique solution of a monotone
    inclusion is real.
    """

    space: InnerProductSpace
    affine = False
    real = False


class LinearGraph(Relation):
    """The affine relation ``{(x0 + zx c, y0 + zy c)}``: the span of
    finitely many pairs ``(x_i, y_i)``, translated by ``(x0, y0)``.

    The graph subspace is stored as an orthonormalized ``2 dim x k``
    basis (dependent input columns are dropped), split into the ``zx``
    and ``zy`` row blocks (read by :func:`.spaces._as_matrix`).  The
    offsets default to zero; translation keeps monotonicity and
    maximality.  They carry every Dirichlet, Neumann and Robin datum of
    :mod:`.boundary`, and are read by :func:`.spaces._as_matrix` too
    (every entry of modulus below ``2^500``).
    """

    affine = True

    def __init__(self, space: InnerProductSpace, zx, zy, x0=None, y0=None):
        zx = _as_matrix(zx, (space.dim, None), "graph block zx")
        zy = _as_matrix(zy, (space.dim, zx.shape[1]), "graph block zy")
        z = _orthonormal_columns(np.vstack([zx, zy]))
        self.space = space
        self.zx = z[: space.dim]
        self.zy = z[space.dim:]
        self.x0 = np.zeros(space.dim, dtype=complex) if x0 is None else space.check_vector(x0)
        self.y0 = np.zeros(space.dim, dtype=complex) if y0 is None else space.check_vector(y0)
        _as_matrix([self.x0, self.y0], (2, space.dim), "graph offsets")

    @classmethod
    def from_matrix(cls, space: InnerProductSpace, m) -> "LinearGraph":
        """Graph of the linear map ``x -> M x``."""
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

    @cached_property
    def real(self) -> bool:
        return not (self.zx.imag.any() or self.zy.imag.any() or self.x0.imag.any() or self.y0.imag.any())


class SeparableProx(Relation):
    """Coordinatewise friction, with a closed-form proximal map.

    ``scales`` holds one finite ``mu >= 0`` per coordinate: coordinate
    ``k`` is the set-valued derivative of ``mu_k |x_k|``, whose proximal
    map is soft thresholding.  This class is the one check of a friction
    coefficient: one that is not real, a negative one, ``nan`` and
    ``inf`` are refused with the same message, which names the first of
    them.  The limit ``mu = inf`` is the clamp ``x_k = 0``, a linear graph
    (``dirichlet 0``).

    The space weight must be diagonal with positive real entries (the
    relation is coordinatewise, and only then is the product monotone in
    the weighted inner product for free).
    """

    real = True

    def __init__(self, space: InnerProductSpace, scales: Sequence[float]):
        w = space.weight
        if not np.allclose(w, np.diag(np.diag(w).real), atol=1e-13 * max(1.0, np.linalg.norm(w))):
            raise ValueError("SeparableProx requires a real positive diagonal weight")
        scales = np.array(scales, dtype=complex)
        if scales.shape != (space.dim,):
            raise ValueError(f"need {space.dim} scales, got shape {scales.shape}")
        for mu in scales.tolist():
            if mu.imag != 0 or not 0.0 <= mu.real < math.inf:
                raise ValueError("friction coefficient must be real, nonnegative and finite, "
                                 f"got {mu if mu.imag else mu.real}")
        self.space = space
        self.scales = scales.real.copy()


def _soft_threshold(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``v_k (1 - t_k/|v_k|)`` where ``|v_k| > t_k``, and 0 elsewhere: the
    proximal map of ``sum_k t_k |v_k|``."""
    a = np.abs(v)
    on = a > t
    return np.where(on, v * (1.0 - t / np.where(on, a, 1.0)), 0.0)


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of the 2D ``blocks``, equal to that of
    ``scipy.linalg.block_diag`` (dtype included) at about a tenth of its cost."""
    out = np.zeros(tuple(map(sum, zip(*(b.shape for b in blocks)))), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r: r + b.shape[0], c: c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _sum_space(parts: Sequence[Relation]) -> InnerProductSpace:
    """The orthogonal sum of the parts' spaces (block-diagonal weight)."""
    weight = _block_diag([p.space.weight for p in parts])
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

    @cached_property
    def real(self) -> bool:
        return all(p.real for p in self.parts)


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

    @cached_property
    def real(self) -> bool:
        return not (self.tmap.matrix.imag.any() or self.adj_matrix.imag.any()) and self.base.real


# ---------------------------------------------------------------------------
# the inclusion-solver primitive
# ---------------------------------------------------------------------------


def plan_inclusion(phi: np.ndarray, rel: Relation) -> "_Plan":
    """Plan ``phi z + rel(z) ∋ g`` for an accretive ``phi``: the
    work that depends only on ``(phi, rel)``, done once, for
    :func:`solve_inclusion` to apply to each ``g``.  The solver plans once
    per run; a resolvent is the plan at ``phi = 1/lam``.

    Dispatch: a congruence ``T* B T`` substitutes ``u = T z`` and plans
    ``T*^{-1} phi T^{-1} u + B(u) ∋ T*^{-1} g``, so a congruence takes
    the path of its base relation.  A
    linear graph (offsets included) keeps ``M^{-1}``, ``M = phi zx + zy``,
    checked once against :data:`TOL_LINEAR` (a non-square or singular
    ``M`` keeps one least-squares solve per call).  Diagonal ``phi``
    against friction keeps the thresholds; block ``phi`` against a direct
    sum plans each block.  Any other real ``phi`` against a real sum of
    linear graphs and friction (or friction alone) is solved on the
    affine pieces of the relation by an active-set walk over the sign
    patterns of its friction coordinates.  Otherwise Douglas–Rachford
    splitting runs between ``z -> phi z - g`` and the relation.

    A plan of a real relation (:attr:`Relation.real`) against a ``phi``
    with no imaginary part is real: its maps and tables are float64, so a
    float64 ``g`` is solved in float64 and a complex one in complex
    arithmetic.  Any other plan is complex.
    """
    phi = _as_matrix(phi, (rel.space.dim, rel.space.dim), "phi")
    if rel.real and not np.any(phi.imag):
        phi = phi.real.copy()
    if isinstance(rel, Transformed):
        return _CongruencePlan(phi, rel)
    if not isinstance(rel, (LinearGraph, SeparableProx, DirectSum)):
        raise _no_rule(rel)
    if isinstance(rel, LinearGraph):
        return _AffinePlan(phi, rel, *_like(phi, rel.zx, rel.zy, rel.x0, rel.y0))
    size = 1e-14 * max(1.0, np.linalg.norm(phi))
    diag = np.diag(phi)
    if isinstance(rel, SeparableProx) and np.linalg.norm(phi - np.diag(diag)) <= size \
            and np.all(diag.real > 0) and np.allclose(diag.imag, 0.0, atol=1e-14):
        return _ThresholdPlan(phi, rel)
    if isinstance(rel, DirectSum):
        if all(np.linalg.norm(phi[s1, s2]) <= size
               for i, s1 in enumerate(rel.slices) for j, s2 in enumerate(rel.slices) if i != j):
            return _BlockPlan(phi, rel)
    parts = rel.parts if isinstance(rel, DirectSum) else (rel,)
    if not np.iscomplexobj(phi) and all(isinstance(p, (LinearGraph, SeparableProx)) for p in parts):
        return _PiecePlan(phi, rel)
    return _SplittingPlan(phi, rel)


def solve_inclusion(plan: "_Plan", g: np.ndarray, x0=None):
    """Solve ``phi z + rel(z) ∋ g`` by a plan of :func:`plan_inclusion`,
    warm-starting from ``x0``.  Returns ``(z, w)`` with ``w in rel(z)``
    (exactly, for closed forms and affine pieces; to
    :data:`TOL_ITERATIVE` after splitting) and ``phi z + w - g`` small.
    A linear system whose residual exceeds :data:`TOL_LINEAR` (relative)
    and a splitting out of iterations raise :class:`NonconvergenceError`.

    ``g`` and ``x0`` are read as :func:`.phs._as_field` reads samples: a
    float64 vector stays float64, anything else is made complex.  A real
    plan returns float64 ``(z, w)`` for a float64 ``g``."""
    dim = plan.rel.space.dim
    return plan(_as_vector(g, dim), None if x0 is None else _as_vector(x0, dim))


def _inverse(m: np.ndarray) -> Optional[np.ndarray]:
    """``M^{-1}`` if ``M`` is square with ``|M M^{-1} - 1| <= TOL_LINEAR``,
    so ``M^{-1} rhs`` meets that relative residual for every ``rhs``."""
    try:
        minv = np.linalg.inv(m)
    except np.linalg.LinAlgError:  # not square, or singular
        return None
    return minv if np.linalg.norm(m @ minv - np.eye(m.shape[0])) <= TOL_LINEAR else None


def _like(phi: np.ndarray, *arrays: np.ndarray):
    """``arrays`` in the arithmetic of a plan against ``phi``: their real
    parts, contiguous, when ``phi`` is float64 (a real plan)."""
    return arrays if np.iscomplexobj(phi) else tuple(np.ascontiguousarray(a.real) for a in arrays)


class _Plan:
    """A planned ``phi z + rel(z) ∋ g``: ``plan(g, x0)`` is ``(z, w)``,
    with ``x0`` the warm start (``None``: none).  A real plan (``phi``
    float64) keeps float64 maps and tables."""

    def __init__(self, phi: np.ndarray, rel: Relation):
        self.phi, self.rel = phi, rel


class _AffinePlan(_Plan):
    """A linear graph on the space of ``rel``: ``(x0 + zx c, y0 + zy c)`` with
    ``M c = g - phi x0 - y0`` (``shift = phi x0 + y0``), ``z`` over ``w`` the
    ``offset + pairs c`` of ``pairs = [zx; zy]`` and ``offset = [x0; y0]``.
    When ``M`` has an inverse, that is one affine map of ``g``: ``z`` over
    ``w`` is ``A g + a`` with ``A = pairs M^{-1}`` and ``a = offset - A
    shift``.  A zero row of ``zx`` or ``zy`` is a zero row of ``A``, so its
    coordinate of ``z`` or ``w`` is its ``x0`` or ``y0`` entry exactly: a
    friction stick of a piece gives ``z_i = 0.0``, a slip ``w_i = s mu_i``.
    Otherwise ``c`` is the least-squares solution, refused when
    inconsistent."""

    def __init__(self, phi, rel: Relation, zx, zy, x0, y0):
        super().__init__(phi, rel)
        self.pairs, self.offset = np.vstack([zx, zy]), np.concatenate([x0, y0])
        self.dim = d = len(x0)
        self.zx, self.zy, self.x0, self.y0 = self.pairs[:d], self.pairs[d:], self.offset[:d], self.offset[d:]
        self.m, self.shift = phi @ self.zx + self.zy, phi @ self.x0 + self.y0
        minv = _inverse(self.m)
        self.g_map = None if minv is None else self.pairs @ minv
        self.g_offset = None if minv is None else self.offset - self.g_map @ self.shift

    def __call__(self, g, x0):
        zw = self.pair(g)
        return zw[: self.dim], zw[self.dim:]

    def pair(self, g) -> np.ndarray:
        """``z`` over ``w`` of the solution for ``g``, one vector."""
        if self.g_map is not None:
            zw = np.dot(self.g_map, g)
            zw += self.g_offset
            return zw
        rhs = g - self.shift
        c, res = _lstsq(self.m, rhs)
        if res > TOL_LINEAR * max(1.0, float(np.linalg.norm(rhs))):
            raise NonconvergenceError(
                f"linear resolvent system is inconsistent (residual {res:.3e}); "
                "the relation is not maximal on this right-hand side", residual=res)
        return self.offset + self.pairs @ c


class _ThresholdPlan(_Plan):
    """Diagonal ``phi`` against friction: ``g_k / phi_kk`` soft-thresholded
    at ``mu_k / phi_kk``."""

    def __init__(self, phi, rel: SeparableProx):
        super().__init__(phi, rel)
        self.inv_diag = 1.0 / np.diag(phi).real
        self.thresholds = self.inv_diag * rel.scales

    def __call__(self, g, x0):
        z = _soft_threshold(self.inv_diag * g, self.thresholds)
        return z, g - self.phi @ z


class _BlockPlan(_Plan):
    """Block-diagonal ``phi`` against a direct sum: one plan per part."""

    def __init__(self, phi, rel: DirectSum):
        super().__init__(phi, rel)
        self.blocks = [(s, plan_inclusion(phi[s, s], part)) for part, s in zip(rel.parts, rel.slices)]

    def __call__(self, g, x0):
        pairs = [plan(g[s], None if x0 is None else x0[s]) for s, plan in self.blocks]
        return np.concatenate([z for z, _ in pairs]), np.concatenate([w for _, w in pairs])


class _CongruencePlan(_Plan):
    """``T* B T``: the plan of ``B`` against ``T*^{-1} phi T^{-1}``, whose
    ``(u, w)`` maps back to ``(T^{-1} u, T* w)``.  An iterative base meets
    its target in ``u`` only; the defect in ``z`` is ``T*`` applied to it."""

    def __init__(self, phi, rel: Transformed):
        super().__init__(phi, rel)
        self.tmat, self.inv, self.adj = _like(phi, rel.tmap.matrix, rel.inv_matrix, rel.adj_matrix)
        self.adj_inv = np.linalg.inv(self.adj)
        self.base = plan_inclusion(np.linalg.solve(self.adj, phi @ self.inv), rel.base)

    def __call__(self, g, x0):
        u, w = self.base(self.adj_inv @ g, None if x0 is None else self.tmat @ x0)
        return self.inv @ u, self.adj @ w


class _PiecePlan(_Plan):
    """Real ``phi`` against a real sum of linear graphs and friction.  On
    real data a friction coordinate sticks (``z = 0``, ``|w| <= mu``) or
    slips (``w = s mu``, ``s z >= 0``, ``s = +-1``): each sign pattern is
    a linear graph, and the solution is the piece solution whose signs
    hold within :data:`TOL_LINEAR` of the data's scale.  An active-set
    walk from the warm start's pattern switches a stick with ``|w| > mu``
    to the slip of ``w``'s sign and a slip with ``s z < 0`` to stick; a
    piece whose signs hold within the least tolerance, ``TOL_LINEAR`` times
    the largest of 1 and the ``mu_i``, holds without the data's scale.  A
    walk that repeats, meets a piece with no solution or passes ``2k + 2``
    pieces (``k`` friction coordinates) splits, as does ``g`` with a
    nonzero imaginary part.  The plan is real (its ``phi``, the table and
    every piece float64).  A piece is one column choice in a table of the
    parts' graphs (built on first use, :meth:`_piece`); the ``2k + 2``
    used last are kept."""

    def __init__(self, phi, rel: Relation):
        super().__init__(phi, rel)
        parts = rel.parts if isinstance(rel, DirectSum) else (rel,)
        stick = lambda d: (np.zeros((d, d)), np.eye(d), np.zeros(d), np.zeros(d))  # friction: the columns (0, e_i)
        zx, zy, x0, y0 = zip(*[_like(phi, p.zx, p.zy, p.x0, p.y0) if p.affine else stick(p.space.dim)
                               for p in parts])
        self.zx, self.zy, self.x0, self.y0 = _block_diag(zx), _block_diag(zy), np.concatenate(x0), np.concatenate(y0)
        self.friction = np.flatnonzero(np.repeat([not p.affine for p in parts], [p.space.dim for p in parts])).tolist()
        self.columns = np.flatnonzero(np.repeat([not p.affine for p in parts], [z.shape[1] for z in zy])).tolist()
        self.scales = [float(mu) for p in parts if not p.affine for mu in p.scales]
        self.floor = max(1.0, *self.scales)  # the least scale of the walk's sign tolerance
        self.least = TOL_LINEAR * self.floor  # the least tolerance, computed first
        self.longest = 2 * len(self.scales) + 2
        self.piece = lru_cache(maxsize=self.longest)(self._piece)
        # the walk: per friction coordinate, its index in z, in z over w, and its scale
        self.dim, self.start = len(self.x0), (0,) * len(self.scales)
        self.walk = [(i, self.dim + i, mu) for i, mu in zip(self.friction, self.scales)]

    @cached_property
    def splitting(self) -> "_SplittingPlan":
        return _SplittingPlan(self.phi, self.rel)

    def _piece(self, pattern) -> _AffinePlan:
        """The table's column of friction coordinate ``i`` is ``(0, e_i)``
        (stick); slip ``s`` sets it to ``(e_i, 0)`` and ``w_i = s mu_i``."""
        zx, zy, y0 = self.zx.copy(), self.zy.copy(), self.y0.copy()
        for i, j, s, mu in zip(self.friction, self.columns, pattern, self.scales):
            if s:
                zx[i, j], zy[i, j], y0[i] = 1.0, 0.0, s * mu
        return _AffinePlan(self.phi, self.rel, zx, zy, self.x0, y0)

    def __call__(self, g, x0):
        if g.dtype != np.float64 and np.any(g.imag):
            return self.splitting(g, x0)
        d, walk, tol = self.dim, self.walk, None
        if x0 is None:
            pattern = self.start
        else:
            warm = x0.real.tolist()
            pattern = tuple([_sign(warm[i]) for i, _, _ in walk])
        seen = set()
        while pattern not in seen and len(seen) < self.longest:
            seen.add(pattern)
            try:
                zw = self.piece(pattern).pair(g)
            except NonconvergenceError:  # a singular piece whose system is inconsistent
                break
            values = zw.real.tolist()  # z over w, as Python floats
            # what must stay within the tolerance: |w| - mu of a stick, -s z of a slip
            excess = [abs(values[k]) - mu if s == 0 else -s * values[i] for s, (i, k, mu) in zip(pattern, walk)]
            if max(excess, default=0.0) <= self.least:  # within every tolerance: the piece holds
                return zw[:d], zw[d:]
            if tol is None:
                tol = TOL_LINEAR * max(self.floor, math.sqrt(abs(np.vdot(g, g))))
            switched = tuple([(_sign(values[k]) if t > tol else 0) if s == 0 else (0 if t > tol else s)
                              for s, t, (_, k, _) in zip(pattern, excess, walk)])
            if switched == pattern:
                return zw[:d], zw[d:]
            pattern = switched
        return self.splitting(g, x0)


def _sign(v: float) -> int:
    return (v > 0) - (v < 0)


class _SplittingPlan(_Plan):
    """Douglas–Rachford splitting between ``z -> phi z - g`` and the
    relation, with the step length ``gamma`` (from the Hermitian part of
    ``W phi`` against the weight ``W``), the inverse of ``1 + gamma phi``
    and the plan of the relation's resolvent at ``gamma`` fixed.  ``phi``
    is monotone in the space's inner product, so that inverse has norm
    at most 1 there.  Plans choose it for complex data, a part that is
    neither a linear graph nor friction, and a walk that does not settle."""

    def __init__(self, phi, rel: Relation):
        super().__init__(phi, rel)
        d, w2 = rel.space.dim, rel.space.weight
        try:
            wphi = w2 @ phi
            eigs = sla.eigvalsh((wphi + wphi.conj().T) / 2.0, w2)
            self.gamma = 1.0 / np.sqrt(eigs.min() * eigs.max()) if eigs.min() > 0 else 1.0
        except sla.LinAlgError:
            self.gamma = 1.0
        self.inv = np.linalg.inv(np.eye(d) + self.gamma * phi)
        self.inner = plan_inclusion(np.eye(d) / self.gamma, rel)

    def __call__(self, g, x0):
        return _douglas_rachford(self, g, x0)


def _douglas_rachford(plan: _SplittingPlan, g, x0):
    """The iteration of ``plan`` from the warm start ``x0``, run until the
    residual is at most :data:`TOL_ITERATIVE` times ``max(1, |g|)``."""
    phi, gamma, space = plan.phi, plan.gamma, plan.rel.space
    tol = TOL_ITERATIVE * max(1.0, float(np.linalg.norm(g)))
    s = np.zeros_like(g) if x0 is None else x0 - gamma * (g - phi @ x0)
    best = np.inf
    for _ in range(MAX_ITER):
        z1 = plan.inv @ (s + gamma * g)
        z2, w2 = plan.inner((2.0 * z1 - s) / gamma, None)
        res = float(space.norm(phi @ z2 + w2 - g))
        if res <= tol:
            return z2, w2
        best = min(best, res)
        s = s + z2 - z1
    raise NonconvergenceError(f"splitting iteration did not reach the residual {tol:.1e} in "
                              f"{MAX_ITER} steps (best residual {best:.3e})", residual=best)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def resolvent(rel: Relation, lam: float, y) -> np.ndarray:
    """Evaluate ``x = (1 + lam A)^{-1} y``: the unique ``x`` with
    ``(x, (y - x)/lam)`` in the relation.

    ``lam`` must be positive and finite (``J_inf`` is not defined), and
    ``1/lam`` must be below ``2^500`` (:func:`plan_inclusion` reads ``phi
    = 1/lam`` by :func:`.spaces._as_matrix`).  Linear systems are checked for
    consistency to :data:`TOL_LINEAR`, iterations run to
    :data:`TOL_ITERATIVE` within :data:`MAX_ITER` steps; a failure
    raises :class:`NonconvergenceError` carrying the last residual.
    For a :class:`Transformed` relation that tolerance holds in ``z = T x``
    only; ``|x + lam w - y|`` reaches 5.9e-8 for ``|T*| <= 2``.
    """
    x, _ = resolvent_value(rel, lam, y)
    return x


def resolvent_value(rel: Relation, lam: float, y):
    """Like :func:`resolvent` but returns the graph pair ``(x, w)`` with
    ``w`` the relation value at ``x`` (so ``x + lam w = y`` up to the
    same tolerances): the inclusion planned at ``phi = 1/lam``."""
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError("resolvent parameter lam must be positive and finite")
    lam = float(lam)
    y = rel.space.check_vector(y)
    # 1/lam overflows to inf, without a warning, for a subnormal lam
    return solve_inclusion(plan_inclusion(np.diag(np.full(rel.space.dim, 1.0 / lam)), rel), y / lam)


def yosida(rel: Relation, lam: float, x) -> np.ndarray:
    """The single-valued regularization ``lam^{-1} (x - (1 + lam A)^{-1} x)``."""
    jx = resolvent(rel, lam, x)
    return (np.asarray(x, dtype=complex) - jx) / lam


def adjoint_relation(rel: Relation) -> Relation:
    """For a linear relation: the orthogonal complement of
    ``{(-y, x) : (x, y) in A}`` in the weighted pair inner product.

    With identity weights this sends the graph of a matrix ``M`` to the
    graph of ``M^H``.
    """
    if not isinstance(rel, LinearGraph) or rel.shifted:
        raise ValueError("adjoint requires a linear relation (a LinearGraph without offsets)")
    d = rel.space.dim
    w2 = _block_diag([rel.space.weight] * 2)
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
    return LinearGraph(_sum_space(parts), _block_diag([p.zx for p in parts]),
                       _block_diag([p.zy for p in parts]),
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
    which needs ``T`` square and well conditioned; :func:`plan_inclusion`,
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
        w2 = _block_diag([space.weight] * 2)
        p = np.concatenate([x - rel.x0, y - rel.y0])
        gram = z.conj().T @ w2 @ z
        c = np.linalg.solve(gram, z.conj().T @ (w2 @ p))
        r = p - z @ c
        return float(np.sqrt(abs(r.conj() @ (w2 @ r))))
    if isinstance(rel, SeparableProx):
        # the proximal identity: (x, y) is in the graph iff x = prox_1(x + y)
        return float(np.sqrt(2.0) * space.norm(x - _soft_threshold(x + y, rel.scales)))
    if isinstance(rel, DirectSum):
        return float(np.sqrt(sum(graph_residual(p, x[s], y[s]) ** 2
                                 for p, s in zip(rel.parts, rel.slices))))
    if isinstance(rel, Transformed):
        t = rel.tmap.matrix
        return graph_residual(rel.base, t @ x, np.linalg.solve(rel.adj_matrix, y))
    raise _no_rule(rel)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def certify(rel: Relation) -> "tuple[Certificate, Certificate]":
    """The pair ``(check_monotone(rel), check_maximal(rel))`` from one walk
    of the relation, each exact rule run once.

    Raises ``TypeError`` for a representation outside the four of this
    module.
    """
    mono, maximal = _certify(rel)
    if maximal is None:
        return mono, Certificate(monotone="no", maximal="no", method="not monotone; " + mono.method,
                                 witness=mono.witness)
    maximal.monotone = "yes"
    return mono, maximal


def check_monotone(rel: Relation) -> Certificate:
    """Certify ``Re<u - x | v - y> >= 0`` over the relation.

    For linear graphs by the smallest eigenvalue of the symmetrized
    pairing on the graph subspace, to roundoff (:data:`MONOTONE_TOL`);
    exact for coordinatewise convex pieces (subdifferentials by construction); translations,
    direct sums and congruences by an invertible map carry the verdict
    of their parts over.  A ``"no"`` carries the violating pair of graph
    points, mapped into the relation's own coordinates.
    """
    return certify(rel)[0]


def check_maximal(rel: Relation) -> Certificate:
    """Certify maximal monotonicity.

    Monotonicity is certified first; a failure there is decisive and its
    witness is returned.  On the maximality side, linear graphs get the
    exact surjectivity test (the forward-plus-backward block of the graph
    basis must have full rank); friction is a subdifferential of a convex
    function, hence maximal (Minty); translations, direct sums and
    congruences by an invertible map carry the verdict of their parts
    over.
    """
    return certify(rel)[1]


def _no_rule(rel: Relation) -> TypeError:
    return TypeError(f"{type(rel).__name__} is not a representation of this module "
                     "(LinearGraph, SeparableProx, DirectSum or Transformed)")


def _certify(rel: Relation) -> "tuple[Certificate, Optional[Certificate]]":
    """The monotonicity certificate of ``rel`` and, when it is ``"yes"``,
    the maximality certificate (its ``monotone`` verdict left unset);
    ``None`` in its place when ``rel`` is not monotone."""
    if isinstance(rel, LinearGraph):
        mono = _monotone_linear(rel)
        return mono, _maximal_linear(rel) if mono.monotone == "yes" else None
    if isinstance(rel, SeparableProx):
        return (Certificate(monotone="yes", method="closed-form: coordinatewise convex pieces"),
                Certificate(maximal="yes",
                            method="closed-form: every coordinate piece has a full-domain proximal map"))
    if isinstance(rel, DirectSum):
        not_maximal = None
        for idx, (part, s) in enumerate(zip(rel.parts, rel.slices)):
            mono, maximal = _certify(part)
            where = f"componentwise (summand {idx}): "

            def put(base, vec, s=s):
                out = np.array(base, dtype=complex)
                out[s] = vec
                return out

            if maximal is None:
                # the other summands' coordinates hold one point of their graphs
                px, py = _graph_point(rel)
                return Certificate(monotone="no", method=where + mono.method, witness=_map_pairs(
                    mono.witness, lambda x: put(px, x), lambda y: put(py, y))), None
            if maximal.maximal == "no" and not_maximal is None:
                not_maximal = Certificate(maximal="no", method=where + maximal.method)
                rhs = (maximal.witness or {}).get("rhs")
                if rhs is None:
                    not_maximal.method += " (no witness: the summand gives no right-hand side)"
                else:  # unreached in this summand's coordinates, whatever the others do
                    not_maximal.witness = {"rhs": put(np.zeros(rel.space.dim), rhs)}
        return (Certificate(monotone="yes", method="componentwise over direct summands"),
                not_maximal or Certificate(maximal="yes", method="componentwise over direct summands"))
    if isinstance(rel, Transformed):
        # (z, w) in B  <->  (T^{-1} z, T* w) in T* B T, with the same pairing
        base, maximal = _certify(rel.base)
        method = "congruence preserves monotonicity: " + base.method
        if maximal is None:
            return Certificate(monotone="no", method=method, witness=_map_pairs(
                base.witness, lambda x: np.linalg.solve(rel.tmap.matrix, x), lambda y: rel.adj_matrix @ y)), None
        mono = Certificate(monotone="yes", method=method, witness=base.witness)
        maximal.method = "congruence by an invertible map: " + maximal.method
        if maximal.witness is not None and "rhs" in maximal.witness:
            # x + T* w = T* rhs forces T x + w = rhs only when T* T = 1
            witness = dict(maximal.witness)
            rhs = witness.pop("rhs")
            if np.linalg.norm(rel.adj_matrix @ rel.tmap.matrix - np.eye(rel.space.dim)) <= TOL_LINEAR:
                witness["rhs"] = rel.adj_matrix @ rhs
            else:
                maximal.method += " (no witness: the map is not unitary)"
            maximal.witness = witness or None
        return mono, maximal
    raise _no_rule(rel)


def _graph_point(rel: Relation) -> "tuple[np.ndarray, np.ndarray]":
    """One point ``(x, y)`` of the graph: the offset of a linear graph,
    the origin for friction."""
    if isinstance(rel, LinearGraph):
        return rel.x0, rel.y0
    if isinstance(rel, SeparableProx):
        zero = np.zeros(rel.space.dim, dtype=complex)
        return zero, zero
    if isinstance(rel, DirectSum):
        xs, ys = zip(*map(_graph_point, rel.parts))
        return np.concatenate(xs), np.concatenate(ys)
    if isinstance(rel, Transformed):
        z, w = _graph_point(rel.base)
        return rel.inv_matrix @ z, rel.adj_matrix @ w
    raise _no_rule(rel)


def _map_pairs(witness: dict, x_map, y_map) -> dict:
    """A monotonicity ``"no"`` witness with both graph points mapped."""
    return {**{key: (x_map(witness[key][0]), y_map(witness[key][1])) for key in ("pair_a", "pair_b")},
            "value": witness["value"]}


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
    if vals[0] >= -MONOTONE_TOL * scale:
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
