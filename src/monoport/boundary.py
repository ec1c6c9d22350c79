"""Boundary conditions for 1D port-Hamiltonian systems, with certificates.

A boundary condition is, mathematically, a relation between the effort
trace ``e`` and the flow trace ``f`` of the field at the two endpoints.
This module stores each condition once and derives its second form on
demand, through exact coordinate maps:

* stored, in *flow/effort coordinates* — pairs ``(e, w)`` with
  ``w = -f`` on standard ``C^n``, the discretization- and
  parameter-independent form in which monotonicity means exactly energy
  dissipation (``-Re<e, f> >= 0``), and which the evolution solver
  consumes;
* derived, in *trace-basis (BD) coordinates* — the relation ``h`` on the
  coefficient space with the channel Gram weight, obtained through the
  maps ``x = Q^{-1} e``, ``y = -(S Q)^{-1} f``.  This is the form in
  which the paper states its criterion, and whose adjoint calculus
  (skew-selfadjointness) is natural.

Constructors attach certificates, the one judge of a condition's sign:
by eigenvalue / rank arguments for linear conditions (the sign to
roundoff, :data:`.relations.MONOTONE_TOL`) and componentwise for
frictional multiport conditions (friction is a subdifferential, hence
maximal).  A multiport condition is the direct
sum of one scalar relation per port, in port order.  Failed
certificates always carry a concrete, re-verifiable witness.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from . import relations
from .phs import BoundaryDataBasis, _graph_terms, _hermitize, project_bd
from .relations import (
    Certificate,
    LinearGraph,
    Relation,
    SeparableProx,
    certify,
    direct_sum,
    graph_residual,
    transform,
)
from .spaces import InnerProductSpace, LinearMap, _as_matrix

__all__ = [
    "BoundaryCondition",
    "from_V",
    "dirichlet",
    "neumann",
    "robin",
    "multiport",
    "check_skew_selfadjoint",
    "extract_h",
    "membership",
    "subspace_gap",
]

#: Maximality threshold on the smallest singular value of the
#: V-parametrization's closing matrix.
SIGMA_MIN_THRESHOLD = 1e-8

#: Principal-angle tolerance for graph equality h* = -h.
SKEW_ANGLE_TOL = 1e-9

#: Base tolerance of :func:`membership`, scaled by the discrete graph
#: norms of the tested fields (the projection is quadrature-limited).
MEMBERSHIP_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BoundaryCondition:
    """A certified boundary relation, stored in flow/effort coordinates.

    Attributes
    ----------
    port_relation:
        The condition as a relation on standard ``C^n`` in flow/effort
        coordinates: graph pairs are ``(e, -f)``.
    basis:
        The trace basis the coordinate maps refer to.
    provenance:
        One of ``V-matrix``, ``Dirichlet``, ``Neumann``, ``Robin``,
        ``Multiport``, ``Extracted``.
    certificates:
        Mapping with ``"monotone"`` and ``"maximal"``
        :class:`~.relations.Certificate` entries from construction time.
        Witness vectors refer to :attr:`port_relation`, where the
        constructors run their checks; the coordinate maps are
        congruences, so the verdicts transfer to :attr:`h` unchanged.
    """

    port_relation: Relation
    basis: BoundaryDataBasis
    provenance: str
    certificates: dict

    @property
    def ports(self) -> int:
        """Number of boundary ports ``n`` (the trace space is ``C^n``)."""
        return self.basis.n

    @cached_property
    def h(self) -> Relation:
        """The relation in trace-basis coordinates, on the Gram-weighted
        coefficient space (computed once, on first use)."""
        return _to_bd(self.basis, self.port_relation)

    @property
    def is_maximal_monotone(self) -> bool:
        return (self.certificates["monotone"].monotone == "yes"
                and self.certificates["maximal"].maximal == "yes")

    def constraint(self) -> "tuple[np.ndarray, np.ndarray]":
        """Constraint-matrix form ``C_e e + C_f f = 0`` of a linear condition.

        Returns the pair ``(C_e, C_f)`` whose joint kernel is exactly the
        flow/effort graph.  Only unshifted linear conditions have this
        form; anything affine or nonlinear raises ``ValueError``.
        """
        rel = self.port_relation
        if not isinstance(rel, LinearGraph) or rel.shifted:
            raise ValueError("constraint emission requires a linear boundary condition")
        stacked = np.vstack([rel.zx, -rel.zy])  # columns span {(e, f)}
        ann = relations._nullspace(stacked.conj().T)
        cmat = ann.conj().T
        return cmat[:, : self.ports].copy(), cmat[:, self.ports:].copy()

    def describe(self) -> str:
        lines = [f"boundary condition: {self.provenance} on {self.ports} port(s)"]
        for name in ("monotone", "maximal"):
            lines.append(f"  {name}: {self.certificates[name].describe()}")
        return "\n".join(lines)


def _to_bd(basis: BoundaryDataBasis, port_relation: Relation) -> Relation:
    """Exact conversion from flow/effort pairs to trace-basis pairs.

    The congruence by ``Qmat`` between the Gram-weighted coefficient
    space and standard port coordinates sends ``(e, w)`` to
    ``(Q^{-1} e, Q^{-1} S^{-1} w)`` — precisely the documented
    coordinate maps.  Against the identity port weight the weighted
    adjoint of ``Q`` is ``gram_G^{-1} Q^H``, and ``Q^H S Q = gram_G``
    (``verify`` measures it: "channel gram matches sqrt(S)Q energy"),
    so the adjoint is ``Q^{-1} S^{-1}``.
    """
    coefficients = InnerProductSpace(basis.n, basis.gram_G)
    return transform(LinearMap(coefficients, InnerProductSpace(basis.n), basis.Qmat), port_relation)


def _port_datum(value, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return np.full(n, complex(arr))
    arr = arr.reshape(-1)
    if arr.shape != (n,):
        raise ValueError(f"boundary datum must be a scalar or length-{n} vector")
    return arr


def _finalize(basis, port, provenance) -> BoundaryCondition:
    """Certify ``port`` once and wrap it."""
    mono, max_cert = certify(port)
    return BoundaryCondition(port, basis, provenance, {"monotone": mono, "maximal": max_cert})


def from_V(vmat, basis: BoundaryDataBasis) -> BoundaryCondition:
    """Boundary condition ``(1+V) f + (1-V) e = 0`` from a square matrix.

    For ``V^* V <= 1`` the resulting relation is maximal monotone; any
    other ``V`` is built too, and its certificate fails.  The flow/effort
    graph is parametrized by ``e = (1+V) l``, ``f = -(1-V) l``, under
    which the dissipation pairing becomes ``-Re<e, f> = Re<(1-V^*V) l,
    l>`` — nonnegative exactly on contractions, so the monotonicity
    certificate decides, to roundoff, whether ``V`` is one.

    The maximality certificate reports the smallest singular value of
    ``-S(1+V) - (1-V)``; its invertibility closes the construction for
    every contraction (the certificate makes the theorem's obligation
    observable rather than trusting it).
    """
    n = basis.n
    vmat = _as_matrix(vmat, (n, n), "V")
    vv_top = float(np.linalg.eigvalsh(vmat.conj().T @ vmat)[-1])
    eye = np.eye(n)
    port = LinearGraph(InnerProductSpace(n), eye + vmat, eye - vmat)
    sigmas = sla.svdvals(-basis.S @ (eye + vmat) - (eye - vmat))
    sigma_min = float(sigmas[-1])
    mono = relations._monotone_linear(port)
    maximal = "yes" if (mono.monotone == "yes" and sigma_min > SIGMA_MIN_THRESHOLD) else "no"
    max_cert = Certificate(monotone=mono.monotone, maximal=maximal, method="smallest singular value of -S(1+V)-(1-V)",
                           witness={"sigma_min": sigma_min, "sigmas": sigmas, "vv_top_eigenvalue": vv_top})
    return BoundaryCondition(port, basis, "V-matrix", {"monotone": mono, "maximal": max_cert})


def dirichlet(value, basis: BoundaryDataBasis) -> BoundaryCondition:
    """Pin the effort trace: ``e = value``, flow free."""
    n = basis.n
    pin = _port_datum(value, n)
    port = LinearGraph(InnerProductSpace(n), np.zeros((n, n)), np.eye(n), x0=pin)
    return _finalize(basis, port, "Dirichlet")


def neumann(value, basis: BoundaryDataBasis) -> BoundaryCondition:
    """Pin the flow trace: ``f = value``, effort free."""
    n = basis.n
    pin = _port_datum(value, n)
    port = LinearGraph(InnerProductSpace(n), np.eye(n), np.zeros((n, n)), y0=-pin)
    return _finalize(basis, port, "Neumann")


def robin(mmat, basis: BoundaryDataBasis, value=0.0) -> BoundaryCondition:
    """Impedance condition ``f = -sqrt(S) M sqrt(S) e + value``, ``M`` Hermitian.

    ``M`` acts in the symmetrized port coordinates ``sqrt(S) e``; there
    its positive semidefiniteness is exactly equivalent to monotonicity,
    and the eigenvalues of the stored trace-basis operator coincide with
    those of ``M`` (the two are similar).  The certificate judges the
    sign: ``robin(-M)`` for a positive definite ``M`` is certified
    *non*-monotone, with a violating pair of graph points as witness.
    """
    n = basis.n
    mmat = _hermitize(_as_matrix(mmat, (n, n), "Robin matrix"), "Robin matrix")
    port = LinearGraph(InnerProductSpace(n), np.eye(n), basis.sqrtS @ mmat @ basis.sqrtS,
                       y0=-_port_datum(value, n))
    return _finalize(basis, port, "Robin")


#: Port kinds of a multiport tuple spec, with the value counts each takes.
_PART_ARITY = {"dirichlet": (1,), "neumann": (1,), "friction": (1,), "robin": (1, 2)}


def _scalar_part(kind: str, params: tuple) -> Relation:
    arity = _PART_ARITY.get(kind)
    if arity is None:
        raise ValueError(f"unknown port kind {kind!r}; expected one of {tuple(_PART_ARITY)}")
    if len(params) not in arity:
        raise ValueError(f"{kind} takes {' or '.join(map(str, arity))} value(s), got {len(params)}")
    space = InnerProductSpace(1)
    if kind == "dirichlet":
        return LinearGraph(space, np.zeros((1, 1)), np.eye(1), x0=[params[0]])
    if kind == "neumann":
        return LinearGraph(space, np.eye(1), np.zeros((1, 1)), y0=[-complex(params[0])])
    coef = complex(params[0])
    if kind == "friction":  # SeparableProx checks its coefficients
        return SeparableProx(space, [coef])
    if coef.imag != 0:
        raise ValueError(f"robin coefficient must be real, got {params[0]!r}")
    val = params[1] if len(params) > 1 else 0.0
    return LinearGraph(space, np.eye(1), [[coef.real]], y0=[-complex(val)])


def multiport(parts: Sequence, basis: BoundaryDataBasis) -> BoundaryCondition:
    """Compose per-port boundary behaviors into one condition.

    Parameters
    ----------
    parts:
        Iterable of ``(index, spec)`` entries, one per port of
        ``range(n)``, in any order.  An index is an integer (a numpy
        integer too); a ``bool``, a float or any other value is refused,
        not truncated.  A spec is a tuple —
        ``("dirichlet", value)``, ``("neumann", value)``,
        ``("robin", alpha[, value])`` or ``("friction", mu)`` — giving
        the scalar relation of that port.  A Robin port is ``f_k =
        -alpha e_k + value`` for any real ``alpha``, unlike :func:`robin`,
        whose ``M`` acts on ``sqrt(S) e``: on the wave system (``S =
        tanh(1) I``) two ``robin 1`` ports give ``w = e``, ``robin(I)``
        gives ``w = 0.7616 e``, and where ``S`` is not diagonal a diagonal
        ``M`` couples the ports.
    basis:
        Trace basis fixing ``n`` and the coordinate maps.

    The ports are checked and their scalar parts summed (a direct sum)
    in port order, whatever the listed order, and the sum is certified
    once: each part is judged by its own rule, and the direct sum
    carries the verdicts over (a failing part's witness is lifted into
    the sum's coordinates).
    """
    n = basis.n
    by_port: dict = {}
    for k, spec in sorted(((_integer(k, "port index"), spec) for k, spec in parts), key=lambda part: part[0]):
        if not 0 <= k < n:
            raise ValueError(f"port index {k} out of range for {n} ports")
        if k in by_port:
            raise ValueError(f"port index {k} assigned twice")
        kind, *params = tuple(spec) or ("",)
        try:
            by_port[k] = _scalar_part(str(kind).lower(), tuple(params))
        except ValueError as exc:
            raise ValueError(f"port {k}: {exc}") from None
    if len(by_port) != n:
        missing = sorted(set(range(n)) - set(by_port))
        raise ValueError(f"ports {missing} not covered by any part")
    in_port_order = list(by_port.values())
    port = direct_sum(in_port_order) if n > 1 else in_port_order[0]
    return _finalize(basis, port, "Multiport")


def _integer(k, name: str) -> int:
    """``k`` as an integer (numpy integers included), not a ``bool`` and
    nothing that ``int`` would truncate; ``name`` says what it counts."""
    if not isinstance(k, bool):
        try:
            return operator.index(k)
        except TypeError:
            pass
    raise ValueError(f"{name} {k!r} is not an integer")


def subspace_gap(u1: np.ndarray, u2: np.ndarray) -> float:
    """Sine of the largest principal angle between two orthonormal spans.

    Computed as ``||U2 - U1 (U1^H U2)||_2``, which stays accurate down
    to machine precision for nearly-equal subspaces (the cosine route
    loses half the digits through ``arccos`` near 1).
    """
    if u1.shape[1] != u2.shape[1]:
        return 1.0
    if u2.shape[1] == 0:
        return 0.0
    resid = u2 - u1 @ (u1.conj().T @ u2)
    return float(min(1.0, np.linalg.norm(resid, 2)))


def check_skew_selfadjoint(bc: BoundaryCondition) -> Certificate:
    """Certify ``h* = -h`` in the Gram-weighted trace coordinates.

    The adjoint relation is computed through the weighted graph
    complement and compared with the negated graph by principal angles
    (tolerance :data:`SKEW_ANGLE_TOL` on the angle); a failure reports
    the worst mismatch direction.  Defined for linear (unshifted)
    conditions only.
    """
    h = bc.h
    if not isinstance(h, LinearGraph) or h.shifted:
        raise ValueError("skew-selfadjointness undefined for nonlinear relations")
    adj = relations.adjoint_relation(h)
    neg = LinearGraph(h.space, h.zx, -h.zy)
    if adj.graph_dim != neg.graph_dim:
        return Certificate(
            skew="no",
            method="adjoint graph dimension mismatch",
            witness={"dim_h": neg.graph_dim, "dim_adjoint": adj.graph_dim},
        )
    u1 = neg.stacked
    u2 = adj.stacked
    worst = float(np.arcsin(subspace_gap(u1, u2)))
    if worst <= SKEW_ANGLE_TOL:
        return Certificate(skew="yes", method="principal angles between h* and -h",
                           witness={"max_angle": worst})
    resid = u2 - u1 @ (u1.conj().T @ u2)
    _, _, vh = sla.svd(resid)
    direction = u2 @ vh[0].conj()
    d = h.space.dim
    return Certificate(
        skew="no",
        method="principal angles between h* and -h",
        witness={"max_angle": worst, "direction_x": direction[:d], "direction_y": -direction[d:]},
    )


def extract_h(constraint, basis: BoundaryDataBasis) -> BoundaryCondition:
    """Boundary condition from a linear trace constraint ``C_e e + C_f f = 0``.

    The joint kernel of the constraint pair becomes the flow/effort
    graph; re-emitting the constraint from the result spans the same
    kernel (round-trip identity, tested).  No monotonicity is assumed —
    the certificates report whatever the kernel happens to be.
    """
    ce, cf = constraint
    n = basis.n
    ce = _as_matrix(ce, (None, n), "constraint block C_e")
    cf = _as_matrix(cf, (ce.shape[0], n), "constraint block C_f")
    kern = relations._nullspace(np.hstack([ce, cf]))
    if kern.shape[1] == 0:
        raise ValueError("constraint kernel is trivial; no boundary relation to extract")
    port = LinearGraph(InnerProductSpace(n), kern[:n], -kern[n:])
    return _finalize(basis, port, "Extracted")


def _graph_norm(basis: BoundaryDataBasis, xs: np.ndarray, u: np.ndarray) -> float:
    """Discrete graph norm sqrt(||u||^2 + ||P1 u'||^2) with Simpson weights."""
    arr, _, w, gu = _graph_terms(basis, xs, u)
    return float(np.sqrt(np.sum(w[:, None] * (np.abs(arr) ** 2 + np.abs(gu) ** 2)).real))


def membership(bc: BoundaryCondition, u, v):
    """Test whether a field pair satisfies the boundary relation.

    Projects ``u`` onto the even trace channel and ``v`` onto the odd
    one (the derivative map is the identity on coefficients), and
    measures the graph distance of the coefficient pair to ``h``.  The
    fields are assumed sampled on the uniform symmetric grid spanning
    ``[-b, b]``; the grid is reconstructed from the sample count.

    Returns
    -------
    member, residual:
        ``member`` is ``residual <= MEMBERSHIP_TOL * scale`` with
        ``scale`` the larger of 1 and the fields' discrete graph norms
        (the projection is quadrature-limited, so the test is relative
        for large fields).
    """
    basis = bc.basis
    xs = np.linspace(-basis.b, basis.b, np.shape(u)[0])
    x_c = project_bd(basis, "even", xs, u)
    y_c = project_bd(basis, "odd", xs, v)
    residual = graph_residual(bc.h, x_c, y_c)
    scale = max(1.0, _graph_norm(basis, xs, u), _graph_norm(basis, xs, v))
    return bool(residual <= MEMBERSHIP_TOL * scale), float(residual)
