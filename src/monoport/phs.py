"""One-dimensional port-Hamiltonian transport systems and their boundary data.

A field ``u : [-b, b] -> C^n`` evolves under ``d/dt u = -(P1 d/dx + P0)(H u)``
with ``P1`` Hermitian invertible, ``P0`` skew-Hermitian, and a pointwise
Hermitian positive definite energy density ``H``.  All boundary information
of the generator lives in the 2n-dimensional trace space spanned by
hyperbolic profiles along the eigendirections of ``P1``:

* even channel: ``cosh(x / lambda_i) b_i``,
* odd channel:  ``sinh(x / lambda_i) b_i``,

where ``P1 b_i = lambda_i b_i``.  To keep every formula well-scaled for
small ``|lambda_i|`` (stiff characteristic speeds), the stored basis is
normalized by ``exp(-b / |lambda_i|)``; all matrices below refer to that
normalized basis.  Effort and flow traces of a field ``u`` with ``p = H u``
are

    e = (p(b) + p(-b)) / sqrt(2),
    f = (P1 p(-b) - P1 p(b)) / sqrt(2),

and the maps ``Qmat`` (basis coefficients -> effort) and ``S`` (Hermitian
positive definite) connect coefficient and trace coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.linalg as sla

from .sbp import sbp42
from .spaces import RankDeficientBasis, _as_matrix

__all__ = [
    "PortHamiltonian",
    "BoundaryDataBasis",
    "bd_basis",
    "eigendecompose",
    "even_odd_split",
    "ddot_matrix",
    "flow_effort",
    "flow_effort_via_bd",
    "project_bd",
]

#: Relative tolerance for structural matrix identities (Hermitian / skew).
STRUCTURE_RTOL = 1e-12

#: The least interval half-width, ``2^-511`` (about 1.49e-154): the square
#: root of the least normal float64 number, so that squared lengths stay
#: normal.  Below it a run leaves the float64 range: at ``b = 1e-300`` the
#: boundary block of the solver, built from derivative rows of order
#: ``1/h_x``, made the boundary response overflow to ``inf``.
MIN_HALF_WIDTH = 2.0 ** -511

#: Eigenvalues of the transport matrix below this (relative) size are
#: treated as zero and rejected.
SPEED_FLOOR = 1e-10

#: Target mesh width of the Gram quadrature, in units of the smallest
#: characteristic length ``|lambda|``.  Composite Simpson at this
#: resolution keeps the relative quadrature error near 5e-13, an order
#: of magnitude inside the 1e-10 certificates built on top of it.
_QUAD_RESOLUTION = 1.5e-3
_QUAD_MIN_PANELS = 64
_QUAD_MAX_PANELS = 200_000


def _hermitize(mat: np.ndarray, what: str, skew: bool = False) -> np.ndarray:
    """The Hermitian part ``(mat + mat^H) / 2`` of ``mat``, or with ``skew``
    its skew-Hermitian part ``(mat - mat^H) / 2``, after the structure
    check: ``mat`` is refused ("{what} must be Hermitian" or "...
    skew-Hermitian") when the Frobenius norm of the other part's double,
    ``mat -+ mat^H``, exceeds ``STRUCTURE_RTOL max(1, |mat|)``.

    When the largest real or imaginary part of an entry lies outside
    ``[2^-500, 2^500)``, check and part are computed on ``mat`` times the
    power of two that brings it into ``[1/2, 1)``, so that no sum or norm
    overflows (unscaled, ``0 1e300; 1e300 0`` passed as skew-Hermitian:
    both norms were ``inf``, and ``inf > rtol inf`` is false).  The
    scaling is exact for every part that stays in the normal range, so
    the check and the part are those of the unscaled matrix."""
    e = math.frexp(float(np.abs(_parts(mat)).max(initial=0.0)))[1]
    k = 0 if -500 < e <= 500 else min(-e, 1023)  # 2^1024 overflows
    scaled = _ldexp(mat, k) if k else mat
    adj = scaled.conj().T
    defect, part = (scaled + adj, scaled - adj) if skew else (scaled - adj, scaled + adj)
    if np.linalg.norm(defect) > STRUCTURE_RTOL * max(2.0 ** k, float(np.linalg.norm(scaled))):
        raise ValueError(f"{what} must be {'skew-' if skew else ''}Hermitian")
    return _ldexp(part / 2.0, -k) if k else part / 2.0


def _parts(mat: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of ``mat`` side by side: a real view of
    ``mat``, copied to C order first if it is not."""
    return np.ascontiguousarray(mat).view(mat.real.dtype)


def _ldexp(mat: np.ndarray, k: int) -> np.ndarray:
    """``mat * 2**k``, real and imaginary parts scaled apart (exact for a
    part that stays in the normal range)."""
    return np.ldexp(_parts(mat), k).view(mat.dtype)


def _check_density(mat: np.ndarray, n: int, where: str = "") -> np.ndarray:
    mat = _hermitize(_as_matrix(mat, (n, n), f"energy density{where}"), f"energy density{where}")
    evals = np.linalg.eigvalsh(mat)
    if evals[0] <= 1e-12 * max(1.0, float(evals[-1])):
        raise ValueError(f"energy density{where} must be positive definite")
    return mat


def _as_field(u: np.ndarray, n: int, name: str = "field") -> np.ndarray:
    """Samples of a C^n-valued field as an ``(N, n)`` array, the one rule
    for every reader of a sampled field: float64 samples stay real, any
    other data is made complex (a complex128 array is not copied)."""
    arr = np.asarray(u)
    if arr.dtype != np.float64:
        arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 1:
        if n != 1:
            raise ValueError(f"{name} must have shape (N, {n})")
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"{name} must have shape (N, {n}), got {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class PortHamiltonian:
    """Problem data of a 1D linear port-Hamiltonian system on ``[-b, b]``.

    Parameters
    ----------
    n:
        Number of field components.
    b:
        Half-width of the spatial interval: finite and at least
        :data:`MIN_HALF_WIDTH`.
    p1:
        Hermitian invertible ``(n, n)`` transport matrix.
    p0:
        Skew-Hermitian ``(n, n)`` zero-order term; ``None`` means zero.
    hamiltonian:
        Energy density.  ``None`` (identity), a constant ``(n, n)``
        Hermitian positive definite matrix, or a callable
        ``x -> (n, n)``, checked at ``x = 0`` when the system is built
        and at every point where it is evaluated.

    Every matrix is read by :func:`.spaces._as_matrix`: of shape ``(n, n)``
    with finite entries, so a ``nan`` or ``inf`` in ``P1``, ``P0`` or a
    sample of ``H`` is refused with its name, before any factorisation.
    Two systems compare by identity.
    """

    n: int
    b: float
    p1: np.ndarray
    p0: Optional[np.ndarray] = None
    hamiltonian: Union[None, np.ndarray, Callable[[float], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one field component")
        if not (np.isfinite(self.b) and self.b > 0):
            raise ValueError("interval half-width must be positive and finite")
        if self.b < MIN_HALF_WIDTH:
            raise ValueError(f"interval half-width must be at least 2^-511 = {MIN_HALF_WIDTH:.4g}, got {self.b:.4g}")
        p1 = _as_matrix(self.p1, (self.n, self.n), "transport matrix")
        eigendecompose(p1)  # Hermitian, every speed nonzero
        object.__setattr__(self, "p1", _hermitize(p1, "transport matrix"))

        p0 = np.zeros((self.n, self.n)) if self.p0 is None else self.p0
        p0 = _as_matrix(p0, (self.n, self.n), "zero-order term")
        object.__setattr__(self, "p0", _hermitize(p0, "zero-order term", skew=True))

        ham = self.hamiltonian
        if callable(ham):
            _check_density(ham(0.0), self.n, " at x=0")
        elif ham is not None:
            ham = _check_density(ham, self.n)
        object.__setattr__(self, "hamiltonian", ham)

    def hamiltonian_grid(self, xs: np.ndarray) -> np.ndarray:
        """Energy density sampled on a grid, shape ``(len(xs), n, n)``.

        Every sample is validated Hermitian positive definite, so the
        returned stack is safe to factor nodewise.
        """
        xs = np.asarray(xs, dtype=float)
        if self.hamiltonian is None:
            return np.broadcast_to(np.eye(self.n, dtype=complex), (len(xs), self.n, self.n)).copy()
        if callable(self.hamiltonian):
            return np.stack([_check_density(self.hamiltonian(x), self.n, f" at x={x:g}") for x in xs])
        return np.broadcast_to(self.hamiltonian, (len(xs), self.n, self.n)).copy()


def eigendecompose(p1: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Eigenvalues (ascending) and a deterministic orthonormal eigenbasis.

    For repeated eigenvalues the eigenspace returned by a generic solver
    is basis-ambiguous, which would make downstream reports depend on
    library internals.  Within each eigenvalue cluster the basis is
    therefore re-derived from the spectral projector by Gram-Schmidt
    over the standard basis vectors in index order, and every column's
    phase is fixed so that its first significant component is real and
    positive.  The reconstruction ``U diag(lam) U^* = p1`` holds to
    machine precision.

    Raises
    ------
    ValueError
        If ``p1`` is not a finite square matrix, not Hermitian, or has a
        numerically zero eigenvalue.
    """
    p1 = _as_matrix(p1, (None, None), "transport matrix")
    if p1.shape[0] != p1.shape[1]:
        raise ValueError("expected a square matrix")
    p1 = _hermitize(p1, "transport matrix")
    lam, vec = sla.eigh(p1)
    scale = max(1.0, float(np.abs(lam).max()))
    if np.abs(lam).min() <= SPEED_FLOOR * scale:
        raise ValueError(
            "transport matrix has a numerically zero eigenvalue; "
            "every characteristic speed must be nonzero"
        )
    u = np.array(vec, dtype=complex)
    ctol = 1e-9 * scale
    start = 0
    for stop in range(1, len(lam) + 1):
        if stop == len(lam) or lam[stop] - lam[stop - 1] > ctol:
            if stop - start > 1:
                u[:, start:stop] = _canonical_subspace_basis(u[:, start:stop])
            start = stop
    for j in range(u.shape[1]):
        col = u[:, j]
        pivots = np.flatnonzero(np.abs(col) > 1e-8)
        piv = col[pivots[0]]
        u[:, j] = col * (piv.conj() / abs(piv))
    return lam, u


def _canonical_subspace_basis(block: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of ``range(block)`` (orthonormal cols)."""
    n, k = block.shape
    proj = block @ block.conj().T
    cols: "list[np.ndarray]" = []
    for idx in range(n):
        cand = proj[:, idx].copy()
        for c in cols:
            cand -= c * (c.conj() @ cand)
        nrm = float(np.linalg.norm(cand))
        if nrm > 1e-6:
            cols.append(cand / nrm)
        if len(cols) == k:
            break
    if len(cols) < k:  # projector defect; keep the solver's basis
        return block
    return np.column_stack(cols)


def even_odd_split(xs: np.ndarray, values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Split samples on a symmetric grid into even and odd parts.

    ``xs`` must satisfy ``xs == -xs[::-1]`` up to roundoff; the split is
    exact reflection averaging, so ``even + odd`` reproduces the input.
    Works for shape ``(N,)`` or ``(N, k)`` sample arrays.
    """
    xs = np.asarray(xs, dtype=float)
    span = max(1.0, float(np.abs(xs).max()))
    if np.abs(xs + xs[::-1]).max() > 1e-12 * span:
        raise ValueError("grid must be symmetric about the origin")
    values = np.asarray(values, dtype=complex)
    if values.shape[0] != xs.shape[0]:
        raise ValueError("sample count does not match the grid")
    rev = values[::-1]
    return (values + rev) / 2.0, (values - rev) / 2.0


@dataclass(frozen=True, eq=False)
class BoundaryDataBasis:
    """Normalized trace basis of a port-Hamiltonian system.

    Attributes
    ----------
    lambdas:
        Eigenvalues of the transport matrix, ascending.
    eigvecs:
        Matching deterministic orthonormal eigenbasis (columns).
    b:
        Interval half-width.
    S:
        Hermitian positive definite matrix
        ``U diag(lambda_i tanh(b / lambda_i)) U^*`` relating odd-channel
        traces to flows.
    sqrtS:
        Principal square root of ``S``.
    Qmat:
        ``sqrt(2) U diag(cosh(b / lambda_i) exp(-b / |lambda_i|))``;
        maps even-channel coefficients to effort traces.
    gram_G:
        Gram matrix of the normalized even-channel basis in the graph
        inner product ``<u, v> + <P1 u', P1 v'>``, by composite Simpson
        quadrature.  The derivative swaps the two hyperbolic profiles,
        so the odd channel has the same Gram matrix.
    """

    lambdas: np.ndarray
    eigvecs: np.ndarray
    b: float
    S: np.ndarray
    sqrtS: np.ndarray
    Qmat: np.ndarray
    gram_G: np.ndarray

    @property
    def n(self) -> int:
        return len(self.lambdas)

    def profiles(self, side: str, xs: np.ndarray) -> np.ndarray:
        """Sample the normalized scalar profiles on a grid.

        Returns an ``(n, N)`` array whose row ``i`` is
        ``cosh(x / lambda_i) exp(-b / |lambda_i|)`` for the even channel
        (``side == "even"``) or the matching normalized ``sinh`` for the
        odd channel (``side == "odd"``).
        """
        if side not in ("even", "odd"):
            raise ValueError(f"side must be 'even' or 'odd', got {side!r}")
        xs = np.asarray(xs, dtype=float)
        cosh_part, sinh_part = _scaled_profile_pair(self.lambdas, self.b, xs)
        return cosh_part if side == "even" else sinh_part


def _scaled_profile_pair(lambdas: np.ndarray, b: float, xs: np.ndarray):
    """Normalized cosh / sinh profiles, evaluated without overflow.

    Both return values have shape ``(n, N)``.  Writing
    ``sigma_i = b / |lambda_i|``, the rows are
    ``cosh(x / lambda_i) e^{-sigma_i}`` and ``sinh(x / lambda_i) e^{-sigma_i}``;
    since ``|x| <= b`` every exponent in the evaluation is nonpositive.
    """
    lam = np.asarray(lambdas, dtype=float)[:, None]
    sig = b / np.abs(lam)
    z = xs[None, :] / lam
    ep = np.exp(z - sig)
    em = np.exp(-z - sig)
    return (ep + em) / 2.0, (ep - em) / 2.0


def _pair_integral_closed(la: float, lb: float, b: float) -> float:
    """Closed form of the normalized profile pair integral.

    Evaluates ``int_{-b}^{b} [cosh(x/la) cosh(x/lb) + sinh(x/la) sinh(x/lb)]
    e^{-sigma_a - sigma_b} dx``.  The bracket collapses to ``cosh(k x)``
    with ``k = 1/la + 1/lb``, giving ``2 sinh(b k) / k`` (or ``2 b`` when
    the rates cancel), again organized so no positive exponent appears.
    """
    sig = b / abs(la) + b / abs(lb)
    k = 1.0 / la + 1.0 / lb
    if abs(k) * b < 1e-8:
        return 2.0 * b * np.exp(-sig) * (1.0 + (b * k) ** 2 / 6.0)
    return (np.exp(b * k - sig) - np.exp(-b * k - sig)) / k


def _closed_form_gram(basis: BoundaryDataBasis) -> np.ndarray:
    lam = basis.lambdas
    n = basis.n
    overlap = basis.eigvecs.conj().T @ basis.eigvecs
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            val = _pair_integral_closed(lam[i], lam[j], basis.b)
            out[i, j] = overlap[i, j] * val
            out[j, i] = np.conj(out[i, j])
    return out


def _simpson_weights(panels: int, h: float) -> np.ndarray:
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def bd_basis(phs: PortHamiltonian) -> BoundaryDataBasis:
    """Construct the normalized boundary-data basis of a system.

    The eigen-structure of the transport matrix fixes the hyperbolic
    profiles; ``S``, its square root, and ``Qmat`` come from closed
    forms, while the channel Gram matrix is computed by composite
    Simpson quadrature (the independent closed forms back the
    :func:`ddot_matrix` certificate).  The panel count resolves the
    smallest characteristic length ``|lambda|`` at
    ``_QUAD_RESOLUTION``, clamped to ``[_QUAD_MIN_PANELS,
    _QUAD_MAX_PANELS]`` and rounded up to an even number.
    """
    lam, u = eigendecompose(phs.p1)
    b = phs.b
    sig = b / np.abs(lam)
    tanh_scale = lam * np.tanh(b / lam)  # = |lambda| tanh(sigma) > 0
    smat = _hermitize((u * tanh_scale) @ u.conj().T, "S")
    sqrt_smat = _hermitize((u * np.sqrt(tanh_scale)) @ u.conj().T, "sqrt(S)")
    cosh_at_b = (1.0 + np.exp(-2.0 * sig)) / 2.0
    qmat = np.sqrt(2.0) * (u * cosh_at_b)

    panels = int(np.ceil(2.0 * b / (_QUAD_RESOLUTION * float(np.abs(lam).min()))))
    panels = min(max(panels, _QUAD_MIN_PANELS), _QUAD_MAX_PANELS)
    panels += panels % 2
    xs = np.linspace(-b, b, panels + 1)
    w = _simpson_weights(panels, xs[1] - xs[0])
    cosh_part, sinh_part = _scaled_profile_pair(lam, b, xs)
    integrals = (cosh_part * w) @ cosh_part.T + (sinh_part * w) @ sinh_part.T
    gram = (u.conj().T @ u) * integrals
    gram = (gram + gram.conj().T) / 2.0

    return BoundaryDataBasis(
        lambdas=lam,
        eigvecs=u,
        b=b,
        S=smat,
        sqrtS=sqrt_smat,
        Qmat=qmat,
        gram_G=gram,
    )


def ddot_matrix(basis: BoundaryDataBasis) -> "tuple[np.ndarray, float]":
    """Coefficient matrix of the odd-to-even derivative map, with certificate.

    Differentiating an odd-channel basis element and applying the
    transport matrix reproduces exactly the matching even-channel
    element, so in coefficients the map is the identity; both channels
    share ``gram_G``, so the even-to-odd map is the same matrix.  It is
    assembled the honest way — closed-form cross inner products against
    the quadrature Gram matrix — and the returned residual
    ``||M - I||_2`` measures how far the two independent routes drift.
    """
    closed = _closed_form_gram(basis)
    mat = np.linalg.solve(basis.gram_G, closed)
    residual = float(np.linalg.norm(mat - np.eye(basis.n), 2))
    return mat, residual


def _sampled(b: float, n: int, xs: np.ndarray, u: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The grid ``xs`` (1D, at least two nodes, spanning ``[-b, b]``) and
    the samples ``u`` on it as an ``(N, n)`` field (:func:`_as_field`),
    one row per node."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or len(xs) < 2:
        raise ValueError("expected a 1D grid with at least two nodes")
    tol = 1e-10 * max(1.0, b)
    if abs(xs[0] + b) > tol or abs(xs[-1] - b) > tol:
        raise ValueError("grid must span the full interval [-b, b]")
    field = _as_field(u, n)
    if field.shape[0] != len(xs):
        raise ValueError("sample count does not match the grid")
    return xs, field


def _graph_terms(basis: BoundaryDataBasis, xs: np.ndarray, u: np.ndarray):
    """The parts of the discrete graph inner product ``<u, v> + <P1 u',
    P1 v'>`` on a uniform grid ``xs``: the samples ``u`` as a field, the
    summation-by-parts derivative, the composite Simpson weights and
    ``P1 u'`` (one row per node)."""
    field = _as_field(u, basis.n)
    m, h = len(xs) - 1, float(xs[1] - xs[0])
    deriv, _ = sbp42(m, h)
    p1 = (basis.eigvecs * basis.lambdas) @ basis.eigvecs.conj().T
    return field, deriv, _simpson_weights(m, h), (deriv @ field) @ p1.T


def flow_effort(phs: PortHamiltonian, xs: np.ndarray, u: np.ndarray):
    """Flow and effort traces of a sampled field, from endpoint values.

    Returns the pair ``(f, e)`` with ``p = H u``::

        e = (p(b) + p(-b)) / sqrt(2)
        f = (P1 p(-b) - P1 p(b)) / sqrt(2)

    The grid must span ``[-b, b]``; only the endpoint samples are read.
    """
    _, field = _sampled(phs.b, phs.n, xs, u)
    h_left, h_right = phs.hamiltonian_grid([-phs.b, phs.b])
    p_left = h_left @ field[0]
    p_right = h_right @ field[-1]
    effort = (p_right + p_left) / np.sqrt(2.0)
    flow = (phs.p1 @ (p_left - p_right)) / np.sqrt(2.0)
    return flow, effort


def flow_effort_via_bd(phs: PortHamiltonian, basis: BoundaryDataBasis, xs: np.ndarray, u: np.ndarray):
    """Flow and effort traces through the boundary-data projection.

    Independent route to the same pair as :func:`flow_effort`: split
    ``p = H u`` into even and odd parts, project each onto its trace
    channel, and map the coefficients through ``Qmat`` and ``S``.  For
    fields that are numerically in the domain the two routes agree at
    the discretization order; the solver test-suite uses the mismatch as
    a convergence diagnostic.
    """
    xs, field = _sampled(phs.b, phs.n, xs, u)
    density = phs.hamiltonian_grid(xs)
    p = np.einsum("kij,kj->ki", density, field)
    even, odd = even_odd_split(xs, p)
    coef_even = project_bd(basis, "even", xs, even)
    coef_odd = project_bd(basis, "odd", xs, odd)
    effort = basis.Qmat @ coef_even
    flow = -basis.S @ (basis.Qmat @ coef_odd)
    return flow, effort


def project_bd(basis: BoundaryDataBasis, side: str, xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Coefficients of the trace-channel projection of a sampled field.

    The graph inner product ``<u, v> + <P1 u', P1 v'>`` is discretized
    with composite Simpson weights on the given grid, and *both* the
    basis samples and the field are differentiated with the same
    summation-by-parts matrix.  Because one consistent discrete inner
    product is used throughout, a field that samples a normalized basis
    element projects to the exact unit coefficient vector independently
    of quadrature error, while smooth fields converge at the order of
    the boundary closure.

    Parameters
    ----------
    basis:
        Trace basis from :func:`bd_basis`.
    side:
        ``"even"`` for the cosh channel, ``"odd"`` for sinh.
    xs:
        Uniform symmetric grid spanning ``[-b, b]`` with an even number
        of cells (at least 8).
    u:
        Field samples, shape ``(N,)`` or ``(N, n)``.

    Raises
    ------
    RankDeficientBasis
        If the discrete Gram matrix is numerically singular.
    """
    xs, field = _sampled(basis.b, basis.n, xs, u)
    m = len(xs) - 1
    if m < 8 or m % 2:
        raise ValueError("need a uniform grid with an even number of cells (>= 8)")
    steps = np.diff(xs)
    h = float(steps[0])
    if np.abs(steps - h).max() > 1e-10 * max(1.0, h):
        raise ValueError("grid must be uniform")
    span = max(1.0, float(np.abs(xs).max()))
    if np.abs(xs + xs[::-1]).max() > 1e-12 * span:
        raise ValueError("grid must be symmetric about the origin")

    _, deriv, weights, gfield = _graph_terms(basis, xs, field)
    lam = basis.lambdas
    u_eig = basis.eigvecs

    samples = basis.profiles(side, xs)  # (n, N)
    dsamples = (deriv @ samples.T).T

    # projections of the field onto each basis direction, nodewise
    along = field @ u_eig.conj()
    galong = gfield @ u_eig.conj()

    rhs = lam * np.sum(dsamples.T * weights[:, None] * galong, axis=0)
    rhs = rhs + np.sum(samples.T * weights[:, None] * along, axis=0)

    m1 = (dsamples * weights) @ dsamples.T
    m2 = (samples * weights) @ samples.T
    gram_h = (u_eig.conj().T @ u_eig) * (np.outer(lam, lam) * m1 + m2)
    gram_h = (gram_h + gram_h.conj().T) / 2.0
    if np.linalg.cond(gram_h) >= 1e12:
        raise RankDeficientBasis("discrete trace Gram matrix is numerically singular")
    return np.linalg.solve(gram_h, rhs)
