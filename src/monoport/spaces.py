"""Finite-dimensional complex inner-product spaces with weighted inner
products.

Every space carries a Hermitian positive-definite weight (Gram) matrix
``W``; the inner product is

    <x | y> = x^H · W · y,

conjugate-linear in the FIRST argument.  All heavier machinery (relations,
boundary data, solvers) is expressed against these spaces, so that weighted
geometries (energy norms, graph norms, boundary-data norms) are handled by
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

__all__ = [
    "InnerProductSpace",
    "LinearMap",
    "adjoint",
    "RankDeficientBasis",
]

#: Relative tolerance for the Hermitian-deviation check of weights.
HERMITIAN_RTOL = 1e-12

#: The bound on the modulus of every number a reader admits: no square or
#: Frobenius norm of an admitted matrix of side up to 2048 overflows.
MAX_MAGNITUDE = 2.0 ** 500


class RankDeficientBasis(ValueError):
    """Raised when a basis Gram matrix is numerically singular."""


def _as_matrix(a, shape, what: str) -> np.ndarray:
    """``a`` as a complex 2D array of ``shape`` (a ``None`` entry takes any
    size) with every entry of modulus below :data:`MAX_MAGNITUDE` = 2^500,
    the one reader of a matrix input; a refusal names ``what``: ``"{what}
    must have shape (2, 2), got (1, 1)"``, ``"{what} must be finite"`` or
    ``"{what} must have entries of modulus below 2^500"``."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.ndim != 2 or any(want is not None and want != got for want, got in zip(shape, m.shape)):
        expected = ", ".join("any" if want is None else str(want) for want in shape)
        raise ValueError(f"{what} must have shape ({expected}), got {m.shape}")
    if not (np.abs(m) < MAX_MAGNITUDE).all():
        rule = "have entries of modulus below 2^500" if np.isfinite(m).all() else "be finite"
        raise ValueError(f"{what} must {rule}")
    return m


def _as_vector(x, dim: int) -> np.ndarray:
    """``x`` flattened to a vector of length ``dim`` by the rule of
    :func:`.phs._as_field`: float64 data stays float64, any other data is
    made complex (a vector of either dtype is not copied)."""
    x = np.asarray(x)
    if x.dtype != np.float64:
        x = np.asarray(x, dtype=complex)
    x = x.reshape(-1)
    if x.shape != (dim,):
        raise ValueError(f"expected a vector of length {dim}, got {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class InnerProductSpace:
    """A finite-dimensional complex Hilbert space with weight matrix.

    Parameters
    ----------
    dim:
        Positive dimension.
    weight:
        Hermitian positive-definite ``dim x dim`` matrix; defaults to the
        identity, which is its own Cholesky factor.  Positive definiteness
        of a given weight is established by a Cholesky factorisation (its
        failure is the error path).
    """

    dim: int
    weight: np.ndarray = None  # type: ignore[assignment]
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be a positive integer")
        if self.weight is None:
            # the identity is Hermitian and its own Cholesky factor
            eye = np.eye(self.dim, dtype=complex)
            object.__setattr__(self, "weight", eye)
            object.__setattr__(self, "_chol", eye)
            return
        w = _as_matrix(self.weight, (self.dim, self.dim), "weight")
        dev = np.linalg.norm(w - w.conj().T)
        scale = max(np.linalg.norm(w), 1e-300)
        if dev > HERMITIAN_RTOL * scale:
            raise ValueError(f"weight is not Hermitian (relative deviation {dev / scale:.3e})")
        w = 0.5 * (w + w.conj().T)
        try:
            chol = sla.cholesky(w, lower=True)
        except sla.LinAlgError as exc:
            raise ValueError("weight is not positive definite") from exc
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "_chol", chol)

    # -- basic geometry ----------------------------------------------------

    def inner(self, x, y) -> complex:
        x = self.check_vector(x)
        y = self.check_vector(y)
        return complex(x.conj() @ (self.weight @ y))

    def norm(self, x) -> float:
        x = self.check_vector(x)
        # via the Cholesky factor: ||L^H x||_2, nonnegative by construction
        return float(np.linalg.norm(self._chol.conj().T @ x))

    def check_vector(self, x) -> np.ndarray:
        """``x`` as a complex vector of this space."""
        return _as_vector(np.asarray(x, dtype=complex), self.dim)

    def solve_weight(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``W x = rhs`` through the cached Cholesky factor."""
        y = sla.solve_triangular(self._chol, rhs, lower=True)
        return sla.solve_triangular(self._chol.conj().T, y, lower=False)


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear map between two inner-product spaces, stored as a matrix."""

    source: InnerProductSpace
    target: InnerProductSpace
    matrix: np.ndarray

    def __post_init__(self):
        shape = (self.target.dim, self.source.dim)
        object.__setattr__(self, "matrix", _as_matrix(self.matrix, shape, "map matrix"))


def adjoint(m: LinearMap) -> LinearMap:
    """The adjoint map ``T*`` with ``<Tx|y>_target = <x|T*y>_source``.

    Concretely ``T* = W_source^{-1} · T^H · W_target``.
    """
    mat = m.source.solve_weight(m.matrix.conj().T @ m.target.weight)
    return LinearMap(source=m.target, target=m.source, matrix=mat)

