"""First-derivative finite-difference operator with an exact discrete
integration-by-parts identity.

The node set is uniform with ``N = m + 1`` points.  The operator ``D``
(fourth-order interior stencil, second-order one-sided boundary rows)
and the diagonal quadrature weights ``H`` satisfy

    H D + (H D)^T = B,     B = diag(-1, 0, ..., 0, 1),

to machine precision; the weights integrate the boundary closure
consistently (order 4 in the interior, order 2 at the four closure rows,
giving overall second-order convergence with exact discrete duality).
That exactness — not the formal order — is what the energy bookkeeping
of the evolution solver rests on, so it is asserted in the test suite at
1e-12 rather than an asymptotic tolerance.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["sbp42", "MIN_CELLS"]

#: Smallest number of cells for which the two boundary closures fit.
MIN_CELLS = 8

# boundary closure of the classical diagonal-norm (4,2) operator
_NORM_HEAD = np.array([17.0 / 48.0, 59.0 / 48.0, 43.0 / 48.0, 49.0 / 48.0])

_D_HEAD = [
    np.array([-24.0 / 17.0, 59.0 / 34.0, -4.0 / 17.0, -3.0 / 34.0]),
    np.array([-1.0 / 2.0, 0.0, 1.0 / 2.0]),
    np.array([4.0 / 43.0, -59.0 / 86.0, 0.0, 59.0 / 86.0, -4.0 / 43.0]),
    np.array([3.0 / 98.0, 0.0, -59.0 / 98.0, 0.0, 32.0 / 49.0, -4.0 / 49.0]),
]

_D_INTERIOR = np.array([1.0 / 12.0, -2.0 / 3.0, 0.0, 2.0 / 3.0, -1.0 / 12.0])


def sbp42(m: int, h: float):
    """Assemble the derivative matrix and quadrature weights on ``m`` cells.

    Parameters
    ----------
    m:
        Number of cells; at least :data:`MIN_CELLS` so the left and right
        closures do not overlap.
    h:
        Cell width.

    Returns
    -------
    d:
        Sparse ``(m+1) x (m+1)`` derivative matrix (CSR).
    weights:
        Length ``m+1`` array of positive quadrature weights.
    """
    if m < MIN_CELLS:
        raise ValueError(f"need at least {MIN_CELLS} cells, got {m}")
    if not h > 0:
        raise ValueError("cell width must be positive")
    n = m + 1

    weights = np.full(n, h)
    weights[:4] = h * _NORM_HEAD
    weights[-4:] = h * _NORM_HEAD[::-1]

    rows, cols, vals = [], [], []
    for i, stencil in enumerate(_D_HEAD):
        for j, v in enumerate(stencil):
            if v != 0.0:
                # left closure, and its antisymmetric mirror on the right
                rows.append(i)
                cols.append(j)
                vals.append(v / h)
                rows.append(n - 1 - i)
                cols.append(n - 1 - j)
                vals.append(-v / h)
    # interior rows: one entry per nonzero stencil offset, in column order
    offsets = np.flatnonzero(_D_INTERIOR)
    interior = np.arange(4, n - 4)
    rows = np.concatenate([rows, np.repeat(interior, offsets.size)])
    cols = np.concatenate([cols, (interior[:, None] + (offsets - 2)).ravel()])
    vals = np.concatenate([vals, np.tile(_D_INTERIOR[offsets] / h, interior.size)])
    d = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    return d, weights
