import numpy as np
import pytest
import scipy.sparse as sp

from monoport.sbp import _D_HEAD, _D_INTERIOR, _NORM_HEAD, sbp42


def loop_built_sbp42(m, h):
    """The operator assembled one stencil entry at a time."""
    n = m + 1
    weights = np.full(n, h)
    weights[:4] = h * _NORM_HEAD
    weights[-4:] = h * _NORM_HEAD[::-1]
    rows, cols, vals = [], [], []
    for i, stencil in enumerate(_D_HEAD):
        for j, v in enumerate(stencil):
            if v != 0.0:
                rows += [i, n - 1 - i]
                cols += [j, n - 1 - j]
                vals += [v / h, -v / h]
    for i in range(4, n - 4):
        for k, v in enumerate(_D_INTERIOR):
            if v != 0.0:
                rows.append(i)
                cols.append(i - 2 + k)
                vals.append(v / h)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), weights


@pytest.mark.parametrize("m", [8, 9, 10, 64])
def test_sbp42_is_the_loop_built_operator(m):
    """The array-built interior gives the same CSR arrays, bit for bit."""
    h = 2.0 / m
    d, weights = sbp42(m, h)
    ref, ref_weights = loop_built_sbp42(m, h)
    for got, want in ((d.data, ref.data), (d.indices, ref.indices), (d.indptr, ref.indptr),
                      (weights, ref_weights)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert d.shape == ref.shape and d.has_canonical_format

