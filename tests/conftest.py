"""Shared random-matrix generators for the test suite.

Everything takes an explicit ``numpy`` Generator so each test controls
its own seed; no global random state is touched anywhere.

Every warning is an error in every test (``filterwarnings`` in
``pyproject.toml``).  That includes numpy's ``ComplexWarning``: a complex
value stored into a float64 array (a real run's ``states``, say) loses
its imaginary part with nothing but this warning.
"""

import numpy as np
import pytest

#: ``numpy.exceptions.ComplexWarning`` from numpy 1.25 on, ``numpy.ComplexWarning`` before.
ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def rand_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def rand_herm_invertible(rng, n, lo=0.3, hi=3.0):
    """Hermitian matrix with eigenvalues clipped away from 0 (either sign)."""
    z = rand_complex(rng, n, n)
    h = (z + z.conj().T) / 2.0
    lam, u = np.linalg.eigh(h)
    lam = np.sign(lam) * np.clip(np.abs(lam), lo, hi)
    lam[lam == 0] = lo
    return (u * lam) @ u.conj().T


def rand_spd(rng, n, shift=0.1):
    z = rand_complex(rng, n, n)
    return z @ z.conj().T / n + shift * np.eye(n)


def rand_contraction(rng, n):
    z = rand_complex(rng, n, n)
    top = np.linalg.svd(z, compute_uv=False)[0]
    return z / (top * (1.0 + rng.uniform(0.0, 1.0)))


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_monotone_matrix(rng, n):
    """Matrix whose graph is maximal monotone: PSD Hermitian part."""
    skew = rand_complex(rng, n, n)
    return rand_spd(rng, n) + (skew - skew.conj().T) / 2.0


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
