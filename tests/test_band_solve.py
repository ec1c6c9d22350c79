"""The band solve against the monolithic solve, as a property.

``resolve_A`` eliminates the boundary unknowns and solves the interior
with the compact band factor of :class:`monoport.solver._CoreSolver`
(the ``gbtrs`` head, the unit-diagonal sweeps, one division by the
pivots).  ``verify._monolithic_resolve`` assembles the whole constrained
system and solves it with one sparse LU, so the two routes share nothing
but the discrete operators.  On random linear cases they agree to a
relative gap of ``1e-10``:

* ``n`` from 1 to 3, real and complex ``P1``, ``P0`` and constant ``H``;
* Robin and V-matrix relations, each with or without an offset;
* up to 1024 cells, and ``mu / h_x`` from ``1e-3`` to ``1e3``, so the
  factor has no row swaps, a short head of them, or swaps throughout.

Deterministic (``derandomize``) with a fixed budget of examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from monoport import boundary as bnd
from monoport.phs import PortHamiltonian, bd_basis
from monoport.relations import LinearGraph
from monoport.solver import discretize, resolve_A
from monoport.spaces import InnerProductSpace
from monoport.verify import _monolithic_resolve

#: Largest relative gap between the two solves.
GAP = 1e-10


def _normal(rng, shape, complex_):
    """Standard normal entries, with a normal imaginary part if ``complex_``."""
    return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0.0)


def _hermitian(rng, n, complex_):
    z = _normal(rng, (n, n), complex_)
    return (z + z.conj().T) / 2.0


def _speeds(rng, n, complex_):
    """A Hermitian ``P1`` with speeds of either sign, 0.4 to 2.5 in modulus."""
    lam, u = np.linalg.eigh(_hermitian(rng, n, complex_))
    lam = np.where(lam < 0, -1.0, 1.0) * np.clip(np.abs(lam), 0.4, 2.5)
    return (u * lam) @ u.conj().T


def _relation(rng, basis, kind, shifted, complex_):
    n = basis.n
    z = _normal(rng, (n, n), complex_)
    datum = _normal(rng, n, complex_) if shifted else 0.0
    if kind == "robin":
        return bnd.robin(z @ z.conj().T / n, basis, value=datum)
    vmat = z / (np.linalg.norm(z, 2) * rng.uniform(1.0, 2.0))
    if not shifted:
        return bnd.from_V(vmat, basis)
    eye = np.eye(n)
    port = LinearGraph(InnerProductSpace(n), eye + vmat, eye - vmat, y0=-datum)
    return bnd._finalize(basis, port, "V-matrix")


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3),
    real=st.booleans(),
    complex_=st.fixed_dictionaries({key: st.booleans() for key in ("p1", "p0", "h", "bc", "rhs")}),
    density=st.booleans(),
    kind=st.sampled_from(["robin", "v-matrix"]),
    shifted=st.booleans(),
    m=st.sampled_from([8, 16, 32, 64, 128, 256, 512, 1024]),
    log_ratio=st.floats(-3.0, 3.0),
    b=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_band_solve_matches_monolithic_solve(seed, n, real, complex_, density, kind, shifted, m, log_ratio, b):
    """A real case (every part real) takes the float64 factor, any other
    the complex one."""
    if real:
        complex_ = dict.fromkeys(complex_, False)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n))
    p0 = 1j * (z + z.T) if complex_["p0"] else z - z.T  # skew-Hermitian
    ham = None
    if density:
        z = _normal(rng, (n, n), complex_["h"])
        ham = z @ z.conj().T / n + 0.5 * np.eye(n)
    phs = PortHamiltonian(n=n, b=b, p1=_speeds(rng, n, complex_["p1"]), p0=p0, hamiltonian=ham)
    bc = _relation(rng, bd_basis(phs), kind, shifted, complex_["bc"])
    ops = discretize(phs, m)
    mu = 10.0 ** log_ratio * ops.grid.h_x
    f, g = (_normal(rng, (ops.nnodes, n), complex_["rhs"]) for _ in range(2))
    res = resolve_A(ops, bc, mu, (f, g))
    ref = _monolithic_resolve(ops, bc, mu, (f + g).astype(complex).ravel())
    gap = np.abs((res.u + res.v).ravel() - ref).max() / np.abs(ref).max()
    assert gap <= GAP, (gap, mu / ops.grid.h_x)
