import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from monoport.phs import (
    PortHamiltonian,
    _as_field,
    bd_basis,
    ddot_matrix,
    eigendecompose,
    even_odd_split,
    flow_effort,
    flow_effort_via_bd,
    project_bd,
)

from conftest import rand_complex, rand_herm_invertible, rand_spd, rand_unitary

TANH1 = 0.7615941559557649

P1_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def system(p1, b=1.0, **kw):
    p1 = np.atleast_2d(np.asarray(p1, dtype=complex))
    return PortHamiltonian(n=p1.shape[0], b=b, p1=p1, **kw)


# ------------------------------------------------------------ eigendecompose


def test_eigendecompose_reconstructs(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        p1 = rand_herm_invertible(rng, n)
        lam, u = eigendecompose(p1)
        assert np.all(np.diff(lam) >= 0)
        assert np.allclose(u.conj().T @ u, np.eye(n), atol=1e-12)
        assert np.allclose((u * lam) @ u.conj().T, p1, atol=1e-10)


def test_eigendecompose_degenerate_spectrum_is_canonical():
    # full eigenspace: Gram-Schmidt over standard basis gives the identity
    lam, u = eigendecompose(2.0 * np.eye(3))
    assert np.allclose(lam, 2.0)
    assert np.allclose(u, np.eye(3), atol=1e-12)


def test_eigendecompose_repeated_eigenvalue_basis_is_canonical(rng):
    """Two constructions of one ``P1`` with the eigenvalue 1 twice, ``Q D Q*``
    and the same with ``Q``'s two cluster columns rotated, agree to roundoff;
    ``scipy.linalg.eigh``'s bases of the cluster do not, the ones
    ``_canonical_subspace_basis`` derives from the cluster's projector do."""
    d = np.diag([1.0, 1.0, -1.0])
    q = rand_unitary(rng, 3)
    c, s = np.cos(0.7), np.sin(0.7)
    q_rot = q @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    p1, p1_rot = q @ d @ q.conj().T, q_rot @ d @ q_rot.conj().T
    assert np.abs(p1 - p1_rot).max() < 1e-14
    assert np.abs(scipy.linalg.eigh(p1)[1] - scipy.linalg.eigh(p1_rot)[1]).max() > 0.1
    (lam, u), (lam_rot, u_rot) = eigendecompose(p1), eigendecompose(p1_rot)
    assert np.allclose(lam, [-1.0, 1.0, 1.0], atol=1e-12) and np.abs(lam - lam_rot).max() < 1e-12
    assert np.abs(u - u_rot).max() < 1e-12
    # on the standard basis the cluster keeps e1, e2 in index order
    lam, u = eigendecompose(d)
    assert np.array_equal(lam, [-1.0, 1.0, 1.0]) and np.allclose(u, np.eye(3)[:, [2, 0, 1]], atol=1e-12)


def test_eigendecompose_phase_is_pinned(rng):
    for _ in range(10):
        p1 = rand_herm_invertible(rng, 4)
        _, u = eigendecompose(p1)
        for j in range(4):
            lead = u[np.flatnonzero(np.abs(u[:, j]) > 1e-8)[0], j]
            assert lead.real > 0 and abs(lead.imag) < 1e-12


def test_eigendecompose_rejects_bad_input():
    with pytest.raises(ValueError):
        eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        eigendecompose(np.zeros((2, 2)))  # zero speed


# ------------------------------------------------------------ even/odd split


def test_even_odd_split_hyperbolic_cases():
    xs = np.linspace(-1.0, 1.0, 41)
    even, odd = even_odd_split(xs, np.cosh(xs))
    assert np.allclose(even, np.cosh(xs)) and np.allclose(odd, 0.0)
    even, odd = even_odd_split(xs, np.sinh(xs))
    assert np.allclose(even, 0.0) and np.allclose(odd, np.sinh(xs))
    even, odd = even_odd_split(xs, np.exp(xs))
    assert np.allclose(even, np.cosh(xs)) and np.allclose(odd, np.sinh(xs))


def test_even_odd_split_reassembles_components(rng):
    xs = np.linspace(-2.0, 2.0, 33)
    u = rand_complex(rng, 33, 3)
    even, odd = even_odd_split(xs, u)
    assert np.allclose(even + odd, u)
    assert np.allclose(even, even[::-1]) and np.allclose(odd, -odd[::-1])


def test_even_odd_split_requires_symmetric_grid():
    with pytest.raises(ValueError, match="symmetric"):
        even_odd_split(np.linspace(0.0, 1.0, 11), np.zeros(11))


# ------------------------------------------------------------ system data


def test_port_hamiltonian_validation():
    with pytest.raises(ValueError):
        PortHamiltonian(n=0, b=1.0, p1=np.eye(1))
    with pytest.raises(ValueError):
        PortHamiltonian(n=1, b=-1.0, p1=np.eye(1))
    with pytest.raises(ValueError):
        PortHamiltonian(n=2, b=1.0, p1=np.eye(1))
    with pytest.raises(ValueError, match="Hermitian"):
        PortHamiltonian(n=2, b=1.0, p1=[[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero eigenvalue"):
        PortHamiltonian(n=2, b=1.0, p1=np.diag([1.0, 0.0]))
    with pytest.raises(ValueError, match="skew"):
        PortHamiltonian(n=1, b=1.0, p1=np.eye(1), p0=np.eye(1))


def test_port_hamiltonian_density_handling(rng):
    free = system([[1.0]])
    assert np.allclose(free.hamiltonian_grid([0.3])[0], np.eye(1))

    dens = rand_spd(rng, 2)
    fixed = PortHamiltonian(n=2, b=1.0, p1=P1_SWAP, hamiltonian=dens)
    assert np.allclose(fixed.hamiltonian_grid([-0.5])[0], dens)

    varying = PortHamiltonian(n=1, b=1.0, p1=[[1.0]],
                              hamiltonian=lambda x: np.array([[2.0 + x]]))
    assert varying.hamiltonian_grid([0.5])[0, 0, 0] == pytest.approx(2.5)
    with pytest.raises(ValueError):
        varying.hamiltonian_grid([-3.0])  # density loses positivity
    # a density function is checked at x = 0 when the system is built
    with pytest.raises(ValueError, match=r"at x=0 must have shape \(2, 2\), got \(1, 1\)"):
        PortHamiltonian(n=2, b=1.0, p1=P1_SWAP, hamiltonian=lambda x: np.array([[2.0 + x]]))
    with pytest.raises(ValueError, match="at x=0 must be positive definite"):
        PortHamiltonian(n=1, b=1.0, p1=[[1.0]], hamiltonian=lambda x: np.array([[x]]))


def test_port_hamiltonian_rejects_indefinite_constant_density():
    with pytest.raises(ValueError):
        PortHamiltonian(n=1, b=1.0, p1=[[1.0]], hamiltonian=np.array([[-1.0]]))


# ------------------------------------------------------------ trace basis


def test_bd_basis_unit_speed_closed_forms():
    basis = bd_basis(system([[1.0]]))
    assert basis.S[0, 0] == pytest.approx(TANH1, abs=1e-12)
    assert basis.sqrtS[0, 0] ** 2 == pytest.approx(TANH1, abs=1e-12)
    assert basis.Qmat[0, 0] == pytest.approx(np.sqrt(2.0) * (1 + np.exp(-2)) / 2, abs=1e-12)
    assert basis.gram_G[0, 0] == pytest.approx((1 - np.exp(-4)) / 2, abs=1e-10)


def test_bd_basis_sign_of_speed_is_immaterial_for_s():
    assert bd_basis(system([[-1.0]])).S[0, 0] == pytest.approx(TANH1, abs=1e-12)


def test_bd_basis_swap_transport_gives_scaled_identity():
    basis = bd_basis(system(P1_SWAP))
    assert np.allclose(basis.S, TANH1 * np.eye(2), atol=1e-12)


def test_bd_basis_s_positive_definite(rng):
    for _ in range(10):
        n = int(rng.integers(1, 6))
        basis = bd_basis(system(rand_herm_invertible(rng, n)))
        eigs = np.linalg.eigvalsh(basis.S)
        assert eigs.min() > 0
        assert np.allclose(basis.sqrtS @ basis.sqrtS, basis.S, atol=1e-10)


def test_gram_matches_adaptive_quadrature_oracle():
    """Simpson Gram entries agree with adaptive quadrature of the profiles."""
    for p1 in (np.diag([1.0, 2.5]), np.diag([-0.7, 1.3]), P1_SWAP):
        sys_ = system(p1)
        basis = bd_basis(sys_)
        for i, lam in enumerate(basis.lambdas):
            sig = sys_.b / abs(lam)

            def integrand(x, lam=lam, sig=sig):
                c = np.cosh(x / lam) * np.exp(-sig)
                s = np.sinh(x / lam) * np.exp(-sig)
                return c * c + s * s

            oracle, _ = scipy.integrate.quad(integrand, -sys_.b, sys_.b)
            assert basis.gram_G[i, i] == pytest.approx(oracle, abs=1e-10)


def test_channel_isometry_identity(rng):
    """|sqrt(S) Q v|^2 equals the Gram quadratic form v* gram_G v."""
    for _ in range(10):
        n = int(rng.integers(1, 6))
        basis = bd_basis(system(rand_herm_invertible(rng, n)))
        v = rand_complex(rng, n)
        lhs = np.linalg.norm(basis.sqrtS @ basis.Qmat @ v) ** 2
        rhs = np.real(v.conj() @ basis.gram_G @ v)
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_derivative_maps_are_identities(rng):
    for p1 in (np.eye(1), P1_SWAP, rand_herm_invertible(rng, 3)):
        basis = bd_basis(system(p1))
        mat, residual = ddot_matrix(basis)
        assert residual <= 1e-10
        assert np.allclose(mat, np.eye(basis.n), atol=1e-9)


def test_profiles_endpoint_normalization():
    basis = bd_basis(system([[2.0]], b=1.0))
    sig = 0.5
    even = basis.profiles("even", np.array([1.0]))
    odd = basis.profiles("odd", np.array([1.0]))
    assert even[0, 0] == pytest.approx((1 + np.exp(-2 * sig)) / 2)
    assert odd[0, 0] == pytest.approx((1 - np.exp(-2 * sig)) / 2)


# ------------------------------------------------------------ traces


def test_flow_effort_hyperbolic_endpoints():
    sys1 = system([[1.0]])
    xs = np.linspace(-1.0, 1.0, 65)
    flow, effort = flow_effort(sys1, xs, np.cosh(xs))
    assert flow[0] == pytest.approx(0.0, abs=1e-14)
    assert effort[0] == pytest.approx(np.sqrt(2.0) * np.cosh(1.0))
    flow, effort = flow_effort(sys1, xs, np.sinh(xs))
    assert flow[0] == pytest.approx(-np.sqrt(2.0) * np.sinh(1.0))
    assert effort[0] == pytest.approx(0.0, abs=1e-14)


def test_flow_effort_applies_energy_density():
    dens = np.array([[3.0]])
    sys1 = PortHamiltonian(n=1, b=1.0, p1=[[1.0]], hamiltonian=dens)
    xs = np.linspace(-1.0, 1.0, 33)
    flow, effort = flow_effort(sys1, xs, np.cosh(xs))
    assert effort[0] == pytest.approx(3.0 * np.sqrt(2.0) * np.cosh(1.0))


def test_trace_routes_agree_on_generic_field():
    """Endpoint traces and the projection route converge to each other."""
    sys1 = system([[1.0]])
    basis = bd_basis(sys1)
    xs = np.linspace(-1.0, 1.0, 257)
    u = np.cosh(xs) + 0.3j * np.sinh(xs) + 0.05 * xs**2 + 0.02 * xs**3
    flow_a, effort_a = flow_effort(sys1, xs, u)
    flow_b, effort_b = flow_effort_via_bd(sys1, basis, xs, u)
    assert np.linalg.norm(flow_a - flow_b) < 1e-5
    assert np.linalg.norm(effort_a - effort_b) < 1e-5


def test_trace_routes_exact_on_basis_fields():
    sys2 = system(P1_SWAP)
    basis = bd_basis(sys2)
    xs = np.linspace(-1.0, 1.0, 129)
    u = basis.eigvecs[:, 0][None, :] * basis.profiles("even", xs)[0][:, None]
    flow_a, effort_a = flow_effort(sys2, xs, u)
    flow_b, effort_b = flow_effort_via_bd(sys2, basis, xs, u)
    assert np.linalg.norm(flow_a - flow_b) < 1e-10
    assert np.linalg.norm(effort_a - effort_b) < 1e-10


def test_flow_effort_requires_full_grid():
    sys1 = system([[1.0]])
    with pytest.raises(ValueError):
        flow_effort(sys1, np.linspace(-0.5, 1.0, 33), np.zeros(33))


@pytest.mark.parametrize("route", ["flow_effort", "flow_effort_via_bd", "project_bd"])
def test_sampled_routes_refuse_a_grid_of_twice_the_interval(route):
    """A uniform symmetric grid of [-2b, 2b] is refused by every route that
    reads a sampled field.  ``project_bd`` used to accept it: cos x on it
    projected to -0.3007 against 0.9518 on [-b, b], and a stiff system
    (P1 = 0.002) ended in "SVD did not converge"."""
    for p1 in ([[1.0]], [[0.002]]):
        phs = system(p1)
        basis = bd_basis(phs)
        xs = np.linspace(-2.0, 2.0, 257)
        call = {"flow_effort": lambda: flow_effort(phs, xs, np.cos(xs)),
                "flow_effort_via_bd": lambda: flow_effort_via_bd(phs, basis, xs, np.cos(xs)),
                "project_bd": lambda: project_bd(basis, "even", xs, np.cos(xs))}[route]
        with pytest.raises(ValueError, match=r"^grid must span the full interval \[-b, b\]$"):
            call()


def test_float64_field_stays_real_and_reads_as_its_complex_copy(rng):
    """``_as_field`` keeps float64 samples real (a view) and makes other
    data complex without copying a complex128 array; the traces and the
    projection of a float64 field are bitwise those of its complex copy."""
    phs = system([[1.0, 0.7], [0.7, 1.5]], hamiltonian=np.array([[2.0, 0.3], [0.3, 1.0]]))
    basis = bd_basis(phs)
    xs = np.linspace(-1.0, 1.0, 129)
    u = np.stack([np.cos(xs) + 0.1 * rng.normal(size=129), np.sin(2 * xs)], axis=1)
    uc = u.astype(complex)
    assert _as_field(u, 2) is u and _as_field(uc, 2) is uc
    assert _as_field(u[:, 0], 1).dtype == np.float64
    assert _as_field(np.arange(4), 1).dtype == np.complex128
    assert _as_field(u.astype(np.float32), 2).dtype == np.complex128
    for route in (lambda w: flow_effort(phs, xs, w), lambda w: flow_effort_via_bd(phs, basis, xs, w),
                  lambda w: (project_bd(basis, "even", xs, w), project_bd(basis, "odd", xs, w))):
        for real, cplx in zip(route(u), route(uc)):
            assert real.tobytes() == cplx.tobytes()


# ------------------------------------------------------------ projection


def test_project_bd_exact_on_basis_elements():
    for p1 in (np.eye(1), P1_SWAP):
        sys_ = system(p1)
        basis = bd_basis(sys_)
        xs = np.linspace(-1.0, 1.0, 65)
        for side in ("even", "odd"):
            rows = basis.profiles(side, xs)
            for i in range(basis.n):
                field = basis.eigvecs[:, i][None, :] * rows[i][:, None]
                coeff = project_bd(basis, side, xs, field)
                expected = np.zeros(basis.n, dtype=complex)
                expected[i] = 1.0
                assert np.allclose(coeff, expected, atol=1e-10)


def test_project_bd_validates_grid():
    basis = bd_basis(system([[1.0]]))
    with pytest.raises(ValueError, match="even number"):
        project_bd(basis, "even", np.linspace(-1, 1, 10), np.zeros(10))
    bad = np.concatenate([np.linspace(-1, 0, 33), np.linspace(0, 1, 33)[1:] ** 2])
    with pytest.raises(ValueError):
        project_bd(basis, "even", bad, np.zeros(len(bad)))


def test_project_bd_rejects_unknown_side():
    basis = bd_basis(system([[1.0]]))
    xs = np.linspace(-1, 1, 17)
    with pytest.raises(ValueError):
        project_bd(basis, "sideways", xs, np.zeros(17))
