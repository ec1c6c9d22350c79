import itertools
import pickle
import re
import warnings

import numpy as np
import pytest

from monoport.boundary import (
    check_skew_selfadjoint,
    dirichlet,
    extract_h,
    from_V,
    membership,
    multiport,
    neumann,
    robin,
    robin_bad,
    subspace_gap,
)
from monoport import relations
from monoport.phs import PortHamiltonian, bd_basis
from monoport.relations import (
    LinearGraph,
    _orthonormal_columns,
    graph_residual,
    resolvent,
)

from conftest import rand_complex, rand_contraction, rand_spd, rand_unitary

COTH1 = 1.3130352854993312


@pytest.fixture(scope="module")
def basis1():
    return bd_basis(PortHamiltonian(n=1, b=1.0, p1=[[1.0]]))


@pytest.fixture(scope="module")
def basis2():
    return bd_basis(PortHamiltonian(n=2, b=1.0, p1=np.diag([1.0, 1.0])))


def h_slope(bc):
    """Slope of a one-port linear relation in trace coordinates."""
    c = np.linalg.lstsq(bc.h.zx, np.array([1.0 + 0j]), rcond=None)[0]
    return complex((bc.h.zy @ c)[0])


# ------------------------------------------------------- every constructor

CONSTRUCTORS = {
    "from_V-contraction": lambda b: from_V([[0.2, 0.5], [-0.3, 0.1]], b),
    "from_V-expansion": lambda b: from_V(2.0 * np.eye(2), b),
    "dirichlet": lambda b: dirichlet([0.3, -0.1], b),
    "neumann": lambda b: neumann(0.2, b),
    "robin": lambda b: robin([[2.0, 0.5], [0.5, 1.0]], b, value=0.1),
    "robin_bad": lambda b: robin_bad([[2.0, 0.5], [0.5, 1.0]], b),
    "multiport": lambda b: multiport([(0, ("robin", 1.0)), (1, ("dirichlet", 0.2))], b),
    "multiport-reversed": lambda b: multiport([(1, ("dirichlet", 0.2)), (0, ("robin", 1.0))], b),
    "multiport-friction": lambda b: multiport([(0, ("friction", 0.5)), (1, ("robin", 1.0, 0.1))], b),
    "multiport-friction-reversed":
        lambda b: multiport([(1, ("robin", 1.0)), (0, ("friction", 0.5))], b),
    "extract_h": lambda b: extract_h(([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]), b),
}


@pytest.mark.filterwarnings("ignore:V is not a contraction")
@pytest.mark.parametrize("name", list(CONSTRUCTORS))
def test_every_constructor_certifies_and_derives_h(name, monkeypatch):
    """Each constructor stores one relation with both certificates, made
    by one walk that runs the exact linear monotonicity rule once and the
    rank test at most once (never for ``from_V``, whose σ-min certificate
    stands in for it, nor for a relation that is not monotone), and
    ``h`` is its congruence by ``Qmat``: ``(e, w)`` on the port relation
    exactly when ``(Q^{-1} e, Q^{-1} S^{-1} w)`` is on ``h``."""
    basis = bd_basis(PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]]))
    calls, rank_calls = [], []
    rule, rank_rule = relations._monotone_linear, relations._maximal_linear
    monkeypatch.setattr(relations, "_monotone_linear", lambda rel: calls.append(rel) or rule(rel))
    monkeypatch.setattr(relations, "_maximal_linear", lambda rel: rank_calls.append(rel) or rank_rule(rel))
    bc = CONSTRUCTORS[name](basis)
    assert len(calls) == 1
    monotone = bc.certificates["monotone"].monotone == "yes"
    assert len(rank_calls) == (0 if name.startswith("from_V") or not monotone else 1)
    assert set(bc.certificates) == {"monotone", "maximal"}
    assert bc.certificates["monotone"].monotone in ("yes", "no")
    assert bc.certificates["maximal"].maximal in ("yes", "no")
    port = bc.port_relation
    assert bc.ports == basis.n == port.space.dim
    assert bc.h is bc.h
    q, sq = basis.Qmat, basis.S @ basis.Qmat
    if isinstance(port, LinearGraph):
        want = np.vstack([np.linalg.solve(q, port.zx), np.linalg.solve(sq, port.zy)])
        gap = subspace_gap(_orthonormal_columns(want), _orthonormal_columns(bc.h.stacked))
        assert gap <= 1e-12
        offset = graph_residual(bc.h, np.linalg.solve(q, port.x0), np.linalg.solve(sq, port.y0))
        assert offset <= 1e-12
    else:
        # A resolvent pair (x, (y - x)/lam) of h, mapped to port coordinates,
        # lies on the port relation: h has the resolvent of the congruence.
        rng = np.random.default_rng(7)
        for lam in (0.3, 2.0):
            y = rand_complex(rng, 2)
            x = resolvent(bc.h, lam, y)
            assert graph_residual(port, q @ x, sq @ ((y - x) / lam)) <= 1e-12
    if name.startswith("from_V"):
        assert "vv_top_eigenvalue" in bc.certificates["maximal"].witness


# ------------------------------------------------------------- from_V


def test_from_v_zero_slope_is_coth(basis1):
    bc = from_V(0.0, basis1)
    assert h_slope(bc) == pytest.approx(COTH1, abs=1e-11)
    assert bc.is_maximal_monotone


def test_from_v_zero_closing_singular_value(basis1):
    bc = from_V(0.0, basis1)
    cert = bc.certificates["maximal"]
    assert cert.witness["sigma_min"] == pytest.approx(1.0 + np.tanh(1.0), abs=1e-12)
    assert cert.witness["vv_top_eigenvalue"] == pytest.approx(0.0, abs=1e-14)


def test_from_v_limit_cases(basis1):
    pinned_flow = from_V(1.0, basis1)  # e free, f = 0
    assert abs(h_slope(pinned_flow)) < 1e-12
    pinned_effort = from_V(-1.0, basis1)  # e = 0
    assert np.allclose(pinned_effort.h.zx, 0.0, atol=1e-12)
    assert not np.allclose(pinned_effort.h.zy, 0.0)


def test_from_v_contractions_are_maximal_monotone(rng, basis2):
    for _ in range(20):
        bc = from_V(rand_contraction(rng, 2), basis2)
        assert bc.certificates["monotone"].monotone == "yes"
        assert bc.certificates["maximal"].maximal == "yes"
        assert bc.certificates["maximal"].witness["sigma_min"] > 1e-8


def test_from_v_unitary_is_skew(rng, basis2):
    for _ in range(10):
        bc = from_V(rand_unitary(rng, 2), basis2)
        assert check_skew_selfadjoint(bc).skew == "yes"


def test_from_v_strict_contraction_is_not_skew(rng, basis2):
    bc = from_V(0.5 * rand_unitary(rng, 2), basis2)
    cert = check_skew_selfadjoint(bc)
    assert cert.skew == "no"
    assert cert.witness["max_angle"] > 0


def test_from_v_expansion_warns_and_fails_certificates(basis1):
    with pytest.warns(UserWarning, match="not a contraction"):
        bc = from_V(2.0, basis1)
    assert bc.certificates["monotone"].monotone == "no"
    assert not bc.is_maximal_monotone


def test_from_v_shape_mismatch(basis2):
    with pytest.raises(ValueError, match="2 x 2"):
        from_V(np.zeros((3, 3)), basis2)


# ------------------------------------------------------------- named kinds


def test_dirichlet_pins_effort(basis1):
    bc = dirichlet(0.0, basis1)
    assert bc.is_maximal_monotone
    assert check_skew_selfadjoint(bc).skew == "yes"
    # port pairs are (e, -f): e is forced to zero, flow free
    e, negf = bc.port_relation.zx, bc.port_relation.zy
    assert np.allclose(e, 0.0) and not np.allclose(negf, 0.0)


def test_neumann_pins_flow(basis1):
    bc = neumann(0.0, basis1)
    assert bc.is_maximal_monotone
    assert check_skew_selfadjoint(bc).skew == "yes"
    assert np.allclose(bc.port_relation.zy, 0.0)


def test_robin_identity_has_unit_trace_slope(basis1):
    bc = robin(np.array([[1.0]]), basis1)
    assert bc.is_maximal_monotone
    assert h_slope(bc) == pytest.approx(1.0, abs=1e-10)
    assert resolvent(bc.h, 1.0, [2.0]) == pytest.approx([1.0], abs=1e-10)


def test_robin_psd_is_monotone_not_skew(rng, basis2):
    for _ in range(10):
        bc = robin(rand_spd(rng, 2), basis2)
        assert bc.is_maximal_monotone
        assert check_skew_selfadjoint(bc).skew == "no"


def test_robin_zero_matches_neumann(basis2):
    bc = robin(np.zeros((2, 2)), basis2)
    gap = subspace_gap(bc.port_relation.stacked,
                       neumann(0.0, basis2).port_relation.stacked)
    assert gap < 1e-12


@pytest.mark.parametrize("value", [0.0, 0.3])
def test_robin_bad_produces_reverifiable_witness(rng, basis2, value):
    # a nonzero value gives the port relation an offset, and its
    # certificate lifts the linear witness by it
    mmat = np.array([[1.0, 0.3], [0.3, 0.5]])
    bc = robin_bad(mmat, basis2, value=value)
    cert = bc.certificates["monotone"]
    assert cert.monotone == "no"
    assert not bc.is_maximal_monotone
    (x1, y1), (x2, y2) = cert.witness["pair_a"], cert.witness["pair_b"]
    assert np.allclose(x2, 0.0) and np.allclose(y2, -value)
    # the witness pairs genuinely lie on the port relation ...
    assert graph_residual(bc.port_relation, x1, y1) < 1e-10
    assert graph_residual(bc.port_relation, x2, y2) < 1e-10
    # ... and genuinely violate the monotonicity pairing
    pairing = float(np.real(np.conj(x1 - x2) @ (y1 - y2)))
    assert pairing < 0
    assert cert.witness["value"] == pytest.approx(pairing)
    assert pairing == pytest.approx(-0.495080035357, abs=1e-9)


def test_robin_bad_on_definite_matrix_always_fails(rng, basis2):
    for _ in range(5):
        bc = robin_bad(rand_spd(rng, 2), basis2)
        assert bc.certificates["monotone"].monotone == "no"


# ------------------------------------------------------------- multiport


def test_multiport_friction_soft_threshold(basis2):
    bc = multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis2)
    assert resolvent(bc.port_relation, 1.0, [0.3, 0.0]) == pytest.approx(
        [0.0, 0.0], abs=1e-9)
    assert resolvent(bc.port_relation, 1.0, [1.0, 0.0]) == pytest.approx(
        [0.5, 0.0], abs=1e-9)
    assert bc.certificates["monotone"].monotone == "yes"
    assert bc.certificates["maximal"].maximal == "yes"


@pytest.mark.parametrize("specs", [
    [("friction", 0.5), ("dirichlet", 0.2), ("robin", 1.0, 0.1)],
    [("neumann", 0.3), ("dirichlet", 0.2), ("robin", 1.0)],
    [("friction", 0.5), ("friction", 0.3), ("friction", 0.2)],
], ids=["frictional", "linear", "friction-only"])
def test_multiport_respects_listed_order(specs):
    """Any listing of the ports builds, bitwise, the relation of the
    listing in port order, with the same certificates."""
    basis = bd_basis(PortHamiltonian(n=3, b=1.0, p1=np.diag([1.0, 2.0, 3.0])))
    in_order = multiport(list(enumerate(specs)), basis)
    for order in itertools.permutations(range(3)):
        listed = multiport([(k, specs[k]) for k in order], basis)
        assert not isinstance(listed.port_relation, relations.Transformed)
        assert pickle.dumps(listed.port_relation) == pickle.dumps(in_order.port_relation), order
        for name in ("monotone", "maximal"):
            assert listed.certificates[name].describe() == in_order.certificates[name].describe()


def test_multiport_partition_errors(basis2):
    with pytest.raises(ValueError, match="assigned twice"):
        multiport([(0, ("dirichlet", 0.0)), (0, ("neumann", 0.0)),
                   (1, ("dirichlet", 0.0))], basis2)
    with pytest.raises(ValueError, match="out of range"):
        multiport([(0, ("dirichlet", 0.0)), (5, ("neumann", 0.0))], basis2)
    with pytest.raises(ValueError, match="not covered"):
        multiport([(0, ("dirichlet", 0.0))], basis2)


@pytest.mark.parametrize("index", [0.7, 1.0, True, np.True_, np.float64(0.0), "1"],
                         ids=["float", "integral-float", "bool", "numpy-bool", "numpy-float", "str"])
def test_multiport_refuses_a_non_integer_port_index(basis2, index):
    """An index is not truncated or coerced: ``0.7`` would land on port 0
    and ``True`` on port 1.  The message names the offending index."""
    with pytest.raises(ValueError, match=rf"^port index {re.escape(repr(index))} is not an integer$"):
        multiport([(index, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis2)


def test_multiport_takes_numpy_integer_indices(basis2):
    listed = multiport([(np.int64(1), ("dirichlet", 0.0)), (np.uint8(0), ("friction", 0.5))], basis2)
    plain = multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis2)
    assert pickle.dumps(listed.port_relation) == pickle.dumps(plain.port_relation)


def test_multiport_checks_ports_in_port_order(basis2):
    """Of two malformed ports the lower index is reported, whatever the
    listing, so a config reports the same port however it lists them."""
    with pytest.raises(ValueError, match=r"^port 0: robin coefficient"):
        multiport([(1, ("teleport", 1.0)), (0, ("robin", -1.0))], basis2)


def test_multiport_two_friction_ports_certify_maximal():
    """Two friction ports certify exactly, componentwise, and nothing warns."""
    basis = bd_basis(PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bc = multiport([(0, ("friction", 0.5)), (1, ("friction", 0.5))], basis)
    cert = bc.certificates["maximal"]
    assert cert.maximal == "yes"
    assert "sampl" not in cert.method
    assert bc.is_maximal_monotone


def test_multiport_scalar_robin_validation(basis1):
    with pytest.raises(ValueError, match="nonnegative"):
        multiport([(0, ("robin", -1.0))], basis1)
    with pytest.raises(ValueError, match="friction"):
        multiport([(0, ("friction", -0.5))], basis1)


@pytest.mark.parametrize("spec, message", [
    (("friction", 0.5 + 1j), "friction coefficient must be real and nonnegative, got (0.5+1j)"),
    (("robin", 1j), "robin coefficient must be real and nonnegative, got 1j"),
    (("robin",), "robin takes 1 or 2 value(s), got 0"),
    (("dirichlet",), "dirichlet takes 1 value(s), got 0"),
    (("neumann", 0.0, 1.0), "neumann takes 1 value(s), got 2"),
    (("teleport", 1.0), "unknown port kind 'teleport'"),
    ((), "unknown port kind ''"),
])
def test_multiport_part_spec_errors_name_kind_and_port(basis2, spec, message):
    """A malformed tuple spec is a ValueError naming the port and the kind,
    never a TypeError, an IndexError or a failed unpacking."""
    with pytest.raises(ValueError) as err:
        multiport([(0, ("dirichlet", 0.0)), (1, spec)], basis2)
    assert str(err.value).startswith(f"port 1: {message}")


# ------------------------------------------------------------- extract_h


@pytest.mark.parametrize("make", [
    lambda basis: dirichlet(0.0, basis),
    lambda basis: neumann(0.0, basis),
    lambda basis: from_V(np.array([[0.2, 0.1], [0.0, -0.3]]), basis),
])
def test_extract_h_round_trip(make, basis2):
    bc = make(basis2)
    again = extract_h(bc.constraint(), basis2)
    gap = subspace_gap(bc.port_relation.stacked, again.port_relation.stacked)
    assert gap < 1e-10
    assert again.provenance == "Extracted"


def test_extract_h_trivial_kernel_raises(basis1):
    # e = 0 and f = 0 together leave no nonzero trace pair
    with pytest.raises(ValueError, match="trivial"):
        extract_h((np.vstack([np.eye(1), np.zeros((1, 1))]),
                   np.vstack([np.zeros((1, 1)), np.eye(1)])), basis1)


def test_extract_h_recovers_dirichlet_kernel(basis1):
    bc = extract_h((np.eye(1), np.zeros((1, 1))), basis1)
    gap = subspace_gap(bc.port_relation.stacked,
                       dirichlet(0.0, basis1).port_relation.stacked)
    assert gap < 1e-12


def test_constraint_emission_requires_linear_condition(basis2):
    bc = multiport([(0, ("friction", 0.5)), (1, ("dirichlet", 0.0))], basis2)
    with pytest.raises(ValueError, match="linear"):
        bc.constraint()


def test_skew_check_requires_linear_relation(basis1):
    bc = dirichlet(1.0, basis1)  # shifted: affine, not linear
    with pytest.raises(ValueError, match="nonlinear"):
        check_skew_selfadjoint(bc)


# ------------------------------------------------------------- membership


def even_field(basis, xs, i=0, scale=1.0):
    rows = basis.profiles("even", xs)
    return scale * basis.eigvecs[:, i][None, :] * rows[i][:, None]


def test_membership_accepts_satisfying_pair(basis1):
    xs = np.linspace(-1.0, 1.0, 129)
    bc = dirichlet(0.0, basis1)
    # zero even trace: any odd-channel datum satisfies e = 0
    member, residual = membership(bc, np.zeros(129), np.cosh(xs))
    assert member and residual < 1e-12


def test_membership_rejects_with_graph_distance(basis1):
    xs = np.linspace(-1.0, 1.0, 129)
    bc = dirichlet(0.0, basis1)
    field = even_field(basis1, xs, scale=0.7).ravel()
    member, residual = membership(bc, field, np.zeros(129))
    assert not member
    expected = 0.7 * np.sqrt(float(basis1.gram_G[0, 0].real))
    assert residual == pytest.approx(expected, rel=1e-6)


def test_membership_neumann_zero_flow(basis1):
    bc = neumann(0.0, basis1)
    xs = np.linspace(-1.0, 1.0, 129)
    member, residual = membership(bc, even_field(basis1, xs).ravel(), np.zeros(129))
    assert member and residual < 1e-10


def test_membership_scales_tolerance_with_field_size(basis1):
    bc = dirichlet(0.0, basis1)
    xs = np.linspace(-1.0, 1.0, 129)
    huge = even_field(basis1, xs, scale=1e9).ravel()
    member, residual = membership(bc, huge, np.zeros(129))
    assert not member
    assert residual > 1.0


# ------------------------------------------------------------- subspace gap


def test_subspace_gap_basic_cases(rng):
    q = rand_unitary(rng, 4)
    u1, u2 = q[:, :2], q[:, 2:]
    assert subspace_gap(u1, u1) < 1e-14
    assert subspace_gap(u1, u2) == pytest.approx(1.0)
    assert subspace_gap(u1, np.hstack([u1, u2])) == pytest.approx(1.0)


def test_describe_mentions_provenance(basis1):
    text = from_V(0.0, basis1).describe()
    assert "V-matrix" in text and "monotone" in text
