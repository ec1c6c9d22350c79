import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoport.relations import (
    TOL_ITERATIVE,
    AffineSet,
    Certificate,
    DirectSum,
    LinearGraph,
    NonconvergenceError,
    Relation,
    SeparableProx,
    adjoint_relation,
    certify,
    check_maximal,
    check_monotone,
    direct_sum,
    graph_residual,
    plan_inclusion,
    post_set,
    principal_section,
    resolvent,
    resolvent_value,
    solve_inclusion,
    transform,
    yosida,
)
from monoport.spaces import InnerProductSpace, LinearMap

from conftest import rand_complex, rand_monotone_matrix, rand_spd

C1 = InnerProductSpace(1)


def identity_relation(n=1):
    space = InnerProductSpace(n)
    return LinearGraph.from_matrix(space, np.eye(n))


def sign_relation(mu=1.0):
    return SeparableProx(C1, [mu])


def dirichlet_relation():
    """The vertical relation {(0, t) : t}."""
    return LinearGraph(C1, np.zeros((1, 1)), np.ones((1, 1)))


# ---------------------------------------------------------------- post_set


def test_post_set_identity_graph():
    desc = post_set(identity_relation(), [2.0])
    assert isinstance(desc, AffineSet) and desc.is_point
    assert desc.base == pytest.approx([2.0])


def test_post_set_vertical_line():
    rel = dirichlet_relation()
    at_zero = post_set(rel, [0.0])
    assert isinstance(at_zero, AffineSet) and not at_zero.is_point
    assert at_zero.directions.shape == (1, 1)
    assert post_set(rel, [1.0]) is None


# ---------------------------------------------------------------- adjoint


def test_adjoint_of_matrix_graph_is_conjugate_transpose(rng):
    m = rand_complex(rng, 3, 3)
    space = InnerProductSpace(3)
    adj = adjoint_relation(LinearGraph.from_matrix(space, m))
    expected = LinearGraph.from_matrix(space, m.conj().T)
    gap = np.linalg.norm(adj.stacked - expected.stacked @ (expected.stacked.conj().T @ adj.stacked))
    assert gap < 1e-10


def test_adjoint_of_horizontal_relation_is_itself():
    space = InnerProductSpace(2)
    rel = LinearGraph(space, np.eye(2), np.zeros((2, 2)))  # {(x, 0)}
    adj = adjoint_relation(rel)
    assert adj.graph_dim == 2
    gap = np.linalg.norm(adj.stacked - rel.stacked @ (rel.stacked.conj().T @ adj.stacked))
    assert gap < 1e-12


def test_adjoint_dimension_count(rng):
    """dim(graph A) + dim(graph A*) = 2 dim H for every linear relation."""
    for dim, k in [(2, 1), (3, 2), (4, 4), (3, 5)]:
        rel = LinearGraph(InnerProductSpace(dim),
                          rand_complex(rng, dim, k), rand_complex(rng, dim, k))
        adj = adjoint_relation(rel)
        assert rel.graph_dim + adj.graph_dim == 2 * dim


# ---------------------------------------------------------------- resolvent


def test_resolvent_identity_relation():
    assert resolvent(identity_relation(), 1.0, [2.0]) == pytest.approx([1.0])


def test_resolvent_soft_threshold():
    rel = sign_relation()
    assert resolvent(rel, 1.0, [2.0]) == pytest.approx([1.0])
    assert resolvent(rel, 1.0, [0.5]) == pytest.approx([0.0], abs=1e-14)


def test_resolvent_dirichlet_relation():
    for lam, y in [(1.0, 5.0), (0.3, -2.0 + 1j)]:
        assert resolvent(dirichlet_relation(), lam, [y]) == pytest.approx([0.0], abs=1e-14)


def test_resolvent_value_returns_graph_pair(rng):
    rel = LinearGraph.from_matrix(InnerProductSpace(3), rand_monotone_matrix(rng, 3))
    y = rand_complex(rng, 3)
    x, w = resolvent_value(rel, 0.7, y)
    assert np.allclose(x + 0.7 * w, y, atol=1e-10)
    assert graph_residual(rel, x, w) < 1e-10


def test_resolvent_requires_positive_lambda():
    with pytest.raises(ValueError):
        resolvent(identity_relation(), -1.0, [1.0])


def test_resolvent_reports_nonconvergence_for_nonmaximal():
    # graph {((t,0), (0,t))}: monotone but one-dimensional, so x + y' = (0,1)
    # is inconsistent and the direct solve must refuse
    rel = LinearGraph(InnerProductSpace(2),
                      np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
    with pytest.raises(NonconvergenceError) as err:
        resolvent(rel, 1.0, [0.0, 1.0])
    assert err.value.residual is not None and err.value.residual > 0.1


@given(st.integers(1, 4), st.floats(0.1, 5.0))
@settings(max_examples=25, deadline=None)
def test_resolvent_nonexpansive(n, lam):
    rng = np.random.default_rng(n * 1000 + int(lam * 10))
    rel = LinearGraph.from_matrix(InnerProductSpace(n), rand_monotone_matrix(rng, n))
    y1, y2 = rand_complex(rng, n), rand_complex(rng, n)
    d = np.linalg.norm(resolvent(rel, lam, y1) - resolvent(rel, lam, y2))
    assert d <= np.linalg.norm(y1 - y2) + 1e-9


# ---------------------------------------------------------------- yosida


def test_yosida_identity_relation():
    assert yosida(identity_relation(), 1.0, [2.0]) == pytest.approx([1.0])


def test_yosida_sign_relation_cases():
    rel = sign_relation()
    assert yosida(rel, 1.0, [2.0]) == pytest.approx([1.0])
    assert yosida(rel, 1.0, [0.5]) == pytest.approx([0.5])


def test_yosida_pair_lies_on_graph(rng):
    for _ in range(25):
        n = int(rng.integers(1, 5))
        rel = LinearGraph.from_matrix(InnerProductSpace(n), rand_monotone_matrix(rng, n))
        lam = float(rng.uniform(0.1, 4.0))
        x = rand_complex(rng, n)
        jx = resolvent(rel, lam, x)
        ax = yosida(rel, lam, x)
        assert graph_residual(rel, jx, ax) < 1e-8


# ------------------------------------------------------- principal_section


def test_principal_section_sign_relation():
    rel = sign_relation()
    assert principal_section(rel, [0.0]) == pytest.approx([0.0])
    assert principal_section(rel, [2.0]) == pytest.approx([1.0])


def test_principal_section_vertical_relation():
    assert principal_section(dirichlet_relation(), [0.0]) == pytest.approx([0.0])


def test_principal_section_affine_set(rng):
    """Least-norm point of an affine post-set solves the normal equations."""
    rel = LinearGraph(InnerProductSpace(2),
                      np.array([[1.0], [0.0]]), np.array([[1.0], [1.0]]))
    # post-set of x = (1, 0): single point (1, 1)
    assert principal_section(rel, [1.0, 0.0]) == pytest.approx([1.0, 1.0])


def test_principal_section_outside_domain_raises():
    with pytest.raises(ValueError):
        principal_section(dirichlet_relation(), [1.0])


# ---------------------------------------------------------------- direct sum


def test_direct_sum_of_identities_is_identity(rng):
    rel = direct_sum([identity_relation(), identity_relation(2)])
    y = rand_complex(rng, 3)
    assert np.allclose(resolvent(rel, 1.0, y), y / 2.0)


def test_direct_sum_resolvent_is_componentwise(rng):
    r1 = LinearGraph.from_matrix(InnerProductSpace(2), rand_monotone_matrix(rng, 2))
    r2 = sign_relation(0.7)
    both = direct_sum([r1, r2])
    for _ in range(20):
        lam = float(rng.uniform(0.1, 3.0))
        y = rand_complex(rng, 3)
        joint = resolvent(both, lam, y)
        parts = np.concatenate([resolvent(r1, lam, y[:2]), resolvent(r2, lam, y[2:])])
        assert np.linalg.norm(joint - parts) < 1e-10


def test_direct_sum_of_maximal_graphs_is_maximal(rng):
    r1 = LinearGraph.from_matrix(InnerProductSpace(2), rand_monotone_matrix(rng, 2))
    r2 = LinearGraph.from_matrix(C1, [[0.5]])
    cert = check_maximal(direct_sum([r1, r2]))
    assert cert.maximal == "yes"


def test_direct_sum_of_affine_parts_is_one_shifted_graph(rng):
    r1 = LinearGraph.from_matrix(InnerProductSpace(2), rand_monotone_matrix(rng, 2))
    r2 = LinearGraph(C1, np.eye(1), [[0.5]], x0=[0.3], y0=[-1.0])
    both = direct_sum([r1, r2])
    assert isinstance(both, LinearGraph) and both.affine and both.shifted
    assert both.x0 == pytest.approx([0.0, 0.0, 0.3]) and both.y0 == pytest.approx([0.0, 0.0, -1.0])
    for _ in range(10):
        lam = float(rng.uniform(0.1, 3.0))
        y = rand_complex(rng, 3)
        parts = np.concatenate([resolvent(r1, lam, y[:2]), resolvent(r2, lam, y[2:])])
        assert np.linalg.norm(resolvent(both, lam, y) - parts) < 1e-12


def test_linear_multiport_has_skew_and_constraint_forms():
    """A multiport of linear ports is a plain linear graph, so the skew
    test and the constraint form apply to it."""
    from monoport.boundary import check_skew_selfadjoint, multiport
    from monoport.phs import PortHamiltonian, bd_basis

    basis = bd_basis(PortHamiltonian(n=2, b=1.0, p1=[[1.0, 0.7], [0.7, 1.5]]))
    lossless = multiport([(1, ("neumann", 0.0)), (0, ("dirichlet", 0.0))], basis)
    assert check_skew_selfadjoint(lossless).skew == "yes"
    lossy = multiport([(0, ("robin", 1.0)), (1, ("dirichlet", 0.0))], basis)
    assert check_skew_selfadjoint(lossy).skew == "no"
    assert lossy.certificates["maximal"].method.startswith("exact")
    ce, cf = lossy.constraint()
    port = lossy.port_relation
    assert np.linalg.norm(ce @ port.zx - cf @ port.zy) < 1e-12
    assert np.linalg.matrix_rank(np.hstack([ce, cf])) == 2


# ---------------------------------------------------------------- transform


def test_transform_by_identity_preserves_graph(rng):
    space = InnerProductSpace(2)
    rel = LinearGraph.from_matrix(space, rand_monotone_matrix(rng, 2))
    got = transform(LinearMap(space, space, np.eye(2)), rel)
    y = rand_complex(rng, 2)
    assert np.allclose(resolvent(got, 1.0, y), resolvent(rel, 1.0, y), atol=1e-10)


def test_transform_embedding_doubles_identity():
    """T = [1;1] embeds C into C^2; T* (identity) T = multiplication by 2."""
    tmap = LinearMap(C1, InnerProductSpace(2), np.array([[1.0], [1.0]]))
    got = transform(tmap, identity_relation(2))
    x, w = resolvent_value(got, 1.0, [3.0])
    assert w == pytest.approx(2.0 * x, abs=1e-10)
    assert x + w == pytest.approx([3.0])


def test_transform_scaled_sign_relation_by_cases():
    """T = [2]: x + 2 sign(2x) forced to contain 3 gives x = 1."""
    tmap = LinearMap(C1, C1, np.array([[2.0]]))
    got = transform(tmap, sign_relation())
    assert resolvent(got, 1.0, [3.0]) == pytest.approx([1.0], abs=1e-8)


def test_transform_of_nonlinear_relation_needs_invertible_map():
    """A linear graph is transported exactly by any map; a nonlinear
    relation only by a square, well-conditioned one."""
    embed = LinearMap(C1, InnerProductSpace(2), np.array([[1.0], [1.0]]))
    with pytest.raises(ValueError, match="invertible"):
        transform(embed, direct_sum([sign_relation(), sign_relation()]))
    singular = LinearMap(InnerProductSpace(2), InnerProductSpace(2), np.ones((2, 2)))
    with pytest.raises(ValueError, match="invertible"):
        transform(singular, direct_sum([sign_relation(), sign_relation()]))


def test_transform_preserves_monotonicity(rng):
    space3 = InnerProductSpace(3, rand_spd(rng, 3))
    rel = LinearGraph.from_matrix(InnerProductSpace(2), rand_monotone_matrix(rng, 2))
    tmap = LinearMap(space3, InnerProductSpace(2), rand_complex(rng, 2, 3))
    got = transform(tmap, rel)
    assert check_monotone(got).monotone == "yes"


# ---------------------------------------------------------------- certificates


@pytest.mark.parametrize("alpha, expected", [
    (1.0, "yes"), (0.0, "yes"), (1j, "yes"), (-2.0 + 1j, "no"), (-0.01, "no"),
])
def test_check_monotone_scalar_graph(alpha, expected):
    cert = check_monotone(LinearGraph.from_matrix(C1, [[alpha]]))
    assert cert.monotone == expected
    if expected == "no":
        (x1, y1), (x2, y2) = cert.witness["pair_a"], cert.witness["pair_b"]
        pairing = np.real(np.conj(x1 - x2) @ (y1 - y2))
        assert pairing < 0
        assert cert.witness["value"] == pytest.approx(pairing)


def test_check_monotone_negative_identity_fails():
    assert check_monotone(LinearGraph.from_matrix(C1, [[-1.0]])).monotone == "no"


def test_check_monotone_bad_robin_form(rng):
    m = rand_spd(rng, 2)
    cert = check_monotone(LinearGraph.from_matrix(InnerProductSpace(2), -m))
    assert cert.monotone == "no"
    assert cert.witness["value"] < 0


def test_check_monotone_witness_pairs_lie_on_graph(rng):
    rel = LinearGraph.from_matrix(InnerProductSpace(3), -rand_spd(rng, 3))
    cert = check_monotone(rel)
    for key in ("pair_a", "pair_b"):
        x, y = cert.witness[key]
        assert graph_residual(rel, x, y) < 1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.5 + 2j, 1j, 0.0])
def test_check_maximal_monotone_scalar(alpha):
    cert = check_maximal(LinearGraph.from_matrix(C1, [[alpha]]))
    assert cert.maximal == "yes"


def test_check_maximal_dirichlet_relation():
    assert check_maximal(dirichlet_relation()).maximal == "yes"


def test_check_maximal_detects_rank_deficiency():
    # {(x, 0) : x in a ray}: monotone but a strict sub-relation of {(x, 0)}
    space = InnerProductSpace(2)
    rel = LinearGraph(space, np.array([[1.0], [0.0]]), np.zeros((2, 1)))
    assert check_maximal(rel).maximal == "no"


def test_check_monotone_lifts_witness_through_congruence(rng):
    """A non-monotone summand under an invertible congruence is refuted
    exactly: the base witness is mapped by (z, w) -> (T^-1 z, T* w)."""
    base = direct_sum([LinearGraph.from_matrix(C1, [[-1.0]]), SeparableProx(C1, [0.5])])
    space = InnerProductSpace(2)
    rel = transform(LinearMap(space, space, rand_complex(rng, 2, 2) + 2.0 * np.eye(2)), base)
    cert = check_monotone(rel)
    assert cert.monotone == "no"
    assert "congruence" in cert.method
    (x1, y1), (x2, y2) = cert.witness["pair_a"], cert.witness["pair_b"]
    assert graph_residual(rel, x1, y1) < 1e-10
    assert graph_residual(rel, x2, y2) < 1e-10
    pairing = np.real(np.conj(x1 - x2) @ (y1 - y2))
    assert pairing < 0
    assert cert.witness["value"] == pytest.approx(pairing)
    assert check_maximal(rel).maximal == "no"


def test_non_unitary_congruence_reports_no_maximality_witness():
    """``T* rhs`` is unreachable by ``1 + T* B T`` only when ``T* T = 1``;
    otherwise the verdict stays and the right-hand side is dropped."""
    base = direct_sum([SeparableProx(C1, [0.5]), LinearGraph(C1, [[0.0]], [[0.0]])])
    space = InnerProductSpace(2)
    cert = check_maximal(transform(LinearMap(space, space, np.diag([2.0, 1.0])), base))
    assert cert.maximal == "no"
    assert "not unitary" in cert.method
    assert cert.witness is None or "rhs" not in cert.witness


def test_relation_outside_the_four_representations_is_a_type_error():
    """The set of representations is closed: a foreign subclass, alone or
    inside a combinator, is refused with a reason, not certified
    "unknown" (and not left to recurse without end in the planner)."""
    class Opaque(Relation):
        space = C1

    for rel in (Opaque(), direct_sum([sign_relation(), Opaque()])):
        for call in (certify, check_maximal, lambda r: resolvent(r, 1.0, np.ones(r.space.dim)),
                     lambda r: graph_residual(r, np.ones(r.space.dim), np.ones(r.space.dim))):
            with pytest.raises(TypeError, match="Opaque is not a representation"):
                call(rel)


C2 = InnerProductSpace(2)
PAIRING = "exact: eigenvalues of the symmetrized graph pairing"
FULL_RANK = "exact: forward-plus-backward block has full rank"
DEFICIENT = "exact: forward-plus-backward block is rank deficient"
SHIFT = "translation-invariant: "
SUMMANDS = "componentwise over direct summands"
CONGRUENT = "congruence preserves monotonicity: "
INVERTIBLE = "congruence by an invertible map: "
R = np.sqrt(0.5)
SINK_PAIR = {"dxdy": [R, -R], "value": -0.5}  # the graph of -1: (x, y) = (c, -c)


def _empty_shifted():
    """The point relation {(0.25, 0)}: monotone, not maximal."""
    return LinearGraph(C1, [[0.0]], [[0.0]], x0=[0.25])


def _sink():
    return LinearGraph.from_matrix(C1, [[-1.0]])


def _sum_of_non_unitary_congruence():
    """Monotone, not maximal; the origin is a graph point and so is reached."""
    return direct_sum([SeparableProx(C1, [0.5]), transform(
        LinearMap(C2, C2, np.diag([2.0, 1.0])),
        direct_sum([SeparableProx(C1, [0.5]), LinearGraph(C1, [[0.0]], [[0.0]])]))])


#: name -> (relation, monotone (verdict, method, witness), maximal (verdict,
#: method, witness)): the texts and witnesses that callers and ``check-bc``
#: reports read, pinned for every branch of the certification.  A witness
#: pair is given as the stacked difference (dx, dy) of its two graph points
#: (``base``, the stacked second point, is zero unless given) and a
#: maximality right-hand side as a vector; both are pinned up to a unimodular factor,
#: the freedom of an eigen- or singular vector.
CERTIFY_CASES = {
    "linear": (lambda: LinearGraph.from_matrix(C2, [[2.0, 1.0], [-1.0, 1.0]]),
               ("yes", PAIRING, {"min_eigenvalue": 0.2697521433898182}), ("yes", FULL_RANK, None)),
    "linear-shifted": (lambda: LinearGraph(C1, np.eye(1), [[0.5]], x0=[0.3], y0=[-1.0]),
                       ("yes", SHIFT + PAIRING, {"min_eigenvalue": 0.4}), ("yes", SHIFT + FULL_RANK, None)),
    "linear-not-monotone": (_sink, ("no", PAIRING, SINK_PAIR), ("no", "not monotone; " + PAIRING, SINK_PAIR)),
    "linear-empty": (lambda: LinearGraph(C2, np.zeros((2, 0)), np.zeros((2, 0))),
                     ("yes", "exact: empty graph basis", None),
                     ("no", DEFICIENT, {"rhs": [1.0, 0.0], "rank": 0, "dim": 2})),
    "linear-not-maximal": (lambda: LinearGraph(C2, [[1.0], [0.0]], np.zeros((2, 1))),
                           ("yes", PAIRING, {"min_eigenvalue": 0.0}),
                           ("no", DEFICIENT, {"rhs": [0.0, 1.0], "rank": 1, "dim": 2})),
    "prox": (lambda: SeparableProx(C2, [0.5, 1.0]),
             ("yes", "closed-form: coordinatewise convex pieces", None),
             ("yes", "closed-form: every coordinate piece has a full-domain proximal map", None)),
    "sum": (lambda: direct_sum([sign_relation(0.5), identity_relation()]),
            ("yes", SUMMANDS, None), ("yes", SUMMANDS, None)),
    "sum-not-monotone-summand-1": (
        lambda: direct_sum([sign_relation(0.5), _sink()]),
        ("no", "componentwise (summand 1): " + PAIRING, {"dxdy": [0.0, R, 0.0, -R], "value": -0.5}),
        ("no", "not monotone; componentwise (summand 1): " + PAIRING,
         {"dxdy": [0.0, R, 0.0, -R], "value": -0.5})),
    "sum-not-maximal": (lambda: direct_sum([sign_relation(0.5), _empty_shifted()]),
                        ("yes", SUMMANDS, None),
                        ("no", "componentwise (summand 1): " + SHIFT + DEFICIENT, {"rhs": [0.0, 1.25]})),
    # a non-maximal summand before a non-monotone one: the monotone verdict decides
    "sum-not-maximal-then-not-monotone": (
        lambda: direct_sum([_empty_shifted(), sign_relation(0.5), _sink()]),
        ("no", "componentwise (summand 2): " + PAIRING,
         {"dxdy": [0, 0, R, 0, 0, -R], "base": [0.25, 0, 0, 0, 0, 0], "value": -0.5}),
        ("no", "not monotone; componentwise (summand 2): " + PAIRING,
         {"dxdy": [0, 0, R, 0, 0, -R], "base": [0.25, 0, 0, 0, 0, 0], "value": -0.5})),
    "congruence-not-monotone": (
        lambda: transform(LinearMap(C2, C2, [[2.0, 1.0], [0.0, 1.0]]), direct_sum([_sink(), sign_relation(0.5)])),
        ("no", CONGRUENT + "componentwise (summand 0): " + PAIRING,
         {"dxdy": [R / 2, 0.0, -2 * R, -R], "value": -0.5}),
        ("no", "not monotone; " + CONGRUENT + "componentwise (summand 0): " + PAIRING,
         {"dxdy": [R / 2, 0.0, -2 * R, -R], "value": -0.5})),
    "congruence-unitary-not-maximal": (
        lambda: transform(LinearMap(C2, C2, [[0.0, 1.0], [1.0, 0.0]]),
                          direct_sum([sign_relation(0.5), _empty_shifted()])),
        ("yes", CONGRUENT + SUMMANDS, None),
        ("no", INVERTIBLE + "componentwise (summand 1): " + SHIFT + DEFICIENT, {"rhs": [1.25, 0.0]})),
    "congruence-not-unitary": (
        lambda: transform(LinearMap(C2, C2, np.diag([2.0, 1.0])), direct_sum([sign_relation(0.5), _empty_shifted()])),
        ("yes", CONGRUENT + SUMMANDS, None),
        ("no", INVERTIBLE + "componentwise (summand 1): " + SHIFT + DEFICIENT
         + " (no witness: the map is not unitary)", None)),
    # the congruence's "no" carries no right-hand side, so neither does the sum's
    "sum-of-congruence-not-unitary": (
        _sum_of_non_unitary_congruence,
        ("yes", SUMMANDS, None),
        ("no", "componentwise (summand 1): " + INVERTIBLE + "componentwise (summand 1): " + DEFICIENT
         + " (no witness: the map is not unitary) (no witness: the summand gives no right-hand side)", None)),
    "congruence": (
        lambda: transform(LinearMap(C2, C2, np.diag([2.0, 1.0])), direct_sum([sign_relation(0.5), identity_relation()])),
        ("yes", CONGRUENT + SUMMANDS, None), ("yes", INVERTIBLE + SUMMANDS, None)),
}


def _assert_same_up_to_phase(got, want):
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    assert got.shape == want.shape
    assert np.linalg.norm(got) == pytest.approx(np.linalg.norm(want), abs=1e-12)
    assert abs(np.vdot(want, got)) == pytest.approx(np.linalg.norm(want) ** 2, abs=1e-12)


def _assert_witness(got, want):
    if want is None:
        assert got is None
        return
    assert set(got) == ({"pair_a", "pair_b", "value"} if "dxdy" in want else set(want))
    for key, value in want.items():
        if key == "dxdy":
            (xa, ya), (xb, yb) = got["pair_a"], got["pair_b"]
            base = np.concatenate([xb, yb])
            assert np.array_equal(base, want.get("base", np.zeros_like(base)))
            _assert_same_up_to_phase(np.concatenate([xa - xb, ya - yb]), value)
        elif key == "base":
            continue
        elif key == "rhs":
            _assert_same_up_to_phase(got["rhs"], value)
        else:
            assert got[key] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("name", list(CERTIFY_CASES))
def test_certify_pins_the_method_and_witness_of_every_rule(name):
    make, (mono_verdict, mono_method, mono_witness), (max_verdict, max_method, max_witness) = CERTIFY_CASES[name]
    rel = make()
    mono, maximal = certify(rel)
    assert (mono.monotone, mono.maximal, mono.skew, mono.method) == (mono_verdict, "unknown", "unknown", mono_method)
    _assert_witness(mono.witness, mono_witness)
    assert (maximal.monotone, maximal.maximal, maximal.skew, maximal.method) == (
        mono_verdict, max_verdict, "unknown", max_method)
    _assert_witness(maximal.witness, max_witness)
    for got, want in ((check_monotone(rel), mono), (check_maximal(rel), maximal)):
        assert (got.monotone, got.maximal, got.method) == (want.monotone, want.maximal, want.method)


@pytest.mark.parametrize("make", [
    lambda: direct_sum([_empty_shifted(), SeparableProx(C1, [0.5]), _sink()]),
    # a summand that is a congruence of a sum, by a map that is not unitary
    lambda: direct_sum([transform(LinearMap(C2, C2, [[2.0, 1.0], [0.0, 1.0]]),
                                  direct_sum([_empty_shifted(), SeparableProx(C1, [0.5])])), _sink()]),
], ids=["shifted-friction-sink", "congruence-sink"])
def test_sum_witness_points_lie_on_the_graph(make):
    """A non-monotone summand's witness is completed by a graph point of
    every other summand (the offset of a shifted graph, not zero), so
    both points re-verify on the sum, with the pairing of the summand."""
    rel = make()
    cert = check_monotone(rel)
    assert cert.monotone == "no"
    (xa, ya), (xb, yb) = cert.witness["pair_a"], cert.witness["pair_b"]
    for x, y in ((xa, ya), (xb, yb)):
        assert graph_residual(rel, x, y) <= 1e-12
    assert cert.witness["value"] == pytest.approx(-0.5, abs=1e-12)
    assert np.real(np.vdot(xa - xb, rel.space.weight @ (ya - yb))) == pytest.approx(cert.witness["value"], abs=1e-12)


def test_sum_gives_no_false_maximality_witness():
    """A zero right-hand side embedded for a summand whose "no" carries
    none would be reached: the resolvent there is the origin."""
    rel = _sum_of_non_unitary_congruence()
    cert = check_maximal(rel)
    assert cert.maximal == "no" and cert.witness is None
    x, w = resolvent_value(rel, 1.0, np.zeros(3))
    assert graph_residual(rel, x, w) <= 1e-12 and np.linalg.norm(x + w) <= 1e-12


def test_relation_suite_evaluates_each_resolvent_once(monkeypatch):
    """``verify``'s relation suite never solves one relation's resolvent
    twice at the same ``(lam, y)``: the Yosida check reads the resolvent
    back from the Yosida value instead of solving it again.  Nor does it
    plan one relation twice at the same ``phi``: the nonexpansiveness
    pair and the sampled maximality check solve every right-hand side
    with one plan."""
    import monoport.relations as rels
    from monoport import verify

    seen, plans, depth = [], [], [0]
    value, plan = rels.resolvent_value, rels.plan_inclusion

    def counted_plan(phi, r):
        if not depth[0]:  # nested plans (a direct sum's parts) are not counted
            plans.append((r, np.asarray(phi).tobytes()))  # r kept alive: ids stay unique
        depth[0] += 1
        try:
            return plan(phi, r)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(rels, "resolvent_value", lambda r, lam, y: seen.append(
        (id(r), lam, np.asarray(y).tobytes())) or value(r, lam, y))
    monkeypatch.setattr(rels, "plan_inclusion", counted_plan)
    results = verify._suite_relation(0)
    assert len(results) == 6 and all(r.passed() for r in results)
    assert len(seen) == 100 and len(set(seen)) == len(seen)
    keys = [(id(r), phi) for r, phi in plans]
    # 40 nonexpansive pairs, 40 Yosida values, 60 direct-sum resolvents, 5 sampled relations
    assert len(keys) == 145 and len(set(keys)) == len(keys)


def test_post_set_refuses_nonaffine_relation():
    with pytest.raises(ValueError, match="SeparableProx"):
        post_set(sign_relation(), [0.0])


def test_check_maximal_closed_form_path_on_prox():
    rel = SeparableProx(InnerProductSpace(2), [0.5, 1.0])
    cert = check_maximal(rel)
    assert cert.maximal == "yes"
    assert "closed-form" in cert.method


def test_separable_prox_validates_its_scales():
    space = InnerProductSpace(2)
    assert SeparableProx(space, [0.0, 1.5]).scales.tolist() == [0.0, 1.5]
    for bad in ([0.5, -0.1], [0.5, float("nan")]):
        with pytest.raises(ValueError, match="nonnegative"):
            SeparableProx(space, bad)
    for wrong in ([0.5], [0.5, 0.5, 0.5], 0.5):
        with pytest.raises(ValueError, match="need 2 scales"):
            SeparableProx(space, wrong)


# ---------------------------------------------------------------- inclusion


def test_solve_inclusion_identity_plus_sign():
    """phi = 1: z + sign(z) forced to contain g is the soft threshold."""
    phi = np.eye(1)
    z, w = solve_inclusion(plan_inclusion(phi, sign_relation()), np.array([2.0 + 0j]))
    assert z == pytest.approx([1.0])
    assert w == pytest.approx([1.0])
    z, w = solve_inclusion(plan_inclusion(phi, sign_relation()), np.array([0.5 + 0j]))
    assert z == pytest.approx([0.0], abs=1e-12)


def test_solve_inclusion_linear_relation(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        phi = rand_spd(rng, n)
        rel = LinearGraph.from_matrix(InnerProductSpace(n), rand_monotone_matrix(rng, n))
        g = rand_complex(rng, n)
        z, w = solve_inclusion(plan_inclusion(phi, rel), g)
        assert np.linalg.norm(phi @ z + w - g) < 1e-8
        assert graph_residual(rel, z, w) < 1e-8


def _count_splitting(monkeypatch):
    """Record the dimension of every Douglas-Rachford call."""
    import monoport.relations as rels

    calls = []
    real = rels._douglas_rachford

    def counted(plan, g, x0, tol):
        calls.append(plan.rel.space.dim)
        return real(plan, g, x0, tol)

    monkeypatch.setattr(rels, "_douglas_rachford", counted)
    return calls, real


def test_solve_inclusion_schur_falls_back_on_singular_affine_block(monkeypatch):
    """``M = phi_aa zx + zy`` vanishes up to roundoff: the eliminated answer
    misses the residual test, and splitting solves the whole sum.  The
    splitting's resolvents are planned once, so its loop runs no
    least-squares solve."""
    import monoport.relations as rels

    calls, _ = _count_splitting(monkeypatch)
    lstsq_calls = []
    real_lstsq = rels._lstsq

    def counted_lstsq(m, b):
        lstsq_calls.append(m.shape)
        return real_lstsq(m, b)

    monkeypatch.setattr(rels, "_lstsq", counted_lstsq)
    rel = DirectSum([sign_relation(0.5), LinearGraph.from_matrix(C1, [[-2.0]])])
    phi = np.array([[1.0, 0.3], [0.3, 2.0]])
    g = np.array([1.0, 0.5])
    z, w = solve_inclusion(plan_inclusion(phi, rel), g)
    assert calls[-1] == 2
    assert lstsq_calls == []
    assert np.linalg.norm(phi @ z + w - g) <= TOL_ITERATIVE * np.linalg.norm(g)
    assert z == pytest.approx([5.0 / 3.0, -35.0 / 9.0], abs=1e-6)


def _random_port_sum(rng, k):
    """``k`` friction ports and one or two linear ports (Robin or
    Dirichlet, some shifted), in random order."""
    parts = [SeparableProx(C1, [float(rng.uniform(0.1, 2.0))]) for _ in range(k)]
    for _ in range(int(rng.integers(1, 3))):
        if rng.uniform() < 0.5:
            zx, zy = np.eye(1), [[float(rng.uniform(0.0, 2.0))]]
        else:
            zx, zy = np.zeros((1, 1)), np.ones((1, 1))
        offsets = (rand_complex(rng, 1), rand_complex(rng, 1)) if rng.uniform() < 0.5 else (None, None)
        parts.append(LinearGraph(C1, zx, zy, *offsets))
    return direct_sum([parts[i] for i in rng.permutation(len(parts))])


@pytest.mark.parametrize("k", [1, 2])
def test_solve_inclusion_schur_reduction_agrees_with_splitting(monkeypatch, rng, k):
    """Against a coupled phi the linear ports are eliminated exactly; one
    friction port is then solved in closed form, two by splitting on
    just those two coordinates."""
    calls, real_dr = _count_splitting(monkeypatch)
    for _ in range(10):
        rel = _random_port_sum(rng, k)
        n = rel.space.dim
        phi = rand_spd(rng, n, shift=0.5)
        g = rand_complex(rng, n)
        calls.clear()
        plan = plan_inclusion(phi, rel)
        z, w = solve_inclusion(plan, g)
        if k == 1:
            assert calls == [] and np.linalg.norm(phi @ z + w - g) <= 1e-12
        else:
            assert calls[0] == 2
        z_dr, w_dr = real_dr(plan.fallback, g, None, None)
        # the elimination itself, before the residual test that guards it
        z_s, w_s = plan.eliminate(g)
        for zz, ww in ((z, w), (z_s, w_s)):
            assert np.linalg.norm(zz - z_dr) <= 1e-7 and np.linalg.norm(ww - w_dr) <= 1e-7
            assert graph_residual(rel, zz, ww) <= 1e-8


def test_schur_reduced_splitting_meets_the_whole_sums_residual_target(monkeypatch):
    """Two friction ports next to linear ports: the reduced splitting runs
    to the residual target of the whole sum, whose rows ``f`` are the
    reduced residual and whose rows ``a`` vanish, so its answer passes
    the residual test and the whole sum is never split."""
    from monoport.verify import _random_schur_instance

    calls, _ = _count_splitting(monkeypatch)
    for seed in range(300):
        phi, rel, g = _random_schur_instance(np.random.default_rng(seed), 2)
        calls.clear()
        z, w = solve_inclusion(plan_inclusion(phi, rel), g)
        assert calls == [2], seed
        assert np.linalg.norm(phi @ z + w - g) <= TOL_ITERATIVE * max(1.0, np.linalg.norm(g)), seed


def test_schur_plan_falls_back_to_splitting_when_the_reduced_solve_fails(monkeypatch, rng):
    """A reduced solve that raises leaves no eliminated pair, and the plan
    splits the whole sum to its residual target instead.  That splitting
    is planned on its first use, once: planning builds none."""
    import monoport.relations as rels

    calls, _ = _count_splitting(monkeypatch)
    built = []
    splitting_init = rels._SplittingPlan.__init__

    def counted_init(self, phi, rel):
        built.append(rel.space.dim)
        splitting_init(self, phi, rel)

    monkeypatch.setattr(rels._SplittingPlan, "__init__", counted_init)
    rel = _random_port_sum(rng, 1)
    n = rel.space.dim
    phi = rand_spd(rng, n, shift=0.5)
    g = rand_complex(rng, n)
    plan = plan_inclusion(phi, rel)
    assert type(plan).__name__ == "_SchurPlan"
    assert built == []

    def fail(g_f, x0_f, tol):
        raise NonconvergenceError("forced", residual=1.0)

    plan.reduced = fail
    assert plan.eliminate(g) is None
    z, w = solve_inclusion(plan, g)
    assert calls == [n] and built == [n]
    assert np.array_equal(solve_inclusion(plan, g)[0], z)
    assert calls == [n, n] and built == [n]
    assert np.linalg.norm(phi @ z + w - g) <= TOL_ITERATIVE * max(1.0, np.linalg.norm(g))
    assert graph_residual(rel, z, w) <= 1e-8


def test_splitting_out_of_iterations_raises_with_its_best_residual(monkeypatch):
    """Cut to twelve iterations, splitting stops short of its target and
    reports the smallest residual any iteration reached.  From this warm
    start the residual is not monotone, so the last one is not the best."""
    import monoport.relations as rels

    monkeypatch.setattr(rels, "MAX_ITER", 12)
    rel = DirectSum([sign_relation(0.5), sign_relation(1.0), sign_relation(2.0)])
    phi = np.array([[3.1, -0.4, -0.6], [-0.4, 2.7, -2.4], [-0.6, -2.4, 2.7]])
    g, x0 = np.array([1.5, -4.5, 6.8]), np.array([-5.7, 3.3, -1.0])
    plan = plan_inclusion(phi, rel)
    assert type(plan).__name__ == "_SplittingPlan"
    residuals = []
    inner = plan.inner

    def recorded(v, x0, tol):
        z, w = inner(v, x0, tol)
        residuals.append(float(np.linalg.norm(phi @ z + w - g)))
        return z, w

    plan.inner = recorded
    with pytest.raises(NonconvergenceError) as err:
        solve_inclusion(plan, g, x0)
    assert len(residuals) == 12 and residuals[-1] > min(residuals)
    assert err.value.residual == min(residuals)
    assert err.value.residual > TOL_ITERATIVE * np.linalg.norm(g)
    assert "best residual" in str(err.value)


def test_solve_inclusion_requires_square_phi():
    with pytest.raises(ValueError):
        solve_inclusion(plan_inclusion(np.ones((2, 1)), sign_relation()), np.array([1.0]))


# ------------------------------------------------------- certificate record


def test_certificate_dataclass_defaults():
    cert = Certificate(monotone="yes")
    assert cert.maximal == "unknown"
    assert cert.skew == "unknown"
