import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from monoport.relations import (
    TOL_ITERATIVE,
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
    resolvent,
    resolvent_value,
    solve_inclusion,
    transform,
    yosida,
)
from monoport.boundary import subspace_gap
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


@pytest.mark.parametrize("lam, message", [
    (np.inf, "resolvent parameter lam must be positive and finite"),
    (np.nan, "resolvent parameter lam must be positive and finite"),
    (0.0, "resolvent parameter lam must be positive and finite"),
    (-1.0, "resolvent parameter lam must be positive and finite"),
    (1e-320, "phi must be finite"),
    (1e-160, r"phi must have entries of modulus below 2\^500"),
], ids=["inf", "nan", "zero", "negative", "subnormal", "inverse-above-range"])
@pytest.mark.parametrize("evaluate", [resolvent, yosida], ids=["resolvent", "yosida"])
def test_resolvent_parameter_is_positive_and_finite(capfd, lam, message, evaluate):
    """``lam = inf`` returned 0, though ``J_inf`` is not defined, and
    ``lam = 1e-320`` printed four LAPACK lines (an illegal DLASCL
    parameter) and raised "SVD did not converge"; both are refused, with
    nothing printed."""
    rel = LinearGraph.from_matrix(C2, [[1.0, 0.5], [-0.5, 2.0]])
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate(rel, lam, [1.0, 2.0])
    assert capfd.readouterr() == ("", "")


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


def test_check_maximal_closed_form_path_on_prox():
    rel = SeparableProx(InnerProductSpace(2), [0.5, 1.0])
    cert = check_maximal(rel)
    assert cert.maximal == "yes"
    assert "closed-form" in cert.method


def test_separable_prox_validates_its_scales():
    space = InnerProductSpace(2)
    assert SeparableProx(space, [0.0, 1.5]).scales.tolist() == [0.0, 1.5]
    for bad, shown in (([0.5, -0.1], "-0.1"), ([0.5, float("nan")], "nan"), ([np.inf, 0.5], "inf"),
                       ([0.5, 0.5 + 1j], "(0.5+1j)")):
        with pytest.raises(ValueError) as err:
            SeparableProx(space, bad)
        assert str(err.value) == f"friction coefficient must be real, nonnegative and finite, got {shown}"
    for wrong in ([0.5], [0.5, 0.5, 0.5], 0.5):
        with pytest.raises(ValueError, match="need 2 scales"):
            SeparableProx(space, wrong)


@pytest.mark.parametrize("offsets", [dict(x0=[0.0, np.nan]), dict(y0=[np.inf, 0.0])], ids=["x0-nan", "y0-inf"])
def test_linear_graph_refuses_an_offset_that_is_not_finite(offsets):
    """A Dirichlet or Neumann datum is a graph offset: ``nan`` was
    certified maximal monotone, and a run from it wrote ``nan`` states."""
    with pytest.raises(ValueError, match="^graph offsets must be finite$"):
        LinearGraph(C2, np.zeros((2, 2)), np.eye(2), **offsets)


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

    def counted(plan, g, x0):
        calls.append(plan.rel.space.dim)
        return real(plan, g, x0)

    monkeypatch.setattr(rels, "_douglas_rachford", counted)
    return calls, real


def _visited(plan):
    """Record, in order, the sign pattern of every piece ``plan`` solves."""
    patterns, piece = [], plan.piece
    plan.piece = lambda pattern: patterns.append(pattern) or piece(pattern)
    return patterns


def _friction_coordinates(rel):
    """``(index, mu)`` of every friction coordinate of a direct sum."""
    return [(i, mu) for part, s in zip(rel.parts, rel.slices) if isinstance(part, SeparableProx)
            for i, mu in zip(range(s.start, s.stop), part.scales)]


def _signs_hold(rel, z, w, tol=1e-12):
    """Each friction coordinate sticks (``z = 0``, ``|w| <= mu``) or slips
    (``w = mu z/|z|``), to ``tol`` relative; the linear parts hold too."""
    for i, mu in _friction_coordinates(rel):
        zi, wi = z[i], w[i]
        if zi == 0:
            assert abs(wi) <= mu * (1 + tol)
        else:
            assert abs(wi - mu * np.sign(zi.real)) <= tol * mu and zi.imag == 0
    return graph_residual(rel, z, w) <= tol * max(1.0, np.linalg.norm(w))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_piece_plan_solves_real_instances_exactly(monkeypatch, k):
    """A real coupled phi against ``k`` friction ports and linear ports,
    some shifted: the pieces give a pair whose signs hold and which
    solves the inclusion to roundoff, with no splitting, and agree with
    splitting the whole sum to its tolerance."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    calls, real_dr = _count_splitting(monkeypatch)
    shifted = 0
    for seed in range(20):
        phi, rel, g = _random_piece_instance(np.random.default_rng(seed), k)
        shifted += any(p.affine and p.shifted for p in rel.parts)
        plan = plan_inclusion(phi, rel)
        assert type(plan).__name__ == "_PiecePlan"
        z, w = solve_inclusion(plan, g)
        assert calls == [], seed
        assert _signs_hold(rel, z, w), seed
        assert np.linalg.norm(phi @ z + w - g) <= 1e-12 * max(1.0, np.linalg.norm(g)), seed
        z_dr, w_dr = real_dr(rels._SplittingPlan(phi, rel), g, None)
        assert np.linalg.norm(z - z_dr) <= 1e-7 and np.linalg.norm(w - w_dr) <= 1e-7, seed
    assert shifted > 0


def test_piece_plan_decides_a_tie(monkeypatch):
    """``z_0 = 0`` and ``w_0 = mu``: the stick and the slip piece both hold,
    and every warm start gets the same pair, with no splitting.  In the
    seeded instance roundoff puts each piece just past its sign test, so
    a walk that switched on any violation, not one above the tolerance,
    would go round and split."""
    calls, _ = _count_splitting(monkeypatch)
    rng = np.random.default_rng(4)
    a, skew = rng.normal(size=(2, 2)), rng.normal()
    seeded = a @ a.T / 2 + 0.5 * np.eye(2) + np.array([[0.0, skew], [-skew, 0.0]])
    mu, z1, r = rng.uniform(0.1, 2), rng.normal(), rng.uniform(0.1, 2)
    for phi, mu, z1, r in ((np.array([[2.0, 0.5], [-0.5, 1.0]]), 0.5, 1.0, 1.0), (seeded, mu, z1, r)):
        rel = direct_sum([sign_relation(mu), LinearGraph.from_matrix(C1, [[r]])])
        g = phi @ [0.0, z1] + [mu, r * z1]
        plan = plan_inclusion(phi, rel)
        for x0 in (None, np.array([1.0, 0.0]), np.array([-1.0, 0.0])):
            z, w = solve_inclusion(plan, g, x0)
            assert np.abs(z - [0.0, z1]).max() <= 1e-12 and np.abs(w - [mu, r * z1]).max() <= 1e-12
    assert calls == []


def test_piece_plan_starts_from_the_warm_starts_pattern(monkeypatch):
    """Started from any sign pattern, the plan gives the same pair; started
    from the solution, it solves one piece."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    solves = []
    affine_pair = rels._AffinePlan.pair  # every affine solve, of a piece or not, goes through it
    monkeypatch.setattr(rels._AffinePlan, "pair", lambda self, g: solves.append(self) or affine_pair(self, g))
    for seed in range(5):
        phi, rel, g = _random_piece_instance(np.random.default_rng(seed), 2)
        plan = plan_inclusion(phi, rel)
        z, w = solve_inclusion(plan, g)
        friction = [i for i, _ in _friction_coordinates(rel)]
        for pattern in itertools.product((0.0, 1.0, -1.0), repeat=2):
            x0 = np.zeros(rel.space.dim)
            x0[friction] = pattern
            zs, ws = solve_inclusion(plan, g, x0)
            assert np.abs(zs - z).max() <= 1e-12 and np.abs(ws - w).max() <= 1e-12, (seed, pattern)
        solves.clear()
        assert np.array_equal(solve_inclusion(plan, g, z)[0], z)
        assert len(solves) == 1, seed


def test_piece_plan_splits_a_complex_right_hand_side(monkeypatch, rng):
    """A complex ``g`` has no pieces: the plan splits the whole sum, built
    on that first use, in exactly one call, to its residual target."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    calls, _ = _count_splitting(monkeypatch)
    built = []
    splitting_init = rels._SplittingPlan.__init__

    def counted_init(self, phi, rel):
        built.append(rel.space.dim)
        splitting_init(self, phi, rel)

    monkeypatch.setattr(rels._SplittingPlan, "__init__", counted_init)
    phi, rel, g = _random_piece_instance(np.random.default_rng(3), 2)
    n = rel.space.dim
    plan = plan_inclusion(phi, rel)
    assert built == []
    g = g + 1j * rng.normal(size=n)
    z, w = solve_inclusion(plan, g)
    assert calls == [n] and built == [n]
    assert np.linalg.norm(phi @ z + w - g) <= TOL_ITERATIVE * max(1.0, np.linalg.norm(g))
    assert graph_residual(rel, z, w) <= 1e-8
    solve_inclusion(plan, g.real)
    assert calls == [n] and built == [n]


def test_piece_plan_splits_past_a_singular_piece(monkeypatch):
    """``M = phi_aa zx + zy`` of the linear part vanishes up to roundoff
    (``w = -2 z`` is not monotone), so the stick piece the walk starts
    from has no solution: the walk ends in splitting the whole sum, whose
    resolvents are planned once, so its loop runs no least-squares
    solve."""
    import monoport.relations as rels

    calls, _ = _count_splitting(monkeypatch)
    lstsq_calls = []
    real_lstsq = rels._lstsq
    monkeypatch.setattr(rels, "_lstsq", lambda m, b: lstsq_calls.append(m.shape) or real_lstsq(m, b))
    rel = DirectSum([sign_relation(0.5), LinearGraph.from_matrix(C1, [[-2.0]])])
    phi = np.array([[1.0, 0.3], [0.3, 2.0]])
    g = np.array([1.0, 0.5])
    z, w = solve_inclusion(plan_inclusion(phi, rel), g)
    assert calls == [2]
    assert lstsq_calls == [(2, 2)]
    assert np.linalg.norm(phi @ z + w - g) <= TOL_ITERATIVE * np.linalg.norm(g)
    assert z == pytest.approx([5.0 / 3.0, -35.0 / 9.0], abs=1e-6)


def test_piece_plan_without_a_holding_piece_raises_from_splitting(monkeypatch):
    """``0 z + 0.5 sign(z) ∋ 2`` has no solution: the stick piece misses
    ``|w| <= 0.5`` by 1.5 and switches to slip+, which is singular, so the
    walk ends in splitting, whose failure is raised with its best
    residual.  Against the singular ``phi`` below the walk goes stick ⊕
    stick, slip+ ⊕ stick, slip+ ⊕ slip+ (singular), then splits."""
    import monoport.relations as rels

    monkeypatch.setattr(rels, "MAX_ITER", 50)
    calls, _ = _count_splitting(monkeypatch)
    plan = plan_inclusion(np.zeros((1, 1)), sign_relation(0.5))
    assert type(plan).__name__ == "_PiecePlan"
    visited = _visited(plan)
    with pytest.raises(NonconvergenceError, match="splitting iteration") as err:
        solve_inclusion(plan, np.array([2.0]))
    assert calls == [1] and visited == [(0,), (1,)]
    assert err.value.residual == pytest.approx(1.5, abs=1e-12)
    plan = plan_inclusion(np.array([[1.5, 0.0], [-0.5, 0.0]]), DirectSum([sign_relation(0.5), sign_relation(1.0)]))
    visited = _visited(plan)
    with pytest.raises(NonconvergenceError, match="splitting iteration"):
        solve_inclusion(plan, np.array([1.0, 1.0]))
    assert calls == [1, 2] and visited == [(0, 0), (1, 0), (1, 1)]


def test_piece_plan_splits_when_the_walk_repeats_a_pattern(monkeypatch):
    """From slip+ on the second friction coordinate, this instance's walk
    runs stick ⊕ slip+, slip+ ⊕ stick, stick ⊕ slip-, slip- ⊕ stick and
    back: the repeat ends in one splitting call, which agrees with the
    piece the walk from all-stick finds."""
    from monoport.verify import _random_piece_instance

    calls, _ = _count_splitting(monkeypatch)
    phi, rel, g = _random_piece_instance(np.random.default_rng(828), 2)
    plan = plan_inclusion(phi, rel)
    z, w = solve_inclusion(plan, g)
    assert calls == []
    x0 = np.zeros(rel.space.dim)
    x0[[i for i, _ in _friction_coordinates(rel)]] = [0.0, 1.0]
    visited = _visited(plan)
    z_dr, w_dr = solve_inclusion(plan, g, x0)
    assert calls == [rel.space.dim]
    assert visited == [(0, 1), (1, 0), (0, -1), (-1, 0)]
    assert np.linalg.norm(z - z_dr) <= 1e-7 and np.linalg.norm(w - w_dr) <= 1e-7


def test_piece_plan_walk_is_bounded_in_the_number_of_friction_ports(monkeypatch):
    """Twelve friction ports on a coupled ``phi`` (3^12 sign patterns):
    planning builds no piece, each solve, warm-started from the last,
    builds at most ``2k + 2`` and splits nothing, and the plan keeps at
    most ``2k + 2`` pieces however many it has built."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    k = 12
    calls, _ = _count_splitting(monkeypatch)
    built = []
    affine_init = rels._AffinePlan.__init__
    monkeypatch.setattr(rels._AffinePlan, "__init__",
                        lambda self, *args: built.append(args) or affine_init(self, *args))
    rng = np.random.default_rng(0)
    phi, rel, g = _random_piece_instance(rng, k)
    plan = plan_inclusion(phi, rel)
    assert type(plan).__name__ == "_PiecePlan" and built == []
    z, total = None, 0
    for step in range(6):
        g = 3.0 * rng.normal(size=rel.space.dim)
        z, w = solve_inclusion(plan, g, z)
        assert len(built) <= 2 * k + 2, step
        assert _signs_hold(rel, z, w), step
        assert np.linalg.norm(phi @ z + w - g) <= 1e-12 * max(1.0, np.linalg.norm(g)), step
        total += len(built)
        built.clear()
    assert calls == []
    assert total > 2 * k + 2 and plan.piece.cache_info().currsize <= 2 * k + 2


def test_piece_plan_builds_pieces_without_the_relation_calculus(monkeypatch):
    """A piece is a column choice in the plan's table: planning and a
    k = 12 walk over many new pieces construct no ``LinearGraph``,
    ``InnerProductSpace`` or direct sum (each piece used to be k
    one-coordinate graphs, an SVD each, joined by ``direct_sum``)."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    k = 12
    rng = np.random.default_rng(0)
    phi, rel, g = _random_piece_instance(rng, k)
    built = []
    for cls in (rels.LinearGraph, rels.InnerProductSpace):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs:
                            built.append(type(self).__name__) or _init(self, *args, **kwargs))
    monkeypatch.setattr(rels, "direct_sum", lambda parts, _sum=rels.direct_sum: built.append("direct_sum") or _sum(parts))
    plan = plan_inclusion(phi, rel)
    z = None
    for _ in range(6):
        g = 3.0 * rng.normal(size=rel.space.dim)
        z, w = solve_inclusion(plan, g, z)
        assert _signs_hold(rel, z, w)
    assert plan.piece.cache_info().misses > 2 * k + 2
    assert built == []


def _reference_piece(rel, pattern):
    """A piece as the relation calculus builds it: a one-coordinate linear
    graph per friction coordinate, ``{(0, t)}`` for stick and ``{(t, s
    mu)}`` for slip ``s``, summed with the linear parts by ``direct_sum``."""
    coords = iter(pattern)
    return direct_sum([graph for part in rel.parts for graph in ([part] if part.affine else [
        LinearGraph(C1, [[abs(s)]], [[1 - abs(s)]], y0=[s * mu]) for mu, s in zip(part.scales, coords)])])


@pytest.mark.parametrize("parts, maximal", [
    ([sign_relation(0.5), LinearGraph.from_matrix(C2, [[1.0, 0.6], [-0.2, 0.5]]), sign_relation(0.3)], True),
    ([LinearGraph(C1, [[0.0]], [[0.0]]), sign_relation(0.5), LinearGraph(C1, [[1.0]], [[0.4]], y0=[0.2])], False),
], ids=["coupled-robin-between-friction", "point-before-friction"])
def test_piece_table_spans_the_direct_sum_of_each_pattern(monkeypatch, parts, maximal):
    """For every sign pattern the table's piece spans the graph, with the
    same offsets, that the relation calculus builds for it, whether a
    linear part couples two coordinates or has no columns (the point
    relation ``{(0, 0)}``, which puts the friction column off its row).
    On the coupled sum, which is maximal, the walk settles with no
    splitting and agrees with splitting the whole sum to its tolerance."""
    import monoport.relations as rels

    rel = DirectSum(parts)
    phi = np.array([[2.0, 0.3, -0.2, 0.1], [-0.1, 1.5, 0.4, 0.0], [0.2, -0.4, 1.8, 0.3], [0.0, 0.2, -0.3, 1.2]])
    phi = phi[: rel.space.dim, : rel.space.dim]
    plan = plan_inclusion(phi, rel)
    k = sum(not p.affine for p in parts)
    for pattern in itertools.product((0, 1, -1), repeat=k):
        piece, ref = plan.piece(pattern), _reference_piece(rel, pattern)
        assert subspace_gap(ref.stacked, np.vstack([piece.zx, piece.zy])) <= 1e-12, pattern
        assert np.array_equal(piece.x0, ref.x0) and np.array_equal(piece.y0, ref.y0), pattern
    if not maximal:
        return
    calls, real_dr = _count_splitting(monkeypatch)
    for seed in range(10):
        g = 2.0 * np.random.default_rng(seed).normal(size=rel.space.dim)
        z, w = solve_inclusion(plan, g)
        assert calls == [] and _signs_hold(rel, z, w), seed
        z_dr, w_dr = real_dr(rels._SplittingPlan(phi, rel), g, None)
        assert np.linalg.norm(z - z_dr) <= 1e-7 and np.linalg.norm(w - w_dr) <= 1e-7, seed


@pytest.mark.parametrize("k", [1, 2, 3])
def test_real_pieces_match_complex_arithmetic(k):
    """Every piece of a real plan is float64, and on seeded instances it
    gives, to 1e-14, the pair of the same piece planned in complex
    arithmetic; the plan's own solution holds its friction signs exactly:
    ``z_i = 0`` on a stick, ``w_i = s mu_i`` on a slip."""
    import monoport.relations as rels
    from monoport.verify import _random_piece_instance

    for seed in range(10):
        phi, rel, g = _random_piece_instance(np.random.default_rng(seed), k)
        plan = plan_inclusion(phi, rel)
        assert plan.phi.dtype == plan.zx.dtype == plan.zy.dtype == np.float64
        for pattern in itertools.product((0, 1, -1), repeat=k):
            piece = plan.piece(pattern)
            assert all(a.dtype == np.float64 for a in (piece.m, piece.shift, piece.g_map, piece.g_offset,
                                                       piece.pairs, piece.offset))
            ref = rels._AffinePlan(phi.astype(complex), rel, *(a.astype(complex) for a in
                                                              (piece.zx, piece.zy, piece.x0, piece.y0)))
            (z, w), (zc, wc) = piece(g, None), ref(g.astype(complex), None)
            scale = max(1.0, np.abs(zc).max(), np.abs(wc).max())
            assert z.dtype == w.dtype == np.float64
            assert max(np.abs(z - zc).max(), np.abs(w - wc).max()) <= 1e-14 * scale, (seed, pattern)
        z, w = solve_inclusion(plan, g)
        assert z.dtype == w.dtype == np.float64
        for i, mu in _friction_coordinates(rel):
            assert (z[i] == 0.0 and abs(w[i]) <= mu) or w[i] == np.sign(z[i]) * mu, (seed, i)


@pytest.mark.parametrize("part", ["SeparableProx", "LinearGraph"])
def test_a_complex_right_hand_side_on_a_real_plan_is_solved_in_complex_arithmetic(monkeypatch, part):
    """A real plan reads a complex ``g`` as complex: the piece plan splits it
    and an affine plan returns a complex pair, each to 1e-14 of the plan of
    the same relation in complex arithmetic (``real`` patched off on the
    relation and its parts).  A complex ``g`` of zero imaginary part walks the pieces
    and gives the float64 solution of its real part in complex type."""
    from monoport.verify import _random_piece_instance

    rng = np.random.default_rng(7)
    for seed in range(5):
        phi, rel, g = _random_piece_instance(np.random.default_rng(seed), 2)
        if part == "LinearGraph":
            rel = next(p for p in rel.parts if p.affine)
            phi = phi[: rel.space.dim, : rel.space.dim]
            g = g[: rel.space.dim]
        plan = plan_inclusion(phi, rel)
        assert plan.phi.dtype == np.float64
        g_complex = g + 1j * rng.normal(size=g.size)
        z, w = solve_inclusion(plan, g_complex)
        with monkeypatch.context() as patch:
            for r in (rel, *getattr(rel, "parts", ())):  # each keeps its own ``real``
                patch.setattr(r, "real", False)
            ref = plan_inclusion(phi, rel)
        assert ref.phi.dtype == np.complex128
        zc, wc = solve_inclusion(ref, g_complex)
        assert z.dtype == w.dtype == np.complex128
        scale = max(1.0, np.abs(zc).max(), np.abs(wc).max())
        assert max(np.abs(z - zc).max(), np.abs(w - wc).max()) <= 1e-14 * scale, seed
        z, w = solve_inclusion(plan, g.astype(complex))
        zr, wr = solve_inclusion(plan, g)
        assert z.dtype == np.complex128 and zr.dtype == np.float64
        assert not np.any(z.imag) and np.abs(z.real - zr).max() <= 1e-14 * max(1.0, np.abs(zr).max()), seed
        assert np.abs(w.real - wr).max() <= 1e-14 * max(1.0, np.abs(wr).max()), seed


def test_block_diag_equals_scipys():
    """The block-diagonal matrix of the relation calculus is that of
    ``scipy.linalg.block_diag``: entries, shape and dtype, blocks without
    rows or columns included."""
    from monoport.relations import _block_diag

    rng = np.random.default_rng(0)
    for shapes, dtypes in [([(2, 2), (1, 1)], [float, float]), ([(2, 3), (0, 1), (1, 0), (3, 2)], [complex] * 4),
                           ([(1, 1), (2, 2)], [float, complex]), ([(3, 1)], [float])]:
        blocks = [rng.normal(size=shape).astype(dtype) for shape, dtype in zip(shapes, dtypes)]
        ours, theirs = _block_diag(blocks), scipy.linalg.block_diag(*blocks)
        assert np.array_equal(ours, theirs) and ours.shape == theirs.shape and ours.dtype == theirs.dtype


def test_splitting_out_of_iterations_raises_with_its_best_residual(monkeypatch):
    """Cut to eight iterations, splitting stops short of its target and
    reports the smallest residual any iteration reached.  From this warm
    start the residual is not monotone, so the last one is not the best.
    A complex ``phi`` (its Hermitian part real) takes splitting."""
    import monoport.relations as rels

    monkeypatch.setattr(rels, "MAX_ITER", 8)
    rel = DirectSum([sign_relation(0.5), sign_relation(1.0), sign_relation(2.0)])
    phi = np.array([[3.1, -0.4 + 0.5j, -0.6], [-0.4 + 0.5j, 2.7, -2.4], [-0.6, -2.4, 2.7]])
    g, x0 = np.array([1.5, -4.5, 6.8]), np.array([-5.7, 3.3, -1.0])
    plan = plan_inclusion(phi, rel)
    assert type(plan).__name__ == "_SplittingPlan"
    residuals = []
    inner = plan.inner

    def recorded(v, x0):
        z, w = inner(v, x0)
        residuals.append(float(np.linalg.norm(phi @ z + w - g)))
        return z, w

    plan.inner = recorded
    with pytest.raises(NonconvergenceError) as err:
        solve_inclusion(plan, g, x0)
    assert len(residuals) == 8 and residuals[-1] > min(residuals)
    assert err.value.residual == min(residuals)
    assert err.value.residual > TOL_ITERATIVE * np.linalg.norm(g)
    assert "best residual" in str(err.value)


def test_splitting_step_length_reads_the_hermitian_part(monkeypatch):
    """For a non-Hermitian accretive ``phi``, ``gamma`` comes from the
    Hermitian part of ``W phi``, not from one triangle of it, and the
    splitting converges."""
    import monoport.relations as rels

    calls, _ = _count_splitting(monkeypatch)
    rel = DirectSum([sign_relation(0.5), sign_relation(1.0)])
    space = rel.space
    phi = np.array([[2.0, 1.0], [0.0, 1.0]])
    plan = rels._SplittingPlan(phi, rel)
    eigs = np.linalg.eigvalsh((phi + phi.T) / 2.0)
    assert plan.gamma == pytest.approx(1.0 / np.sqrt(eigs.min() * eigs.max()), rel=1e-14)
    one_triangle = scipy.linalg.eigvalsh(phi, space.weight)  # reads the lower triangle only
    assert abs(plan.gamma - 1.0 / np.sqrt(one_triangle.min() * one_triangle.max())) > 1e-3
    g = np.array([3.0 + 1.0j, -2.0])
    z, w = solve_inclusion(plan, g)
    assert calls == [2]
    assert space.norm(phi @ z + w - g) <= TOL_ITERATIVE * np.linalg.norm(g)
    assert graph_residual(rel, z, w) <= 1e-8


def test_solve_inclusion_requires_square_phi():
    with pytest.raises(ValueError):
        solve_inclusion(plan_inclusion(np.ones((2, 1)), sign_relation()), np.array([1.0]))


# ------------------------------------------------------- certificate record


def test_certificate_dataclass_defaults():
    cert = Certificate(monotone="yes")
    assert cert.maximal == "unknown"
    assert cert.skew == "unknown"
