import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoport.phs import PortHamiltonian
from monoport.relations import LinearGraph, SeparableProx, check_monotone
from monoport.spaces import MAX_MAGNITUDE, InnerProductSpace, LinearMap, _as_matrix, adjoint

from conftest import rand_complex, rand_spd

N_TRIALS = 50


def test_weight_defaults_to_identity():
    space = InnerProductSpace(3)
    assert np.array_equal(space.weight, np.eye(3))
    assert space.inner([1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)


def test_weight_must_be_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        InnerProductSpace(2, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_weight_must_be_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        InnerProductSpace(2, np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        InnerProductSpace(2, np.zeros((2, 2)))


def test_dim_must_be_positive():
    with pytest.raises(ValueError):
        InnerProductSpace(0)


@given(re=st.floats(-5, 5), im=st.floats(-5, 5))
@settings(max_examples=40, deadline=None)
def test_inner_conjugate_linear_in_first_argument(re, im):
    alpha = complex(re, im)
    rng = np.random.default_rng(7)
    space = InnerProductSpace(3, rand_spd(rng, 3))
    x = rand_complex(rng, 3)
    y = rand_complex(rng, 3)
    lhs = space.inner(alpha * x, y)
    rhs = np.conj(alpha) * space.inner(x, y)
    assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(alpha)))
    # and linear in the second argument
    assert space.inner(x, alpha * y) == pytest.approx(alpha * space.inner(x, y),
                                                      abs=1e-10 * (1 + abs(alpha)))


def test_norm_matches_inner(rng):
    space = InnerProductSpace(5, rand_spd(rng, 5))
    for _ in range(N_TRIALS):
        x = rand_complex(rng, 5)
        assert space.norm(x) == pytest.approx(np.sqrt(space.inner(x, x).real), rel=1e-12)


def test_check_vector_flattens_to_complex():
    space = InnerProductSpace(3)
    x = space.check_vector([[1], [2], [3]])
    assert x.shape == (3,)
    assert x.dtype == complex
    assert np.array_equal(x, [1, 2, 3])


def test_weight_is_symmetrised_within_tolerance(rng):
    w = rand_spd(rng, 3)
    nudged = w.copy()
    nudged[0, 1] += 1e-14 * np.linalg.norm(w)
    space = InnerProductSpace(3, nudged)
    assert np.array_equal(space.weight, space.weight.conj().T)
    assert np.allclose(space.weight, w, rtol=0, atol=1e-13 * np.linalg.norm(w))


def test_solve_weight_inverts_weight(rng):
    w = rand_spd(rng, 4)
    space = InnerProductSpace(4, w)
    x = rand_complex(rng, 4)
    assert np.allclose(w @ space.solve_weight(x), x, atol=1e-10)
    block = rand_complex(rng, 4, 3)
    assert np.allclose(w @ space.solve_weight(block), block, atol=1e-10)


def test_vector_length_checked():
    space = InnerProductSpace(3)
    with pytest.raises(ValueError, match="length 3"):
        space.norm([1.0, 2.0])


# ---------------------------------------------------------------- adjoints


def test_adjoint_identity_weights_is_conjugate_transpose(rng):
    src, tgt = InnerProductSpace(3), InnerProductSpace(2)
    m = rand_complex(rng, 2, 3)
    astar = adjoint(LinearMap(src, tgt, m))
    assert np.allclose(astar.matrix, m.conj().T)


def test_adjoint_pairing_identity(rng):
    """<Tx|y>_target = <x|T*y>_source for random weighted spaces."""
    for _ in range(N_TRIALS):
        src = InnerProductSpace(3, rand_spd(rng, 3))
        tgt = InnerProductSpace(4, rand_spd(rng, 4))
        t = LinearMap(src, tgt, rand_complex(rng, 4, 3))
        ts = adjoint(t)
        x, y = rand_complex(rng, 3), rand_complex(rng, 4)
        assert tgt.inner(t.matrix @ x, y) == pytest.approx(src.inner(x, ts.matrix @ y), rel=1e-10, abs=1e-10)


def test_adjoint_involution(rng):
    src = InnerProductSpace(2, rand_spd(rng, 2))
    tgt = InnerProductSpace(3, rand_spd(rng, 3))
    t = LinearMap(src, tgt, rand_complex(rng, 3, 2))
    back = adjoint(adjoint(t))
    assert np.allclose(back.matrix, t.matrix, atol=1e-12)


def test_linear_map_shape_checked():
    with pytest.raises(ValueError, match="shape"):
        LinearMap(InnerProductSpace(2), InnerProductSpace(3), np.eye(2))



def test_as_matrix_reads_a_matrix_input_one_way():
    """Every constructor reads its matrix input here: a complex 2D array of
    the expected shape (``None`` takes any size) with finite entries of
    modulus below ``2^500``."""
    m = _as_matrix(2, (1, 1), "M")
    assert m.shape == (1, 1) and m.dtype == np.complex128
    assert _as_matrix([[1, 2, 3]], (1, None), "M").shape == (1, 3)
    with pytest.raises(ValueError, match=r"^M must have shape \(2, 2\), got \(1, 1\)$"):
        _as_matrix(1.0, (2, 2), "M")
    with pytest.raises(ValueError, match=r"^M must have shape \(any, 3\), got \(2, 2\)$"):
        _as_matrix(np.eye(2), (None, 3), "M")
    with pytest.raises(ValueError, match=r"^M must have shape \(2, 2\), got \(1, 2, 2\)$"):
        _as_matrix(np.ones((1, 2, 2)), (2, 2), "M")
    for bad in (np.nan, np.inf, complex(0, -np.inf), complex(MAX_MAGNITUDE, np.nan)):
        with pytest.raises(ValueError, match="^M must be finite$"):
            _as_matrix([[1.0, bad]], (1, 2), "M")
    # the modulus is bounded, not each part
    part = np.nextafter(MAX_MAGNITUDE, 0.0)
    _as_matrix([[part, 1j * part]], (1, 2), "M")
    with pytest.raises(ValueError, match=r"^M must have entries of modulus below 2\^500$"):
        _as_matrix([[complex(part, part)]], (1, 1), "M")
    with pytest.raises(ValueError, match="^weight must be finite$"):
        InnerProductSpace(2, [[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(ValueError, match="^map matrix must be finite$"):
        LinearMap(InnerProductSpace(1), InnerProductSpace(1), [[np.nan]])


C2 = InnerProductSpace(2)
RANGE = "must have entries of modulus below 2\\^500$"


@pytest.mark.parametrize("read, bound, message", [
    (lambda v: _as_matrix([[1.0, v]], (1, 2), "M"), MAX_MAGNITUDE, "^M " + RANGE),
    (lambda v: InnerProductSpace(1, [[v]]), MAX_MAGNITUDE, "^weight " + RANGE),
    (lambda v: LinearGraph(C2, np.zeros((2, 2)), np.eye(2), x0=[0.0, v]), MAX_MAGNITUDE, "^graph offsets " + RANGE),
    (lambda v: LinearGraph(C2, np.eye(2), np.zeros((2, 2)), y0=[-v, 0.0]), MAX_MAGNITUDE, "^graph offsets " + RANGE),
    (lambda v: PortHamiltonian(n=1, b=v, p1=[[1.0]]), MAX_MAGNITUDE / 2,
     r"^interval half-width must be below 2\^499"),
], ids=["matrix", "weight", "offset-x0", "offset-y0", "half-width"])
def test_every_reader_refuses_a_modulus_of_2_to_the_500(read, bound, message):
    """One overflow rule where numbers come in: a matrix entry and a graph
    offset of modulus ``2^500`` are refused, and the largest double below
    it is admitted; the half-width ``b`` stops at ``2^499``, so that the
    Gram weight derived from it (entries up to ``2b``) is admitted too."""
    read(np.nextafter(bound, 0.0))
    with pytest.raises(ValueError, match=message):
        read(bound)


@pytest.mark.parametrize("build", [
    lambda: InnerProductSpace(2, [[1e300, 1e300], [-1e300, 1e300]]),
    lambda: SeparableProx(InnerProductSpace(2, [[2e300, 1e300], [1e300, 2e300]]), [0.5, 0.5]),
    lambda: check_monotone(LinearGraph.from_matrix(InnerProductSpace(1, [[1e300]]), [[-1.0]])),
], ids=["weight-not-hermitian", "prox-weight-not-diagonal", "negative-map-monotone"])
def test_a_weight_whose_checks_overflowed_is_refused(build):
    """Each passed a check whose tolerance ``max(1, |W|)`` overflowed to
    ``inf``: a weight that is not Hermitian was accepted, ``SeparableProx``
    took a weight that is not diagonal, and ``y = -x`` was certified
    monotone (witness eigenvalue -5.0e299)."""
    with pytest.raises(ValueError, match="^weight " + RANGE):
        build()
