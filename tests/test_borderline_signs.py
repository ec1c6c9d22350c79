"""One verdict per borderline sign, on every route.

The certificate is the one judge of a linear condition's sign: the
smallest eigenvalue of its symmetrized graph pairing may fall below zero
by ``relations.MONOTONE_TOL`` (16 eps) times ``max(1, |pairing|)``, no
further.  Each row below is a shipped config with one edit and the same
numbers given to the API constructor.  The API certificate, the config's
condition, ``check-bc``'s exit code and its "monotone" line agree; on a
``V`` row the "contraction" line agrees with them, and no route warns.
A "no" carries a witness pair that lies on the relation and pairs
negatively.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest

from monoport import cli
from monoport.boundary import check_skew_selfadjoint, from_V, multiport, robin
from monoport.config import parse_config
from monoport.phs import bd_basis
from monoport.relations import graph_residual

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

V_BC = "kind = v-matrix\nV = 0"
WAVE_BC = "kind = v-matrix\nV = 0 0.5; -0.5 0"
PORT_1 = "port.1 = dirichlet 0"

#: ``(id, config, text, replacement, API constructor, monotone, skew)``;
#: ``skew`` is checked where it is not ``None``.
ROWS = [
    ("V-1e-10", "transport.cfg", V_BC, "kind = v-matrix\nV = 1.0000000001",
     lambda b: from_V([[1.0000000001]], b), False, None),
    ("V-1e-13", "transport.cfg", V_BC, "kind = v-matrix\nV = 1.0000000000001",
     lambda b: from_V([[1.0000000000001]], b), False, None),
    ("V-1e-15-roundoff", "transport.cfg", V_BC, "kind = v-matrix\nV = 1.000000000000001",
     lambda b: from_V([[1.000000000000001]], b), True, None),
    ("V-unitary", "wave_damped.cfg", WAVE_BC, "kind = v-matrix\nV = 0 1; -1 0",
     lambda b: from_V([[0.0, 1.0], [-1.0, 0.0]], b), True, True),
    ("V-decimal-rotation", "wave_damped.cfg", WAVE_BC, "kind = v-matrix\nV = 0.6 0.8; -0.8 0.6",
     lambda b: from_V([[0.6, 0.8], [-0.8, 0.6]], b), True, None),
    ("M-minus-1e-11", "wave_damped.cfg", WAVE_BC, "kind = robin\nM = -1e-11 0; 0 -1e-11",
     lambda b: robin(-1e-11 * np.eye(2), b), False, None),
    ("M-minus-1.2e-10", "wave_damped.cfg", WAVE_BC, "kind = robin\nM = -1.2e-10 0; 0 -1.2e-10",
     lambda b: robin(-1.2e-10 * np.eye(2), b), False, None),
    ("M-singular", "wave_damped.cfg", WAVE_BC, "kind = robin\nM = 1 0; 0 0",
     lambda b: robin(np.diag([1.0, 0.0]), b), True, None),
    ("port-robin-minus-0.5", "friction.cfg", PORT_1, "port.1 = robin -0.5",
     lambda b: multiport([(0, ("friction", 0.5)), (1, ("robin", -0.5))], b), False, None),
    ("port-robin-minus-1e-13", "friction.cfg", PORT_1, "port.1 = robin -1e-13",
     lambda b: multiport([(0, ("friction", 0.5)), (1, ("robin", -1e-13))], b), False, None),
]


def _edited(config, text, replacement):
    original = (CONFIG_DIR / config).read_text(encoding="utf-8")
    assert text in original
    return original.replace(text, replacement, 1)


@pytest.mark.parametrize("config, text, replacement, build, monotone, skew",
                         [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_api_and_config_give_one_verdict(config, text, replacement, build, monotone, skew):
    cfg = parse_config(_edited(config, text, replacement))
    basis = bd_basis(cfg.build_phs())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        api, built = build(basis), cfg.build_bc(basis)
    assert caught == []
    for bc in (api, built):
        cert = bc.certificates["monotone"]
        assert cert.monotone == ("yes" if monotone else "no")
        assert bc.is_maximal_monotone is monotone
        assert cert.method == built.certificates["monotone"].method
    if skew is not None:
        assert check_skew_selfadjoint(api).skew == ("yes" if skew else "no")
    if not monotone:
        cert = api.certificates["monotone"]
        (xa, ya), (xb, yb) = cert.witness["pair_a"], cert.witness["pair_b"]
        assert max(graph_residual(api.port_relation, xa, ya),
                   graph_residual(api.port_relation, xb, yb)) < 1e-12
        pairing = float(np.real(np.vdot(xa - xb, ya - yb)))
        assert pairing < 0 and pairing == pytest.approx(cert.witness["value"], rel=1e-6)


def test_a_port_witness_is_lifted_through_the_direct_sum():
    """A failing Robin port beside a friction port: the sum is certified
    through its summands, and the witness holds a point of the friction
    graph (the origin) in the other coordinate."""
    cfg = parse_config(_edited("friction.cfg", PORT_1, "port.1 = robin -0.5"))
    cert = cfg.build_bc(bd_basis(cfg.build_phs())).certificates["monotone"]
    assert cert.method.startswith("componentwise (summand 1): ")
    (xa, ya), (xb, yb) = cert.witness["pair_a"], cert.witness["pair_b"]
    assert xa[0] == xb[0] == ya[0] == yb[0] == 0
    assert cert.witness["value"] < 0


@pytest.mark.parametrize("config, text, replacement, monotone, skew",
                         [row[1:4] + row[5:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_check_bc_gives_the_same_verdict(tmp_path, capsys, config, text, replacement, monotone, skew):
    path = tmp_path / config
    path.write_text(_edited(config, text, replacement), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["check-bc", "--config", str(path), "--out", str(tmp_path / "out")])
    assert caught == []
    out, err = capsys.readouterr()
    assert err == ""
    assert code == (0 if monotone else 1)
    assert f"\nmonotone: {'yes' if monotone else 'no'} (" in out
    if replacement.startswith("kind = v-matrix"):
        assert f"(contraction: {'yes' if monotone else 'NO'})\n" in out
    if skew is not None:
        assert f"\nskew-selfadjoint: {'yes' if skew else 'no'} (" in out
    assert out.endswith("verdict: maximal monotone\n" if monotone else "verdict: NOT maximal monotone\n")
