import pickle

import numpy as np
import pytest

from monoport import cli
from monoport.boundary import robin
from monoport.config import ConfigError, load_config, parse_config
from monoport.phs import bd_basis

BASE = """scenario = transport
[phs]
n = 1
b = 1
P1 = 1
[bc]
kind = v-matrix
V = 0
[grid]
m = 128
dt = 0.015625
T = 1.0
theta = 1
"""

WAVE = """scenario = wave
[phs]
n = 2
b = 1
P1 = 0 1; 1 0
[bc]
kind = v-matrix
V = 0 1; -1 0
[grid]
m = 64
dt = 0.01
T = 0.5
theta = 0.5
"""


def variant(old, new, base=BASE):
    return base.replace(old, new)


# -------------------------------------------------------------- parsing


def test_parse_reads_all_sections():
    cfg = parse_config(BASE)
    assert cfg.scenario == "transport"
    assert cfg.n == 1 and cfg.b == 1.0
    assert cfg.m == 128 and cfg.dt == 0.015625 and cfg.T == 1.0
    assert cfg.theta == 1.0
    assert cfg.bc_kind == "v-matrix"
    assert np.allclose(cfg.bc_fields["V"], 0.0)
    assert cfg.outputs["states"] == "states.csv"
    assert cfg.precision == 12


def test_parse_matrices_and_complex_entries():
    cfg = parse_config(WAVE)
    assert np.allclose(cfg.p1, [[0, 1], [1, 0]])
    assert np.allclose(cfg.bc_fields["V"], [[0, 1], [-1, 0]])
    cplx = variant("V = 0 1; -1 0", "V = 0.5j 0; 0 0.5-0.1j", WAVE)
    cfg = parse_config(cplx)
    assert cfg.bc_fields["V"][0, 0] == 0.5j
    assert cfg.bc_fields["V"][1, 1] == 0.5 - 0.1j


def test_parse_strips_comments():
    commented = BASE.replace("m = 128", "m = 128  # spatial cells")
    commented = "# leading note\n" + commented
    assert parse_config(commented).m == 128


def test_parse_theta_defaults_to_implicit_euler():
    cfg = parse_config(variant("theta = 1\n", ""))
    assert cfg.theta == 1.0


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(BASE, encoding="utf-8")
    assert load_config(path).m == 128


def test_parse_materializes_defaults():
    cfg = parse_config(BASE)
    assert np.array_equal(cfg.p0, np.zeros((1, 1)))
    assert cfg.hamiltonian == "identity"
    assert cfg.precision == 12


def test_parse_keeps_wrong_sign_marker():
    bad = parse_config(variant("kind = v-matrix\nV = 0", "kind = robin\nM = 1\nsign = -1"))
    assert bad.bc_fields.get("sign") == -1
    good = parse_config(variant("kind = v-matrix\nV = 0", "kind = robin\nM = 1\nsign = +1"))
    assert "sign" not in good.bc_fields


@pytest.mark.parametrize("bc_text, offset, expected", [
    ("kind = dirichlet\nvalue = 0.25", "x0", [0.25, 0.25]),
    ("kind = neumann\nvalue = 1 2j", "y0", [-1, -2j]),
    ("kind = robin\nM = 1 0; 0 1\nvalue = -0.5", "y0", [0.5, 0.5]),
])
def test_bc_value_scalar_broadcasts_to_every_port(bc_text, offset, expected):
    """A one-entry ``value`` reaches the constructor as a scalar, which puts
    it on every port: the built relation's offset is the datum (``x0``
    for Dirichlet) or its negative (``y0`` for Neumann and Robin)."""
    cfg = parse_config(variant("kind = v-matrix\nV = 0 1; -1 0", bc_text, WAVE))
    rel = cfg.build_bc(bd_basis(cfg.build_phs())).port_relation
    assert np.array_equal(getattr(rel, offset), np.array(expected, dtype=complex))


# -------------------------------------------------------------- errors


@pytest.mark.parametrize("text, fragment", [
    ("nonsense line\n", "expected 'key = value'"),
    (variant("[grid]", "[grud]"), "unknown section"),
    (variant("\nT = 1.0\n", "\n"), "missing required key 'T'"),
    (variant("V = 0\n", ""), "missing required key 'V'"),
    (variant("P1 = 1", "P1 = bananas"), "cannot read number"),
    (BASE + "[output]\nprecision = 40\n", "between 1 and 17"),
    (BASE + "[output]\nprecision = fine\n", "integer"),
    (BASE + "stray = 3\n", "unknown keys"),
    ("scenario = gaussian\n" + BASE, "line 2: duplicate key 'scenario'"),
    (variant("P1 = 1", "P1 = 1\nextra = 2"), "unknown keys"),
    (variant("V = 0", "V = 0\nM = 1"), "unknown keys"),
    (variant("kind = v-matrix\nV = 0", "kind = teleport\nV = 0"), "kind"),
    (variant("kind = v-matrix\nV = 0", "kind = robin\nM = 1\nsign = 2"),
     "must be +1 or -1"),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5\nport.x = dirichlet 0", WAVE),
     "port index must be an integer"),
    (variant("P1 = 1", "P1 = 1;"), "[phs] P1: empty matrix row"),
    (variant("P1 = 0 1; 1 0", "P1 = 0 1; 1", WAVE), "[phs] P1: ragged matrix rows"),
    (variant("m = 128", "m = 128\nm = 64"), "line 11: duplicate key 'm' in [grid]"),
    (variant("scenario = transport\n", ""), "missing top-level 'scenario = <name>' line"),
    (variant("m = 128", "m = 12.8"), "[grid]: invalid literal for int()"),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5\nport.1 = dirichlet 0\nV = 0", WAVE),
     "[bc]: unexpected key 'V' for multiport"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("text, message", [
    (variant("V = 0", "V = 0 1; 1 0"), "[bc]: V must have shape (1, 1), got (2, 2)"),
    (variant("n = 1", "n = 0"), "[phs]: need at least one field component"),
    (variant("kind = v-matrix\nV = 0 1; -1 0", "kind = dirichlet\nvalue = 1 2 3", WAVE),
     "[bc]: boundary datum must be a scalar or length-2 vector"),
    (variant("kind = v-matrix\nV = 0 1; -1 0", "kind = robin\nM = 1 0; 0 1\nvalue = 1 2 3", WAVE),
     "[bc]: boundary datum must be a scalar or length-2 vector"),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5", WAVE),
     "[bc]: ports [1] not covered by any part"),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5\nport.9 = dirichlet 0", WAVE),
     "[bc]: port index 9 out of range for 2 ports"),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5\nport.00 = dirichlet 0", WAVE),
     "[bc]: port index 0 assigned twice"),
    (variant("m = 128", "m = 129"), "[grid]: cell count must be even so the grid contains 0, got 129"),
    (variant("m = 128", "m = 4"), "[grid]: need at least 8 cells, got 4"),
    (variant("theta = 1", "theta = 0.2"), "[grid]: theta must lie in [1/2, 1]"),
    (variant("dt = 0.015625", "dt = -0.1"), "[grid]: time step must be positive and finite"),
])
def test_values_are_checked_by_the_constructors(text, message):
    """The config parses these; the system, boundary, grid or scenario
    constructor refuses them when a command builds the run, and the error
    names the section."""
    cfg = parse_config(text)
    with pytest.raises(ConfigError) as err:
        cli._build(cfg)
    assert str(err.value) == message


def test_unknown_scenario_fails_at_build():
    cfg = parse_config(variant("scenario = transport", "scenario = vortex"))
    with pytest.raises(ConfigError, match="vortex"):
        cfg.build_u0(np.linspace(-1, 1, 129))


# -------------------------------------------------------------- builders


def test_build_phs_and_bc():
    cfg = parse_config(WAVE)
    system = cfg.build_phs()
    assert system.n == 2
    assert np.allclose(system.p1, [[0, 1], [1, 0]])
    bc = cfg.build_bc(bd_basis(system))
    assert bc.ports == 2
    assert bc.is_maximal_monotone


@pytest.mark.parametrize("text, provenance, maximal, ports", [
    (BASE, "V-matrix", True, 1),
    (WAVE, "V-matrix", True, 2),
    (variant("kind = v-matrix\nV = 0", "kind = dirichlet\nvalue = 0.25"), "Dirichlet", True, 1),
    (variant("kind = v-matrix\nV = 0", "kind = robin\nM = 1"), "Robin", True, 1),
    (variant("kind = v-matrix\nV = 0", "kind = robin\nM = 1\nsign = -1"), "Robin", False, 1),
    # -M has eigenvalues -1 and 0: the condition is built, and its
    # certificate fails
    (variant("kind = v-matrix\nV = 0 1; -1 0", "kind = robin\nM = 1 0; 0 0\nsign = -1", WAVE),
     "Robin", False, 2),
    (variant("kind = v-matrix\nV = 0 1; -1 0",
             "kind = multiport\nport.0 = friction 0.5\nport.1 = dirichlet 0",
             WAVE), "Multiport", True, 2),
    (variant("kind = v-matrix\nV = 0", "kind = custom\nC_e = 1\nC_f = 0"), "Extracted", True, 1),
])
def test_every_bc_kind_builds_its_certified_condition(text, provenance, maximal, ports):
    cfg = parse_config(text)
    bc = cfg.build_bc(bd_basis(cfg.build_phs()))
    assert bc.provenance == provenance
    assert bc.is_maximal_monotone is maximal
    assert bc.ports == ports


def test_build_bc_wrong_sign_variant_fails_certification():
    """``sign = -1`` negates ``M``: the graph is bitwise that of ``robin(-M)``."""
    cfg = parse_config(variant("kind = v-matrix\nV = 0",
                               "kind = robin\nM = 1\nsign = -1"))
    basis = bd_basis(cfg.build_phs())
    bc = cfg.build_bc(basis)
    assert bc.provenance == "Robin"
    assert not bc.is_maximal_monotone
    assert pickle.dumps(bc.port_relation) == pickle.dumps(robin(-np.eye(1), basis).port_relation)


def test_build_u0_presets():
    cfg = parse_config(BASE)
    nodes = np.linspace(-1, 1, 129)
    u0 = cfg.build_u0(nodes)
    assert u0.shape == (129, 1)
    assert np.abs(u0).max() > 0

    zero = parse_config(variant("scenario = transport", "scenario = zero"))
    assert np.abs(zero.build_u0(nodes)).max() == 0.0

    wave = parse_config(WAVE)
    w0 = wave.build_u0(np.linspace(-1, 1, 65))
    assert w0.shape == (65, 2)


def test_precision_bounds_accepted():
    for p in (1, 17):
        cfg = parse_config(BASE + f"[output]\nprecision = {p}\n")
        assert cfg.precision == p
