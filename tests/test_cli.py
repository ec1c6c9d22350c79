import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from monoport import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

FRICTION_SMALL = """scenario = gaussian
[phs]
n = 2
b = 1
P1 = 0 1; 1 0
[bc]
kind = multiport
port.0 = friction 0.5
port.1 = dirichlet 0
[grid]
m = 32
dt = 0.02
T = 0.1
theta = 1
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    text = Path(path).read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


# ------------------------------------------------------------- check-bc


def test_check_bc_certified_condition(tmp_path, capsys):
    code = cli.main(["check-bc", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: maximal monotone" in out
    assert "monotone: yes" in out
    assert "maximal: yes" in out
    assert "\nskew-selfadjoint: " in out
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert report == out


def test_check_bc_wrong_sign_fails_with_witness(tmp_path, capsys):
    code = cli.main(["check-bc", "--config", str(CONFIG_DIR / "robin_wrong_sign.cfg"),
                     "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: NOT maximal monotone" in out
    assert "monotonicity witness" in out
    assert "Re<dx, dy> = -0.49508" in out
    assert "(negative pairing)" in out


@pytest.mark.parametrize("cfg", [
    CONFIG_DIR / "friction.cfg",
    CONFIG_DIR.parent / "perfbench" / "configs" / "friction_dr.cfg",
], ids=["friction", "friction_dr"])
def test_check_bc_friction_config_certifies_exactly(tmp_path, capsys, cfg):
    code = cli.main(["check-bc", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "maximal: yes (componentwise over direct summands)" in out


def test_check_bc_names_graph_dimensions_when_the_adjoint_differs(tmp_path, capsys):
    """One constraint on the four trace unknowns leaves a 3-dimensional
    graph whose adjoint is 1-dimensional: no principal angle exists, and
    the report names both dimensions."""
    text = (FRICTION_SMALL.replace("scenario = gaussian", "scenario = wave")
            .replace("kind = multiport\nport.0 = friction 0.5\nport.1 = dirichlet 0",
                     "kind = custom\nC_e = 1 0\nC_f = 0 0"))
    code = cli.main(["check-bc", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "skew-selfadjoint: no (graph dimension 3, adjoint graph dimension 1)" in out
    assert "principal angle" not in out


def test_check_bc_missing_file_is_usage_error(tmp_path, capsys):
    code = cli.main(["check-bc", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def _one_error_line(err: str, fragment: str) -> None:
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err, err


@pytest.mark.parametrize("command", [["check-bc"], ["simulate"], ["convergence", "--study", "pairing"]],
                         ids=["check-bc", "simulate", "convergence"])
def test_config_that_is_a_directory_is_usage_error(tmp_path, capsys, command):
    """It ended in an ``IsADirectoryError`` traceback with exit 1."""
    code = cli.main(command + ["--config", str(tmp_path), "--out", str(tmp_path / "out")])
    assert code == 2
    _one_error_line(capsys.readouterr().err, "Is a directory")


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    """A byte 0xff exited 1, as a failed check does, and then was reported
    without the file's name."""
    cfg = tmp_path / "case.cfg"
    cfg.write_bytes((CONFIG_DIR / "transport.cfg").read_bytes() + b"# \xff\n")
    code = cli.main(["check-bc", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    _one_error_line(err, "can't decode byte 0xff")
    assert repr(str(cfg)) in err


@pytest.mark.parametrize("command", [["check-bc"], ["simulate"], ["convergence", "--study", "state"]],
                         ids=["check-bc", "simulate", "convergence"])
def test_out_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch, command):
    """It ended in a ``FileExistsError`` traceback with exit 1, and
    ``simulate`` and ``convergence`` got there only after the whole run;
    they now refuse it before the run."""
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")

    def no_run(*args, **kwargs):
        raise AssertionError("simulate ran before the output directory was made")

    monkeypatch.setattr(cli.sol, "simulate", no_run)
    code = cli.main(command + ["--config", str(CONFIG_DIR / "transport.cfg"), "--out", str(out)])
    assert code == 2
    _one_error_line(capsys.readouterr().err, "File exists")


@pytest.mark.parametrize("text, fragment", [
    ("scenario = zero\nnot a config\n", "expected 'key = value'"),
    # a second scenario line is refused, not a silent override of the first
    ("scenario = gaussian\n" + (CONFIG_DIR / "transport.cfg").read_text(encoding="utf-8"),
     "duplicate key 'scenario'"),
], ids=["not-key-value", "scenario-twice"])
def test_check_bc_parse_error_is_usage_error(tmp_path, capsys, text, fragment):
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    code = cli.main(["check-bc", "--config", cfg, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and fragment in err
    assert not out.exists()


MULTIPORT_BC = "kind = multiport\nport.0 = friction 0.5\nport.1 = dirichlet 0"
#: SeparableProx is the one check of a friction coefficient.
FRICTION_REFUSED = "[bc]: port 0: friction coefficient must be real, nonnegative and finite, got"


@pytest.mark.parametrize("old, new, prefix", [
    ("port.0 = friction 0.5", "port.0 = friction -0.5", FRICTION_REFUSED + " -0.5"),
    ("port.0 = friction 0.5", "port.0 = friction nan", FRICTION_REFUSED + " nan"),
    ("P1 = 0 1; 1 0", "P1 = 0 0; 0 1", "[phs]"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 2 0", "[phs]"),
    # each rule below was also checked by the config parser until the
    # constructor became its only owner
    ("n = 2", "n = 0", "[phs]: need at least one field component"),
    ("b = 1", "b = 0", "[phs]: interval half-width"),
    ("P1 = 0 1; 1 0", "P1 = 1", "[phs]: transport matrix must have shape (2, 2)"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0", "[phs]: zero-order term must have shape (2, 2)"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = 1", "[phs]: energy density must have shape (2, 2)"),
    (MULTIPORT_BC, "kind = v-matrix\nV = 0", "[bc]: V must have shape (2, 2), got (1, 1)"),
    (MULTIPORT_BC, "kind = robin\nM = 1", "[bc]: Robin matrix must have shape (2, 2), got (1, 1)"),
    (MULTIPORT_BC, "kind = custom\nC_e = 1\nC_f = 1",
     "[bc]: constraint block C_e must have shape (any, 2), got (1, 1)"),
    (MULTIPORT_BC, "kind = dirichlet\nvalue = 1 2 3", "[bc]: boundary datum must be"),
    ("port.0 = friction 0.5", "port.0 = teleport 0.5", "[bc]: port 0: unknown port kind"),
    ("port.0 = friction 0.5", "port.0 = robin", "[bc]: port 0: robin takes 1 or 2 value(s), got 0"),
    ("port.0 = friction 0.5", "port.0 = friction 0.5+1j", FRICTION_REFUSED + " (0.5+1j)"),
    ("port.0 = friction 0.5", "port.0 = friction 0.5\nport.9 = friction 0.5",
     "[bc]: port index 9 out of range"),
    ("port.0 = friction 0.5\n", "", "[bc]: ports [0] not covered"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = sine-well",
     "[phs]: energy density at x=0 must have shape (2, 2), got (1, 1)"),
    # the [grid] rules belong to discretize and Scenario, and the initial
    # data to its preset, so check-bc builds the run as simulate does
    ("m = 32", "m = 7", "[grid]: cell count must be even so the grid contains 0, got 7"),
    ("m = 32", "m = 6", "[grid]: need at least 8 cells, got 6"),
    ("dt = 0.02", "dt = -0.1", "[grid]: time step must be positive and finite"),
    ("dt = 0.02", "dt = inf", "[grid]: time step must be positive and finite"),
    ("T = 0.1", "T = inf", "[grid]: final time must be positive and finite"),
    ("theta = 1", "theta = 0.2", "[grid]: theta must lie in [1/2, 1]"),
    ("scenario = gaussian", "scenario = vortex", "unknown scenario 'vortex'"),
    (FRICTION_SMALL.split("[grid]")[0], "scenario = wave\n[phs]\nn = 1\nb = 1\nP1 = 1\n"
     "[bc]\nkind = v-matrix\nV = 0\n", "scenario 'wave' needs at least two components"),
    # a nan or inf was certified and run: every matrix is read by
    # spaces._as_matrix, a datum by LinearGraph
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0 nan; nan 0", "[phs]: zero-order term must be finite"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = 1 0; 0 inf", "[phs]: energy density must be finite"),
    (MULTIPORT_BC, "kind = dirichlet\nvalue = nan", "[bc]: graph offsets must be finite"),
    ("port.1 = dirichlet 0", "port.1 = neumann nan", "[bc]: port 1: graph offsets must be finite"),
    ("port.0 = friction 0.5", "port.0 = friction inf", FRICTION_REFUSED + " inf"),
    ("P1 = 0 1; 1 0", "P1 = 0 nan; nan 0", "[phs]: transport matrix must be finite"),
    (MULTIPORT_BC, "kind = v-matrix\nV = 0 inf; 0 0", "[bc]: V must be finite"),
    (MULTIPORT_BC, "kind = robin\nM = 1 0; 0 nan", "[bc]: Robin matrix must be finite"),
    (MULTIPORT_BC, "kind = custom\nC_e = 1 0\nC_f = 0 inf", "[bc]: constraint block C_f must be finite"),
    ("port.1 = dirichlet 0", "port.1 = robin 1 inf", "[bc]: port 1: graph offsets must be finite"),
    # both were certified: the structure check's norms overflowed to inf,
    # and the run's boundary response overflowed at simulate; every reader
    # now refuses an entry of modulus 2^500 or more
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0 1e300; 1e300 0",
     "[phs]: zero-order term must have entries of modulus below 2^500"),
    ("b = 1", "b = 1e-300", "[phs]: interval half-width must be at least 2^-511"),
    # each was certified, or refused only at run time or after a numpy
    # warning: robin M of -1e300 and V of 1e200 passed their sign checks,
    # a skew P0 of 1e300 overflowed the run, a datum of 1e300 overflowed
    # the energy ledger, and b = 1e300 overflowed the Gram weight's check
    (MULTIPORT_BC, "kind = robin\nM = -1e300 0; 0 1", "[bc]: Robin matrix must have entries of modulus below 2^500"),
    (MULTIPORT_BC, "kind = v-matrix\nV = 1e200 0; 0 0.5", "[bc]: V must have entries of modulus below 2^500"),
    ("P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nP0 = 0 1e300; -1e300 0",
     "[phs]: zero-order term must have entries of modulus below 2^500"),
    (MULTIPORT_BC, "kind = neumann\nvalue = 1e300", "[bc]: graph offsets must have entries of modulus below 2^500"),
    ("b = 1", "b = 1e300", "[phs]: interval half-width must be below 2^499"),
], ids=["friction-negative", "friction-nan",
        "zero-speed", "not-hermitian", "n-zero", "b-zero", "P1-shape", "P0-shape", "H-shape",
        "V-shape", "M-shape", "C-shape", "value-length", "port-kind", "port-arity",
        "port-complex", "port-range", "port-coverage", "profile-shape", "m-odd", "m-small",
        "dt-negative", "dt-inf", "T-inf", "theta-low", "scenario-unknown", "wave-one-field",
        "P0-nan", "H-inf", "value-nan", "port-value-nan", "port-friction-inf",
        "P1-nan", "V-inf", "M-nan", "C-inf", "port-robin-value-inf", "P0-overflow", "b-tiny",
        "M-huge", "V-huge", "P0-skew-huge", "value-huge", "b-huge"])
@pytest.mark.parametrize("command", [
    ["check-bc"], ["simulate"], ["convergence", "--study", "state"],
    ["convergence", "--study", "pairing"], ["convergence", "--study", "derivative"],
], ids=["check-bc", "simulate", "state", "pairing", "derivative"])
def test_value_a_constructor_refuses_is_a_config_error(tmp_path, capsys, old, new, prefix, command):
    """A parsed value that a constructor on the build path refuses (the
    system, the boundary condition, the grid, the initial data or the
    scenario) is an invalid config on every subcommand that reads one:
    exit 2, the section (and for a multiport part, the port) named,
    nothing written."""
    assert old in FRICTION_SMALL
    cfg = write_cfg(tmp_path, FRICTION_SMALL.replace(old, new))
    out = tmp_path / "out"
    assert cli.main(command + ["--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("port.0 = friction 0.5", "port.0 = robin -1"),
    (MULTIPORT_BC, "kind = robin\nM = -1 0; 0 1"),
], ids=["robin-negative", "robin-indefinite"])
@pytest.mark.parametrize("command, code", [
    (["check-bc"], 1), (["simulate"], 1), (["convergence", "--study", "state"], 1),
    (["convergence", "--study", "pairing"], 0), (["convergence", "--study", "derivative"], 0),
], ids=["check-bc", "simulate", "state", "pairing", "derivative"])
def test_a_sign_only_the_certificate_refuses_fails_the_run(tmp_path, capsys, old, new, command, code):
    """A Robin coefficient or matrix of the wrong sign is no config error:
    the condition is built, its certificate fails with a witness, and
    every subcommand that runs the condition exits 1.  The pairing and
    derivative studies measure the discretisation and run no condition."""
    cfg = write_cfg(tmp_path, FRICTION_SMALL.replace(old, new))
    assert cli.main(command + ["--config", cfg, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if command == ["check-bc"]:
        assert "monotone: no (" in captured.out and "Re<dx, dy> = -" in captured.out
        assert captured.out.endswith("verdict: NOT maximal monotone\n") and captured.err == ""
    elif code:
        assert captured.err == ("error: boundary condition lacks a maximal-monotonicity certificate "
                                "(monotone=no, maximal=no)\n")
    else:
        assert captured.err == ""


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_check_bc_creates_nested_output_dir(tmp_path):
    out = tmp_path / "deep" / "er"
    cli.main(["check-bc", "--config", str(CONFIG_DIR / "transport.cfg"),
              "--out", str(out)])
    assert (out / "report.txt").exists()


# ------------------------------------------------------------- simulate


@pytest.fixture(scope="module")
def transport_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("transport_out")
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(out)])
    return code, out


def test_simulate_transport_exit_and_report(transport_run, capsys):
    code, out = transport_run
    assert code == 0
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "transport oracle comparison" in report
    assert "within tolerance: yes" in report
    assert "energy: E(0) =" in report


def test_simulate_states_csv_contract(transport_run):
    _, out = transport_run
    header, rows = read_rows(out / "states.csv")
    assert header == "t,x,comp,re,im"
    # one row per time x node x component: (64 + 1) steps x 129 nodes x 1
    assert len(rows) == 65 * 129
    assert rows[0][0] == "0" and rows[0][1] == "-1"
    for row in rows[:500]:
        assert len(row) == 5
        for cell in (row[0], row[1], row[3], row[4]):
            assert re.fullmatch(r"-?\d+(\.\d+)?", cell), cell  # plain decimal
    comps = {row[2] for row in rows}
    assert comps == {"0"}


def test_simulate_energy_csv_contract(transport_run):
    _, out = transport_run
    header, rows = read_rows(out / "energy.csv")
    assert header == "t,E,boundary_dissipation"
    assert len(rows) == 65
    energies = np.array([float(r[1]) for r in rows])
    assert energies[0] > 0
    assert np.diff(energies).max() <= 1e-12 * energies[0]


def test_simulate_oracle_tolerance_override(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(tmp_path), "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "within tolerance: NO" in out


def test_simulate_tolerance_override_is_labelled(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(tmp_path), "--tol", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "  tolerance (--tol) = 1\n" in out
    assert "C (h_x + dt)" not in out


@pytest.mark.parametrize("bc, oracle", [
    ("kind = v-matrix\nV = 0.5", False),
    ("kind = dirichlet\nvalue = 0", False),
    ("kind = custom\nC_e = 1\nC_f = 1", True),
], ids=["V-half", "dirichlet", "custom-absorbing"])
def test_transport_oracle_needs_the_absorbing_relation(tmp_path, capsys, bc, oracle):
    """The characteristics solution solves the transport scenario only
    under the absorbing relation ``w = e`` (``V = 0``); any other relation
    reflects at the boundary, and comparing against it failed correct runs
    (``V = 0.5``: error 0.165 against the tolerance 0.156).  ``C_e = C_f =
    1`` is that relation in constraint form, so it keeps the oracle."""
    text = (CONFIG_DIR / "transport.cfg").read_text(encoding="utf-8")
    assert "kind = v-matrix\nV = 0\n" in text
    cfg = write_cfg(tmp_path, text.replace("kind = v-matrix\nV = 0\n", bc + "\n"))
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert ("oracle" in report) is oracle
    assert ("within tolerance: yes" in report) is oracle
    assert cli.main(["convergence", "--config", cfg, "--out", str(tmp_path), "--levels", "2"]) == 0
    capsys.readouterr()
    _, rows = read_rows(tmp_path / "convergence.csv")
    assert len(rows) == (2 if oracle else 1)  # the finest-grid reference has no row of its own


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
def test_simulate_tolerance_must_be_positive_and_finite(tmp_path, capsys, tol):
    """inf and nan switched the oracle check off ("within tolerance: yes"
    for an error of 0.114); 0 and -1 failed every run; text that is not a
    number is refused in the same words."""
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--config", str(CONFIG_DIR / "transport.cfg"),
                  "--out", str(tmp_path), "--tol", tol])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--tol: needs a positive finite number, got '{tol}'" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_simulate_refuses_uncertified_condition(tmp_path, capsys):
    code = cli.main(["simulate", "--config", str(CONFIG_DIR / "robin_wrong_sign.cfg"),
                     "--out", str(tmp_path)])
    assert code == 1
    assert "maximal-monotonicity certificate" in capsys.readouterr().err
    assert not (tmp_path / "states.csv").exists()


def test_simulate_refuses_a_trajectory_that_cannot_be_allocated(tmp_path, capsys):
    """``transport.cfg`` at ``dt = 1e-15`` is certified, but its 10^15 steps
    of 129 float64 nodes need about 1e18 bytes of trajectory (917 PiB of
    states), more than any machine allocates: ``simulate`` refuses the run
    before any step with one error line naming the step count and the
    bytes, exit 1, and writes no output file."""
    text = (CONFIG_DIR / "transport.cfg").read_text(encoding="utf-8").replace("dt = 0.015625", "dt = 1e-15")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["check-bc", "--config", cfg, "--out", str(tmp_path / "bc")]) == 0
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: a run of 1000000000000000 steps needs 1.05e+18 bytes "
                                       "for its trajectory, more than can be allocated\n")
    assert not list(out.glob("*.csv"))


def test_simulate_refuses_a_boundary_response_without_positivity(tmp_path, capsys):
    """At a density of 1e100 the boundary response of ``wave_damped.cfg``
    is zero to roundoff, and the solver refuses to factor it: ``simulate``
    exits 1 with one error line, no traceback, and writes no output file."""
    text = (CONFIG_DIR / "wave_damped.cfg").read_text(encoding="utf-8").replace(
        "P1 = 0 1; 1 0", "P1 = 0 1; 1 0\nH = 1e100 0; 0 1e100")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: boundary response lost positivity (smallest Hermitian eigenvalue ")
    assert err.endswith("); the elliptic solve is unreliable at this resolution\n")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(out.glob("*.csv"))


#: Neumann data of 3e150, below the readers' bound of 2^500, against a
#: density of 1e10 on a coupled ``P1``: certified, and its run overflows
#: double precision in the first step (energy 7.8e306, dissipation -inf);
#: at 1e149 every step's ledger is finite but the sum of the dissipations
#: overflows; 1e140 runs.
OVERFLOWING_RUN = """scenario = gaussian
[phs]
n = 2
b = 1.5
P1 = 1 0.4; 0.4 1
H = 1e10 0; 0 1e10
[bc]
kind = neumann
value = 3e150
[grid]
m = 16
dt = 0.01
T = 0.1
"""


@pytest.mark.parametrize("command, value, error", [
    (["simulate"], "3e150", "error: step 0 (t = 0): the energy ledger is not finite (E = 7.77535e+306 at t = 0.01, "
                            "boundary dissipation -inf); the run overflows double precision\n"),
    (["convergence", "--study", "state"], "3e150",
     "error: step 0 (t = 0): the energy ledger is not finite (E = 7.77535e+306 at t = 0.01, "
     "boundary dissipation -inf); the run overflows double precision\n"),
    (["simulate"], "1e149", "error: the energy ledger is not finite (largest single-step energy increase "
                            "6.27776e+306, total boundary dissipation -inf); the run overflows double precision\n"),
], ids=["simulate", "convergence", "simulate-total"])
def test_run_that_overflows_exits_1_without_numpy_warnings(tmp_path, capsys, command, value, error):
    """A certified run whose energy ledger leaves the double range is
    refused: exit 1, one error line naming the first such step, or the
    report's total that overflows although every step's entry is finite,
    no numpy warning, no output file (a warning would be an error here, as
    in every test); the same data at 1e140 runs."""
    cfg = write_cfg(tmp_path, OVERFLOWING_RUN.replace("3e150", value))
    assert cli.main(["check-bc", "--config", cfg, "--out", str(tmp_path / "bc")]) == 0
    out = tmp_path / "out"
    assert cli.main(command + ["--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == error
    assert not list(out.glob("*.csv"))
    finite = write_cfg(tmp_path, OVERFLOWING_RUN.replace("3e150", "1e140"), "finite.cfg")
    assert cli.main(["simulate", "--config", finite, "--out", str(tmp_path / "finite")]) == 0


def test_simulate_friction_scenario(tmp_path):
    cfg = write_cfg(tmp_path, FRICTION_SMALL)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0
    _, rows = read_rows(tmp_path / "energy.csv")
    energies = np.array([float(r[1]) for r in rows])
    assert np.diff(energies).max() <= 1e-12 * energies[0]
    # no oracle block for a non-transport scenario
    report = (tmp_path / "report.txt").read_text(encoding="utf-8")
    assert "oracle" not in report


def test_friction_config_runs_at_midpoint(tmp_path, capsys):
    text = (CONFIG_DIR / "friction.cfg").read_text(encoding="utf-8")
    assert "theta = 1.0" in text
    cfg = write_cfg(tmp_path, text.replace("theta = 1.0", "theta = 0.5"))
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    _, rows = read_rows(tmp_path / "energy.csv")
    energies = np.array([float(r[1]) for r in rows])
    assert len(energies) == 51
    assert np.diff(energies).max() <= 1e-12 * energies[0]


def test_linear_multiport_config_runs_at_midpoint(tmp_path, capsys):
    text = (FRICTION_SMALL.replace("port.0 = friction 0.5", "port.0 = robin 1.0")
            .replace("theta = 1", "theta = 0.5"))
    cfg = write_cfg(tmp_path, text)
    code = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "states.csv").exists()
    capsys.readouterr()
    assert cli.main(["check-bc", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "maximal: yes (exact:" in out
    assert "skew-selfadjoint: no" in out


@pytest.mark.parametrize("command", ["check-bc", "simulate"])
def test_multiport_listing_order_does_not_change_the_output(tmp_path, capsys, command):
    """``port.1`` listed before ``port.0`` is the same condition: the
    ports are summed in port order, so every file and the report are
    byte-identical to the in-order config's."""
    in_order = "port.0 = friction 0.5\nport.1 = dirichlet 0"
    reversed_ = "port.1 = dirichlet 0\nport.0 = friction 0.5"
    outputs = []
    for name, ports in (("in_order", in_order), ("reversed", reversed_)):
        cfg = write_cfg(tmp_path, FRICTION_SMALL.replace(in_order, ports), f"{name}.cfg")
        out = tmp_path / name
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0][1] and outputs[0] == outputs[1]


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``monoport simulate`` writes the same bytes with one BLAS thread and
    with two.  Each run is a fresh process whose environment this test
    sets, so a thread count pinned for the whole suite does not hide it."""
    cfg = CONFIG_DIR.parent / "perfbench" / "configs" / "wave_damped_short.cfg"
    src = str(Path(cli.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "monoport.cli", "simulate", "--config", str(cfg),
                               "--out", str(out)], env=env, stdout=subprocess.PIPE, check=True)
        files = sorted(p for p in out.rglob("*") if p.is_file())
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
                       | {"stdout": hashlib.sha256(proc.stdout).hexdigest()})
    assert set(digests[0]) == {"states.csv", "energy.csv", "report.txt", "stdout"}
    assert digests[0] == digests[1]


def test_simulate_precision_key_controls_digits(tmp_path):
    text = (CONFIG_DIR / "transport.cfg").read_text(encoding="utf-8")
    cfg = write_cfg(tmp_path, text + "\n[output]\nprecision = 3\n")
    cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    _, rows = read_rows(tmp_path / "states.csv")
    for row in rows[:200]:
        digits = row[3].lstrip("-0.").replace(".", "")
        assert len(digits) <= 3


# ------------------------------------------------------------- number formatting


def seed_fmt(value, precision=12):
    """Reference formatter: numpy's shortest digits cut to ``precision``."""
    v = float(value)
    if v == 0.0:
        v = 0.0
    return np.format_float_positional(v, precision=precision, unique=True,
                                      fractional=False, trim="-")


def seed_states_csv(traj, nodes, precision):
    """Reference ``states.csv``: one value at a time, as a single string."""
    rows = ["t,x,comp,re,im"]
    n = traj.states.shape[2]
    for t, state in zip(traj.times, traj.states):
        ts = seed_fmt(t, precision)
        for j, x in enumerate(nodes):
            xs = seed_fmt(x, precision)
            for c in range(n):
                z = state[j, c]
                rows.append(f"{ts},{xs},{c},{seed_fmt(z.real, precision)},"
                            f"{seed_fmt(z.imag, precision)}")
    return "\n".join(rows) + "\n"


def seed_energy_csv(traj, precision):
    rows = ["t,E,boundary_dissipation"]
    for t, e, d in zip(traj.times, traj.energies, traj.boundary_dissipation):
        rows.append(f"{seed_fmt(t, precision)},{seed_fmt(e, precision)},"
                    f"{seed_fmt(d, precision)}")
    return "\n".join(rows) + "\n"


def _fmt_cases(precision):
    rng = np.random.default_rng(20131005 + precision)
    values = list(10.0 ** rng.uniform(-20, 17, 3000) * rng.choice([-1.0, 1.0], 3000))
    values += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
               float("nan"), float("inf"), -float("inf"), 9738031576.56157]
    for edge in (1e-4, 10.0 ** (precision - 1), 10.0 ** precision):
        values += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf),
                   edge - 0.5, edge + 0.5]
    values += [9.99999999999995e-05, 9.999999999999999e-05]
    # decimals with precision + 1 digits ending in 5: the rounding ties
    # (exact in binary for the dyadic ones, nearly exact for the rest)
    digits = rng.integers(10 ** precision, 10 ** (precision + 1), 200) // 10 * 10 + 5
    for scale in range(-precision - 4, 2):
        values += [float(d) * 10.0 ** scale for d in digits[:20]]
    values += [m / 2.0 ** k for k in range(1, 12) for m in range(1, 2000, 37)]
    return values


@pytest.mark.parametrize("precision", range(1, 18))
def test_fmt_matches_reference_formatter(precision):
    for v in _fmt_cases(precision):
        for w in (v, -v):
            assert cli._fmt(w, precision) == seed_fmt(w, precision), (w, precision)


def test_fmt_c_format_differs_at_16_digits():
    """Why the %g shortcut stops at 15 digits: at 16 it is not the shortest form."""
    v = 9738031576.56157
    assert "%.16g" % v == "9738031576.561569"
    assert cli._fmt(v, 16) == seed_fmt(v, 16) == "9738031576.56157"


@pytest.mark.parametrize("precision", [12, 16])
@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.cfg")
                                        if p.name != "robin_wrong_sign.cfg"))
def test_simulate_csv_bytes_match_reference(tmp_path, monkeypatch, name, precision):
    import monoport.solver as sol

    text = (CONFIG_DIR / name).read_text(encoding="utf-8")
    dt = float(re.search(r"^dt\s*=\s*(\S+)", text, flags=re.M).group(1))
    text, hits = re.subn(r"^T\s*=.*$", f"T = {3 * dt!r}", text, flags=re.M)
    assert hits == 1
    if precision != 12:
        text += f"\n[output]\nprecision = {precision}\n"
    cfg = write_cfg(tmp_path, text)

    runs = []
    real_simulate = sol.simulate

    def capture(scenario, ops=None):
        traj = real_simulate(scenario, ops)
        runs.append((traj, ops.grid.nodes))
        return traj

    monkeypatch.setattr(sol, "simulate", capture)
    cli.main(["simulate", "--config", cfg, "--out", str(tmp_path)])
    ((traj, nodes),) = runs
    assert len(traj) == 4
    states = (tmp_path / "states.csv").read_bytes()
    energy = (tmp_path / "energy.csv").read_bytes()
    assert states == seed_states_csv(traj, nodes, precision).encode("utf-8")
    assert energy == seed_energy_csv(traj, precision).encode("utf-8")


@pytest.mark.parametrize("precision", [1, 6, 12, 15, 16, 17])
def test_csv_writers_on_adversarial_trajectory(precision):
    from monoport.solver import Trajectory

    states = np.array([
        [[-0.0 + 0.0j, 1e-5 - 1e-5j], [np.nan + 1j * np.inf, 1e12 + 0.5j]],
        [[9.99999999999995e-05 - 0.0j, -1e17 + 1e-20j],
         [0.125 + 2.5j, -np.inf + 1j * np.nan]],
    ])
    traj = Trajectory(times=np.array([-0.0, 0.1]), states=states,
                      energies=np.array([1e12, np.nan]),
                      boundary_dissipation=np.array([-0.0, 1e-5]))
    nodes = np.array([-1.0, 1.0 / 3.0])
    assert "".join(cli._states_csv(traj, nodes, precision)) == seed_states_csv(
        traj, nodes, precision)
    assert cli._energy_csv(traj, precision) == seed_energy_csv(traj, precision)



def _trajectory(values, n, dtype):
    """``values`` as a two-state trajectory of dtype ``dtype`` with ``n``
    components, zero-padded to whole rows; the complex one pairs each value
    with another from the list."""
    from monoport.solver import Trajectory

    v = np.asarray(values, dtype=float)
    rows = -(-len(v) // (2 * n))
    states = np.zeros(2 * rows * n, dtype=dtype)
    states.real[:len(v)] = v
    if dtype is complex:
        states.imag[:len(v)] = v[::-1]
    return (Trajectory(times=np.array([0.0, 0.25]), states=states.reshape(2, rows, n),
                       energies=np.zeros(2), boundary_dissipation=np.zeros(2)),
            np.linspace(-1.0, 1.0, rows))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("precision", range(1, 18))
def test_states_csv_matches_reference_on_fmt_cases(precision, dtype):
    """The per-state template writes ``_fmt``'s text for every value of
    ``_fmt_cases``, in real (``im`` column ``0``) and complex states."""
    values = _fmt_cases(precision)
    traj, nodes = _trajectory(values + [-v for v in values], 2, dtype)
    assert traj.states.dtype == np.dtype(dtype)
    assert "".join(cli._states_csv(traj, nodes, precision)) == seed_states_csv(
        traj, nodes, precision)


@pytest.mark.parametrize("precision", range(1, 18))
def test_states_csv_on_adversarial_real_trajectory(precision):
    edge = 10.0 ** precision
    values = [-0.0, 1e-5, 9.99999999999995e-05, np.nextafter(edge, 0.0), edge,
              np.nan, np.inf, -np.inf, 0.5 * edge, np.nextafter(0.5 * edge, 0.0),
              edge - 0.5, np.nextafter(edge - 0.5, 0.0), 1e-4, np.nextafter(1e-4, 0.0), 0.125]
    traj, nodes = _trajectory(values, 1, float)
    text = "".join(cli._states_csv(traj, nodes, precision))
    assert text == seed_states_csv(traj, nodes, precision)
    assert all(row.endswith(",0") for row in text.splitlines()[1:])

# ------------------------------------------------------------- verify


def test_verify_all_is_deterministic(capsys):
    code1 = cli.main(["verify", "all", "--seed", "3"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["verify", "all", "--seed", "3"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert "invariants hold" in out1
    assert "FAIL" not in out1


def test_verify_suite_selection(capsys):
    code = cli.main(["verify", "phs", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    tags = set(re.findall(r"^\[(\w+)\]", out, flags=re.M))
    assert tags == {"phs"}


def test_verify_phs_suite_builds_no_solver_state(monkeypatch, capsys):
    import monoport.solver as sol

    def explode(*a, **k):
        raise AssertionError("solver state constructed during phs suite")

    monkeypatch.setattr(sol, "discretize", explode)
    monkeypatch.setattr(sol, "simulate", explode)
    code = cli.main(["verify", "phs", "--seed", "0"])
    capsys.readouterr()
    assert code == 0


def test_verify_tightened_tolerances_fail(capsys):
    code = cli.main(["verify", "all", "--seed", "0", "--tol", "1e-9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("command", [["verify", "all"], ["convergence", "--study", "pairing"]],
                         ids=["verify", "convergence"])
@pytest.mark.parametrize("seed", ["-1", "-2", "1.5"])
def test_seed_must_be_a_non_negative_integer(tmp_path, capsys, command, seed):
    """A negative seed exited 1 with numpy's "expected non-negative
    integer", after parsing succeeded."""
    if command[0] == "convergence":
        command = command + ["--config", str(CONFIG_DIR / "transport.cfg"), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--seed", seed])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--seed: needs a non-negative integer, got '{seed}'" in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "abc"])
def test_verify_tolerance_scale_must_be_positive_and_finite(capsys, tol):
    """0 divided by zero, -1 passed every lower bound and inf every upper
    one; text that is not a number is refused in the same words."""
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "phs", "--tol", tol])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--tol: needs a positive finite number, got '{tol}'" in captured.err


# ------------------------------------------------------------- convergence


def test_convergence_state_study(tmp_path, capsys):
    code = cli.main(["convergence", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(tmp_path), "--study", "state", "--levels", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "observed orders:" in out
    header, rows = read_rows(tmp_path / "convergence.csv")
    assert header == "study,m,h_x,dt,error,order"
    assert len(rows) == 2
    assert rows[0][0] == "state" and rows[0][1] == "128"
    assert rows[0][5] == "" and rows[1][5] != ""
    order = float(rows[1][5])
    assert order > 0.9


@pytest.mark.parametrize("config", ["transport.cfg", "friction.cfg"])
def test_state_study_frees_each_level_before_the_next(tmp_path, monkeypatch, capsys, config):
    """A level keeps only its error or final state: when the next level's
    ``simulate`` starts, no earlier level's state array is alive."""
    import weakref

    import monoport.solver as sol

    refs, alive_at_start = [], []
    real_simulate = sol.simulate

    def tracked(scenario, ops=None):
        alive_at_start.append(sum(ref() is not None for ref in refs))
        traj = real_simulate(scenario, ops)
        refs.append(weakref.ref(traj.states))
        return traj

    monkeypatch.setattr(sol, "simulate", tracked)
    code = cli.main(["convergence", "--config", str(CONFIG_DIR / config),
                     "--out", str(tmp_path), "--study", "state", "--levels", "3"])
    capsys.readouterr()
    assert code == 0
    assert alive_at_start == [0, 0, 0]


@pytest.mark.parametrize("config", ["transport.cfg", "friction.cfg"])
@pytest.mark.parametrize("levels", ["0", "1", "-2"])
def test_convergence_needs_two_levels(tmp_path, capsys, config, levels):
    with pytest.raises(SystemExit) as err:
        cli.main(["convergence", "--config", str(CONFIG_DIR / config),
                  "--out", str(tmp_path), "--levels", levels])
    assert err.value.code == 2
    assert "at least 2 levels" in capsys.readouterr().err
    assert not (tmp_path / "convergence.csv").exists()


def test_convergence_derivative_study(tmp_path, capsys):
    code = cli.main(["convergence", "--config", str(CONFIG_DIR / "transport.cfg"),
                     "--out", str(tmp_path), "--study", "derivative", "--levels", "3"])
    capsys.readouterr()
    assert code == 0
    _, rows = read_rows(tmp_path / "convergence.csv")
    assert len(rows) == 3
    assert all(r[3] == "" for r in rows)  # static study: no dt column values
    orders = [float(r[5]) for r in rows[1:]]
    assert min(orders) > 1.9


def test_convergence_pairing_study(tmp_path, capsys):
    code = cli.main(["convergence", "--config", str(CONFIG_DIR / "wave_conservative.cfg"),
                     "--out", str(tmp_path), "--study", "pairing", "--levels", "3",
                     "--seed", "21"])
    capsys.readouterr()
    assert code == 0
    _, rows = read_rows(tmp_path / "convergence.csv")
    orders = [float(r[5]) for r in rows[1:]]
    assert min(orders) > 1.5
