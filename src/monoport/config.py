"""Scenario configuration: a flat, sectioned key-value text format.

Grammar (documented here because the format is the contract):

* ``scenario = <name>`` appears before any section and selects the
  initial-data preset (``zero``, ``gaussian``, ``transport``, ``wave``).
* Sections ``[phs]``, ``[bc]``, ``[grid]``, ``[output]`` hold
  ``key = value`` lines.  ``#`` starts a comment (full line or trailing).
* Matrices are written row-major: entries separated by spaces, rows by
  ``;`` — e.g. ``P1 = 0 1; 1 0``.  Entries may be complex in Python
  notation without spaces (``1+2j``).  Vectors are a single row;
  scalars broadcast where a vector is expected.
* ``[phs]``: ``n``, ``b``, ``P1`` (matrix), optional ``P0`` (matrix,
  default 0) and ``H`` (``identity``, a named profile from
  :data:`HAMILTONIAN_PROFILES`, or a constant matrix).
* ``[bc]``: ``kind`` is one of ``v-matrix`` (field ``V``),
  ``dirichlet``/``neumann`` (field ``value``), ``robin`` (fields ``M``,
  optional ``value``, optional ``sign`` where ``-1`` selects the
  wrong-sign variant whose certificates fail), ``multiport`` (one
  ``port.<i> = <kind> <args…>`` line per port, kinds
  ``dirichlet``/``neumann``/``robin``/``friction``), or ``custom``
  (fields ``C_e``, ``C_f`` — a trace constraint pair).
* ``[grid]``: ``m`` (even, ≥ 8), ``dt``, ``T``, ``theta``.
* ``[output]``: file names ``states``, ``energy``, ``report``,
  ``convergence`` and the significant-digit count ``precision``.

A parsed :class:`Config` builds the system, the boundary condition and
the initial data; two configs compare by identity only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Union

import numpy as np

__all__ = [
    "Config",
    "ConfigError",
    "parse_config",
    "load_config",
    "HAMILTONIAN_PROFILES",
    "SCENARIO_PRESETS",
]


class ConfigError(ValueError):
    """Malformed configuration; message carries line/field context."""


#: Named space-dependent Hamiltonian densities available in the [phs] block.
HAMILTONIAN_PROFILES: Dict[str, object] = {
    "identity": None,
    "sine-well": lambda x: np.atleast_2d(2.0 + np.sin(x)),
}

_BC_KINDS = ("v-matrix", "dirichlet", "neumann", "robin", "multiport", "custom")
_PORT_KINDS = ("dirichlet", "neumann", "robin", "friction")

_DEFAULT_OUTPUTS = {
    "states": "states.csv",
    "energy": "energy.csv",
    "report": "report.txt",
    "convergence": "convergence.csv",
}


def _parse_scalar(tok: str, where: str) -> complex:
    try:
        return complex(tok)
    except ValueError:
        raise ConfigError(f"{where}: cannot read number {tok!r}") from None


def _parse_matrix(text: str, where: str) -> np.ndarray:
    rows = [r.strip() for r in text.split(";")]
    data = []
    for r in rows:
        if not r:
            raise ConfigError(f"{where}: empty matrix row")
        data.append([_parse_scalar(t, where) for t in r.split()])
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ConfigError(f"{where}: ragged matrix rows")
    return np.array(data, dtype=complex)


@dataclass(frozen=True, eq=False)
class Config:
    """Parsed scenario file; see the module docstring for the grammar."""

    scenario: str
    n: int
    b: float
    p1: np.ndarray
    p0: np.ndarray
    hamiltonian: Union[str, np.ndarray]
    bc_kind: str
    bc_fields: dict
    m: int
    dt: float
    T: float
    theta: float
    outputs: Dict[str, str] = field(default_factory=lambda: dict(_DEFAULT_OUTPUTS))
    precision: int = 12

    # ---- builders -------------------------------------------------

    def build_phs(self):
        from .phs import PortHamiltonian

        if isinstance(self.hamiltonian, str):
            ham = HAMILTONIAN_PROFILES[self.hamiltonian]
            if ham is not None and self.n != 1:
                raise ConfigError(
                    f"named profile {self.hamiltonian!r} is scalar; system has n={self.n}"
                )
        else:
            ham = self.hamiltonian
        return PortHamiltonian(n=self.n, b=self.b, p1=self.p1, p0=self.p0,
                               hamiltonian=ham)

    def build_bc(self, basis):
        from . import boundary

        kind = self.bc_kind
        f = self.bc_fields
        if kind == "v-matrix":
            return boundary.from_V(f["V"], basis)
        if kind == "dirichlet":
            return boundary.dirichlet(f["value"], basis)
        if kind == "neumann":
            return boundary.neumann(f["value"], basis)
        if kind == "robin":
            ctor = boundary.robin_bad if f.get("sign", 1) < 0 else boundary.robin
            return ctor(f["M"], basis, value=f.get("value", 0.0))
        if kind == "custom":
            return boundary.extract_h((f["C_e"], f["C_f"]), basis)
        parts = []
        for idx in sorted(f["ports"]):
            pkind, args = f["ports"][idx]
            parts.append((idx, (pkind, *args)))
        return boundary.multiport(parts, basis)

    def build_u0(self, nodes: np.ndarray) -> np.ndarray:
        builder = SCENARIO_PRESETS.get(self.scenario)
        if builder is None:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {', '.join(sorted(SCENARIO_PRESETS))}"
            )
        return builder(self.n, self.b, nodes)


# ---- initial-data presets ----------------------------------------------


def _u0_zero(n, b, nodes):
    return np.zeros((len(nodes), n), dtype=complex)


def _u0_gaussian(n, b, nodes):
    out = np.zeros((len(nodes), n), dtype=complex)
    out[:, 0] = np.exp(-8.0 * (nodes / b) ** 2)
    return out


def _u0_transport(n, b, nodes):
    z = (nodes / b + 0.35) / 0.6
    bump = np.where(np.abs(z) < 1.0, (1.0 - np.minimum(z * z, 1.0)) ** 3, 0.0)
    out = np.zeros((len(nodes), n), dtype=complex)
    out[:, 0] = bump
    return out


def _u0_wave(n, b, nodes):
    if n < 2:
        raise ConfigError("scenario 'wave' needs at least two components")
    xs = nodes / b
    out = np.zeros((len(nodes), n), dtype=complex)
    out[:, 0] = np.exp(-8.0 * xs ** 2) * np.cos(3.0 * xs)
    out[:, 1] = np.exp(-6.0 * xs ** 2) * np.sin(2.0 * xs)
    return out


SCENARIO_PRESETS = {
    "zero": _u0_zero,
    "gaussian": _u0_gaussian,
    "transport": _u0_transport,
    "wave": _u0_wave,
}


# ---- parsing -------------------------------------------------------------


def parse_config(text: str) -> Config:
    """Parse a configuration document; errors carry line numbers."""
    scenario = None
    sections: Dict[str, dict] = {"phs": {}, "bc": {}, "grid": {}, "output": {}}
    lines_of: Dict[str, Dict[str, int]] = {s: {} for s in sections}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key != "scenario":
                raise ConfigError(
                    f"line {lineno}: only 'scenario' may appear before the first section"
                )
            scenario = value
            continue
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
        lines_of[current][key] = lineno

    if scenario is None:
        raise ConfigError("missing top-level 'scenario = <name>' line")
    return _validate(scenario, sections)


def load_config(path) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _need(section: dict, key: str, where: str) -> str:
    if key not in section:
        raise ConfigError(f"[{where}]: missing required key {key!r}")
    return section[key]


def _reject_extras(section: dict, allowed: set, where: str) -> None:
    extra = set(section) - allowed
    if extra:
        raise ConfigError(f"[{where}]: unknown keys {sorted(extra)}")


def _validate(scenario: str, sections: Dict[str, dict]) -> Config:
    ph = sections["phs"]
    _reject_extras(ph, {"n", "b", "P1", "P0", "H"}, "phs")
    try:
        n = int(_need(ph, "n", "phs"))
        b = float(_need(ph, "b", "phs"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[phs]: {exc}") from None
    if n < 1:
        raise ConfigError("[phs]: n must be a positive integer")
    if not b > 0:
        raise ConfigError("[phs]: b must be positive")

    p1 = _parse_matrix(_need(ph, "P1", "phs"), "[phs] P1")
    if p1.shape != (n, n):
        raise ConfigError(f"[phs] P1: expected {n}x{n}, got {p1.shape[0]}x{p1.shape[1]}")
    if "P0" in ph:
        p0 = _parse_matrix(ph["P0"], "[phs] P0")
        if p0.shape != (n, n):
            raise ConfigError(f"[phs] P0: expected {n}x{n}, got {p0.shape[0]}x{p0.shape[1]}")
    else:
        p0 = np.zeros((n, n), dtype=complex)

    ham_raw = ph.get("H", "identity")
    hamiltonian: Union[str, np.ndarray]
    if ham_raw in HAMILTONIAN_PROFILES:
        hamiltonian = ham_raw
    else:
        hamiltonian = _parse_matrix(ham_raw, "[phs] H")
        if hamiltonian.shape != (n, n):
            raise ConfigError(f"[phs] H: expected {n}x{n} or a profile name")

    bc = sections["bc"]
    kind = _need(bc, "kind", "bc")
    if kind not in _BC_KINDS:
        raise ConfigError(f"[bc] kind: {kind!r} not one of {', '.join(_BC_KINDS)}")
    bc_fields = _parse_bc_fields(kind, bc, n)

    gr = sections["grid"]
    _reject_extras(gr, {"m", "dt", "T", "theta"}, "grid")
    try:
        m = int(_need(gr, "m", "grid"))
        dt = float(_need(gr, "dt", "grid"))
        t_final = float(_need(gr, "T", "grid"))
        theta = float(gr.get("theta", "1.0"))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"[grid]: {exc}") from None
    if m % 2 != 0 or m < 8:
        raise ConfigError("[grid]: m must be even and at least 8")
    if not dt > 0 or not t_final > 0:
        raise ConfigError("[grid]: dt and T must be positive")
    if not 0.5 <= theta <= 1.0:
        raise ConfigError("[grid]: theta must lie in [0.5, 1]")

    out = sections["output"]
    outputs = dict(_DEFAULT_OUTPUTS)
    for key in _DEFAULT_OUTPUTS:
        if key in out:
            outputs[key] = out[key]
    extra = set(out) - set(_DEFAULT_OUTPUTS) - {"precision"}
    if extra:
        raise ConfigError(f"[output]: unknown keys {sorted(extra)}")
    try:
        precision = int(out.get("precision", "12"))
    except ValueError:
        raise ConfigError("[output]: precision must be an integer") from None
    if not 1 <= precision <= 17:
        raise ConfigError("[output]: precision must be between 1 and 17")

    return Config(scenario=scenario, n=n, b=b, p1=p1, p0=p0, hamiltonian=hamiltonian,
                  bc_kind=kind, bc_fields=bc_fields, m=m, dt=dt, T=t_final, theta=theta,
                  outputs=outputs, precision=precision)


def _parse_value(text: str, n: int) -> np.ndarray:
    """The ``[bc] value`` vector; a scalar broadcasts to all ``n`` ports."""
    vec = _parse_matrix(text, "[bc] value").reshape(-1)
    if vec.shape[0] == 1:
        vec = np.full(n, vec[0])
    if vec.shape != (n,):
        raise ConfigError(f"[bc] value: expected a scalar or {n} entries")
    return vec


def _parse_bc_fields(kind: str, bc: dict, n: int) -> dict:
    allowed_by_kind = {
        "v-matrix": {"V"},
        "dirichlet": {"value"},
        "neumann": {"value"},
        "robin": {"M", "value", "sign"},
        "custom": {"C_e", "C_f"},
    }
    if kind in allowed_by_kind:
        _reject_extras(bc, {"kind"} | allowed_by_kind[kind], "bc")
    if kind == "v-matrix":
        v = _parse_matrix(_need(bc, "V", "bc"), "[bc] V")
        if v.shape != (n, n):
            raise ConfigError(f"[bc] V: expected {n}x{n}")
        return {"V": v}
    if kind in ("dirichlet", "neumann"):
        return {"value": _parse_value(_need(bc, "value", "bc"), n)}
    if kind == "robin":
        mmat = _parse_matrix(_need(bc, "M", "bc"), "[bc] M")
        if mmat.shape != (n, n):
            raise ConfigError(f"[bc] M: expected {n}x{n}")
        fields = {"M": mmat}
        if "sign" in bc:
            if bc["sign"] not in ("+1", "1", "-1"):
                raise ConfigError("[bc] sign: must be +1 or -1")
            if bc["sign"] == "-1":
                fields["sign"] = -1
        if "value" in bc:
            fields["value"] = _parse_value(bc["value"], n)
        return fields
    if kind == "custom":
        ce = _parse_matrix(_need(bc, "C_e", "bc"), "[bc] C_e")
        cf = _parse_matrix(_need(bc, "C_f", "bc"), "[bc] C_f")
        if ce.shape[1] != n or cf.shape[1] != n or ce.shape[0] != cf.shape[0]:
            raise ConfigError(f"[bc] C_e/C_f: need matching row counts and {n} columns")
        return {"C_e": ce, "C_f": cf}
    # multiport
    ports = {}
    for key, value in bc.items():
        if key == "kind":
            continue
        if not key.startswith("port."):
            raise ConfigError(f"[bc]: unexpected key {key!r} for multiport")
        try:
            idx = int(key.split(".", 1)[1])
        except ValueError:
            raise ConfigError(f"[bc] {key}: port index must be an integer") from None
        if not 0 <= idx < n:
            raise ConfigError(f"[bc] {key}: port index out of range for n={n}")
        toks = value.split()
        if not toks or toks[0] not in _PORT_KINDS:
            raise ConfigError(
                f"[bc] {key}: expected '<kind> <args…>' with kind in {', '.join(_PORT_KINDS)}"
            )
        pkind = toks[0]
        args = tuple(_parse_scalar(t, f"[bc] {key}") for t in toks[1:])
        if pkind in ("dirichlet", "neumann") and len(args) != 1:
            raise ConfigError(f"[bc] {key}: {pkind} takes exactly one value")
        if pkind == "friction" and (len(args) != 1 or args[0].imag != 0):
            raise ConfigError(f"[bc] {key}: friction takes one real coefficient")
        if pkind == "friction":
            args = (args[0].real,)
        if pkind == "robin":
            if len(args) not in (1, 2) or args[0].imag != 0:
                raise ConfigError(f"[bc] {key}: robin takes a real coefficient and optional value")
            args = (args[0].real, *args[1:])
        ports[idx] = (pkind, args)
    if set(ports) != set(range(n)):
        missing = sorted(set(range(n)) - set(ports))
        raise ConfigError(f"[bc]: multiport must cover every port; missing {missing}")
    return {"ports": ports}

