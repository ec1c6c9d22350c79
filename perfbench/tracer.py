"""Span recording around monoport's layer boundaries, and self-time analysis.

The traced child process calls :func:`install` after importing monoport.
It replaces each public function of each layer *at every place a caller
looks the name up*: the defining module's namespace (which also catches
calls from inside that module, such as the recursion of
``relations.solve_inclusion``), every module that imported the name with
``from .x import name`` (``solver.solve_inclusion``, ``cli.load_config``,
``boundary.check_maximal``, ...), a few methods on their classes, and the
verify suite table.  Each wrapper records one span per call: name,
lookup site, start, end and parent span.  No file of the program changes.

Layer self time is the sum over the layer's spans of span duration minus
the time covered by child spans.  Whatever the spans do not cover
(interpreter start-up and teardown, the benchmark's own code) is the
explicit ``other_s`` remainder, so the self times plus ``other_s`` add up
to the traced wall time.

This module imports only the standard library: the parent process uses
the analysis half without importing numpy or monoport.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types

#: Layers in reporting order; a span's layer is the prefix of its name.
LAYERS = ("import", "config", "phs", "boundary", "relations", "sbp", "solver", "verify", "cli")

#: Modules whose public functions (their ``__all__``) are wrapped.
_LAYER_MODULES = ("config", "phs", "boundary", "relations", "sbp", "solver", "verify")

#: cli has no ``__all__``; these are its entry point and subcommands.
_CLI_FUNCTIONS = ("main", "cmd_check_bc", "cmd_simulate", "cmd_verify", "cmd_convergence")

#: Methods wrapped on their class, with the layer each is charged to.
_METHODS = (
    ("config", "Config", "build_phs", "config.build_phs"),
    ("config", "Config", "build_u0", "config.build_u0"),
    ("config", "Config", "build_bc", "boundary.build_bc"),
    ("solver", "DiscreteOperators", "energy", "solver.energy"),
)

#: Span record fields, in the order they are stored and written.
FIELDS = ("name", "site", "start", "end", "parent")


class Tracer:
    """In-memory span recorder for one repetition (one run id)."""

    def __init__(self, run_id: str, clock):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list = []

    def add(self, name: str, site: str, start: float, end: float) -> None:
        """Record a span measured by the caller (used for the import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, site, start, end, parent])

    def wrap(self, name: str, site: str, func, after=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, site, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after is not None:
                after(self, result)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                rec = dict(zip(FIELDS, span))
                rec["id"] = i
                rec["run"] = self.run_id
                fh.write(json.dumps(rec) + "\n")


def _record_trajectory(tracer, traj):
    mb = traj.states.nbytes / 1e6
    tracer.counters["solver.trajectory_mb"] = max(tracer.counters.get("solver.trajectory_mb", 0.0), mb)


def _counting_writer(tracer, write_text):
    """``cli._write_text`` replacement that counts bytes without a span, so
    the writing stays in the self time of the command that called it."""

    @functools.wraps(write_text)
    def counted(path, text):
        write_text(path, text)
        tracer.counters["cli.bytes_written"] = (
            tracer.counters.get("cli.bytes_written", 0) + os.path.getsize(path))

    return counted


def install(tracer: Tracer) -> None:
    """Wrap every layer function at every lookup site among the monoport
    modules already imported in this process."""
    modules = {name[len("monoport."):]: mod for name, mod in list(sys.modules.items())
               if name.startswith("monoport.") and mod is not None}
    modules["monoport"] = sys.modules["monoport"]

    originals = {}
    for layer in _LAYER_MODULES:
        mod = modules.get(layer)
        if mod is None:
            continue
        for fname in mod.__all__:
            func = getattr(mod, fname)
            if isinstance(func, types.FunctionType):
                originals[id(func)] = (func, f"{layer}.{fname}")
    cli = modules.get("cli")
    if cli is not None:
        for fname in _CLI_FUNCTIONS:
            func = getattr(cli, fname)
            originals[id(func)] = (func, f"cli.{fname}")

    for site, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is None:
                continue
            func, name = hit
            after = _record_trajectory if name == "solver.simulate" else None
            setattr(mod, attr, tracer.wrap(name, site, func, after))

    for modname, clsname, meth, name in _METHODS:
        cls = getattr(modules[modname], clsname)
        setattr(cls, meth, tracer.wrap(name, modname, getattr(cls, meth)))

    verify = modules.get("verify")
    if verify is not None:
        for suite, func in list(verify._SUITES.items()):
            verify._SUITES[suite] = tracer.wrap(f"verify.{suite}", "verify", func)
    if cli is not None:
        cli._write_text = _counting_writer(tracer, cli._write_text)


# ------------------------------------------------------------------ analysis


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_metrics(spans: list, wall: float) -> dict:
    """Per-layer metrics of one traced repetition.

    ``wall`` is the repetition's traced wall time; ``other_s`` is the part
    of it no span covers.  Raises ``ValueError`` if the spans do not nest
    or do not fit inside ``wall``, since the metrics would then be wrong.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    selfs = [s["end"] - s["start"] - c for s, c in zip(spans, child)]
    if selfs and min(selfs) < -1e-9:
        raise ValueError(f"spans do not nest (self time {min(selfs):.3e} s)")
    layers = [s["name"].split(".", 1)[0] for s in spans]
    unknown = set(layers) - set(LAYERS)
    if unknown:
        raise ValueError(f"spans of unknown layers {sorted(unknown)}")

    def self_of(pred):
        return sum(t for s, t in zip(spans, selfs) if pred(s))

    def total_of(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(pred):
        return sum(1 for s in spans if pred(s))

    def named(name):
        return lambda s: s["name"] == name

    def in_layer(layer):
        return lambda s: s["name"].split(".", 1)[0] == layer

    def nested_inclusion(s):
        parent = s["parent"]
        return (s["name"] == "relations.solve_inclusion" and s["site"] == "relations"
                and parent >= 0 and in_layer("relations")(spans[parent]))

    layer_self = {layer: self_of(in_layer(layer)) for layer in LAYERS}
    other = wall - sum(layer_self.values())
    if other < -1e-6:
        raise ValueError(f"spans cover more than the wall time ({other:.3e} s left)")

    return {
        "import.monoport_s": layer_self["import"],
        "config.load_s": layer_self["config"],
        "phs.self_s": layer_self["phs"],
        "phs.bd_basis_s": self_of(named("phs.bd_basis")),
        "phs.bd_basis_calls": calls(named("phs.bd_basis")),
        "boundary.self_s": layer_self["boundary"],
        "boundary.build_bc_s": total_of("boundary.build_bc"),
        "relations.self_s": layer_self["relations"],
        "relations.check_monotone_s": self_of(named("relations.check_monotone")),
        "relations.check_monotone_calls": calls(named("relations.check_monotone")),
        "relations.check_maximal_s": self_of(named("relations.check_maximal")),
        "relations.check_maximal_calls": calls(named("relations.check_maximal")),
        "relations.solve_inclusion_s": self_of(named("relations.solve_inclusion")),
        "relations.solve_inclusion_calls": calls(
            lambda s: s["name"] == "relations.solve_inclusion" and s["site"] == "solver"),
        "relations.solve_inclusion_nested_calls": calls(nested_inclusion),
        "sbp.sbp42_s": layer_self["sbp"],
        "solver.self_s": layer_self["solver"],
        "solver.discretize_s": self_of(named("solver.discretize")),
        "solver.simulate_s": total_of("solver.simulate"),
        "solver.simulate_self_s": self_of(named("solver.simulate")),
        "solver.step_calls": calls(named("solver.step")),
        "solver.step_self_s": self_of(named("solver.step")),
        "solver.energy_s": self_of(named("solver.energy")),
        "solver.energy_calls": calls(named("solver.energy")),
        "solver.resolve_A_s": self_of(named("solver.resolve_A")),
        "solver.resolve_A_calls": calls(named("solver.resolve_A")),
        "verify.self_s": layer_self["verify"],
        "verify.relation_s": self_of(named("verify.relation")),
        "verify.phs_s": self_of(named("verify.phs")),
        "verify.boundary_s": self_of(named("verify.boundary")),
        "verify.solver_s": self_of(named("verify.solver")),
        "cli.self_s": layer_self["cli"],
        "cli.simulate_self_s": self_of(named("cli.cmd_simulate")),
        "cli.check_bc_s": self_of(named("cli.cmd_check_bc")),
        "other_s": other,
        "trace.spans": len(spans),
    }


#: Metrics whose sum is the traced wall time (the accounting identity).
ACCOUNTED = ("import.monoport_s", "config.load_s", "phs.self_s", "boundary.self_s",
             "relations.self_s", "sbp.sbp42_s", "solver.self_s", "verify.self_s",
             "cli.self_s", "other_s")
