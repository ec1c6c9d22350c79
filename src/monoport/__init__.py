"""Numerical toolkit for maximal monotone boundary conditions of 1D
port-Hamiltonian systems.

The package is organised around five layers:

* :mod:`monoport.spaces` — finite-dimensional complex inner-product spaces
  with Hermitian positive-definite weights, and adjoints of maps between
  them.
* :mod:`monoport.relations` — a calculus of (possibly multivalued, possibly
  nonlinear) monotone relations: algebra, resolvents, Yosida regularisation,
  and monotonicity/maximality certificates.
* :mod:`monoport.phs` — the port-Hamiltonian structure on a symmetric
  interval: eigen-data of the principal matrix, even/odd splitting, the
  finite-dimensional boundary-data spaces with their cosh/sinh bases, and
  boundary flow/effort.
* :mod:`monoport.boundary` — certified boundary-condition constructors
  (contraction-matrix, Dirichlet/Neumann/Robin, multiport friction),
  skew-selfadjointness tests, constraint extraction and membership tests.
* :mod:`monoport.solver` — summation-by-parts discretisation, the
  constructive resolvent of the implicitly stepped system, and θ-scheme
  time integration (one :class:`~monoport.solver.Stepper` per run) with
  exact discrete energy bookkeeping.

:mod:`monoport.config` parses a scenario file into a
:class:`~monoport.config.Config`, which builds the system, the boundary
condition and the initial data; :mod:`monoport.cli` exposes the
``monoport`` command with the ``check-bc``, ``simulate``, ``verify`` and
``convergence`` subcommands.
"""

from monoport.spaces import InnerProductSpace, LinearMap, adjoint
from monoport.relations import (
    Certificate,
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
from monoport.phs import (
    BoundaryDataBasis,
    PortHamiltonian,
    bd_basis,
    ddot_matrix,
    eigendecompose,
    even_odd_split,
    flow_effort,
    flow_effort_via_bd,
    project_bd,
)
from monoport.boundary import (
    BoundaryCondition,
    check_skew_selfadjoint,
    dirichlet,
    extract_h,
    from_V,
    membership,
    multiport,
    neumann,
    robin,
    robin_bad,
)
from monoport.config import Config, ConfigError, load_config, parse_config
from monoport.solver import (
    DiscreteOperators,
    Grid,
    Scenario,
    Stepper,
    Trajectory,
    discretize,
    oracle_transport,
    resolve_A,
    simulate,
    step,
)

__all__ = [
    "InnerProductSpace",
    "LinearMap",
    "adjoint",
    "Relation",
    "LinearGraph",
    "SeparableProx",
    "Certificate",
    "resolvent",
    "resolvent_value",
    "yosida",
    "post_set",
    "adjoint_relation",
    "graph_residual",
    "plan_inclusion",
    "solve_inclusion",
    "NonconvergenceError",
    "principal_section",
    "direct_sum",
    "transform",
    "certify",
    "check_monotone",
    "check_maximal",
    "PortHamiltonian",
    "BoundaryDataBasis",
    "eigendecompose",
    "even_odd_split",
    "bd_basis",
    "ddot_matrix",
    "flow_effort",
    "flow_effort_via_bd",
    "project_bd",
    "BoundaryCondition",
    "from_V",
    "dirichlet",
    "neumann",
    "robin",
    "robin_bad",
    "multiport",
    "check_skew_selfadjoint",
    "extract_h",
    "membership",
    "Grid",
    "DiscreteOperators",
    "Scenario",
    "Trajectory",
    "discretize",
    "resolve_A",
    "Stepper",
    "step",
    "simulate",
    "oracle_transport",
    "Config",
    "ConfigError",
    "parse_config",
    "load_config",
]

__version__ = "0.1.0"
