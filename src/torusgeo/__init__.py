"""Solver and verification harness for a degenerate fully nonlinear equation.

The equation is u_tt (lap u - b |grad u|^2 + a(x)) - |grad u_t|^2 = f on a
flat torus cross a time interval, with two-point data in time. The package
builds barriers, runs damped-Newton continuation inside the admissibility
cone, sweeps the right-hand side toward the degenerate limit, checks the
discrete a priori bounds, and scans the associated elementary symmetric
function cones for the concavity structure that drives the estimates.
"""

from .config import (
    ConfigError,
    RunConfig,
    build_exact,
    build_problem,
    compile_expression,
    load_config,
)
from .estimates import BoundsReport, bounds_report
from .mesh import (
    GridSpec,
    ScalarField,
    SpaceField,
    d_t,
    gradient,
    laplacian,
    read_field_bin,
    read_field_csv,
    write_field_bin,
    write_field_csv,
)
from .operator import (
    ConeData,
    InvalidProblem,
    LinearSystem,
    ProblemSpec,
    apply_Q,
    assemble_dQ,
    compute_B,
    cone_quantities,
)
from .solver import (
    LostAdmissibility,
    NonConvergence,
    SolveResult,
    SolverError,
    StepCollapse,
    SweepEntry,
    TraceRecord,
    barrier,
    compute_c_star,
    continuation_solve,
    epsilon_sweep,
    newton_solve,
    uniqueness_probe,
)
from .symcone import (
    ComparisonScanReport,
    F_k,
    ScanReport,
    ScanViolation,
    comparison_scan,
    elementary_symmetric,
    log_q_hessian_batch,
    midpoint_concavity_scan,
    newton_chain,
    write_counterexamples,
    write_scan_records,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "ComparisonScanReport",
    "ConeData",
    "ConfigError",
    "F_k",
    "GridSpec",
    "InvalidProblem",
    "LinearSystem",
    "LostAdmissibility",
    "NonConvergence",
    "ProblemSpec",
    "RunConfig",
    "ScalarField",
    "ScanReport",
    "ScanViolation",
    "SolveResult",
    "SolverError",
    "SpaceField",
    "StepCollapse",
    "SweepEntry",
    "TraceRecord",
    "apply_Q",
    "assemble_dQ",
    "barrier",
    "bounds_report",
    "build_exact",
    "build_problem",
    "comparison_scan",
    "compile_expression",
    "compute_B",
    "compute_c_star",
    "cone_quantities",
    "continuation_solve",
    "d_t",
    "elementary_symmetric",
    "epsilon_sweep",
    "gradient",
    "laplacian",
    "load_config",
    "log_q_hessian_batch",
    "midpoint_concavity_scan",
    "newton_chain",
    "newton_solve",
    "read_field_bin",
    "read_field_csv",
    "uniqueness_probe",
    "write_counterexamples",
    "write_field_bin",
    "write_field_csv",
    "write_scan_records",
]
