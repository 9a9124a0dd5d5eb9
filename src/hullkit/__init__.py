"""hullkit: hull representations, LP membership tests, and hull-constrained
optimization with a benchmarking CLI.

Every result type that holds an array compares and hashes by identity, so
``==`` never raises; compare values with ``np.array_equal`` on the fields.
"""

from .errors import (ConversionTimeout, DegenerateError, DimensionError,
                     EmptyInterior, HullkitError, InfeasibleStart, ParseError,
                     SchemaError, TooFewPoints)
from .linalg import Hyperplane, affine_rank
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpOutcome, LpProblem, lp_solve
from .polytope import (ConversionReport, HRep, VRep, cross_polytope,
                       load_hrep, load_vrep, random_point_set, save_hrep,
                       save_vrep, unit_cube, vrep_to_hrep)
from .queries import (MembershipResult, Weights, contains, extreme_mask,
                      extreme_points, is_extreme)
from .optimize import (Objective, SolveOptions, SolveResult,
                       chebyshev_center, compose_objective, project_to_simplex,
                       solve_hrep, solve_vrep)
from .boundary import (BoundaryModel, Dataset, build_boundary_model,
                       group_by_operating_point, load_csv, load_model,
                       save_csv, save_model, synth_bsfc_objective,
                       synth_engine_dataset)
from .bench import (BenchRow, bench_conversion, bench_membership,
                    bench_optimize, emit_table)

__version__ = "0.1.0"

__all__ = [
    "BenchRow", "BoundaryModel", "ConversionReport",
    "ConversionTimeout", "Dataset", "DegenerateError", "DimensionError",
    "EmptyInterior", "HRep", "HullkitError", "Hyperplane", "INFEASIBLE",
    "InfeasibleStart", "LpOutcome", "LpProblem", "MembershipResult",
    "OPTIMAL", "Objective", "ParseError", "SchemaError",
    "SolveOptions", "SolveResult", "TooFewPoints",
    "UNBOUNDED", "VRep", "Weights", "affine_rank", "bench_conversion",
    "bench_membership", "bench_optimize", "build_boundary_model",
    "chebyshev_center", "compose_objective", "contains", "cross_polytope",
    "emit_table", "extreme_mask", "extreme_points", "group_by_operating_point",
    "is_extreme", "load_csv", "load_hrep", "load_model", "load_vrep",
    "lp_solve", "project_to_simplex", "random_point_set", "save_csv",
    "save_hrep", "save_model", "save_vrep", "solve_hrep", "solve_vrep",
    "synth_bsfc_objective", "synth_engine_dataset", "unit_cube",
    "vrep_to_hrep",
]
