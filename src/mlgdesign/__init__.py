"""Multi-layer graph modeling and flow-based design of overlay networks."""

from .builder import (BuiltInstance, Channel, DesignProblem, Server, Subscriber,
                      build_redundant_mlg, derive_commodities)
from .design import (CandidatePath, DesignSolution, OracleLimits,
                     brute_force_oracle, enumerate_candidate_paths,
                     formulate_link_path, formulate_node_link,
                     solve_capacitated, solve_uncapacitated)
from .errors import (DecompositionError, EmptyServerSet, InfeasibleError,
                     LimitsExceeded, MlgError, NoRealization,
                     ProblemFormatError, ProductivityMismatch)
from .flows import (Commodity, FlowAssignment, Session, aggregate_service_flows,
                    check_capacities, check_conservation,
                    check_productivity_projection)
from .lp import LinearProgram, LpSolution, branch_and_bound, simplex_solve
from .mlg import (UNBOUNDED, InterEdge, IntraEdge, MultiLayerGraph, NodeRef,
                  RealizationPath, ValidationReport, realization_path,
                  validate_overlay)
from .report import ChannelUse, ProjectReport, render_report

__version__ = "0.1.0"
