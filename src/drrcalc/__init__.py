"""drrcalc: dispatchable-region computation for renewable farms.

Given a DC dispatch model, the library computes the polyhedral set of
renewable output vectors that the flexible fleet can absorb without
violating network or ramping limits, identifies the physical constraint
behind each region boundary, and extracts the highest-risk ramping event.
"""

from .caseio import (CaseData, RawCase, RenewableSpec, StudyConfig,
                     apply_renewables, load_config_file, load_renewables_file,
                     parse_matpower, parse_matpower_file)
from .dispatch_model import (CompactPsd, ConstraintDescriptor, DispatchPoint,
                             build_compact, build_ptdf, feasibility_model,
                             initial_dispatch)
from .engine import DrrResult, init_w0, run
from .binding import BindingReport, identify, probe_point, terminal_points
from .analysis import (RampEvent, export_artifacts, high_risk_event,
                       vertices_2d)
from .maxmin_iblp import IblpOracle, ScenarioSet, gen_s1, gen_s2, run_iblp
from .maxmin_milp import MaxMinSolution, build_kkt_mip, solve_maxmin_milp
from .polytope import FacetProvenance, Polytope, remove_redundant

__version__ = "0.1.0"
