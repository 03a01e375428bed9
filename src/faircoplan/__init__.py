"""Strategic deconfliction for on-demand urban air traffic.

Flights request vertiport-to-vertiport trips over a time-expanded grid
airspace. The negotiated planner grants each flight a set of space-time
choices (a joint MILP over shared vertiport and ring capacity), lets each
operator propose its own cheapest trajectory within those choices, then
resolves residual conflicts jointly — optionally weighting the spread of
detour ratios so no operator absorbs all of the disruption. A classical
fixed-route scheduling baseline and a rolling-horizon campaign simulator
sit alongside for comparison, and brute-force oracles validate every
optimizer on small instances.
"""
from .airspace import (
    AirspaceGrid,
    CapacityViolation,
    ConfigError,
    GridConfig,
    OccupancyLedger,
    OccupancySnapshot,
    Resource,
    VertiportSpec,
    build_grid,
)
from .baseline import BaselineResult, FixedRoute, fixed_route, leg_dwells, solve_tfmp
from .checker import (
    Conflict,
    ConflictReport,
    choice_violations,
    detect_conflicts,
    plan_violations,
)
from .flights import (
    ChoiceSet,
    DelayCostParams,
    FlightPlan,
    FlightRequest,
    path_length,
    tdc,
)
from .milp import Model, SolveResult, solve
from .oracle import (
    OracleSizeError,
    TinyInstance,
    enumerate_choice_families,
    enumerate_feasible_plans,
    oracle_joint_optimum,
    oracle_step1_optimum,
    oracle_step2_optimum,
    oracle_tfmp_optimum,
)
from .selfcheck import CaseResult, check_instance, run_selfcheck
from .serialize import (
    load_scenario,
    read_campaign_records,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_campaign,
)
from .sim import (
    MODES,
    CampaignResult,
    PeriodResult,
    ScenarioConfig,
    campaign_summary,
    day_rows,
    generate_demand,
    run_campaign,
    run_day,
    run_period,
    scenario_grid,
)
from .step1 import Step1Result, choice_domains, solve_step1
from .step2 import Step2Result, solve_step2
from .step3 import DeconflictionResult, fairness_value, solve_step3
from .cli import main, run_cli

__version__ = "0.1.0"

__all__ = [
    "AirspaceGrid",
    "BaselineResult",
    "CampaignResult",
    "CapacityViolation",
    "CaseResult",
    "ChoiceSet",
    "Conflict",
    "ConflictReport",
    "ConfigError",
    "DeconflictionResult",
    "DelayCostParams",
    "FixedRoute",
    "FlightPlan",
    "FlightRequest",
    "GridConfig",
    "MODES",
    "Model",
    "OccupancyLedger",
    "OccupancySnapshot",
    "OracleSizeError",
    "PeriodResult",
    "Resource",
    "ScenarioConfig",
    "SolveResult",
    "Step1Result",
    "Step2Result",
    "TinyInstance",
    "VertiportSpec",
    "__version__",
    "build_grid",
    "campaign_summary",
    "check_instance",
    "choice_domains",
    "choice_violations",
    "day_rows",
    "detect_conflicts",
    "enumerate_choice_families",
    "enumerate_feasible_plans",
    "fairness_value",
    "fixed_route",
    "generate_demand",
    "leg_dwells",
    "load_scenario",
    "main",
    "oracle_joint_optimum",
    "oracle_step1_optimum",
    "oracle_step2_optimum",
    "oracle_tfmp_optimum",
    "path_length",
    "plan_violations",
    "read_campaign_records",
    "run_campaign",
    "run_cli",
    "run_day",
    "run_period",
    "run_selfcheck",
    "save_scenario",
    "scenario_from_dict",
    "scenario_grid",
    "scenario_to_dict",
    "solve",
    "solve_step1",
    "solve_step2",
    "solve_step3",
    "solve_tfmp",
    "tdc",
    "write_campaign",
]
