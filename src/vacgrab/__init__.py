"""Vacuum suction gripper sizing and grasp feasibility for fabric pieces.

Modules:
- model: shared value types, constants, units, polygon geometry
- statics: holding forces and required suction pressures
- pneumatics: energy balance, continuity, line losses, flow splits
- vgtc: grabbing-circle geometry, edge inflation, grid layouts
- feasibility: scenario evaluation, verdicts, corpus batches
- cli: config files, report/SVG emission, command dispatch

Typical library use:

    from vacgrab import FabricPiece, MotionProfile, Polygon, SuctionCup
    from vacgrab import VacuumGenerator, PipeSegment, Scenario, evaluate

    scenario = Scenario(
        fabric=FabricPiece(id="bag", outline=Polygon.rectangle(0.26, 0.19), mass=2.5e-3,
                           friction_coefficient=0.5),
        motion=MotionProfile(),
        cup=SuctionCup(orifice_diameter=2e-3),
        generator=VacuumGenerator(),
        line=(PipeSegment(inner_diameter=5.2e-3), PipeSegment(inner_diameter=2e-3)),
        upstream_velocity=37.14,
    )
    report = evaluate(scenario)
"""

from .feasibility import (
    CorpusEntry,
    CorpusRow,
    GraspReport,
    Scenario,
    Verdict,
    evaluate,
    run_corpus,
    scenario_from_row,
)
from .model import (
    EnergyHeads,
    FabricPiece,
    FlowState,
    LoadCase,
    MotionProfile,
    Permeability,
    PhysicalConstants,
    PipeSegment,
    Polygon,
    PressureWindow,
    SuctionCup,
    UnitError,
    VacuumGenerator,
    ValidationError,
    convert_units,
)
from .pneumatics import (
    LineLossResult,
    NetSupplyResult,
    bernoulli_balance,
    constriction_pressure_drop,
    continuity_velocity,
    line_loss_total,
    net_supply_vacuum,
    parallel_flow_split,
    solve_pressure_from_balance,
)
from .statics import holding_force, per_gripper_force, required_pressure
from .vgtc import (
    Layout,
    Vgtc,
    adjusted_min_pressure,
    calibrate_spacing,
    circle_polygon_intersection_area,
    effective_ratio,
    effective_ratios,
    generate_layout,
)

__version__ = "0.1.0"

__all__ = [
    # model
    "PhysicalConstants", "FabricPiece", "MotionProfile", "SuctionCup",
    "VacuumGenerator", "PipeSegment", "EnergyHeads", "FlowState",
    "PressureWindow", "Polygon", "Permeability", "LoadCase",
    "ValidationError", "UnitError", "convert_units",
    # statics
    "holding_force", "required_pressure", "per_gripper_force",
    # pneumatics
    "LineLossResult", "NetSupplyResult", "continuity_velocity",
    "constriction_pressure_drop", "bernoulli_balance",
    "solve_pressure_from_balance", "net_supply_vacuum",
    "parallel_flow_split", "line_loss_total",
    # vgtc
    "Vgtc", "Layout", "circle_polygon_intersection_area", "effective_ratio",
    "effective_ratios", "adjusted_min_pressure", "generate_layout", "calibrate_spacing",
    # feasibility
    "Scenario", "GraspReport", "Verdict", "evaluate", "run_corpus",
    "CorpusRow", "CorpusEntry", "scenario_from_row",
]
