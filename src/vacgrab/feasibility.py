"""Scenario evaluation: compose statics, line losses, and layout geometry
into a single pass/fail grasp verdict with a full audit trail.

The pipeline per scenario:

1. cup_demand: holding force for the load case and the vacuum it needs
   (force = pressure * area) on one cup carrying the whole piece
   (conservative) and shared across the bank;
2. line_supply: line loss over the bore changes, net vacuum at the cup
   and the line's advisories (`pressure` and `line-loss` run these too);
3. with a calibrated grabbing circle, layout_stage: the gripper layout
   and its effective ratios (vgtc.effective_ratios, the values `plan`
   lists and the SVG shades by), then edge-inflated minimum pressures;
4. the verdict. Each stage names its own errors, whichever command runs
   it: line_supply prefixes LINE_LOSS_STAGE, layout_stage LAYOUT_STAGE.

Verdict rules: Fail when the net supply cannot cover the largest
pressure demand. Otherwise air-impermeable fabric passes outright
(excess suction cannot pull air through it, so multi-layer pickup is
not a risk). Air-permeable fabric passes only inside a known pressure
window; above the window it is PassWithMultiLayerRisk, and without a
calibrated window maximum it is Uncalibrated.

Every stage runs at model.AMBIENT: no scenario sets g or rho.
Evaluations are pure and deterministic; corpus rows are independent,
so a batch may run them in any order without changing the output
ordering, and one bad row never aborts the rest.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from . import pneumatics, statics
from .model import (
    FabricPiece,
    MotionProfile,
    Permeability,
    PipeSegment,
    Polygon,
    Record,
    SuctionCup,
    VacuumGenerator,
    ValidationError,
    _echo,
    require_range,
)
from .vgtc import Layout, Vgtc, adjusted_min_pressure, effective_ratios, generate_layout
# not called here: bench/vgbench/trace.py resolves and patches this name
from .vgtc import effective_ratio  # noqa: F401

# reference masses when a corpus row names only the application
MASS_BY_APPLICATION = {
    "pocket bag": 2.5e-3,  # kg
    "pocket facing": 2.0e-3,  # kg
}
DEFAULT_FRICTION = 0.5
DEFAULT_EDGE_MARGIN = 0.02  # m
DEFAULT_ORIFICE_DIAMETER = 2e-3  # m
LINE_LOSS_STAGE = "line-loss stage: "
LAYOUT_STAGE = "layout stage: "
# the corpus rig's fixed parts: frozen Records, so every row's scenario shares them
REFERENCE_MOTION = MotionProfile()
REFERENCE_LINE = (PipeSegment(inner_diameter=2e-3),)


class Verdict(enum.Enum):
    PASS = "Pass"
    FAIL = "Fail"
    PASS_WITH_MULTI_LAYER_RISK = "PassWithMultiLayerRisk"
    UNCALIBRATED = "Uncalibrated"


class Scenario(Record):
    """Everything needed to judge one pick: piece, rig, motion, line."""

    fabric: FabricPiece
    motion: MotionProfile
    cup: SuctionCup
    generator: VacuumGenerator
    line: tuple[PipeSegment, ...]
    upstream_velocity: float  # m/s entering the first segment
    vgtc: Vgtc | None = None
    margin: float = DEFAULT_EDGE_MARGIN

    def __post_init__(self):
        object.__setattr__(self, "line", tuple(self.line))
        if not self.line:
            raise ValidationError("line must have at least one segment")
        if not all(isinstance(seg, PipeSegment) for seg in self.line):
            raise ValidationError("line entries must be PipeSegment values")
        require_range("upstream_velocity", self.upstream_velocity, 0)
        require_range("margin", self.margin, 0)


# a dataclass, not a Record: bench/tests copy it with dataclasses.replace
@dataclass(frozen=True)
class GraspReport:
    """Audit trail for one evaluated scenario."""

    fabric_id: str
    gripper_count: int
    holding_force: float  # N
    required_pressure_single_cup: float  # Pa, whole piece on one cup
    required_pressure_shared: float  # Pa, piece shared across the bank
    line_loss: float  # Pa
    net_supply: float  # Pa magnitude at the cup
    layout: Layout | None
    effective_ratios: tuple[float, ...]
    verdict: Verdict
    advisories: tuple[str, ...]


def cup_demand(fabric: FabricPiece, motion: MotionProfile, cup: SuctionCup) -> tuple[float, float, float]:
    """Holding force (N) and the vacuum (Pa) it needs on one cup and shared across the bank."""
    force = statics.holding_force(fabric, motion)
    single = statics.required_pressure(force, cup)
    return force, single, statics.required_pressure(statics.per_gripper_force(force, cup), cup)


def line_supply(
    line: Sequence[PipeSegment], upstream_velocity: float, generator: VacuumGenerator
) -> tuple[float, list[pneumatics.LineLossResult], pneumatics.NetSupplyResult, list[str]]:
    """The line loss applied to the supply, its steps, the net vacuum at the cup and the line's advisories.

    The loss is the signed total clamped at 0: a net pressure recovery
    along the line is ignored (with an advisory), not added to the
    supply. The signed per-step delta_p values are in the steps.
    """
    advisories: list[str] = []
    try:
        loss, steps = pneumatics.line_loss_total(line, upstream_velocity)
    except ValidationError as exc:
        raise ValidationError(LINE_LOSS_STAGE + str(exc)) from exc
    for i, step in enumerate(steps, start=1):
        if step.mach_advisory:
            advisories.append(
                f"line step {i}: velocity {max(step.upstream_velocity, step.downstream_velocity):.1f} m/s "
                f"exceeds {pneumatics.MACH_ADVISORY_VELOCITY:.0f} m/s; "
                "incompressible model unreliable"
            )
        if step.pressure_recovery:
            advisories.append(f"line step {i}: bore expands, pressure recovery predicted")
    if loss < 0:
        advisories.append("net line pressure recovery ignored; loss clamped to 0")
        loss = 0.0
    net = pneumatics.net_supply_vacuum(generator, loss)
    if net.clamped:
        advisories.append("line loss exceeds generator vacuum; no usable vacuum at the cup")
    return loss, steps, net, advisories


def layout_stage(circle: Vgtc, outline: Polygon, margin: float, spacing: float) -> tuple[Layout, tuple[float, ...]]:
    """The grid at `spacing` inside `margin` and each position's effective ratio."""
    try:
        layout = generate_layout(outline, margin, spacing)
        return layout, effective_ratios(circle, outline, layout)
    except ValidationError as exc:
        raise ValidationError(LAYOUT_STAGE + str(exc)) from exc


def evaluate(scenario: Scenario) -> GraspReport:
    """Run the full grasp-feasibility pipeline for one scenario."""
    force, req_single, req_shared = cup_demand(scenario.fabric, scenario.motion, scenario.cup)
    loss, _, net, advisories = line_supply(scenario.line, scenario.upstream_velocity, scenario.generator)

    layout: Layout | None = None
    ratios: tuple[float, ...] = ()
    demand = req_single
    p_max = None
    if (circle := scenario.vgtc) is not None:
        layout, ratios = layout_stage(circle, scenario.fabric.outline, scenario.margin, circle.radius)
        p_max = circle.pressure_window.p_max
        # p_min / r is correctly rounded and falls as r rises: min(ratios) sets the demand
        demand = max(demand, adjusted_min_pressure(circle.pressure_window, min(ratios)))

    permeable = scenario.fabric.permeability is Permeability.AIR_PERMEABLE
    verdict = Verdict.PASS
    if net.pressure < demand:
        verdict = Verdict.FAIL
    elif permeable and p_max is None:
        verdict = Verdict.UNCALIBRATED
        advisories.append(
            "air-permeable fabric with no calibrated window maximum; single-layer pickup not assured"
        )
    elif p_max is not None and net.pressure > p_max:
        verdict = Verdict.PASS_WITH_MULTI_LAYER_RISK if permeable else Verdict.PASS
        risk = "may lift more than one layer" if permeable else "harmless for air-impermeable fabric"
        advisories.append(f"net supply {net.pressure:.0f} Pa exceeds window maximum {p_max:.0f} Pa; {risk}")

    return GraspReport(
        fabric_id=scenario.fabric.id,
        gripper_count=scenario.cup.count,
        holding_force=force,
        required_pressure_single_cup=req_single,
        required_pressure_shared=req_shared,
        line_loss=loss,
        net_supply=net.pressure,
        layout=layout,
        effective_ratios=ratios,
        verdict=verdict,
        advisories=tuple(advisories),
    )


# ---------------------------------------------------------------------------
# corpus batches

class CorpusRow(Record):
    """One line of a grabbing-test table, SI-converted."""

    lot: str
    application: str
    fabric_code: str
    material: str
    gripper_count: int
    length_m: float
    width_m: float
    supply_pressure: float  # Pa magnitude, net at the gripper
    expected: str  # recorded bench result, e.g. "Pass"


# a dataclass, not a Record: bench/tests copy it with dataclasses.replace
@dataclass(frozen=True)
class CorpusEntry:
    """run_corpus output slot: a report, or an error that replaced it."""

    index: int
    label: str
    report: GraspReport | None
    error: str | None


def scenario_from_row(row: CorpusRow) -> Scenario:
    """Build the reference rig for a corpus row.

    The table records the vacuum delivered at the gripper, so the
    generator is set to that magnitude over a lossless single-segment
    line. Masses come from the reference pieces keyed by application.
    The four text fields must be str.
    """
    for field in ("lot", "application", "fabric_code", "material"):
        value = getattr(row, field)
        if not isinstance(value, str):
            raise ValidationError(f"{field} must be text, got {_echo(value)}", field)
    key = row.application.strip().casefold()
    if key not in MASS_BY_APPLICATION:
        raise ValidationError(
            f"no reference mass for application {_echo(row.application)}; "
            f"known: {sorted(MASS_BY_APPLICATION)}"
        )
    fabric = FabricPiece(
        id=f"lot{row.lot}-{row.fabric_code}",
        outline=Polygon.rectangle(row.length_m, row.width_m),
        mass=MASS_BY_APPLICATION[key],
        friction_coefficient=DEFAULT_FRICTION,
        permeability=Permeability.AIR_IMPERMEABLE,
        material=row.material,
    )
    return Scenario(
        fabric=fabric,
        motion=REFERENCE_MOTION,
        cup=SuctionCup(orifice_diameter=DEFAULT_ORIFICE_DIAMETER, count=row.gripper_count),
        generator=VacuumGenerator(max_vacuum=row.supply_pressure),
        line=REFERENCE_LINE,
        upstream_velocity=0.0,
    )


def run_corpus(rows: Iterable[CorpusRow]) -> list[CorpusEntry]:
    """Evaluate rows in order; a bad row becomes an error entry, not an abort."""
    entries: list[CorpusEntry] = []
    for index, row in enumerate(rows):
        try:
            report, error = evaluate(scenario_from_row(row)), None
        except ValueError as exc:  # ValidationError and UnitError among them
            report, error = None, str(exc)
        entries.append(CorpusEntry(index=index, label=row.lot, report=report, error=error))
    return entries
