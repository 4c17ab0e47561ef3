"""Incompressible line-flow analysis for the suction side.

The model is a steady energy balance between any two stations of the
line plus volumetric continuity across bore changes:

    P1 + rho*v1^2/2 + rho*g*h1 + rho*g*H_pump
        = P2 + rho*v2^2/2 + rho*g*h2 + rho*g*(H_loss + H_turbine)

    A1*v1 = A2*v2

Substituting continuity into the level, head-free balance gives the
constriction drop used for hose steps:

    P1 - P2 = rho/2 * v1^2 * ((A1/A2)^2 - 1)

The incompressible model is kept even where the implied downstream
velocity turns transonic; results carry a Mach advisory flag whenever
a velocity exceeds MACH_ADVISORY_VELOCITY so callers can surface an
honest warning instead of silently trusting the arithmetic.

Head terms are meters of fluid column; conversion to Pa uses rho*g of
the working air. The energy-balance functions take it as `consts`
(default model.AMBIENT); line_loss_total always runs at AMBIENT.

Numeric arguments are checked with model.require_range (counts with
model.require_count): finite, in their domain, never nan.
continuity_velocity's v1 and net_supply_vacuum's loss may also be +inf,
since a line whose arithmetic overflows is a valid run with an infinite loss.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .model import (
    AMBIENT,
    EnergyHeads,
    FlowState,
    PhysicalConstants,
    PipeSegment,
    Record,
    VacuumGenerator,
    ValidationError,
    require_count,
    require_range,
)

# above this speed the incompressible assumption is not trustworthy
MACH_ADVISORY_VELOCITY = 100.0  # m/s

# parallel_flow_split returns a float per branch; a larger count is refused, not allocated
MAX_BRANCHES = 10**6


class LineLossResult(Record):
    """Pressure change across one bore step.

    delta_p is signed: positive for a contraction (a loss), negative
    for an expansion (pressure recovery, flagged because the model was
    derived for contractions).
    """

    delta_p: float  # Pa
    upstream_velocity: float  # m/s
    downstream_velocity: float  # m/s
    area_ratio: float  # A1/A2
    pressure_recovery: bool
    mach_advisory: bool


class NetSupplyResult(Record):
    """Vacuum magnitude left at the cup after line losses."""

    pressure: float  # Pa magnitude; 0 means no usable vacuum reaches the cup
    clamped: bool  # True when losses exceeded the generator's vacuum


def continuity_velocity(a1: float, v1: float, a2: float) -> float:
    """Downstream velocity from volumetric continuity: v2 = v1 * A1/A2."""
    require_range("a1", a1, 0, above=True)
    require_range("a2", a2, 0, above=True)
    v1 = require_range("v1", v1, 0, math.inf)
    return v1 * (a1 / a2) if v1 else 0.0  # no flow stays none where A1/A2 overflows


def constriction_pressure_drop(
    upstream: PipeSegment,
    downstream: PipeSegment,
    v1: float,
    consts: PhysicalConstants = AMBIENT,
) -> LineLossResult:
    """Pressure drop across a bore change at equal elevation.

    A height difference between stations goes through
    solve_pressure_from_balance instead.
    """
    a1 = upstream.area
    a2 = downstream.area
    ratio = a1 / a2
    v2 = continuity_velocity(a1, v1, a2)
    delta_p = 0.5 * consts.air_density * v1 * v1 * (ratio * ratio - 1.0) if v1 else 0.0  # no flow, no loss
    return LineLossResult(
        delta_p=delta_p,
        upstream_velocity=v1,
        downstream_velocity=v2,
        area_ratio=ratio,
        pressure_recovery=delta_p < 0.0,
        mach_advisory=max(v1, v2) > MACH_ADVISORY_VELOCITY,
    )


def bernoulli_balance(
    state1: FlowState,
    state2: FlowState,
    heads: EnergyHeads = EnergyHeads(),
    consts: PhysicalConstants = AMBIENT,
) -> float:
    """Signed energy residual between two stations, in Pa.

    Zero means the states are energy-consistent. The head form is
    multiplied through by rho*g so the residual is directly a pressure.
    """
    rho = consts.air_density
    g = consts.gravity
    lhs = (
        state1.pressure
        + 0.5 * rho * state1.velocity**2
        + rho * g * state1.elevation
        + rho * g * heads.pump_head
    )
    rhs = (
        state2.pressure
        + 0.5 * rho * state2.velocity**2
        + rho * g * state2.elevation
        + rho * g * (heads.loss_head + heads.turbine_head)
    )
    return lhs - rhs


def solve_pressure_from_balance(
    known: FlowState,
    unknown_velocity: float,
    unknown_elevation: float,
    heads: EnergyHeads = EnergyHeads(),
    consts: PhysicalConstants = AMBIENT,
) -> float:
    """Station-2 pressure that balances the energy equation exactly."""
    require_range("unknown_velocity", unknown_velocity, 0)
    require_range("unknown_elevation", unknown_elevation)
    rho = consts.air_density
    g = consts.gravity
    return (
        known.pressure
        + 0.5 * rho * (known.velocity**2 - unknown_velocity**2)
        + rho * g * (known.elevation - unknown_elevation)
        + rho * g * (heads.pump_head - heads.loss_head - heads.turbine_head)
    )


def net_supply_vacuum(generator: VacuumGenerator, loss: float) -> NetSupplyResult:
    """Vacuum magnitude reaching the cup: max(0, max_vacuum - loss)."""
    remaining = generator.max_vacuum - require_range("loss", loss, 0, math.inf)
    return NetSupplyResult(pressure=max(0.0, remaining), clamped=remaining < 0.0)


def parallel_flow_split(
    total_flow: float,
    branch_count: int,
    weights: Sequence[float] | None = None,
) -> list[float]:
    """Split a generator flow across parallel branches.

    Equal split when no weights are given, proportional otherwise. The
    last branch absorbs the rounding residue so the returned flows sum
    back to total_flow within one ulp. branch_count is 1 to MAX_BRANCHES.
    """
    require_count("branch_count", branch_count, MAX_BRANCHES)
    require_range("total_flow", total_flow, 0)
    if weights is None:
        w = [1.0] * branch_count
    else:
        w = [float(require_range("weights", x, 0, above=True)) for x in weights]
        if len(w) != branch_count:
            raise ValidationError(
                f"weights length {len(w)} does not match branch_count {branch_count}"
            )
    try:
        wsum = math.fsum(w)
    except OverflowError:
        raise ValidationError("weights must have a finite sum", "weights") from None
    flows = [total_flow * (x / wsum) for x in w]
    flows[-1] = total_flow - math.fsum(flows[:-1])
    return flows


def line_loss_total(segments: Sequence[PipeSegment], upstream_velocity: float) -> tuple[float, list[LineLossResult]]:
    """Summed constriction drop over consecutive segment pairs, in AMBIENT air.

    The velocity entering the first segment is given; velocities in
    later segments follow from continuity. A single-segment line has no
    bore change and loses nothing. Steps whose sum is undefined (a nan
    step, or +inf and -inf steps) are outside the model's range and
    raise ValidationError; finite steps whose sum overflows give inf.
    """
    if not segments:
        raise ValidationError("line must have at least one segment")
    details: list[LineLossResult] = []
    v = require_range("upstream_velocity", upstream_velocity, 0, math.inf)
    for up, down in zip(segments, segments[1:]):
        step = constriction_pressure_drop(up, down, v)
        details.append(step)
        v = step.downstream_velocity
    deltas = [d.delta_p for d in details]
    try:
        total = math.fsum(deltas)
    except OverflowError:  # finite steps whose exact sum no float holds
        total = math.copysign(math.inf, sum(deltas))
    except ValueError:  # +inf and -inf steps
        total = math.nan
    if math.isnan(total):
        i, delta = next((i, x) for i, x in enumerate(deltas, start=1) if not math.isfinite(x))
        raise ValidationError(
            f"line step {i}: pressure change {delta} Pa is not finite, so the line loss is undefined"
        )
    return total, details
