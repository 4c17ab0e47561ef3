"""Theoretical holding forces and the suction pressure needed to reach them.

Two load cases are modeled. A plate lift pulls the piece straight up:
force = m * (g + a) * S. A friction lift must also defeat sliding and
divides by the friction coefficient: force = (m / mu) * (g + a) * S.
Which case fits a given pick is a modeling choice; nothing here
guesses. The MotionProfile selector decides, and callers wanting the
conservative number use the friction case (never smaller for mu <= 1).

required_pressure() inverts force = pressure * orifice_area for one
cup; per_gripper_force() splits a whole-piece force across a cup bank.
"""

from __future__ import annotations

from .model import (
    FabricPiece,
    LoadCase,
    MotionProfile,
    PhysicalConstants,
    SuctionCup,
    ValidationError,
)


def holding_force(
    fabric: FabricPiece,
    motion: MotionProfile,
    consts: PhysicalConstants = PhysicalConstants(),
) -> float:
    """Holding force in N for motion.load_case.

    A plate lift needs m*(g+a)*S; when friction carries the piece the
    mass is divided by the friction coefficient: (m/mu)*(g+a)*S.
    """
    mass = fabric.mass
    if motion.load_case is LoadCase.FRICTION_LIFT:
        mass = mass / fabric.friction_coefficient
    return mass * (consts.gravity + motion.acceleration) * motion.safety_factor


def required_pressure(force: float, cup: SuctionCup) -> float:
    """Vacuum magnitude one cup needs to produce `force`: P = F / A."""
    if force < 0:
        raise ValidationError(f"force must be >= 0, got {force}")
    return force / cup.area


def per_gripper_force(total_force: float, cup: SuctionCup) -> float:
    """Share of the whole-piece force carried by each cup in the bank."""
    if total_force < 0:
        raise ValidationError(f"total_force must be >= 0, got {total_force}")
    return total_force / cup.count
