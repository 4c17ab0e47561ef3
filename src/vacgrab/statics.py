"""Theoretical holding forces and the suction pressure needed to reach them.

Two load cases are modeled. A plate lift pulls the piece straight up:
force = m * (g + a) * S. A friction lift must also defeat sliding and
divides by the friction coefficient: force = (m / mu) * (g + a) * S.
g is model.AMBIENT.gravity; no input changes it.
Which case fits a given pick is a modeling choice; nothing here
guesses. The MotionProfile selector decides, and callers wanting the
conservative number use the friction case (never smaller for mu <= 1).

required_pressure() inverts force = pressure * orifice_area for one
cup; per_gripper_force() splits a whole-piece force across a cup bank.
Both take a force >= 0 and refuse nan; +inf passes, since a force
that overflows is still a valid (failing) sizing.
"""

from __future__ import annotations

import math

from .model import AMBIENT, FabricPiece, LoadCase, MotionProfile, SuctionCup, require_range


def holding_force(fabric: FabricPiece, motion: MotionProfile) -> float:
    """Holding force in N for motion.load_case, at AMBIENT gravity.

    A plate lift needs m*(g+a)*S; when friction carries the piece the
    mass is divided by the friction coefficient: (m/mu)*(g+a)*S.
    """
    mass = fabric.mass
    if motion.load_case is LoadCase.FRICTION_LIFT:
        mass = mass / fabric.friction_coefficient
    return mass * (AMBIENT.gravity + motion.acceleration) * motion.safety_factor


def required_pressure(force: float, cup: SuctionCup) -> float:
    """Vacuum magnitude one cup needs to produce `force`: P = F / A."""
    return require_range("force", force, 0, math.inf) / cup.area


def per_gripper_force(total_force: float, cup: SuctionCup) -> float:
    """Share of the whole-piece force carried by each cup in the bank."""
    return require_range("total_force", total_force, 0, math.inf) / cup.count
