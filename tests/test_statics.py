import math

import pytest
from hypothesis import given, strategies as st

from vacgrab import (
    FabricPiece,
    LoadCase,
    MotionProfile,
    Polygon,
    SuctionCup,
    ValidationError,
    holding_force,
    per_gripper_force,
    required_pressure,
)


def fabric(mass, mu=0.5):
    return FabricPiece(id="f", outline=Polygon.rectangle(0.1, 0.1), mass=mass, friction_coefficient=mu)


PLATE = MotionProfile(load_case=LoadCase.PLATE_LIFT)
FRICTION = MotionProfile(load_case=LoadCase.FRICTION_LIFT)


# ---------------------------------------------------------------------------
# plate lift

def test_plate_lift_reference_values():
    force = holding_force(fabric(2.5e-3), PLATE)
    assert force == pytest.approx(0.07405, abs=1e-9)


def test_plate_lift_static_weight():
    force = holding_force(
        fabric(1.0), MotionProfile(acceleration=0, safety_factor=1, load_case=LoadCase.PLATE_LIFT)
    )
    assert force == pytest.approx(9.81, rel=1e-12)


def test_plate_lift_tiny_mass_linearity():
    force = holding_force(fabric(1e-9), PLATE)
    assert force == pytest.approx(1e-9 * 29.62, rel=1e-12)


# ---------------------------------------------------------------------------
# friction lift

def test_friction_lift_pocket_bag():
    force = holding_force(fabric(2.5e-3, mu=0.5), FRICTION)
    assert force == pytest.approx(0.148, abs=1e-3)


def test_friction_lift_pocket_facing():
    force = holding_force(fabric(2.0e-3, mu=0.5), FRICTION)
    assert force == pytest.approx(0.118, abs=1e-3)


def test_friction_lift_mu_one_reduces_to_weight():
    motion = MotionProfile(acceleration=0, safety_factor=1, load_case=LoadCase.FRICTION_LIFT)
    force = holding_force(fabric(0.5, mu=1.0), motion)
    assert force == pytest.approx(0.5 * 9.81, rel=1e-12)


def test_dispatch_follows_selector():
    piece = fabric(1e-3, mu=0.5)
    plate = holding_force(piece, PLATE)
    assert plate == pytest.approx(1e-3 * 29.62, rel=1e-12)
    assert holding_force(piece, FRICTION) == pytest.approx(plate / 0.5, rel=1e-15)


# ---------------------------------------------------------------------------
# required pressure and force sharing

def test_required_pressure_pocket_bag():
    cup = SuctionCup(orifice_diameter=2e-3)
    assert required_pressure(0.148, cup) == pytest.approx(47_111, rel=0.01)


def test_required_pressure_pocket_facing():
    cup = SuctionCup(orifice_diameter=2e-3)
    assert required_pressure(0.118, cup) == pytest.approx(37_561, rel=0.01)


def test_required_pressure_zero_force():
    assert required_pressure(0.0, SuctionCup(orifice_diameter=2e-3)) == 0.0


def test_required_pressure_rejects_negative():
    with pytest.raises(ValidationError):
        required_pressure(-0.1, SuctionCup(orifice_diameter=2e-3))


@given(
    force=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
    diameter=st.floats(min_value=1e-4, max_value=0.1, allow_nan=False),
)
def test_pressure_is_exact_inverse_of_force(force, diameter):
    cup = SuctionCup(orifice_diameter=diameter)
    recovered = required_pressure(force, cup) * cup.area
    assert abs(recovered - force) / force < 1e-12


def test_per_gripper_force_identity_and_split():
    cup1 = SuctionCup(orifice_diameter=2e-3, count=1)
    cup6 = SuctionCup(orifice_diameter=2e-3, count=6)
    assert per_gripper_force(0.148, cup1) == 0.148
    assert per_gripper_force(0.148, cup6) == pytest.approx(0.024667, abs=1e-6)
    assert per_gripper_force(0.0, cup6) == 0.0


# ---------------------------------------------------------------------------
# scaling properties

@given(
    m=st.floats(min_value=1e-6, max_value=10, allow_nan=False),
    scale=st.floats(min_value=1.1, max_value=10, allow_nan=False),
)
def test_force_linear_in_mass(m, scale):
    f1 = holding_force(fabric(m), FRICTION)
    f2 = holding_force(fabric(m * scale), FRICTION)
    assert f2 == pytest.approx(f1 * scale, rel=1e-9)


@given(
    s1=st.floats(min_value=1, max_value=5, allow_nan=False),
    s2=st.floats(min_value=1, max_value=5, allow_nan=False),
)
def test_force_linear_in_safety_factor(s1, s2):
    def force(s):
        motion = MotionProfile(safety_factor=s, load_case=LoadCase.FRICTION_LIFT)
        return holding_force(fabric(1e-3), motion)

    assert force(s1) * s2 == pytest.approx(force(s2) * s1, rel=1e-9)


@given(
    a_lo=st.floats(min_value=0, max_value=50, allow_nan=False),
    a_hi=st.floats(min_value=0, max_value=50, allow_nan=False),
)
def test_force_monotone_in_acceleration(a_lo, a_hi):
    a_lo, a_hi = sorted((a_lo, a_hi))

    def force(a):
        motion = MotionProfile(acceleration=a, load_case=LoadCase.FRICTION_LIFT)
        return holding_force(fabric(1e-3), motion)

    assert force(a_hi) >= force(a_lo)


@given(
    mu_lo=st.floats(min_value=0.05, max_value=2, allow_nan=False),
    mu_hi=st.floats(min_value=0.05, max_value=2, allow_nan=False),
)
def test_friction_force_strictly_decreasing_in_mu(mu_lo, mu_hi):
    mu_lo, mu_hi = sorted((mu_lo, mu_hi))
    f_lo = holding_force(fabric(1e-3, mu=mu_lo), FRICTION)
    f_hi = holding_force(fabric(1e-3, mu=mu_hi), FRICTION)
    if mu_lo < mu_hi:
        assert f_lo > f_hi


@given(m=st.floats(min_value=1e-6, max_value=10, allow_nan=False))
def test_friction_with_mu_one_equals_plate(m):
    plate = holding_force(fabric(m, mu=1.0), PLATE)
    friction = holding_force(fabric(m, mu=1.0), FRICTION)
    assert friction == pytest.approx(plate, rel=1e-15)
