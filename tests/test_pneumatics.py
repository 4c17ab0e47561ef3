import math

import pytest
from hypothesis import given, strategies as st

from vacgrab import (
    EnergyHeads,
    FlowState,
    PhysicalConstants,
    PipeSegment,
    VacuumGenerator,
    ValidationError,
    bernoulli_balance,
    constriction_pressure_drop,
    continuity_velocity,
    line_loss_total,
    net_supply_vacuum,
    parallel_flow_split,
    solve_pressure_from_balance,
)

SUPPLY_PIPE = PipeSegment(inner_diameter=5.2e-3)
CUP_PIPE = PipeSegment(inner_diameter=2.0e-3)


# ---------------------------------------------------------------------------
# continuity

def test_continuity_reference_step_up():
    v2 = continuity_velocity(2.123e-5, 37.14, 3.141e-6)
    assert v2 == pytest.approx(251.0, abs=0.5)


def test_continuity_identity_and_zero():
    assert continuity_velocity(1e-5, 12.0, 1e-5) == 12.0
    assert continuity_velocity(1e-5, 0.0, 3e-6) == 0.0


def test_continuity_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        continuity_velocity(0.0, 1.0, 1e-5)
    with pytest.raises(ValidationError):
        continuity_velocity(1e-5, -1.0, 1e-5)


@given(
    d1=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
    d2=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
    v1=st.floats(min_value=1e-3, max_value=300, allow_nan=False),
)
def test_mass_conservation(d1, d2, v1):
    a1 = PipeSegment(inner_diameter=d1).area
    a2 = PipeSegment(inner_diameter=d2).area
    v2 = continuity_velocity(a1, v1, a2)
    assert abs(a1 * v1 - a2 * v2) / (a1 * v1) < 1e-12


def test_mass_conservation_zero_flow():
    assert continuity_velocity(1e-5, 0.0, 3e-6) == 0.0


# ---------------------------------------------------------------------------
# constriction pressure drop

def test_constriction_reference_value(consts):
    res = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, 37.14, consts)
    assert res.delta_p == pytest.approx(37_018, abs=500)
    assert res.downstream_velocity == pytest.approx(251.0, abs=0.5)
    assert res.mach_advisory
    assert not res.pressure_recovery


def test_constriction_no_bore_change():
    res = constriction_pressure_drop(SUPPLY_PIPE, SUPPLY_PIPE, 37.14)
    assert res.delta_p == 0.0
    assert res.area_ratio == 1.0


def test_constriction_no_flow():
    res = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, 0.0)
    assert res.delta_p == 0.0
    assert not res.mach_advisory


def test_constriction_no_flow_through_an_area_ratio_that_overflows():
    # A1/A2 is inf; no flow must still mean no speed and no loss, not 0 * inf = nan
    res = constriction_pressure_drop(PipeSegment(1e150), PipeSegment(1e-150), 0.0)
    assert (res.delta_p, res.downstream_velocity, res.area_ratio) == (0.0, 0.0, math.inf)
    assert not res.pressure_recovery and not res.mach_advisory
    assert continuity_velocity(1e300, 0.0, 1e-300) == 0.0


def test_expansion_flags_pressure_recovery():
    res = constriction_pressure_drop(CUP_PIPE, SUPPLY_PIPE, 10.0)
    assert res.delta_p < 0
    assert res.pressure_recovery


@given(
    v=st.floats(min_value=0.1, max_value=80, allow_nan=False),
    scale=st.floats(min_value=1.2, max_value=4, allow_nan=False),
)
def test_delta_p_quadratic_in_velocity(v, scale):
    base = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, v).delta_p
    scaled = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, v * scale).delta_p
    assert scaled == pytest.approx(base * scale * scale, rel=1e-9)


@given(rho=st.floats(min_value=0.2, max_value=8, allow_nan=False))
def test_delta_p_linear_in_density(rho):
    consts = PhysicalConstants(air_density=rho)
    unit = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, 20.0, PhysicalConstants(air_density=1.0))
    scaled = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, 20.0, consts)
    assert scaled.delta_p == pytest.approx(unit.delta_p * rho, rel=1e-12)


# ---------------------------------------------------------------------------
# energy balance

def test_balance_identical_states_is_zero(consts):
    state = FlowState(pressure=-92_000.0, velocity=37.14, elevation=0.3)
    assert bernoulli_balance(state, state, EnergyHeads(), consts) == 0.0


def test_balance_elevation_only(consts):
    lo = FlowState(pressure=0.0, velocity=0.0, elevation=0.0)
    hi = FlowState(pressure=0.0, velocity=0.0, elevation=1.0)
    residual = bernoulli_balance(hi, lo, EnergyHeads(), consts)
    assert residual == pytest.approx(1.204 * 9.81, rel=1e-12)  # ~11.81 Pa


def test_balance_consistent_with_constriction(consts):
    v1 = 37.14
    drop = constriction_pressure_drop(SUPPLY_PIPE, CUP_PIPE, v1, consts)
    state1 = FlowState(pressure=-55_000.0, velocity=v1)
    state2 = FlowState(pressure=-55_000.0 - drop.delta_p, velocity=drop.downstream_velocity)
    residual = bernoulli_balance(state1, state2, EnergyHeads(), consts)
    scale = abs(state1.pressure) + 0.5 * consts.air_density * drop.downstream_velocity**2
    assert abs(residual) < 1e-6 * scale


@given(
    p1=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    p2=st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
    v1=st.floats(min_value=0, max_value=300, allow_nan=False),
    v2=st.floats(min_value=0, max_value=300, allow_nan=False),
    h1=st.floats(min_value=-10, max_value=10, allow_nan=False),
    h2=st.floats(min_value=-10, max_value=10, allow_nan=False),
)
def test_balance_antisymmetric(p1, p2, v1, v2, h1, h2):
    a = FlowState(pressure=p1, velocity=v1, elevation=h1)
    b = FlowState(pressure=p2, velocity=v2, elevation=h2)
    assert bernoulli_balance(a, b) == pytest.approx(-bernoulli_balance(b, a), abs=1e-9)


def test_solve_pressure_identity():
    known = FlowState(pressure=-92_000.0, velocity=10.0, elevation=0.5)
    p2 = solve_pressure_from_balance(known, 10.0, 0.5)
    assert p2 == known.pressure


def test_solve_pressure_reference_scenario(consts):
    v1 = 37.14
    v2 = continuity_velocity(SUPPLY_PIPE.area, v1, CUP_PIPE.area)
    known = FlowState(pressure=0.0, velocity=v1, elevation=0.0)
    p2 = solve_pressure_from_balance(known, v2, 0.0, EnergyHeads(), consts)
    assert known.pressure - p2 == pytest.approx(37_018, abs=500)


def test_solve_pressure_loss_head_only(consts):
    known = FlowState(pressure=1_000.0, velocity=0.0, elevation=0.0)
    p2 = solve_pressure_from_balance(known, 0.0, 0.0, EnergyHeads(loss_head=2.0), consts)
    assert p2 == pytest.approx(1_000.0 - 1.204 * 9.81 * 2.0, rel=1e-12)


@given(
    v1=st.floats(min_value=0, max_value=100, allow_nan=False),
    d1=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
    d2=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
    rho=st.floats(min_value=0.5, max_value=5, allow_nan=False),
)
def test_constriction_equals_balance_solution(v1, d1, d2, rho):
    # the substitution of continuity into the level energy balance
    consts = PhysicalConstants(air_density=rho)
    up = PipeSegment(inner_diameter=d1)
    down = PipeSegment(inner_diameter=d2)
    drop = constriction_pressure_drop(up, down, v1, consts)
    v2 = continuity_velocity(up.area, v1, down.area)
    known = FlowState(pressure=0.0, velocity=v1, elevation=0.0)
    p2 = solve_pressure_from_balance(known, v2, 0.0, EnergyHeads(), consts)
    via_balance = known.pressure - p2
    # tolerance scaled to the dynamic pressure, the largest term subtracted
    scale = max(abs(drop.delta_p), abs(via_balance), 0.5 * rho * max(v1, v2) ** 2, 1.0)
    assert abs(drop.delta_p - via_balance) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# net supply

def test_net_supply_reference():
    res = net_supply_vacuum(VacuumGenerator(max_vacuum=92_000.0), 37_000.0)
    assert res.pressure == 55_000.0
    assert not res.clamped


def test_net_supply_lossless():
    res = net_supply_vacuum(VacuumGenerator(), 0.0)
    assert res.pressure == 92_000.0


def test_net_supply_over_loss_clamps():
    res = net_supply_vacuum(VacuumGenerator(), 100_000.0)
    assert res.pressure == 0.0
    assert res.clamped


def test_net_supply_rejects_negative_loss():
    with pytest.raises(ValidationError):
        net_supply_vacuum(VacuumGenerator(), -1.0)


# ---------------------------------------------------------------------------
# flow plumbing

def test_parallel_split_reference():
    flows = parallel_flow_split(1.05e-3, 6)
    assert len(flows) == 6
    for q in flows:
        assert q == pytest.approx(1.75e-4, rel=1e-12)
    assert math.fsum(flows) == pytest.approx(1.05e-3, abs=0.0)


def test_parallel_split_single_branch_identity():
    assert parallel_flow_split(4.2e-4, 1) == [4.2e-4]


def test_parallel_split_weighted():
    flows = parallel_flow_split(4e-4, 3, weights=(1, 1, 2))
    assert flows[0] == pytest.approx(1e-4, rel=1e-12)
    assert flows[1] == pytest.approx(1e-4, rel=1e-12)
    assert flows[2] == pytest.approx(2e-4, rel=1e-12)


def test_parallel_split_refuses_weights_whose_sum_overflows():
    with pytest.raises(ValidationError, match="finite sum") as err:
        parallel_flow_split(1.0, 2, (1e308, 1e308))
    assert err.value.field == "weights"


def test_parallel_split_weight_mismatch():
    with pytest.raises(ValidationError, match="length"):
        parallel_flow_split(1e-3, 3, weights=(1, 2))


@given(
    total=st.floats(min_value=0, max_value=10, allow_nan=False),
    n=st.integers(min_value=1, max_value=40),
)
def test_parallel_split_sums_exactly(total, n):
    flows = parallel_flow_split(total, n)
    assert abs(math.fsum(flows) - total) <= 2 * math.ulp(max(total, 1e-300))


# ---------------------------------------------------------------------------
# whole-line loss

def test_line_loss_two_segments():
    total, steps = line_loss_total([SUPPLY_PIPE, CUP_PIPE], 37.14)
    assert total == pytest.approx(37_018, abs=500)
    assert len(steps) == 1


def test_line_loss_single_segment_is_free():
    total, steps = line_loss_total([SUPPLY_PIPE], 37.14)
    assert total == 0.0
    assert steps == []


def test_line_loss_chains_velocity():
    middle = PipeSegment(inner_diameter=4.0e-3)
    total, steps = line_loss_total([SUPPLY_PIPE, middle, CUP_PIPE], 10.0)
    assert steps[1].upstream_velocity == pytest.approx(steps[0].downstream_velocity, rel=1e-15)
    assert total == pytest.approx(math.fsum(s.delta_p for s in steps), rel=1e-15)


@pytest.mark.parametrize("velocity", [math.nan, -1.0, -math.inf])
def test_line_loss_checks_upstream_velocity_on_entry(velocity):
    # a one-segment line has no step whose continuity check would see it
    with pytest.raises(ValidationError) as err:
        line_loss_total((PipeSegment(inner_diameter=2e-3),), velocity)
    assert err.value.field == "upstream_velocity"
    assert line_loss_total((PipeSegment(inner_diameter=2e-3),), math.inf) == (0.0, [])


def test_line_loss_requires_segments():
    with pytest.raises(ValidationError):
        line_loss_total([], 1.0)


@pytest.mark.parametrize(
    "velocity, bores, step, delta",
    [
        (37.14, (1.0, 1e-150, 1.0), 1, "inf"),  # +inf then -inf: fsum has no answer
        (1e200, (1.0, 1.0), 1, "nan"),  # inf * 0: a speed whose square overflows, through no bore change
        (37.14, (5.2e-3, 2e-3, 1e-150, 1.0), 2, "inf"),  # a finite step, then +inf and -inf
    ],
    ids=["inf-minus-inf", "nan", "second-step"],
)
def test_line_loss_undefined_sum_names_its_step(velocity, bores, step, delta):
    segments = [PipeSegment(inner_diameter=d) for d in bores]
    with pytest.raises(ValidationError, match=f"^line step {step}: pressure change {delta} Pa "):
        line_loss_total(segments, velocity)


def test_line_loss_finite_steps_whose_sum_overflows_give_inf():
    # 1.74e308 + 8.56e307: each step finite, their exact sum beyond a float
    segments = [PipeSegment(inner_diameter=d) for d in (1.0, 7.67e-3, 6.94e-3)]
    total, steps = line_loss_total(segments, 1e150)
    assert all(math.isfinite(s.delta_p) for s in steps)
    assert total == math.inf
