import dataclasses
import importlib
import inspect
import itertools
import math
import random
import struct
import sys
from functools import cached_property

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import vacgrab.model
from vacgrab import (
    EnergyHeads,
    FabricPiece,
    FlowState,
    Layout,
    MotionProfile,
    PhysicalConstants,
    PipeSegment,
    Polygon,
    PressureWindow,
    Scenario,
    SuctionCup,
    UnitError,
    VacuumGenerator,
    ValidationError,
    Vgtc,
    adjusted_min_pressure,
    calibrate_spacing,
    circle_polygon_intersection_area,
    continuity_velocity,
    convert_units,
    effective_ratios,
    line_loss_total,
    net_supply_vacuum,
    parallel_flow_split,
    per_gripper_force,
    required_pressure,
    solve_pressure_from_balance,
)
from vacgrab.cli import CONFIG_FIELDS
from vacgrab.model import Record, circular_area, supported_units
from vacgrab.pneumatics import MAX_BRANCHES, LineLossResult, NetSupplyResult
from oracles import brute_self_intersects


# ---------------------------------------------------------------------------
# unit conversion

def test_gram_to_kilogram():
    assert convert_units(2.5, "g", "kg") == pytest.approx(2.5e-3, rel=1e-15)


def test_litre_per_minute_to_cubic_metre_per_second():
    assert convert_units(63, "L/min", "m3/s") == pytest.approx(1.05e-3, rel=1e-12)


def test_kilopascal_to_pascal_signed():
    assert convert_units(-92, "kPa", "Pa") == pytest.approx(-92_000, rel=1e-15)


def test_bar_and_centimetre():
    assert convert_units(5, "bar", "Pa") == pytest.approx(500_000, rel=1e-15)
    assert convert_units(26, "cm", "m") == pytest.approx(0.26, rel=1e-15)
    assert convert_units(5.2, "mm", "m") == pytest.approx(5.2e-3, rel=1e-15)


def test_cubic_metre_alias():
    assert convert_units(1.05e-3, "m³/s", "L/min") == pytest.approx(63.0, rel=1e-12)


def test_unknown_unit_is_named():
    with pytest.raises(UnitError, match="furlong"):
        convert_units(1.0, "furlong", "m")


def test_cross_dimension_pair_is_named():
    with pytest.raises(UnitError) as err:
        convert_units(1.0, "kPa", "kg")
    assert "kPa" in str(err.value) and "kg" in str(err.value)


# every accepted unit name, the alias too -> (dimension, factor to the SI unit)
_UNITS = {
    "g": ("mass", 1e-3), "kg": ("mass", 1.0),
    "mm": ("length", 1e-3), "cm": ("length", 1e-2), "m": ("length", 1.0),
    "kPa": ("pressure", 1e3), "Pa": ("pressure", 1.0), "bar": ("pressure", 1e5),
    "L/min": ("flow", 1.0 / 60_000.0), "m3/s": ("flow", 1.0), "m³/s": ("flow", 1.0),
}
_SAME_DIMENSION = [(a, b) for a in _UNITS for b in _UNITS if _UNITS[a][0] == _UNITS[b][0]]
_CROSS_DIMENSION = [(a, b) for a in _UNITS for b in _UNITS if _UNITS[a][0] != _UNITS[b][0]]


def test_the_unit_names_are_the_supported_ones_and_the_alias():
    supported = {name for dim in ("mass", "length", "pressure", "flow") for name in supported_units(dim)}
    assert supported | {"m³/s"} == set(_UNITS)


@given(value=st.floats() | st.integers(-(2**1023), 2**1023))
def test_a_same_dimension_conversion_is_one_product_bit_for_bit(value):
    for a, b in _SAME_DIMENSION:
        expected = value * (_UNITS[a][1] / _UNITS[b][1])
        assert struct.pack("<d", convert_units(value, a, b)) == struct.pack("<d", expected), (a, b)


@pytest.mark.parametrize("a, b", _CROSS_DIMENSION)
def test_a_cross_dimension_pair_names_both_units_and_dimensions(a, b):
    with pytest.raises(UnitError) as err:
        convert_units(1.0, a, b)
    assert str(err.value) == f"cannot convert {a!r} ({_UNITS[a][0]}) to {b!r} ({_UNITS[b][0]})"


@pytest.mark.parametrize("a, b, named", [
    ("furlong", "m", "'furlong'"), ("m", "furlong", "'furlong'"), ("furlong", "kPa", "'furlong'"),
    ("ft", "yd", "'ft'"), ("", "m", "''"), ("M", "m", "'M'"), ("kpa", "Pa", "'kpa'"), ("m3/s ", "m3/s", "'m3/s '"),
    ("x" * 50, "m", "'" + "x" * 40 + "...'"),
])
def test_an_unknown_unit_is_named_before_the_dimensions_are_compared(a, b, named):
    with pytest.raises(UnitError) as err:
        convert_units(1.0, a, b)
    assert str(err.value) == f"unknown unit {named}"


_UNIT_PAIRS = [
    ("g", "kg"), ("mm", "m"), ("cm", "m"), ("mm", "cm"),
    ("kPa", "Pa"), ("bar", "Pa"), ("bar", "kPa"), ("L/min", "m3/s"),
]


@pytest.mark.parametrize("a,b", _UNIT_PAIRS)
@given(value=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_round_trip_is_exact_to_ulp(a, b, value):
    back = convert_units(convert_units(value, a, b), b, a)
    assert abs(back - value) <= 4 * math.ulp(value)


def test_supported_units_listing():
    assert set(supported_units("pressure")) == {"kPa", "Pa", "bar"}


# ---------------------------------------------------------------------------
# constants and value types

def test_constants_defaults():
    c = PhysicalConstants()
    assert c.gravity == 9.81
    assert c.air_density == 1.204


@pytest.mark.parametrize("kwargs", [{"gravity": 0}, {"air_density": -1}])
def test_constants_must_be_positive(kwargs):
    with pytest.raises(ValidationError):
        PhysicalConstants(**kwargs)


@pytest.mark.parametrize("module, name, takes_consts", [
    ("statics", "holding_force", False),
    ("feasibility", "cup_demand", False),
    ("feasibility", "line_supply", False),
    ("feasibility", "evaluate", False),
    ("pneumatics", "line_loss_total", False),
    ("pneumatics", "constriction_pressure_drop", True),
    ("pneumatics", "bernoulli_balance", True),
    ("pneumatics", "solve_pressure_from_balance", True),
])
def test_only_the_energy_balance_takes_consts(module, name, takes_consts):
    # sizing runs at model.AMBIENT; only the paper's energy balance is checked at other states
    params = inspect.signature(getattr(importlib.import_module(f"vacgrab.{module}"), name)).parameters
    if takes_consts:
        assert params["consts"].default is vacgrab.model.AMBIENT
    else:
        assert "consts" not in params


def test_fabric_requires_positive_mass():
    with pytest.raises(ValidationError, match="mass"):
        FabricPiece(id="x", outline=Polygon.rectangle(0.1, 0.1), mass=0, friction_coefficient=0.5)


@pytest.mark.parametrize("mu", [0, -0.5, 2.5])
def test_fabric_friction_range(mu):
    with pytest.raises(ValidationError, match="friction"):
        FabricPiece(id="x", outline=Polygon.rectangle(0.1, 0.1), mass=1e-3, friction_coefficient=mu)


def test_fabric_rectangle_becomes_polygon(pocket_bag):
    assert isinstance(pocket_bag.outline, Polygon)
    assert len(pocket_bag.outline.vertices) == 4
    assert pocket_bag.outline.area == pytest.approx(0.26 * 0.19, rel=1e-12)


def test_fabric_accepts_vertex_list():
    piece = FabricPiece(
        id="tri",
        outline=Polygon(((0, 0), (0.2, 0), (0.1, 0.15))),
        mass=1e-3,
        friction_coefficient=0.5,
    )
    assert piece.outline.area == pytest.approx(0.015, rel=1e-12)


def test_motion_defaults():
    m = MotionProfile()
    assert (m.acceleration, m.safety_factor) == (5.0, 2.0)


def test_motion_invariants():
    with pytest.raises(ValidationError, match="acceleration"):
        MotionProfile(acceleration=-1)
    with pytest.raises(ValidationError, match="safety_factor"):
        MotionProfile(safety_factor=0.5)


def test_cup_area_matches_disc_formula():
    cup = SuctionCup(orifice_diameter=2e-3)
    expected = math.pi * (1e-3) ** 2
    assert abs(cup.area - expected) / expected < 1e-12


def test_cup_count_must_be_integer():
    with pytest.raises(ValidationError):
        SuctionCup(orifice_diameter=1e-3, count=0)
    with pytest.raises(ValidationError):
        SuctionCup(orifice_diameter=1e-3, count=1.5)
    with pytest.raises(ValidationError, match="count must be an integer from 1 to 1.79769e"):
        SuctionCup(orifice_diameter=1e-3, count=10**400)  # the statics divide by it as a float
    # every count argument follows one rule, each up to its own largest value
    for name, high, call in (
        ("count", sys.float_info.max, lambda n: SuctionCup(orifice_diameter=1e-3, count=n)),
        ("target_count", sys.float_info.max, lambda n: calibrate_spacing(_SQUARE, 0.02, n, (0.01, 0.1), 0.01)),
        ("branch_count", MAX_BRANCHES, lambda n: parallel_flow_split(1.0, n)),
    ):
        call(1)
        # just past high, then far enough past that a list of that length cannot be indexed
        for bad in (0, 1.5, True, int(high) + 1, 10**20 + int(high), 10**400, -(10**5000)):
            with pytest.raises(ValidationError) as err:
                call(bad)
            assert err.value.field == name
            assert str(err.value).startswith(f"{name} must be an integer from 1 to {high:.6g}, got ")


def test_generator_defaults():
    g = VacuumGenerator()
    assert g.max_vacuum == 92_000.0
    assert g.supply_flow_rate == pytest.approx(1.05e-3, rel=1e-12)


def test_generator_vacuum_bounded_by_atmosphere():
    with pytest.raises(ValidationError, match="max_vacuum"):
        VacuumGenerator(max_vacuum=150_000)
    with pytest.raises(ValidationError, match="max_vacuum"):
        VacuumGenerator(max_vacuum=0)


def test_pipe_segment_area():
    seg = PipeSegment(inner_diameter=5.2e-3)
    expected = math.pi * (2.6e-3) ** 2
    assert abs(seg.area - expected) / expected < 1e-12
    assert seg.area == pytest.approx(2.123e-5, rel=1e-3)


def test_extreme_bore_areas():
    # 1e-200 m is positive, but its area underflows to 0 and would divide by zero
    with pytest.raises(ValidationError, match="area of 0"):
        SuctionCup(orifice_diameter=1e-200)
    with pytest.raises(ValidationError, match="area of 0"):
        PipeSegment(inner_diameter=1e-200)
    # float ** raises OverflowError where the area is simply too large; a cup,
    # bore or disk refuses that inf area as it refuses 0
    assert circular_area(1e308) == math.inf
    with pytest.raises(ValidationError, match="area of inf"):
        SuctionCup(orifice_diameter=1e308)
    with pytest.raises(ValidationError, match="area of inf"):
        PipeSegment(inner_diameter=1e200)


@given(d=st.floats(min_value=1e-5, max_value=1.0, allow_nan=False))
def test_circular_area_identity(d):
    assert abs(circular_area(d) - math.pi * (d / 2) ** 2) <= 1e-12 * circular_area(d)


def test_heads_default_zero_and_nonnegative():
    h = EnergyHeads()
    assert (h.pump_head, h.loss_head, h.turbine_head) == (0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        EnergyHeads(loss_head=-0.1)


def test_flow_state_invariants():
    FlowState(pressure=-92_000.0, velocity=37.14)
    with pytest.raises(ValidationError, match="velocity"):
        FlowState(pressure=0.0, velocity=-1.0)
    with pytest.raises(ValidationError, match="volumetric_flow"):
        FlowState(pressure=0.0, volumetric_flow=-1e-6)


def test_pressure_window_ordering():
    PressureWindow(p_min=37_561)
    PressureWindow(p_min=37_561, p_max=60_000)
    with pytest.raises(ValidationError, match="p_max"):
        PressureWindow(p_min=40_000, p_max=30_000)
    with pytest.raises(ValidationError, match="p_min"):
        PressureWindow(p_min=0)


def test_cup_count_too_long_for_text_names_its_field():
    # str() of an int over 4,300 digits raises, so the message must not convert it
    with pytest.raises(ValidationError) as err:
        SuctionCup(orifice_diameter=1e-3, count=10**5000)
    assert err.value.field == "count"
    assert str(err.value).endswith("got an integer of 16610 bits")
    with pytest.raises(ValidationError) as err:
        SuctionCup(orifice_diameter=1e-3, count=-(10**300))
    assert err.value.field == "count"
    assert len(str(err.value).split(", got ")[1]) == 40


# valid keyword arguments for every value object whose fields are range checked
VALID = {
    PhysicalConstants: {},
    FabricPiece: dict(id="x", outline=Polygon.rectangle(0.1, 0.1), mass=1e-3, friction_coefficient=0.5),
    MotionProfile: {},
    SuctionCup: dict(orifice_diameter=2e-3),
    VacuumGenerator: {},
    PipeSegment: dict(inner_diameter=2e-3),
    EnergyHeads: {},
    FlowState: dict(pressure=0.0),
    PressureWindow: dict(p_min=30_000.0),
    Vgtc: dict(radius=0.02, pressure_window=PressureWindow(p_min=30_000.0)),
    Layout: dict(xs=(0.0,), ys=(0.0,), spacing=0.1, margin=0.0),
    Scenario: dict(
        fabric=FabricPiece(id="x", outline=Polygon.rectangle(0.1, 0.1), mass=1e-3, friction_coefficient=0.5),
        motion=MotionProfile(),
        cup=SuctionCup(orifice_diameter=2e-3),
        generator=VacuumGenerator(),
        line=(PipeSegment(inner_diameter=2e-3),),
        upstream_velocity=1.0,
    ),
}
FLOAT_FIELDS = [
    (cls, name)
    for cls in VALID
    for name in cls._fields
    if cls.__annotations__[name] in ("float", "float | None", "tuple[float, ...]")
]


def test_float_fields_cover_every_range_checked_quantity():
    assert len(FLOAT_FIELDS) == 27  # a type filter that matched nothing would pass vacuously
    for cls, kwargs in VALID.items():
        cls(**kwargs)


@pytest.mark.parametrize("cls, name", FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_FIELDS])
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**400)]))
def test_every_float_field_refuses_nan_and_inf(cls, name, bad):
    value = (bad,) if cls.__annotations__[name].startswith("tuple") else bad  # Layout.xs, Layout.ys
    with pytest.raises(ValidationError) as err:
        cls(**{**VALID[cls], name: value})
    assert err.value.field == name
    assert str(err.value).startswith(f"{name} must be finite")


NOT_REAL = [
    pytest.param(cls, name, bad, id=f"{cls.__name__}.{name}-{label}")
    for cls, name in FLOAT_FIELDS
    for label, bad in (("str", "1"), ("None", None), ("complex", 1j))
    if not (bad is None and cls.__annotations__[name].endswith("| None"))  # PressureWindow.p_max may be None
]


@pytest.mark.parametrize("cls, name, bad", NOT_REAL)
def test_every_float_field_refuses_a_value_that_is_no_real_number(cls, name, bad):
    # VacuumGenerator.max_vacuum, Vgtc.radius, PressureWindow.p_min and FabricPiece.mass among them
    value = (bad,) if cls.__annotations__[name].startswith("tuple") else bad
    with pytest.raises(ValidationError) as err:
        cls(**{**VALID[cls], name: value})
    assert err.value.field == name
    assert str(err.value) == f"{name} must be a real number, got {bad!r}"



@given(
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    axis=st.integers(0, 1),
    radius=st.sampled_from([0.02, 1e-150]),  # in the intersection's domain, and below 2^-200 m
)
def test_circle_center_refuses_nan_and_inf(bad, axis, radius):
    # the caller places the circle; a center that is not finite overflows
    # x - cx as a far vertex does, and is refused there, before a radius
    # outside the intersection's domain is
    center = (bad, 0.05) if axis == 0 else (0.1, bad)
    circle = Vgtc(**{**VALID[Vgtc], "radius": radius})
    outline = Polygon.rectangle(0.2, 0.1)
    for call in (circle_polygon_intersection_area, lambda c, o, p: effective_ratios(c, o, (p,))):
        with pytest.raises(ValidationError, match="center must be finite") as err:
            call(circle, outline, center)
        assert err.value.field == "center"


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_circle_center_refuses_an_int_no_float_holds(axis, sign):
    # cx - r overflows in the full-disk box test, before any edge is summed
    bad = sign * 10**400
    center = (bad, 0.05) if axis == 0 else (0.1, bad)
    circle = Vgtc(**VALID[Vgtc])
    outline = Polygon.rectangle(0.2, 0.1)
    for call in (circle_polygon_intersection_area, lambda c, o, p: effective_ratios(c, o, (p,))):
        with pytest.raises(ValidationError, match="center must be finite") as err:
            call(circle, outline, center)
        assert err.value.field == "center"


_CUP = SuctionCup(orifice_diameter=2e-3)
_SQUARE = Polygon.rectangle(0.2, 0.2)
# each range-checked argument of the library functions: (field, call with it set to x)
GUARDED_ARGUMENTS = [
    ("force", lambda x: required_pressure(x, _CUP)),
    ("total_force", lambda x: per_gripper_force(x, _CUP)),
    ("a1", lambda x: continuity_velocity(x, 1.0, 1.0)),
    ("v1", lambda x: continuity_velocity(1.0, x, 1.0)),
    ("a2", lambda x: continuity_velocity(1.0, 1.0, x)),
    ("unknown_velocity", lambda x: solve_pressure_from_balance(FlowState(pressure=0.0), x, 0.0)),
    ("unknown_elevation", lambda x: solve_pressure_from_balance(FlowState(pressure=0.0), 0.0, x)),
    ("loss", lambda x: net_supply_vacuum(VacuumGenerator(), x)),
    # on a line of two segments, so that the velocity reaches a step
    ("upstream_velocity", lambda x: line_loss_total((PipeSegment(2e-3), PipeSegment(1e-3)), x)),
    ("total_flow", lambda x: parallel_flow_split(x, 2)),
    ("weights", lambda x: parallel_flow_split(1.0, 2, (1.0, x))),
    ("ratio", lambda x: adjusted_min_pressure(PressureWindow(p_min=30_000.0), x)),
    ("vertices", lambda x: Polygon(((0.0, 0.0), (x, 0.0), (0.0, 1.0)))),
    ("search_range", lambda x: calibrate_spacing(_SQUARE, 0.02, 4, (x, 1.0), 0.001)),
    ("search_range", lambda x: calibrate_spacing(_SQUARE, 0.02, 4, (0.01, x), 0.001)),
]
# a valid run can overflow into these, so +inf passes them
INF_ALLOWED = {"force", "total_force", "v1", "loss", "upstream_velocity"}


@pytest.mark.parametrize(
    "name, call",
    GUARDED_ARGUMENTS,
    ids=[*(name for name, _ in GUARDED_ARGUMENTS[:-2]), "search_range-low", "search_range-high"],
)
def test_guarded_argument_refuses_nan(name, call):
    call(0.5)  # in range for every argument
    # an int no float holds must not reach float(), even where +inf passes
    for bad in (math.nan, -math.inf, -(10**400), 10**400, *(() if name in INF_ALLOWED else (math.inf,))):
        with pytest.raises(ValidationError) as err:
            call(bad)
        # a polygon's nan or inf coordinate leaves its area non-finite, refused as "area"
        assert err.value.field == ("area" if name == "vertices" and isinstance(bad, float) else name)
        if bad == 10**400 and name in INF_ALLOWED:  # no rule it meets, such as ">= 0"
            assert str(err.value) == f"{name} must fit in a float, got an integer of 1329 bits"
    if name in INF_ALLOWED:
        call(math.inf)


@pytest.mark.parametrize(
    "vertices",
    [
        ((0.0, -1.0), (math.inf, 0.0), (0.0, 1.0)),
        ((0.0, -1.0), (math.nan, 0.0), (0.0, 1.0)),
        ((0.0, 0.0), (1e200, 0.0), (1e200, 1e200), (0.0, 1e200)),
    ],
    ids=["inf-vertex", "nan-vertex", "1e200-square"],
)
def test_polygon_refuses_a_non_finite_area(vertices):
    with pytest.raises(ValidationError, match="area must be finite") as err:
        Polygon(vertices)
    assert err.value.field == "area"


# ---------------------------------------------------------------------------
# polygons

def test_polygon_rejects_self_intersection():
    with pytest.raises(ValidationError, match="simple"):
        Polygon(((0, 0), (2, 2), (2, 0), (0, 1)))  # bow tie, nonzero area
    with pytest.raises(ValidationError):
        Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))  # symmetric bow tie, zero area


def test_polygon_rejects_degenerate():
    with pytest.raises(ValidationError):
        Polygon(((0, 0), (1, 0), (2, 0)))  # zero area
    with pytest.raises(ValidationError):
        Polygon(((0, 0), (1, 0)))


NOT_SIMPLE = "polygon must be simple (non-self-intersecting)"


def _star(rng, n):
    """A star outline by the benchmark generator's recipe, in meters:
    angles increase strictly and radii are positive, so it is simple."""
    big = rng.uniform(8.0, 25.0)  # cm
    verts = []
    for k in range(n):
        theta = 2.0 * math.pi * (k + 0.2 + 0.6 * rng.random()) / n
        rho = big * rng.uniform(0.55, 1.0)
        x, y = big + rho * math.cos(theta), big + rho * math.sin(theta)
        verts.append((float(f"{x:.4f}") * 0.01, float(f"{y:.4f}") * 0.01))
    return verts


def _swap_opposite(verts):
    """verts with vertex 0 and its opposite swapped: their edges cross the middle."""
    half = len(verts) // 2
    return [verts[half], *verts[1:half], verts[0], *verts[half + 1:]]


def _assert_simplicity_matches_oracle(vertices):
    if brute_self_intersects(vertices):
        with pytest.raises(ValidationError) as err:
            Polygon(vertices)
        assert str(err.value) == NOT_SIMPLE
    else:
        Polygon(vertices)


@settings(max_examples=400)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=3, max_size=9))
def test_simplicity_check_matches_brute_oracle_on_a_small_grid(vertices):
    # a 5x5 grid makes ties, collinear overlaps, T-junctions and repeated
    # non-consecutive vertices common; integer coordinates keep the float
    # predicate exact, so it must agree with the rational oracle
    ring = list(zip(vertices, vertices[1:] + vertices[:1]))
    assume(all(p != q for p, q in ring))
    assume(sum(x1 * y2 - x2 * y1 for (x1, y1), (x2, y2) in ring) != 0)
    _assert_simplicity_matches_oracle(vertices)


# near-collinear edges P1-P2 and Q1-Q2 with disjoint bounding boxes: in
# floating point the orientation signs alone report a crossing
_P1, _P2 = (1.7468803619296989, 2.238049366978647), (4.249493869846977, 5.57531116785127)
_Q1, _Q2 = (4.490159433385054, 5.896241263305568), (6.201190552115094, 8.177919506700894)


@pytest.mark.parametrize(
    "vertices, self_intersects",
    [
        pytest.param(((0, 0), (2, 2), (2, 0), (0, 1)), True, id="bowtie"),
        pytest.param(((0, 0), (4, 0), (0, 3)), False, id="triangle"),
        pytest.param(((0, 0), (4, 0), (4, 4), (3, 4), (2, 0), (1, 4), (0, 4)), True,
                     id="vertex-touches-edge"),
        pytest.param(((0, 0), (4, 0), (4, 2), (3, 2), (3, 0), (1, 0), (1, 2), (0, 2)), True,
                     id="collinear-overlap"),
        pytest.param(((0, 0), (2, 0), (2, 2), (4, 2), (4, 4), (2, 4), (2, 2), (0, 2)), True,
                     id="pinched-figure-8"),
        pytest.param(((0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)), False,
                     id="vertical-and-horizontal-edges"),
        pytest.param(((0, 0), (5, 0), (5, 3), (4, 3), (4, 1), (3, 1), (3, 3), (2, 3), (2, 1),
                      (1, 1), (1, 3), (0, 3)), False, id="comb"),
        pytest.param((_P1, _P2, (4.0698, 6.2358), _Q1, _Q2, (6.974, 2.208)), False,
                     id="near-collinear-disjoint-boxes"),
        # its cross products overflow to nan, so the crossing is decided exactly
        pytest.param(((1e-300, 1e308), (0.25, -1e308), (0.25, 1e308), (1e-300, -1e308)), True,
                     id="bowtie-near-the-float-limit"),
        *(pytest.param(_star(random.Random(seed), n), False, id=f"star-{n}-{seed}")
          for n, seed in [(5, 1), (12, 2), (50, 3), (80, 4)]),
        *(pytest.param(_swap_opposite(_star(random.Random(seed), n)), True, id=f"swapped-star-{n}-{seed}")
          for n, seed in [(8, 5), (40, 6)]),
    ],
)
def test_simplicity_check_matches_brute_oracle(vertices, self_intersects):
    assert brute_self_intersects(vertices) is self_intersects
    _assert_simplicity_matches_oracle(vertices)


def test_simplicity_check_work_is_near_linear(monkeypatch):
    calls = 0
    segments_intersect = vacgrab.model._segments_intersect

    def counting(*args):
        nonlocal calls
        calls += 1
        return segments_intersect(*args)

    monkeypatch.setattr(vacgrab.model, "_segments_intersect", counting)
    regular = [(math.cos(2 * math.pi * k / 2000), math.sin(2 * math.pi * k / 2000)) for k in range(2000)]
    Polygon(regular)  # testing every non-adjacent pair would take 1,997,000 calls
    assert calls <= 4 * len(regular)
    calls = 0
    star = _star(random.Random(11), 400)
    Polygon(star)
    assert 0 < calls <= 4 * len(star)


def test_axis_aligned_rectangle_detection():
    assert Polygon.rectangle(1, 2).box == (0.0, 0.0, 1.0, 2.0)
    tilted = Polygon(((0, 0), (1, 0.2), (0.8, 1.2), (-0.2, 1)))
    assert tilted.box is None


def _general_rectangle(length, width):
    """What Polygon.rectangle stores: its two sides checked, then the four corners validated as any outline."""
    vacgrab.model.require_range("length", length, 0, above=True)
    vacgrab.model.require_range("width", width, 0, above=True)
    return Polygon(((0, 0), (length, 0), (length, width), (0, width)))


def _built_or_refused(make, length, width):
    try:
        polygon = make(length, width)
    except ValidationError as exc:
        return "refused", str(exc), exc.field
    # repr tells signed zeros apart; ccw_ring is read after the rest, as a cached value
    return repr((polygon.vertices, polygon.signed_area, polygon.area, polygon.box, polygon.ccw_ring)), polygon


_SIDES = st.one_of(
    st.floats(),  # nan, infinities, subnormals and negatives among them
    st.floats(min_value=1e-205, max_value=1e-195),  # a pair whose area underflows to 0
    st.floats(min_value=1e153, max_value=1e155),  # L*W finite, 2*L*W not
    st.floats(min_value=1e195, max_value=1e205),
    st.integers(min_value=-3, max_value=2**1100),
    st.sampled_from([0, True, False, -1, 2**1100, 5e-324, math.nan, math.inf, -math.inf]),
)


@settings(max_examples=400)
@given(length=_SIDES, width=_SIDES)
@example(length=1e-200, width=1e-200)
@example(length=1e154, width=1e154)
@example(length=1e200, width=1e200)
@example(length=2**1100, width=1)
@example(length=True, width=0.5)
@example(length=5e-324, width=1.0)
@example(length=0.26, width=math.inf)
def test_rectangle_stores_what_the_general_constructor_would(length, width):
    fast = _built_or_refused(Polygon.rectangle, length, width)
    general = _built_or_refused(_general_rectangle, length, width)
    assert fast[0] == general[0]
    if fast[0] == "refused":
        assert fast[1:] == general[1:]
    else:
        assert fast[1] == general[1]
        assert hash(fast[1]) == hash(general[1])


def _construct(vertices):
    """Polygon(vertices), or the text of the ValidationError it raised."""
    try:
        return Polygon(vertices)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "corners, boxes",
    [
        (((0.0, 0.0), (2.0, 0.0), (2.0, 1.5), (0.0, 1.5)), 8),
        (((-0.0, 0.0), (0.25, -0.0), (0.25, 1.0), (0.0, 1.0)), 8),
        (((-3.0, -0.0), (-0.0, -0.0), (0.0, 2.0), (-3.0, 2.0)), 8),
        (((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), 0),
        (((0.0, 0.0), (0.0, 0.0), (1.0, 1.0), (1.0, 1.0)), 0),
        (((0.0, 0.0), (math.nan, 0.0), (math.nan, 1.0), (0.0, 1.0)), 0),
        (((0.0, 0.0), (math.inf, 0.0), (math.inf, 1.0), (0.0, 1.0)), 0),
        (((-math.inf, -1.0), (1.0, -1.0), (1.0, math.inf), (-math.inf, math.inf)), 0),
        # three axis-aligned edges, no rectangle; some orders cross with nonzero area
        (((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 3.0)), 0),
    ],
    ids=[
        "plain", "signed-zero-x", "signed-zero-both", "repeated-corner", "two-repeats",
        "nan", "inf", "infs", "trapezoid",
    ],
)
def test_box_path_matches_the_sweep_in_every_corner_order(monkeypatch, corners, boxes):
    # all 24 orders of four corners: for a rectangle, 8 ring orders and 16 bowties
    calls = 0
    segments_intersect = vacgrab.model._segments_intersect

    def counting(*args):
        nonlocal calls
        calls += 1
        return segments_intersect(*args)

    monkeypatch.setattr(vacgrab.model, "_segments_intersect", counting)
    orders = list(itertools.permutations(corners))
    built = []
    for order in orders:
        calls = 0
        polygon = _construct(order)
        if isinstance(polygon, Polygon) and polygon.box is not None:
            assert calls == 0  # a box skips the sweep
            xs, ys = zip(*polygon.vertices)
            assert repr(polygon.box) == repr((min(xs), min(ys), max(xs), max(ys)))  # signed zeros too
        built.append(polygon)
    assert sum(isinstance(p, Polygon) and p.box is not None for p in built) == boxes
    # the reference: no outline is a box, so every one takes the sweep
    monkeypatch.setattr(vacgrab.model, "_ring_box", lambda verts: None)
    assert [_construct(order) for order in orders] == built


@pytest.mark.parametrize("outline", [(0.1, 0.1), ((0, 0), (1, 0), (1, 1)), None])
def test_fabric_outline_must_be_a_polygon(outline):
    with pytest.raises(ValidationError, match="outline must be a Polygon") as info:
        FabricPiece(id="x", outline=outline, mass=1e-3, friction_coefficient=0.5)
    assert info.value.field == "outline"


# ---------------------------------------------------------------------------
# value-type behaviour: immutable, compared and shown by their fields only

RECORDS = {
    **{cls: cls(**kwargs) for cls, kwargs in VALID.items()},
    Polygon: Polygon.rectangle(0.2, 0.1),
    LineLossResult: LineLossResult(1.5, 2.0, 8.0, 4.0, False, True),
    NetSupplyResult: NetSupplyResult(0.0, True),
}
_BAG_PIECE = (
    "FabricPiece(id='x', outline=Polygon(vertices=((0.0, 0.0), (0.1, 0.0), (0.1, 0.1), (0.0, 0.1))), "
    "mass=0.001, friction_coefficient=0.5, permeability=<Permeability.AIR_IMPERMEABLE: 'impermeable'>, "
    "material='')"
)
_MOTION = "MotionProfile(acceleration=5.0, safety_factor=2.0, load_case=<LoadCase.FRICTION_LIFT: 'friction_lift'>)"
_WINDOW = "PressureWindow(p_min=30000.0, p_max=None)"
REPRS = {
    PhysicalConstants: "PhysicalConstants(gravity=9.81, air_density=1.204)",
    FabricPiece: _BAG_PIECE,
    MotionProfile: _MOTION,
    SuctionCup: "SuctionCup(orifice_diameter=0.002, count=1)",
    VacuumGenerator: "VacuumGenerator(max_vacuum=92000.0, supply_flow_rate=0.00105)",
    PipeSegment: "PipeSegment(inner_diameter=0.002, length=0.0)",
    EnergyHeads: "EnergyHeads(pump_head=0.0, loss_head=0.0, turbine_head=0.0)",
    FlowState: "FlowState(pressure=0.0, velocity=0.0, elevation=0.0, volumetric_flow=0.0)",
    PressureWindow: _WINDOW,
    Vgtc: f"Vgtc(radius=0.02, pressure_window={_WINDOW})",
    Layout: "Layout(xs=(0.0,), ys=(0.0,), spacing=0.1, margin=0.0)",
    Scenario: (
        f"Scenario(fabric={_BAG_PIECE}, motion={_MOTION}, cup=SuctionCup(orifice_diameter=0.002, count=1), "
        "generator=VacuumGenerator(max_vacuum=92000.0, supply_flow_rate=0.00105), "
        "line=(PipeSegment(inner_diameter=0.002, length=0.0),), upstream_velocity=1.0, vgtc=None, margin=0.02)"
    ),
    Polygon: "Polygon(vertices=((0.0, 0.0), (0.2, 0.0), (0.2, 0.1), (0.0, 0.1)))",
    LineLossResult: (
        "LineLossResult(delta_p=1.5, upstream_velocity=2.0, downstream_velocity=8.0, area_ratio=4.0, "
        "pressure_recovery=False, mach_advisory=True)"
    ),
    NetSupplyResult: "NetSupplyResult(pressure=0.0, clamped=True)",
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_value_type_is_frozen_and_shows_its_fields(cls):
    value = RECORDS[cls]
    name = next(iter(vars(value)))  # its first field
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert repr(value) == REPRS[cls]


def test_equality_and_hash_ignore_cached_extras():
    piece, fresh = Polygon.rectangle(0.2, 0.1), Polygon.rectangle(0.2, 0.1)
    assert piece.box and piece.ccw_ring
    assert piece == fresh and hash(piece) == hash(fresh)
    layout = Layout(xs=(0.0, 1.0), ys=(0.0,), spacing=1.0, margin=0.0)
    assert layout.positions == ((0.0, 0.0), (1.0, 0.0))
    assert layout == Layout(xs=(0.0, 1.0), ys=(0.0,), spacing=1.0, margin=0.0)
    assert RECORDS[PipeSegment] != PipeSegment(inner_diameter=3e-3)
    assert RECORDS[PipeSegment] != (2e-3, 0.0)


def test_only_ccw_ring_and_layout_positions_are_computed_on_read():
    # every other derived value is stored when its value type is built;
    # a layout stores its axes and makes its positions on each read
    lazy, todo = [], list(Record.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("vacgrab."):
            lazy += [f"{cls.__name__}.{name}" for name, value in vars(cls).items()
                     if isinstance(value, (property, cached_property))]
    assert sorted(lazy) == ["Layout.positions", "Polygon.ccw_ring"]


def test_required_config_keys():
    # a key is required when its target attribute has no default
    assert sorted((f.section, f.key) for f in CONFIG_FIELDS if f.required) == [
        ("cup", "orifice_diameter"),
        ("fabric", "friction"),
        ("fabric", "id"),
        ("fabric", "mass"),
        ("line", "inner_diameter"),
        ("vgtc", "p_min"),
        ("vgtc", "radius"),
    ]


def test_only_the_reports_the_benchmark_copies_are_dataclasses():
    # GraspReport and CorpusEntry stay dataclasses because the benchmark's
    # tests copy them with dataclasses.replace; every other value type is a
    # Record, whose class creation costs no dataclass decoration at start-up
    from vacgrab import cli, feasibility, model, pneumatics, statics, vgtc

    found = {
        name
        for module in (cli, feasibility, model, pneumatics, statics, vgtc)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
    }
    assert found == {"GraspReport", "CorpusEntry"}


def test_replace_validates_the_copy():
    piece = RECORDS[PipeSegment]
    assert piece.replace(length=2.0) == PipeSegment(inner_diameter=2e-3, length=2.0)
    assert piece.length == 0.0
    with pytest.raises(ValidationError) as err:
        piece.replace(inner_diameter=math.nan)
    assert err.value.field == "inner_diameter"
