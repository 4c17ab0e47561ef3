import math
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from vacgrab import (
    CorpusRow,
    FabricPiece,
    MotionProfile,
    Permeability,
    PipeSegment,
    Polygon,
    PressureWindow,
    Scenario,
    SuctionCup,
    VacuumGenerator,
    ValidationError,
    Verdict,
    Vgtc,
    evaluate,
    run_corpus,
    scenario_from_row,
)
from vacgrab.cli import parse_config
from vacgrab.feasibility import layout_stage
from conftest import make_scenario


# ---------------------------------------------------------------------------
# reference scenarios

def test_pocket_bag_passes(bag_scenario):
    report = evaluate(bag_scenario)
    assert report.verdict is Verdict.PASS
    assert report.holding_force == pytest.approx(0.148, abs=1e-3)
    assert report.required_pressure_single_cup == pytest.approx(47_111, rel=0.01)
    assert report.line_loss == pytest.approx(37_018, abs=500)
    assert report.net_supply == pytest.approx(55_000, abs=500)


def test_pocket_facing_passes(facing_scenario):
    report = evaluate(facing_scenario)
    assert report.verdict is Verdict.PASS
    assert report.required_pressure_single_cup == pytest.approx(37_561, rel=0.01)


def test_weak_generator_fails(pocket_facing, std_line):
    scenario = make_scenario(
        pocket_facing, std_line, generator=VacuumGenerator(max_vacuum=40_000.0)
    )
    report = evaluate(scenario)
    assert report.verdict is Verdict.FAIL
    assert report.net_supply == pytest.approx(3_000, abs=500)


def test_transonic_advisory_attached(bag_scenario):
    report = evaluate(bag_scenario)
    assert any("incompressible" in a for a in report.advisories)


def test_evaluate_deterministic(bag_scenario):
    assert evaluate(bag_scenario) == evaluate(bag_scenario)


def test_report_numbers_recompose(bag_scenario):
    report = evaluate(bag_scenario)
    area = bag_scenario.cup.area
    assert abs(report.required_pressure_single_cup * area - report.holding_force) < 1e-9 * report.holding_force
    assert report.net_supply == pytest.approx(
        max(0.0, bag_scenario.generator.max_vacuum - report.line_loss), rel=1e-12
    )
    assert report.required_pressure_shared == pytest.approx(
        report.required_pressure_single_cup / bag_scenario.cup.count, rel=1e-12
    )


def test_shared_pressure_uses_cup_count(pocket_bag, std_line):
    scenario = make_scenario(
        pocket_bag, std_line, cup=SuctionCup(orifice_diameter=2e-3, count=6)
    )
    report = evaluate(scenario)
    assert report.gripper_count == 6
    assert report.required_pressure_shared == pytest.approx(
        report.required_pressure_single_cup / 6, rel=1e-12
    )


def test_plate_lift_selector_respected(pocket_bag, std_line):
    from vacgrab import LoadCase

    scenario = make_scenario(
        pocket_bag, std_line, motion=MotionProfile(load_case=LoadCase.PLATE_LIFT)
    )
    report = evaluate(scenario)
    assert report.holding_force == pytest.approx(0.07405, abs=1e-6)


def test_scenario_requires_line(pocket_bag):
    with pytest.raises(ValidationError, match="line"):
        make_scenario(pocket_bag, ())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("field", ["upstream_velocity", "margin"])
def test_scenario_rejects_non_finite_values(pocket_bag, std_line, field, value):
    with pytest.raises(ValidationError, match=field):
        make_scenario(pocket_bag, std_line, **{field: value})


def test_stage_labels_on_errors(pocket_bag):
    # a cup bank can't be built invalid, so break the layout stage instead
    window = PressureWindow(p_min=1000.0)
    tri_fabric = FabricPiece(
        id="tri",
        outline=Polygon(((0, 0), (0.3, 0), (0.15, 0.2))),
        mass=1e-3,
        friction_coefficient=0.5,
    )
    scenario = make_scenario(
        tri_fabric,
        (PipeSegment(inner_diameter=2e-3),),
        vgtc=Vgtc(radius=0.02, pressure_window=window),
    )
    with pytest.raises(ValidationError, match="layout stage"):
        evaluate(scenario)
    with pytest.raises(ValidationError, match="^layout stage: layout generation needs an axis-aligned"):
        layout_stage(scenario.vgtc, tri_fabric.outline, scenario.margin, scenario.vgtc.radius)
    # on a valid config the stage is the layout and ratios that evaluate reports
    facing = parse_config(resources.files("vacgrab").joinpath("data/pocket_facing.conf").read_text("utf-8"))
    report = evaluate(facing)
    assert layout_stage(facing.vgtc, facing.fabric.outline, facing.margin, facing.vgtc.radius) == (
        report.layout, report.effective_ratios
    )


# ---------------------------------------------------------------------------
# grabbing-circle path

def interior_circle_scenario(pocket_bag, p_min=30_000.0, p_max=None, **overrides):
    # radius 1 cm on a 26x19 piece: all circles stay inside the outline
    window = PressureWindow(p_min=p_min, p_max=p_max)
    return make_scenario(
        pocket_bag,
        (PipeSegment(inner_diameter=5.2e-3), PipeSegment(inner_diameter=2e-3)),
        vgtc=Vgtc(radius=0.01, pressure_window=window),
        **overrides,
    )


def test_vgtc_layout_and_ratios(pocket_bag):
    report = evaluate(interior_circle_scenario(pocket_bag))
    assert report.layout is not None
    assert len(report.effective_ratios) == len(report.layout.positions)
    assert all(r == pytest.approx(1.0, rel=1e-9) for r in report.effective_ratios)
    assert report.verdict is Verdict.PASS


def test_full_disk_grid_holds_one_ratio_object(pocket_bag):
    # every full disk's ratio is the shared constant 1.0, not a new float each
    report = evaluate(interior_circle_scenario(pocket_bag))
    assert len(report.effective_ratios) > 1
    assert len({id(r) for r in report.effective_ratios}) == 1
    assert report.effective_ratios[0] == 1.0


def test_vgtc_edge_overhang_inflates_demand(pocket_bag):
    # radius 4.4 cm with a 2 cm margin: corner circles overhang the piece
    window = PressureWindow(p_min=37_561.0)
    scenario = make_scenario(
        pocket_bag,
        (PipeSegment(inner_diameter=5.2e-3), PipeSegment(inner_diameter=2e-3)),
        vgtc=Vgtc(radius=0.044, pressure_window=window),
    )
    report = evaluate(scenario)
    assert min(report.effective_ratios) < 1.0
    # inflated corner demand exceeds the ~54.9 kPa net supply
    assert report.verdict is Verdict.FAIL


def test_permeable_without_window_max_is_uncalibrated(pocket_bag):
    fabric = pocket_bag.replace(permeability=Permeability.AIR_PERMEABLE)
    report = evaluate(interior_circle_scenario(fabric, p_max=None))
    assert report.verdict is Verdict.UNCALIBRATED


def test_permeable_above_window_max_is_multi_layer_risk(pocket_bag):
    fabric = pocket_bag.replace(permeability=Permeability.AIR_PERMEABLE)
    report = evaluate(interior_circle_scenario(fabric, p_max=50_000.0))
    assert report.net_supply > 50_000.0
    assert report.verdict is Verdict.PASS_WITH_MULTI_LAYER_RISK


def test_permeable_inside_window_passes(pocket_bag):
    fabric = pocket_bag.replace(permeability=Permeability.AIR_PERMEABLE)
    report = evaluate(interior_circle_scenario(fabric, p_max=60_000.0))
    assert report.net_supply <= 60_000.0
    assert report.verdict is Verdict.PASS


def test_impermeable_never_flags_multi_layer(pocket_bag):
    report = evaluate(interior_circle_scenario(pocket_bag, p_max=50_000.0))
    assert report.verdict is Verdict.PASS
    assert any("harmless" in a for a in report.advisories)


def test_permeable_no_circle_is_uncalibrated(pocket_bag, std_line):
    fabric = pocket_bag.replace(permeability=Permeability.AIR_PERMEABLE)
    report = evaluate(make_scenario(fabric, std_line))
    assert report.verdict is Verdict.UNCALIBRATED


# every verdict branch: permeability x window maximum x whether the net supply
# (about 55 kPa) covers the demand; 2.5 g needs about 47 kPa per cup, 5 g about 94 kPa
@pytest.mark.parametrize("mass", [2.5e-3, 5e-3], ids=["met", "unmet"])
@pytest.mark.parametrize("p_max", [None, 50_000.0, 80_000.0], ids=["no-max", "max-below-net", "max-above-net"])
@pytest.mark.parametrize("permeable", [True, False], ids=["permeable", "impermeable"])
def test_verdict_table(pocket_bag, permeable, p_max, mass):
    permeability = Permeability.AIR_PERMEABLE if permeable else Permeability.AIR_IMPERMEABLE
    fabric = pocket_bag.replace(permeability=permeability, mass=mass)
    report = evaluate(interior_circle_scenario(fabric, p_max=p_max))
    exceeds = f"net supply {report.net_supply:.0f} Pa exceeds window maximum {p_max or 0:.0f} Pa; "
    if mass > 2.5e-3:  # a Fail says nothing of the window, even where net exceeds p_max
        expected = Verdict.FAIL, []
    elif not permeable:
        harmless = p_max is not None and report.net_supply > p_max
        expected = Verdict.PASS, [exceeds + "harmless for air-impermeable fabric"] if harmless else []
    elif p_max is None:
        expected = Verdict.UNCALIBRATED, [
            "air-permeable fabric with no calibrated window maximum; single-layer pickup not assured"
        ]
    elif report.net_supply > p_max:
        expected = Verdict.PASS_WITH_MULTI_LAYER_RISK, [exceeds + "may lift more than one layer"]
    else:
        expected = Verdict.PASS, []
    assert (report.verdict, [a for a in report.advisories if "window" in a]) == expected
    assert report.net_supply == pytest.approx(55_000, abs=500)  # p_max 50 kPa is below it, 80 kPa above


# ---------------------------------------------------------------------------
# verdict monotonicity

def rig_verdict(radius, max_vacuum, mass, orifice_diameter=2e-3, p_min=30_000.0, acceleration=5.0, safety_factor=2.0):
    fabric = FabricPiece(id="f", outline=Polygon.rectangle(0.26, 0.19), mass=mass, friction_coefficient=0.5)
    line = (PipeSegment(inner_diameter=5.2e-3), PipeSegment(inner_diameter=2e-3))
    circle = None if radius is None else Vgtc(radius=radius, pressure_window=PressureWindow(p_min=p_min))
    scenario = make_scenario(
        fabric,
        line,
        motion=MotionProfile(acceleration=acceleration, safety_factor=safety_factor),
        cup=SuctionCup(orifice_diameter=orifice_diameter),
        generator=VacuumGenerator(max_vacuum=max_vacuum),
        vgtc=circle,
    )
    return evaluate(scenario).verdict


# without a circle, and with a 3 cm one whose border disks overhang the
# 2 cm margin, so that p_min / min(ratios) competes with the single-cup
# demand; the 0.5-5 g pieces and 30-101 kPa generators put both verdicts
# within reach of each input's range
@settings(max_examples=60)
@pytest.mark.parametrize("radius", [None, 0.03], ids=["no-circle", "circle"])
@pytest.mark.parametrize(
    "name, low, high, easier",
    [
        ("max_vacuum", 1_000.0, 101_325.0, "higher"),
        ("orifice_diameter", 5e-4, 1e-2, "higher"),
        ("p_min", 1_000.0, 100_000.0, "lower"),
        ("mass", 5e-4, 1e-2, "lower"),
        ("acceleration", 0.0, 50.0, "lower"),
        ("safety_factor", 1.0, 10.0, "lower"),
    ],
    ids=["max_vacuum", "orifice_diameter", "p_min", "mass", "acceleration", "safety_factor"],
)
@given(
    data=st.data(),
    mass=st.floats(min_value=5e-4, max_value=5e-3, allow_nan=False),
    vacuum=st.floats(min_value=30_000, max_value=101_325, allow_nan=False),
)
def test_an_easier_input_never_flips_pass_to_fail(name, low, high, easier, radius, data, mass, vacuum):
    # equally: the harder input never flips Fail to Pass
    lo, hi = sorted(data.draw(st.floats(min_value=low, max_value=high, allow_nan=False)) for _ in range(2))
    easy, hard = (hi, lo) if easier == "higher" else (lo, hi)

    def verdict(value):
        return rig_verdict(radius, **{"max_vacuum": vacuum, "mass": mass, name: value})

    assert not (verdict(hard) is not Verdict.FAIL and verdict(easy) is Verdict.FAIL)


# ---------------------------------------------------------------------------
# corpus batches

def make_row(**overrides):
    base = dict(
        lot="1",
        application="Pocket Bag",
        fabric_code="713993",
        material="100%Polyester; Plain Weave; TEXTILE-WOVEN",
        gripper_count=6,
        length_m=0.26,
        width_m=0.19,
        supply_pressure=55_000.0,
        expected="Pass",
    )
    base.update(overrides)
    return CorpusRow(**base)


def test_scenario_from_row_reference_masses():
    bag = scenario_from_row(make_row())
    facing = scenario_from_row(make_row(application="Pocket Facing"))
    assert bag.fabric.mass == 2.5e-3
    assert facing.fabric.mass == 2.0e-3
    assert bag.generator.max_vacuum == 55_000.0
    assert bag.cup.count == 6


def test_scenario_from_row_unknown_application():
    with pytest.raises(ValidationError, match="Sleeve"):
        scenario_from_row(make_row(application="Sleeve"))
    with pytest.raises(ValidationError, match=r"^no reference mass for application 'x{40}\.\.\.'; known: "):
        scenario_from_row(make_row(application="x" * 5000))


def test_run_corpus_empty():
    assert run_corpus([]) == []


def test_run_corpus_isolates_bad_rows():
    rows = [make_row(lot=str(i + 1)) for i in range(11)]
    rows.insert(4, make_row(lot="bad", gripper_count=0))
    entries = run_corpus(rows)
    assert len(entries) == 12
    errors = [e for e in entries if e.error is not None]
    assert len(errors) == 1
    assert errors[0].label == "bad"
    assert "count" in errors[0].error
    assert sum(e.report is not None for e in entries) == 11


@pytest.mark.parametrize("field, named", [
    ("application", "application"),
    ("length_m", "length"),
    ("width_m", "width"),
    ("supply_pressure", "max_vacuum"),
])
@pytest.mark.parametrize("bad", ["0.26", None, 1j], ids=["str", "None", "complex"])
def test_run_corpus_keeps_every_entry_past_a_mistyped_row(field, named, bad):
    rows = [make_row(lot="1"), make_row(lot="bad", **{field: bad}), make_row(lot="3")]
    entries = run_corpus(rows)
    assert [(e.index, e.label) for e in entries] == [(0, "1"), (1, "bad"), (2, "3")]
    assert entries[0].report is not None and entries[2].report is not None
    assert entries[1].report is None and named in entries[1].error


@pytest.mark.parametrize("field", ["lot", "application", "fabric_code", "material"])
@pytest.mark.parametrize("bad", [None, 1j, 26], ids=["None", "complex", "int"])
def test_scenario_from_row_refuses_a_text_field_that_is_no_str(field, bad):
    with pytest.raises(ValidationError, match=f"^{field} must be text, got ") as err:
        scenario_from_row(make_row(**{field: bad}))
    assert err.value.field == field


def test_run_corpus_preserves_order():
    rows = [make_row(lot=str(i)) for i in range(5)]
    entries = run_corpus(rows)
    assert [e.label for e in entries] == [str(i) for i in range(5)]
    assert [e.index for e in entries] == list(range(5))
