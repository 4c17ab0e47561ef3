import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

import vacgrab
from vacgrab import (
    Layout,
    Permeability,
    Polygon,
    PressureWindow,
    Verdict,
    Vgtc,
    calibrate_spacing,
    evaluate,
    effective_ratio,
    generate_layout,
)
from vacgrab.cli import (
    CONFIG_FIELDS,
    ConfigError,
    emit_batch,
    emit_layout_svg,
    emit_report,
    load_bundled_corpus,
    main,
    parse_config,
    parse_corpus_csv,
    parse_document,
)
from vacgrab import vgtc as vgtc_module
from vacgrab.cli import _Floats, _json_text, _layout_dict
from vacgrab.feasibility import CorpusEntry, run_corpus
from vacgrab.model import SI_UNIT
from conftest import make_scenario


def shipped(name: str) -> str:
    return resources.files("vacgrab").joinpath(f"data/{name}").read_text("utf-8")


@pytest.fixture
def bag_config(tmp_path):
    path = tmp_path / "pocket_bag.conf"
    path.write_text(shipped("pocket_bag.conf"))
    return str(path)


@pytest.fixture
def big_piece_config(tmp_path):
    # ROADMAP's 2 x 1.5 m piece with a 1 cm circle inside the 2 cm margin:
    # 197 x 147 = 28,959 positions, every disk wholly on the piece
    text = shipped("pocket_bag.conf").replace("length = 26 cm", "length = 2 m", 1)
    path = tmp_path / "big_piece.conf"
    path.write_text(text.replace("width = 19 cm", "width = 1.5 m", 1)
                    + "\n[vgtc]\nradius = 1 cm\np_min = 37.561 kPa\nmargin = 2 cm\n")
    return str(path)


@pytest.fixture
def facing_config(tmp_path):
    path = tmp_path / "pocket_facing.conf"
    path.write_text(shipped("pocket_facing.conf"))
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_shipped_bag_config_matches_reference_numbers():
    scenario = parse_config(shipped("pocket_bag.conf"))
    assert scenario.fabric.mass == pytest.approx(2.5e-3, rel=1e-12)
    assert scenario.generator.max_vacuum == 92_000.0
    assert scenario.generator.supply_flow_rate == pytest.approx(1.05e-3, rel=1e-12)
    assert scenario.line[0].inner_diameter == pytest.approx(5.2e-3, rel=1e-12)
    assert scenario.upstream_velocity == 37.14
    report = evaluate(scenario)
    assert report.holding_force == pytest.approx(0.148, abs=1e-3)
    assert report.required_pressure_single_cup == pytest.approx(47_111, rel=0.01)
    assert report.line_loss == pytest.approx(37_018, abs=500)
    assert report.verdict is Verdict.PASS


def test_shipped_facing_config_units_override():
    scenario = parse_config(shipped("pocket_facing.conf"))
    assert scenario.fabric.outline.area == pytest.approx(0.26 * 0.05, rel=1e-9)
    assert scenario.vgtc is not None
    assert scenario.vgtc.radius == pytest.approx(0.044, rel=1e-12)
    assert scenario.margin == pytest.approx(0.02, rel=1e-12)


def test_empty_config_missing_fabric():
    with pytest.raises(ConfigError, match="missing section: fabric"):
        parse_config("")


def test_negative_mass_names_invariant():
    text = shipped("pocket_bag.conf").replace("mass = 2.5 g", "mass = -1 g")
    with pytest.raises(ConfigError, match="^line 8: mass must be finite and > 0, got -0.001$"):
        parse_config(text)


def test_unknown_key_rejected_with_line_number():
    text = shipped("pocket_bag.conf") + "\n[fabric]\n"
    with pytest.raises(ConfigError, match="duplicate section"):
        parse_config(text)
    text2 = shipped("pocket_bag.conf").replace("friction = 0.5", "fricton = 0.5")
    with pytest.raises(ConfigError, match="fricton"):
        parse_config(text2)


def test_unknown_unit_suffix_rejected():
    text = shipped("pocket_bag.conf").replace("mass = 2.5 g", "mass = 2.5 lb")
    with pytest.raises(ConfigError, match="lb"):
        parse_config(text)


def test_syntax_error_carries_line_number():
    bad = "[fabric]\nid pocket\n"
    with pytest.raises(ConfigError, match="line 2"):
        parse_config(bad)


def test_missing_line_section():
    text = "\n".join(
        line for line in shipped("pocket_bag.conf").splitlines() if line != "[line]"
    )
    with pytest.raises(ConfigError):
        parse_config(text)


def test_upstream_velocity_only_in_first_line_section():
    text = shipped("pocket_bag.conf").replace(
        "inner_diameter = 2 mm", "inner_diameter = 2 mm\nupstream_velocity = 1.0"
    )
    with pytest.raises(ConfigError, match="first"):
        parse_config(text)


def test_vertices_outline_parses():
    text = shipped("pocket_bag.conf").replace(
        "length = 26 cm\nwidth = 19 cm",
        "vertices = 0 cm, 0 cm; 26 cm, 0 cm; 26 cm, 19 cm; 0 cm, 19 cm",
    )
    scenario = parse_config(text)
    assert scenario.fabric.outline.area == pytest.approx(0.26 * 0.19, rel=1e-12)


# unit suffix -> factor to the SI unit, per dimension ("" takes the default)
_SUFFIXES = {
    "length": {"mm": 1e-3, "cm": 1e-2, "m": 1.0},
    "mass": {"g": 1e-3, "kg": 1.0},
    "pressure": {"kPa": 1e3, "Pa": 1.0, "bar": 1e5},
    "flow": {"L/min": 1.0 / 60_000.0, "m3/s": 1.0, "m³/s": 1.0},
}
# number text as the grammar reads it, kept small enough that no product overflows
_DIGITS = st.text("0123456789", min_size=1, max_size=6)
_NUMBER_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.one_of(_DIGITS, st.builds("{}.".format, _DIGITS), st.builds("{}.{}".format, _DIGITS, _DIGITS),
              st.builds(".{}".format, _DIGITS)),
    st.one_of(st.just(""), st.builds("{}{}".format, st.sampled_from(["e", "E", "e-", "E+"]), st.integers(0, 30))),
)


@st.composite
def _quantities(draw, dimension, default):
    """(value text, the exact SI float it must parse to), with or without a suffix;
    a bare number is in the default unit."""
    number = draw(_NUMBER_TEXT)
    suffix = draw(st.sampled_from(["", *_SUFFIXES[dimension]]))
    space = draw(st.sampled_from(["", " ", "\t "])) if suffix else ""
    return f"{number}{space}{suffix}", float(number) * _SUFFIXES[dimension][suffix or default]


@settings(max_examples=200)
@given(data=st.data(), default=st.sampled_from([None, "mm", "cm", "m"]))
def test_values_and_vertices_parse_to_one_product(data, default):
    # the four quantities of a rectangle outline, then one value of each dimension and a bare number
    length = default or "m"
    corners = [data.draw(_quantities("length", length)) for _ in range(4)]
    (x0, ex0), (y0, ey0), (x1, ex1), (y1, ey1) = corners
    assume(ex0 != ex1 and ey0 != ey1)
    mass, radius = data.draw(_quantities("mass", "kg")), data.draw(_quantities("length", length))
    p_min, flow = data.draw(_quantities("pressure", "Pa")), data.draw(_quantities("flow", "m3/s"))
    friction = data.draw(_NUMBER_TEXT)
    text = (
        ("" if default is None else f"[units]\nlength = {default}\n")
        + f"[fabric]\nvertices = {x0}, {y0}; {x1},{y0} ;{x1}, {y1}; {x0} , {y1}\nmass = {mass[0]}\n"
        + f"friction = {friction}\n[generator]\nsupply_flow_rate = {flow[0]}\n"
        + f"[vgtc]\nradius = {radius[0]}\np_min = {p_min[0]}\n"
    )
    doc = parse_document(text)
    fabric, vgtc = doc.sections["fabric"].values, doc.sections["vgtc"].values
    assert repr(fabric["vertices"].vertices) == repr(((ex0, ey0), (ex1, ey0), (ex1, ey1), (ex0, ey1)))
    assert repr(fabric["mass"]) == repr(mass[1])
    assert repr(fabric["friction"]) == repr(float(friction))
    assert repr(doc.sections["generator"].values["supply_flow_rate"]) == repr(flow[1])
    assert repr((vgtc["radius"], vgtc["p_min"])) == repr((radius[1], p_min[1]))


def test_every_declared_key_is_well_formed():
    # parse_document tries the section's table first, so no declared key may be malformed
    assert all(re.fullmatch(r"[a-z_][a-z0-9_]*", field.key) for field in CONFIG_FIELDS)


@pytest.mark.parametrize("key, message", [
    ("Mass", "malformed key 'Mass'"),  # unknown too: malformed comes first
    ("1mass", "malformed key '1mass'"),
    ("mass-2", "malformed key 'mass-2'"),
    ("p min", "malformed key 'p min'"),
    ("", "malformed key ''"),
    ("massa", "unknown key 'massa' in [fabric]"),
    ("radius", "unknown key 'radius' in [fabric]"),
])
def test_a_malformed_key_is_reported_before_an_unknown_one(key, message):
    with pytest.raises(ConfigError) as err:
        parse_document(f"[fabric]\nid = a\n{key} = 1\n")
    assert str(err.value) == f"line 3: {message}"


def test_scenario_echo_round_trip(pocket_bag, std_line):
    # a literal config text parses to the Scenario built in Python; bores
    # and radius are bare SI numbers because "5.2 mm" converts to 0.005200000000000001
    text = """
[fabric]
id = pocket_bag
length = 26 cm
width = 19 cm
mass = 2.5 g
friction = 0.5
material = 100% Polyester; Plain Weave; TEXTILE-WOVEN

[cup]
orifice_diameter = 2 mm

[line]
inner_diameter = 0.0052
length = 1 m
upstream_velocity = 37.14

[line]
inner_diameter = 2 mm
length = 10 cm

[vgtc]
radius = 0.044
p_min = 37561 Pa
p_max = 60 kPa
margin = 1.5 cm
"""
    window = PressureWindow(p_min=37_561.0, p_max=60_000.0)
    scenario = make_scenario(
        pocket_bag,
        std_line,
        vgtc=Vgtc(radius=0.044, pressure_window=window),
        margin=0.015,
    )
    assert parse_config(text) == scenario


# ---------------------------------------------------------------------------
# report emission

def test_csv_report_reference_row(bag_scenario):
    report = evaluate(bag_scenario)
    text = emit_report(report, "csv").decode()
    header, row = text.strip().splitlines()
    assert header == "id,force_N,req_pressure_Pa,loss_Pa,net_Pa,gripper_count,verdict"
    cells = row.split(",")
    assert cells[0] == "pocket_bag"
    assert float(cells[1]) == pytest.approx(0.148, abs=1e-3)
    assert float(cells[2]) == pytest.approx(47_111, rel=0.01)
    assert float(cells[3]) == pytest.approx(37_018, abs=500)
    assert float(cells[4]) == pytest.approx(55_000, abs=500)
    assert cells[6] == "Pass"


def test_human_report_contains_verdict(bag_scenario):
    text = emit_report(evaluate(bag_scenario), "human").decode()
    assert "verdict" in text and "Pass" in text


def test_empty_batch_csv_is_header_only():
    assert emit_batch([], "csv").decode() == "id,force_N,req_pressure_Pa,loss_Pa,net_Pa,gripper_count,verdict\n"


def test_batch_error_entries_keep_slots(bag_scenario):
    entries = [
        CorpusEntry(index=0, label="ok", report=evaluate(bag_scenario), error=None),
        CorpusEntry(index=1, label="bad", report=None, error="boom"),
    ]
    text = emit_batch(entries, "csv").decode()
    lines = text.strip().splitlines()
    assert len(lines) == 3
    assert "error: boom" in lines[2]
    structured = json.loads(emit_batch(entries, "structured").decode())
    assert structured[1]["error"] == "boom"
    assert emit_batch(entries, "human").decode().splitlines()[1] == "bad        error: boom"


@pytest.mark.parametrize("field", ["lot", "application", "fabric_code", "material"])
@pytest.mark.parametrize("bad", [None, 7, 1j], ids=["None", "int", "complex"])
def test_every_batch_format_keeps_each_entry_past_a_row_whose_text_is_no_str(field, bad):
    rows = load_bundled_corpus()[:3]
    rows[1] = rows[1].replace(**{field: bad})
    entries = run_corpus(rows)
    error = f"{field} must be text, got {bad!r}"
    assert [e.error for e in entries] == [None, error, None]
    label, good = rows[1].lot, run_corpus(rows[::2])

    human = emit_batch(good, "human").decode().splitlines()
    assert emit_batch(entries, "human").decode().splitlines() == [human[0], f"{label!s:<10} error: {error}", human[1]]

    table = list(csv.reader(io.StringIO(emit_batch(good, "csv").decode())))
    row = ["" if label is None else str(label), "", "", "", "", "", f"error: {error}"]
    assert list(csv.reader(io.StringIO(emit_batch(entries, "csv").decode()))) == [*table[:2], row, table[2]]

    first, third = json.loads(emit_batch(good, "structured"))
    third["index"] = 2
    entry = {"index": 1, "label": None if label is None else str(label), "report": None, "error": error}
    assert json.loads(emit_batch(entries, "structured")) == [first, entry, third]


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_FLOAT_LISTS = st.lists(st.floats()) | st.lists(st.sampled_from([1.0, 0.5, 0.0, -0.0, math.nan, math.inf]))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | _FLOAT_LISTS  # the second with repeated objects
        | st.dictionaries(st.text(), children)
    ),
    max_leaves=40,
)


@settings(max_examples=150)
@given(_JSON_TREES)
@example([-0.0, 1e-7, 1e22, 0.1])
@example([1.0, math.nan, math.inf, -math.inf])
@example({"": {}, "k": [], "\u00e9\u4e2d\U0001f600": ["\n\"\\", True, 1, 1.0, False, 0, None]})
@example([(), [], {}, [[]], (1,)])
@example([1.0] * 50)  # one shared object, formatted once
@example([0.0, -0.0, 0.0])  # equal keys with different texts
@example([-0.0, -0.0])
@example([0.5, math.nan, 0.5, math.nan])  # one nan object twice
@example([1.0, 1])  # equal int, bool and float items keep their own texts
@example([1, 1.0, True])
@example([0, 0.0, -0.0, False])
def test_json_writer_matches_json_dumps(tree):
    assert _json_text(tree) == json.dumps(tree, indent=2) + "\n"


# ratios as a grid has them, in runs of one value: the shared 1.0, 0.0 and
# -0.0 (equal, spelled differently), one nan object, inf, any float
_RUN_VALUES = st.sampled_from([1.0, 0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats()
_FLOAT_RUNS = st.lists(st.tuples(_RUN_VALUES, st.integers(1, 300)), max_size=6).map(
    lambda runs: [value for value, length in runs for _ in range(length)]
)


# the ratios check and plan write: floats by construction, listed with no type check
@settings(max_examples=300)
@given(values=_FLOAT_LISTS | _FLOAT_RUNS, depth=st.integers(0, 2))
@example(values=[], depth=0)
@example(values=[1.0] * 40 + [0.5] + [1.0] * 40, depth=1)
@example(values=[0.0] * 3 + [-0.0] * 2 + [1.0], depth=2)  # one run, two spellings
@example(values=[1.0] * 5 + [math.nan] * 7, depth=0)  # one nan object, one run
@example(values=[0.25] * 4 + [math.inf] * 2, depth=1)
@example(values=[-0.0, 1e-7, 1e22, 0.1], depth=1)
@example(values=[1.0, math.nan, math.inf, -math.inf], depth=0)
@example(values=[1.0] * 50, depth=1)  # one shared object, formatted once
@example(values=[0.0, -0.0, 0.0], depth=0)  # equal keys with different texts
@example(values=[-0.0, -0.0], depth=2)
@example(values=[0.5, math.nan, 0.5, math.nan], depth=0)  # one nan object twice
def test_json_writer_float_list_matches_json_dumps(values, depth):
    typed, plain = _Floats(tuple(values)), values
    for _ in range(depth):
        typed, plain = {"effective_ratios": typed, "n": len(values)}, {"effective_ratios": plain, "n": len(values)}
    assert _json_text(typed) == json.dumps(plain, indent=2) + "\n"


# finite floats only: a Layout refuses nan and inf
_AXIS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6)


@settings(max_examples=200)
@given(xs=_AXIS, ys=_AXIS, spacing=st.floats(0, 1, exclude_min=True), margin=st.floats(0, 1))
@example(xs=[], ys=[], spacing=0.01, margin=0.0)
@example(xs=[], ys=[0.5], spacing=0.01, margin=0.0)
@example(xs=[0.25], ys=[], spacing=0.01, margin=-0.0)
@example(xs=[0.1, -0.0], ys=[-0.0, 0.0], spacing=0.01, margin=0.0)
def test_layout_record_matches_json_dumps(xs, ys, spacing, margin):
    layout = Layout(xs=tuple(xs), ys=tuple(ys), spacing=spacing, margin=margin)
    plain = {"xs": xs, "ys": ys, "spacing": spacing, "margin": margin, "rows": len(ys), "cols": len(xs)}
    assert _json_text({"layout": _layout_dict(layout)}) == json.dumps({"layout": plain}, indent=2) + "\n"


def plain_report(report) -> dict:
    """What structured check writes, as plain lists and dicts for json.dumps."""
    layout = report.layout
    return {
        **vars(report),
        "layout": {
            "xs": list(layout.xs),
            "ys": list(layout.ys),
            "spacing": layout.spacing,
            "margin": layout.margin,
            "rows": layout.rows,
            "cols": layout.cols,
        },
        "verdict": report.verdict.value,
        "effective_ratios": list(report.effective_ratios),
    }


def test_structured_check_at_full_scale_matches_json_dumps(big_piece_config, capsysbinary):
    assert main(["check", "--config", big_piece_config, "--format", "structured"]) == 0
    out = capsysbinary.readouterr().out
    report = evaluate(parse_config(Path(big_piece_config).read_text()))
    assert (report.layout.cols, report.layout.rows) == (197, 147)
    assert out == (json.dumps(plain_report(report), indent=2) + "\n").encode()
    # the layout is its 344 axis values, not one [x, y] pair per position:
    # about 9.2 bytes a position, nearly all of them the ratios
    assert len(out) < 12 * 28_959


@pytest.fixture(scope="module")
def grid_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("box_grid") / "box.conf"


@settings(max_examples=60, deadline=None)
@given(
    x0=st.floats(-1, 1), y0=st.floats(-1, 1), length=st.floats(0.05, 0.4), width=st.floats(0.05, 0.4),
    margin=st.floats(0, 0.02), radius=st.floats(0.005, 0.05), spacing=st.floats(0.01, 0.1),
    command=st.sampled_from(["check", "plan"]),
)
@example(x0=0.0, y0=0.0, length=0.26, width=0.19, margin=0.02, radius=0.03, spacing=0.03, command="check")
@example(x0=-0.5, y0=0.25, length=0.26, width=0.05, margin=0.02, radius=0.044, spacing=0.044, command="plan")
def test_structured_axes_rebuild_the_positions_in_ratio_order(
    grid_config_path, x0, y0, length, width, margin, radius, spacing, command
):
    x1, y1 = x0 + length, y0 + width
    outline = f"vertices = {x0!r}, {y0!r}; {x1!r}, {y0!r}; {x1!r}, {y1!r}; {x0!r}, {y1!r}"
    config = shipped("pocket_bag.conf").replace("length = 26 cm\nwidth = 19 cm", outline, 1)
    config += f"\n[vgtc]\nradius = {radius!r}\np_min = 30 kPa\nmargin = {margin!r}\n"
    grid_config_path.write_text(config)
    argv = [command, "--config", str(grid_config_path), "--format", "structured"]
    if command == "plan":
        argv += ["--spacing", repr(spacing)]
    else:
        spacing = radius  # check lays its grid at the circle's radius
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    written = json.loads(out.getvalue())
    record = written["layout"]
    scenario = parse_config(config)
    layout = generate_layout(scenario.fabric.outline, scenario.margin, spacing)
    rebuilt = [[x, y] for y in record["ys"] for x in record["xs"]]
    assert repr(rebuilt) == repr([list(p) for p in layout])
    assert (record["rows"], record["cols"]) == (len(record["ys"]), len(record["xs"]))
    ratios = [effective_ratio(scenario.vgtc, scenario.fabric.outline, (x, y)) for x, y in rebuilt]
    assert written["effective_ratios"] == ratios


def test_clipped_grid_at_scale_matches_json_dumps_and_shades_its_border(tmp_path, capsysbinary):
    # an 80 x 60 cm piece with a 1 cm circle at margin 0: 81 x 61 = 4,941
    # positions, the 280 on the border of the grid overhanging the piece
    text = shipped("pocket_bag.conf").replace("length = 26 cm", "length = 80 cm", 1)
    config = tmp_path / "clipped.conf"
    config.write_text(text.replace("width = 19 cm", "width = 60 cm", 1)
                      + "\n[vgtc]\nradius = 1 cm\np_min = 37.561 kPa\nmargin = 0 cm\n")
    svg_path = tmp_path / "layout.svg"
    assert main(["check", "--config", str(config), "--format", "structured", "--svg", str(svg_path)]) == 0
    out = capsysbinary.readouterr().out
    report = evaluate(parse_config(config.read_text()))
    assert (report.layout.cols, report.layout.rows) == (81, 61)
    assert out == (json.dumps(plain_report(report), indent=2) + "\n").encode()
    svg = svg_path.read_text()
    rings = re.findall(r'class="vgtc-ring" (cx="[^"]*" cy="[^"]*")', svg)  # in position order
    shaded = re.findall(r'class="effective-shade" (cx="[^"]*" cy="[^"]*")', svg)
    assert len(rings) == len(report.effective_ratios) == 4941
    assert shaded == [center for center, ratio in zip(rings, report.effective_ratios) if ratio < 1.0 - 1e-9]
    assert len(shaded) == 280


# ---------------------------------------------------------------------------
# corpus file handling

def test_bundled_corpus_loads_twelve_rows():
    rows = load_bundled_corpus()
    assert len(rows) == 12
    assert all(row.supply_pressure == 55_000.0 for row in rows)
    assert all(row.expected == "Pass" for row in rows)
    assert {row.gripper_count for row in rows} == {6, 8, 12}
    assert rows[0].length_m == pytest.approx(0.26, rel=1e-12)
    assert rows[0].width_m == pytest.approx(0.19, rel=1e-12)


def test_corpus_rejects_wrong_column_count():
    with pytest.raises(ConfigError, match="columns"):
        parse_corpus_csv("a,b,c\n")


def test_empty_corpus_needs_a_header(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^corpus file is empty; a header row is required$"):
        parse_corpus_csv("")
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert main(["batch", "--corpus", str(path)]) == 2
    assert capsys.readouterr().err == "error: corpus file is empty; a header row is required\n"


def test_corpus_rejects_bad_outline():
    good = "h1,h2,h3,h4,h5,h6,h7,h8\n"
    with pytest.raises(ConfigError, match="outline"):
        parse_corpus_csv(good + "1,Pocket Bag,x,mat,6,26 by 19,-55kPa,Pass\n")


# ---------------------------------------------------------------------------
# SVG emission

def layout_fixture():
    outline = Polygon.rectangle(0.26, 0.19)
    vgtc = Vgtc(radius=0.02, pressure_window=PressureWindow(p_min=30_000.0))
    layout = generate_layout(outline, 0.03, 0.08)
    return layout, outline, vgtc


def test_svg_unclipped_layout_element_counts():
    layout, outline, vgtc = layout_fixture()
    svg = emit_layout_svg(layout, outline, vgtc).decode()
    assert svg.count('class="vgtc-ring"') == len(layout.positions)
    assert svg.count('class="grip-dot"') == len(layout.positions)
    assert svg.count('class="effective-shade"') == 0
    assert "fill-opacity" not in svg and svg.count("<g") == 2  # no shade group: rings, then dots
    assert svg.startswith("<?xml")
    assert "</svg>" in svg


def test_svg_clipped_corner_circle():
    outline = Polygon.rectangle(0.26, 0.19)
    vgtc = Vgtc(radius=0.05, pressure_window=PressureWindow(p_min=30_000.0))
    layout = Layout(xs=(0.02,), ys=(0.02,), spacing=0.05, margin=0.02)
    svg = emit_layout_svg(layout, outline, vgtc).decode()
    assert svg.count('class="effective-shade"') == 1
    assert 'clip-path="url(#fabric-clip)"' in svg


def test_svg_empty_layout_outline_only():
    outline = Polygon.rectangle(0.26, 0.19)
    vgtc = Vgtc(radius=0.02, pressure_window=PressureWindow(p_min=30_000.0))
    layout = Layout(xs=(), ys=(), spacing=0.05, margin=0.02)
    svg = emit_layout_svg(layout, outline, vgtc).decode()
    assert svg.count("<circle") == 0
    assert svg.count('class="fabric"') == 1
    assert "<g" not in svg  # no group is written around no element


@pytest.mark.parametrize("xs, ys, empty", [((), (0.1,), "xs"), ((0.1,), (), "ys")], ids=["no-cols", "no-rows"])
def test_layout_with_one_empty_axis_writes_no_position(xs, ys, empty):
    # each grid row is joined in one step: a row of no columns must not leave its tail behind
    outline = Polygon.rectangle(0.26, 0.19)
    vgtc = Vgtc(radius=0.02, pressure_window=PressureWindow(p_min=30_000.0))
    layout = Layout(xs=xs, ys=ys, spacing=0.05, margin=0.02)
    svg = emit_layout_svg(layout, outline, vgtc).decode()
    assert svg.count("<circle") == 0
    assert "<g" not in svg
    assert svg.endswith('stroke-dasharray="6 4"/>\n</svg>\n')
    text = _json_text({"layout": _layout_dict(layout)})  # as structured plan and check write it
    assert f'\n    "{empty}": [],\n' in text
    record = json.loads(text)["layout"]
    assert [[x, y] for y in record["ys"] for x in record["xs"]] == []
    assert (record["xs"], record["ys"]) == (list(xs), list(ys))


def test_svg_holds_at_most_one_copy_of_itself():
    # 57 x 42 grid of full disks: the document is written once into one
    # buffer, so no list of its rows or joined text is held beside it
    outline = Polygon.rectangle(0.6, 0.45)
    vgtc = Vgtc(radius=0.01, pressure_window=PressureWindow(p_min=30_000.0))
    layout = generate_layout(outline, 0.02, 0.01)
    assert len(layout.positions) == 2394
    tracemalloc.start()
    try:
        svg = emit_layout_svg(layout, outline, vgtc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * len(svg)


def test_svg_states_each_style_once_not_per_position():
    # the grid of test_svg_holds_at_most_one_copy_of_itself: fill and stroke sit
    # on one group per family, so each position costs a ring and a dot of
    # class and geometry only (about 119 bytes); a style written on every
    # circle would cost about 182
    outline = Polygon.rectangle(0.6, 0.45)
    vgtc = Vgtc(radius=0.01, pressure_window=PressureWindow(p_min=30_000.0))
    layout = generate_layout(outline, 0.02, 0.01)
    positions = len(layout.positions)
    assert positions == 2394
    assert len(emit_layout_svg(layout, outline, vgtc)) <= 125 * positions


SVG_NS = "{http://www.w3.org/2000/svg}"
# each family of circles, in drawing order: its class, its group's style and
# the attributes each of its circles carries
SVG_FAMILIES = (
    ("effective-shade", {"fill": "#7fb3d5", "fill-opacity": "0.35"}, ["class", "cx", "cy", "r", "clip-path"]),
    ("vgtc-ring", {"fill": "none", "stroke": "#2e6da4", "stroke-width": "1.2"}, ["class", "cx", "cy", "r"]),
    ("grip-dot", {"fill": "#c0392b"}, ["class", "cx", "cy", "r"]),
)


def test_svg_groups_each_family_under_its_style():
    # pocket_bag.conf with a 3 cm circle: 48 positions, the 24 on the border shaded
    scenario = parse_config(shipped("pocket_bag.conf") + "\n[vgtc]\nradius = 3 cm\np_min = 30 kPa\nmargin = 2 cm\n")
    report = evaluate(scenario)
    outline, circle, layout = scenario.fabric.outline, scenario.vgtc, report.layout
    root = ET.fromstring(emit_layout_svg(layout, outline, circle))
    groups = root.findall(f"{SVG_NS}g")
    assert len(groups) == 3
    for group, (name, style, attributes) in zip(groups, SVG_FAMILIES):
        assert group.attrib == style
        assert len(group) > 0
        for element in group:
            assert element.tag == f"{SVG_NS}circle"
            assert list(element.attrib) == attributes  # in the order written
            assert element.get("class") == name
    assert not root.findall(f"{SVG_NS}circle")  # no circle outside a group
    shades, rings, dots = ([(c.get("cx"), c.get("cy")) for c in group] for group in groups)
    # the emitter's mapping: 1000 units per metre, 20 of padding, y upwards
    xs, ys = zip(*outline.vertices)
    x_min, y_max = min(xs) - circle.radius, max(ys) + circle.radius
    centres = [
        (f"{20 + (x - x_min) * 1000:.2f}", f"{20 + (y_max - y) * 1000:.2f}") for x, y in layout.positions
    ]
    assert len(centres) == 48
    assert rings == dots == centres
    assert shades == [c for c, ratio in zip(centres, report.effective_ratios) if ratio < 1.0 - 1e-9]
    assert len(shades) == 24
    assert {c.get("r") for c in groups[1]} == {"30.00"}
    assert all(c.get("clip-path") == "url(#fabric-clip)" for c in groups[0])


@pytest.mark.parametrize("x, shaded", [(0.02, False), (0.02 - 1e-6, True)], ids=["tangent", "1um-over"])
def test_svg_shades_a_disk_that_barely_overhangs(x, shaded):
    outline = Polygon.rectangle(0.26, 0.19)
    vgtc = Vgtc(radius=0.02, pressure_window=PressureWindow(p_min=30_000.0))
    layout = Layout(xs=(x,), ys=(0.095,), spacing=0.02, margin=0.0)
    svg = emit_layout_svg(layout, outline, vgtc).decode()
    assert svg.count('class="effective-shade"') == int(shaded)
    lost = 1.0 - effective_ratio(vgtc, outline, (x, 0.095))
    assert lost == (pytest.approx(2.1e-7, rel=0.02) if shaded else pytest.approx(0.0, abs=1e-12))


def test_svg_shades_exactly_the_positions_below_full_ratio(tmp_path, capsys):
    # 48 positions: the 24 on the border of the grid overhang the piece
    config = tmp_path / "circle.conf"
    config.write_text(shipped("pocket_bag.conf") + "\n[vgtc]\nradius = 3 cm\np_min = 30 kPa\nmargin = 2 cm\n")
    svg_path = tmp_path / "layout.svg"
    assert main(["plan", "--config", str(config), "--format", "structured", "--svg", str(svg_path)]) == 0
    ratios = json.loads(capsys.readouterr().out)["effective_ratios"]
    assert main(["check", "--config", str(config), "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["effective_ratios"] == ratios
    svg = svg_path.read_text()
    rings = re.findall(r'class="vgtc-ring" (cx="[^"]*" cy="[^"]*")', svg)  # in position order
    shaded = re.findall(r'class="effective-shade" (cx="[^"]*" cy="[^"]*")', svg)
    assert len(rings) == len(ratios) == 48
    assert shaded == [center for center, ratio in zip(rings, ratios) if ratio < 1.0 - 1e-9]
    assert len(shaded) == 24


def test_one_intersection_per_position_in_evaluate_and_svg(tmp_path, monkeypatch):
    # 48 positions, 24 of them full disks: each takes exactly one call
    config = shipped("pocket_bag.conf") + "\n[vgtc]\nradius = 3 cm\np_min = 30 kPa\nmargin = 2 cm\n"
    scenario = parse_config(config)
    calls, circles = [], []
    original = vgtc_module.circle_polygon_intersection_area

    def counted(circle, outline, center):
        calls.append((center, circle.radius, circle.disk_area))
        circles.append(circle)
        return original(circle, outline, center)

    monkeypatch.setattr(vgtc_module, "circle_polygon_intersection_area", counted)
    report = evaluate(scenario)
    # each position gets the configured circle's own radius and disk area
    expected = [(pos, scenario.vgtc.radius, scenario.vgtc.disk_area) for pos in report.layout.positions]
    assert calls == expected and len(calls) == 48
    calls.clear()
    emit_layout_svg(report.layout, scenario.fabric.outline, scenario.vgtc)
    assert calls == expected
    # every call moves the configured circle itself: nothing is built per position
    assert len(circles) == 96 and all(circle is scenario.vgtc for circle in circles)


def test_svg_deterministic_bytes():
    layout, outline, vgtc = layout_fixture()
    assert emit_layout_svg(layout, outline, vgtc) == emit_layout_svg(layout, outline, vgtc)


# ---------------------------------------------------------------------------
# command dispatch and exit codes

def test_check_success_exit_zero(bag_config, capsys):
    assert main(["check", "--config", bag_config]) == 0
    out, err = capsys.readouterr()
    assert "verdict" in out and "Pass" in out
    assert "advisory" in err  # transonic warning goes to stderr


def test_check_strict_escalates_advisories(bag_config):
    assert main(["check", "--config", bag_config, "--strict"]) == 3


def test_usage_error_exit_one(capsys):
    assert main(["bogus"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_flag_exit_one(capsys):
    assert main(["check"]) == 1


def test_validation_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text(shipped("pocket_bag.conf").replace("mass = 2.5 g", "mass = -1 g"))
    assert main(["force", "--config", str(path)]) == 2
    assert "mass" in capsys.readouterr().err


def test_missing_config_file_exit_two(capsys):
    assert main(["check", "--config", "/nonexistent/nope.conf"]) == 2


def test_force_command(bag_config, capsys):
    assert main(["force", "--config", bag_config]) == 0
    out = capsys.readouterr().out
    assert "0.1481" in out


def test_force_rejects_csv_format(bag_config, capsys):
    assert main(["force", "--config", bag_config, "--format", "csv"]) == 1


def test_pressure_command_structured(bag_config, capsys):
    assert main(["pressure", "--config", bag_config, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["required_pressure_single_cup"] == pytest.approx(47_111, rel=0.01)
    assert payload["cup_count"] == 6


def test_line_loss_command(bag_config, capsys):
    assert main(["line-loss", "--config", bag_config, "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_loss"] == pytest.approx(37_018, abs=500)
    assert payload["net_supply"] == pytest.approx(55_000, abs=500)


@pytest.mark.parametrize(
    "old, new, count, loss",
    [
        ("", "", 1, "37116.3"),  # Mach
        # an expanding first step: Mach, pressure recovery, loss clamped to 0
        ("inner_diameter = 5.2 mm\nlength = 1 m\nupstream_velocity = 37.14",
         "inner_diameter = 1 mm\nlength = 1 m\nupstream_velocity = 120", 3, "0"),
        ("max_vacuum = -92 kPa", "max_vacuum = -30 kPa", 2, "37116.3"),  # Mach, no vacuum left at the cup
    ],
    ids=["shipped", "expanding", "loss-above-vacuum"],
)
def test_line_loss_and_check_give_the_same_line_advisories(tmp_path, capsys, old, new, count, loss):
    config = edited(tmp_path, "pocket_bag.conf", old, new)
    advisories, losses = {}, {}
    for command in ("line-loss", "check"):
        assert main([command, "--config", config]) == 0
        out, err = capsys.readouterr()
        # pocket_bag.conf has impermeable fabric and no [vgtc]: every advisory is about the line
        advisories[command] = [line for line in err.splitlines() if line.startswith("advisory: ")]
        # line-loss says "total loss", check says "line loss": one figure for one line
        losses[command] = re.search(r"^(?:total|line) loss +: (\S+) Pa$", out, re.MULTILINE).group(1)
    assert len(advisories["check"]) == count
    assert advisories["line-loss"] == advisories["check"]
    assert losses == {"line-loss": loss, "check": loss}


def test_plan_writes_svg(facing_config, tmp_path, capsys):
    svg_path = tmp_path / "layout.svg"
    assert main(["plan", "--config", facing_config, "--svg", str(svg_path)]) == 0
    out = capsys.readouterr().out
    assert "6 grippers" in out
    svg = svg_path.read_text()
    assert svg.count('class="vgtc-ring"') == 6


def test_plan_usage_error_writes_no_svg(facing_config, tmp_path, capsys):
    svg_path = tmp_path / "layout.svg"
    assert main(["plan", "--config", facing_config, "--format", "csv", "--svg", str(svg_path)]) == 1
    assert capsys.readouterr().err == "usage error: plan supports --format human or structured\n"
    assert not svg_path.exists()


def test_plan_spacing_override(facing_config, capsys):
    assert main(["plan", "--config", facing_config, "--spacing", "2.2 cm"]) == 0
    assert "11 cols" in capsys.readouterr().out


def test_check_svg_requires_circle(bag_config, tmp_path):
    svg_path = tmp_path / "out.svg"
    assert main(["check", "--config", bag_config, "--svg", str(svg_path)]) == 1


def test_check_svg_with_circle(facing_config, tmp_path, capsys):
    svg_path = tmp_path / "out.svg"
    assert main(["check", "--config", facing_config, "--svg", str(svg_path)]) == 0
    svg = svg_path.read_text()
    assert svg.count('class="vgtc-ring"') == 6
    # every circle overhangs the 5 cm strip, so all six are shaded
    assert svg.count('class="effective-shade"') == 6


@pytest.mark.parametrize("command", ["plan", "check"])
def test_unwritable_svg_path_exit_two(facing_config, tmp_path, capsys, command):
    svg_path = str(tmp_path / "no_such_dir" / "layout.svg")
    assert main([command, "--config", facing_config, "--svg", svg_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write SVG {svg_path!r}: No such file or directory\n"


def test_calibrate_command(facing_config, capsys):
    assert main(["calibrate", "--config", facing_config, "--target-count", "6"]) == 0
    out = capsys.readouterr().out
    assert "0.0440" in out


def edited(tmp_path, name, old="", new=""):
    """A copy of a shipped config, with one text replaced if given."""
    text = shipped(name)
    assert old in text
    path = tmp_path / f"edited-{name}"
    path.write_text(text.replace(old, new, 1))
    return str(path)


TRIANGLE = ("length = 26 cm\nwidth = 19 cm", "vertices = 0 cm, 0 cm; 26 cm, 0 cm; 0 cm, 19 cm")


@pytest.mark.parametrize(
    "edit, args, message",
    [
        ((), ["--margin=-1 cm"], "margin must be finite and >= 0"),
        (TRIANGLE, [], "rectangular"),
    ],
    ids=["negative-margin", "triangle"],
)
def test_calibrate_rejects_bad_margin_and_outline(tmp_path, capsys, edit, args, message):
    # bad input, not an unreachable count: plan rejects the same margin
    config = edited(tmp_path, "pocket_bag.conf", *edit)
    assert main(["calibrate", "--config", config, "--target-count", "6", *args]) == 2
    assert message in capsys.readouterr().err


# a 26 x 5 cm facing with one corner 1e-10 m off, and a 70 x 5 cm one
# whose corner mixes 70 cm with 0.7 m, which differ by one ulp
NEAR_BOXES = [
    ("length = 26\nwidth = 5", "vertices = 0, 0; 26, 0; 26.00000001, 5; 0, 5"),
    ("length = 26\nwidth = 5", "vertices = 0, 0; 70 cm, 0; 0.7 m, 5; 0, 5"),
]


@pytest.mark.parametrize("edit", NEAR_BOXES, ids=["skewed", "mixed-units"])
@pytest.mark.parametrize("command", [
    ["plan"], ["check"], ["calibrate", "--target-count", "6"],
], ids=["plan", "check", "calibrate"])
def test_near_box_outline_exit_two(tmp_path, capsys, edit, command):
    config = edited(tmp_path, "pocket_facing.conf", *edit)
    assert main([command[0], "--config", config, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # each command names the stage it failed in, in the same words
    assert err == "error: layout stage: layout generation needs an axis-aligned rectangular outline\n"


@pytest.mark.parametrize("margin", ["-1cm", "-1e-300 m"])
def test_negative_margin_reads_alike_in_plan_and_calibrate(facing_config, capsys, margin):
    errors = []
    for command in (["plan"], ["calibrate", "--target-count", "6"]):
        assert main([command[0], "--config", facing_config, *command[1:], f"--margin={margin}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: layout stage: margin must be finite and >= 0, got -")


@pytest.mark.parametrize(
    "args, message",
    [
        (["plan", "--spacing", "4 furlong"], "--spacing: unknown unit 'furlong'"),
        (["plan", "--margin", "x"], "--margin: cannot parse a number from 'x'"),
        (["calibrate", "--target-count", "6", "--range", "1 cm,abc"],
         "--range: cannot parse a number from 'abc'"),
        (["calibrate", "--target-count", "6", "--step", "1 kg"],
         "--step: cannot convert 'kg' (mass) to 'm' (length)"),
    ],
    ids=["spacing", "margin", "range", "step"],
)
def test_quantity_flag_error_names_no_line(facing_config, capsys, args, message):
    assert main([args[0], "--config", facing_config, *args[1:]]) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


@pytest.mark.parametrize("bounds", ["1 cm", "1 cm,2 cm,3 cm", "1 cm,2 cm,"])
def test_calibrate_range_needs_exactly_two_bounds(facing_config, capsys, bounds):
    assert main(["calibrate", "--config", facing_config, "--target-count", "6", "--range", bounds]) == 1
    assert capsys.readouterr().err == "usage error: --range expects 'low,high'\n"


def test_calibrate_falls_back_to_config_margin(tmp_path, capsys):
    config = edited(tmp_path, "pocket_facing.conf", "margin = 2", "margin = 1")
    assert main(["calibrate", "--config", config, "--target-count", "6", "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    outline = parse_config(Path(config).read_text()).fabric.outline
    assert payload["margin"] == 0.01
    assert payload["intervals"] == [
        list(interval) for interval in calibrate_spacing(outline, 0.01, 6, (0.01, 0.15), 0.001)
    ]
    assert main(["plan", "--config", config, "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["layout"]["margin"] == 0.01


def test_one_gripper_tangent_to_the_piece_fails_check(tmp_path, capsys):
    # 11 x 9 cm with a 5.5 cm radius at a 2.8 cm margin: one centred
    # gripper whose disk touches both short sides at their midpoints and
    # overhangs both long sides, losing 9% of its area
    text = shipped("pocket_facing.conf")
    for old, new in [("length = 26", "length = 11"), ("width = 5", "width = 9"), ("radius = 4.4", "radius = 5.5"),
                     ("margin = 2", "margin = 2.8"), ("p_min = 37.561 kPa", "p_min = 52 kPa")]:
        assert text.count(old) == 1
        text = text.replace(old, new)
    config = tmp_path / "tangent.conf"
    config.write_text(text)
    assert main(["check", "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "layout            : 1 x 1 grid, spacing 0.055 m, min effective ratio 0.9095\n" in out
    assert "verdict           : Fail\n" in out


@pytest.mark.parametrize(
    "old, new",
    [
        ("mass = 2.5 g", "mass = 1e400 g"),  # overflows while parsing
        ("max_vacuum = -92 kPa", "max_vacuum = -1e304 bar"),  # overflows converting units
        ("count = 6", "count = 1" + "0" * 400),  # an integer no float can hold
        ("length = 26 cm", "length = 1e400 cm"),
    ],
    ids=["mass", "max_vacuum", "count", "length"],
)
def test_config_value_out_of_range_exit_two(tmp_path, capsys, old, new):
    config = edited(tmp_path, "pocket_bag.conf", old, new)
    line = Path(config).read_text().splitlines().index(new) + 1
    assert main(["check", "--config", config]) == 2
    key = new.split(" =")[0]
    assert capsys.readouterr().err.startswith(f"error: line {line}: {key}: ")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("count = 6", "count = " + "9" * 5000, "count: '" + "9" * 40 + "...' is out of range"),
        ("count = 6", "count = " + "9" * 400, "count: '" + "9" * 40 + "...' is out of range"),
        ("count = 6", "count = " + "9" * 5000 + "x", "count: expected an integer, got '" + "9" * 40 + "...'"),
        ("load_case = friction_lift", "load_case = " + "x" * 5000,
         "load_case: expected one of plate_lift, friction_lift, got '" + "x" * 40 + "...'"),
        ("mass = 2.5 g", "mass = 2.5 " + "g" * 5000, "mass: unknown unit '" + "g" * 40 + "...'"),
    ],
    ids=["count-5000-digits", "count-400-digits", "count-no-integer", "load_case", "unit"],
)
def test_config_error_echoes_at_most_40_characters(tmp_path, capsys, old, new, message):
    config = edited(tmp_path, "pocket_bag.conf", old, new)
    line = Path(config).read_text().splitlines().index(new) + 1
    assert main(["check", "--config", config]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: line {line}: {message}\n")


@pytest.mark.parametrize(
    "count, message",
    [
        ("9" * 5001, "'" + "9" * 40 + "...' is out of range"),
        ("-" + "9" * 400, "'-" + "9" * 39 + "...' is out of range"),
        ("9" * 5000 + "x", "invalid int value: '" + "9" * 40 + "...'"),
        ("six", "invalid int value: 'six'"),
    ],
    ids=["5001-digits", "negative-400-digits", "no-integer", "word"],
)
def test_target_count_error_echoes_at_most_40_characters(facing_config, capsys, count, message):
    assert main(["calibrate", "--config", facing_config, "--target-count", count]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"usage error: argument --target-count: {message}\n")


def test_malformed_value_in_a_section_the_command_does_not_read(tmp_path, capsys):
    # force reads [fabric] and [motion] only, yet every value is parsed
    config = edited(tmp_path, "pocket_facing.conf", "radius = 4.4\n", "radius = 4 furlong\n")
    line = Path(config).read_text().splitlines().index("radius = 4 furlong") + 1
    assert main(["force", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: line {line}: radius: unknown unit 'furlong'\n"


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("check", "inner_diameter = 2 mm", "inner_diameter = 1e-200 m"),
        ("line-loss", "inner_diameter = 2 mm", "inner_diameter = 1e-200 m"),
        ("check", "orifice_diameter = 2 mm", "orifice_diameter = 1e-200 m"),
        ("pressure", "orifice_diameter = 2 mm", "orifice_diameter = 1e-200 m"),
        # an area that overflows is refused like one that underflows
        ("check", "orifice_diameter = 2 mm", "orifice_diameter = 1e200 m"),
    ],
    ids=["check-line", "line-loss", "check-cup", "pressure", "check-cup-overflow"],
)
def test_zero_bore_area_exit_two(tmp_path, capsys, command, old, new):
    config = edited(tmp_path, "pocket_bag.conf", old, new)
    assert main([command, "--config", config]) == 2
    assert capsys.readouterr().err.endswith(("area of 0\n", "area of inf\n"))


def test_value_object_error_names_its_section(tmp_path, capsys):
    config = edited(tmp_path, "pocket_bag.conf", "inner_diameter = 2 mm", "inner_diameter = 1e-200 m")
    lines = Path(config).read_text().splitlines()
    assert lines[34:36] == ["[line]", "inner_diameter = 1e-200 m"]  # the second of two
    assert main(["line-loss", "--config", config]) == 2
    assert capsys.readouterr().err == "error: line 36: inner_diameter 1e-200 m has a bore area of 0\n"


# every numeric key of the schema, with a value outside its domain; max_vacuum's
# sign is dropped, so it needs one above an atmosphere
NUMERIC_KEYS = [
    (f.section, f.key) for f in CONFIG_FIELDS if f.kind in (float, int) or f.kind in SI_UNIT
]
OUT_OF_DOMAIN = {"max_vacuum": "2 bar"}


@pytest.mark.parametrize("section, key", NUMERIC_KEYS, ids=[f"{s}.{k}" for s, k in NUMERIC_KEYS])
def test_out_of_domain_value_names_its_keys_line(tmp_path, capsys, section, key):
    # pocket_facing.conf sets every numeric key once p_max is added; a [line] key
    # is edited in the second [line] section, except upstream_velocity
    lines = (shipped("pocket_facing.conf") + "p_max = 60 kPa\n").splitlines()
    headers = [i for i, line in enumerate(lines) if line == f"[{section}]"]
    start = headers[-1] if key != "upstream_velocity" else headers[0]
    row = next(i for i in range(start + 1, len(lines)) if lines[i].startswith(f"{key} = "))
    path = tmp_path / "edited.conf"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", str(path)]) == 0
    capsys.readouterr()
    lines[row] = f"{key} = {OUT_OF_DOMAIN.get(key, '-1')}"
    path.write_text("\n".join(lines) + "\n")
    assert main(["check", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {row + 1}: ")


def test_zero_rectangle_side_names_its_section(tmp_path, capsys):
    config = edited(tmp_path, "pocket_bag.conf", "length = 26 cm", "length = 0 cm")
    assert Path(config).read_text().splitlines()[3:6:2] == ["[fabric]", "length = 0 cm"]
    assert main(["check", "--config", config]) == 2
    assert capsys.readouterr().err == "error: line 6: length must be finite and > 0, got 0.0\n"


def test_calibrate_structured_empty(facing_config, capsys):
    code = main([
        "calibrate", "--config", facing_config, "--target-count", "7",
        "--range", "5 cm,8 cm", "--format", "structured",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["intervals"] == []


def run_cli(*argv):
    """Run `python -m vacgrab` in a child process that must end within 30 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "vacgrab", *argv],
        capture_output=True, text=True, timeout=30, env=env,
    )


def test_stdout_gets_the_utf8_report_whatever_its_encoding(tmp_path):
    corpus = tmp_path / "u.csv"
    corpus.write_text("a,b,c,d,e,f,g,h\n项1,Pocket Bag,x,y,6,26cm x 19cm,-55kPa,Pass\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]), PYTHONIOENCODING="ascii")
    run = subprocess.run(
        [sys.executable, "-m", "vacgrab", "batch", "--corpus", str(corpus)],
        capture_output=True, timeout=30, env=env,
    )
    assert run.returncode == 0
    assert run.stdout == emit_batch(run_corpus(parse_corpus_csv(corpus.read_text("utf-8"))))
    assert "项".encode() in run.stdout


@pytest.mark.parametrize(
    "argv, config",
    [(["force"], "bag_config"), (["check", "--format", "structured"], "big_piece_config")],
    ids=["force", "structured-check-28959"],
)
def test_a_closed_pipe_ends_the_command_quietly(argv, config, request):
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the child writes
    try:
        run = subprocess.run(
            [sys.executable, "-m", "vacgrab", *argv, "--config", request.getfixturevalue(config)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        )
    finally:
        os.close(write_end)
    assert run.returncode == 0
    assert "Traceback" not in run.stderr
    assert "Exception ignored" not in run.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_two_with_one_error_line(bag_config):
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    with open("/dev/full", "wb") as full:
        run = subprocess.run(
            [sys.executable, "-m", "vacgrab", "force", "--config", bag_config],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=30, env=env,
        )
    assert run.returncode == 2
    assert run.stderr == "error: cannot write output: No space left on device\n"


def test_a_closed_stdout_exits_two_with_one_error_line(bag_config):
    # the shell closes fd 1 before Python starts, so sys.stdout is None
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    run = subprocess.run(
        ["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "vacgrab", "force", "--config", bag_config],
        stderr=subprocess.PIPE, text=True, timeout=30, env=env,
    )
    assert run.returncode == 2
    assert run.stderr == "error: cannot write output: stdout is closed\n"


_HELP_ARGVS = pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["main", "check"])


def _run_help(argv, sink):
    """`python -m vacgrab argv` at 80 columns, stdout on a pipe, full, closed, or a pipe nobody reads."""
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]), COLUMNS="80")
    command = [sys.executable, "-m", "vacgrab", *argv]
    if sink == "pipe":
        return subprocess.run(command, capture_output=True, timeout=30, env=env)
    if sink == "dev-full":
        with open("/dev/full", "wb") as full:
            return subprocess.run(command, stdout=full, stderr=subprocess.PIPE, timeout=30, env=env)
    if sink == "fd-1-closed":
        return subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', *command], stderr=subprocess.PIPE, timeout=30, env=env)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the child writes
    try:
        return subprocess.run(command, stdout=write_end, stderr=subprocess.PIPE, timeout=30, env=env)
    finally:
        os.close(write_end)


@_HELP_ARGVS
def test_help_goes_to_stdout_as_argparse_formats_it(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    text = io.StringIO()
    with redirect_stdout(text), pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert text.getvalue().startswith("usage: vacgrab ")
    run = _run_help(argv, "pipe")
    assert (run.returncode, run.stdout, run.stderr) == (0, text.getvalue().encode(), b"")


@_HELP_ARGVS
@pytest.mark.parametrize("sink, code, stderr", [
    pytest.param("dev-full", 2, b"error: cannot write output: No space left on device\n",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    ("fd-1-closed", 2, b"error: cannot write output: stdout is closed\n"),
    ("closed-reader-pipe", 0, b""),
], ids=["dev-full", "fd-1-closed", "closed-reader-pipe"])
def test_help_on_an_unwritable_stdout_fails_like_any_output(argv, sink, code, stderr):
    # argparse would swallow the write error and exit 0, or send the help to stderr
    run = _run_help(argv, sink)
    assert (run.returncode, run.stderr) == (code, stderr)


def _run_with_stderr(argv, sink):
    """`python -m vacgrab argv` with stderr full, on a pipe nobody reads, or closed before start."""
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    command = [sys.executable, "-m", "vacgrab", *argv]
    if sink == "fd-2-closed":
        return subprocess.run(command, stdout=subprocess.PIPE, timeout=30, env=env, preexec_fn=lambda: os.close(2))
    if sink == "dev-full":
        with open("/dev/full", "wb") as full:
            return subprocess.run(command, stdout=subprocess.PIPE, stderr=full, timeout=30, env=env)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before the child writes
    try:
        return subprocess.run(command, stdout=subprocess.PIPE, stderr=write_end, timeout=30, env=env)
    finally:
        os.close(write_end)


@pytest.mark.parametrize("sink", [
    pytest.param("dev-full", marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")),
    "closed-reader-pipe",
    "fd-2-closed",
])
@pytest.mark.parametrize("argv, code", [  # CONFIG stands for pocket_bag.conf
    (["check", "--config", "CONFIG"], 0),
    (["check", "--strict", "--config", "CONFIG"], 3),
    (["check", "--format", "structured", "--config", "CONFIG"], 0),
    (["check", "--config", "missing.conf"], 2),
    (["no-such-command"], 1),
], ids=["check", "strict", "structured", "missing-config", "unknown-command"])
def test_an_unwritable_stderr_keeps_the_exit_code_and_stdout(argv, code, sink, bag_config):
    # the diagnostics are lost, but they neither change the code nor spill into stdout
    argv = [bag_config if arg == "CONFIG" else arg for arg in argv]
    normal = run_cli(*argv)
    run = _run_with_stderr(argv, sink)
    assert (normal.returncode, run.returncode) == (code, code)
    assert normal.stderr  # every case has a diagnostic to lose
    assert run.stdout == normal.stdout.encode()
    if "structured" in argv:
        json.loads(run.stdout)


@pytest.mark.parametrize("command", ["check", "plan"])
def test_an_edge_longer_than_2_to_the_16_radii_is_refused(tmp_path, command):
    # a 100 m x 5 mm strip under a 1 mm circle at margin 0: every disk
    # overhangs, and the 100 m edges are 1e5 radii long
    text = shipped("pocket_facing.conf")
    for old, new in (("length = 26", "length = 100 m"), ("width = 5", "width = 5 mm"),
                     ("radius = 4.4", "radius = 1 mm"), ("margin = 2", "margin = 0")):
        assert old in text
        text = text.replace(old, new, 1)
    config = tmp_path / "strip.conf"
    config.write_text(text)
    result = run_cli(command, "--config", str(config))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        "error: layout stage: radius 0.001 m is outside the exact intersection's domain: "
        "an edge of 100 m is longer than 2^16 radii (65.54 m)\n"
    )


def test_start_up_imports_neither_typing_nor_importlib_resources():
    # -S: no site hooks, which may load any of them before vacgrab does;
    # json and csv wait for structured output and corpus files, argparse
    # and its gettext for the command line's parser
    env = dict(os.environ, PYTHONPATH=str(Path(vacgrab.__file__).parents[1]))
    unloaded = "{'typing', 'importlib.resources', 'fractions', 'json', 'csv', 'argparse', 'gettext'}"
    code = f"import sys, vacgrab.cli; print(sorted({unloaded} & set(sys.modules)))"
    run = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize(
    "extra, code",
    [
        (["--range", "1 cm,1e400 cm"], 2),  # infinite high end
        (["--step", "1e-320"], 2),  # ~1e319 samples
        (["--step", "1e400"], 2),  # infinite step
        (["--step", "1e-9"], 0),  # 1.4e8 samples, answered by bisection
    ],
)
def test_calibrate_extreme_inputs_end_promptly(bag_config, extra, code):
    result = run_cli("calibrate", "--config", bag_config, "--target-count", "6", *extra)
    assert result.returncode == code
    assert "Traceback" not in result.stderr
    if code == 0:
        assert result.stdout == "spacing intervals for 6 grippers:\n  0.0750 m .. 0.1100 m\n"
    else:
        assert result.stderr.startswith("error: ")


@pytest.mark.parametrize("spacing", ["0.001 mm", "1e-320 m"])
def test_plan_oversized_layout_exit_two(facing_config, spacing):
    result = run_cli("plan", "--config", facing_config, "--spacing", spacing)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("error: layout stage: spacing ")
    assert "positions exceed the 1000000 a layout may hold" in result.stderr


def test_plan_radius_whose_disk_area_underflows_exit_two(tmp_path):
    config = edited(tmp_path, "pocket_facing.conf", "radius = 4.4", "radius = 1e-170 m")
    result = run_cli("plan", "--config", config, "--spacing", "4 cm")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: line 49: radius 1e-170 m has a disk area of 0\n"


@pytest.mark.parametrize("command", ["check", "batch"])
def test_non_utf8_file_exit_two(tmp_path, command):
    path = tmp_path / "bad"
    path.write_bytes(b"\xff\xfe")
    flag, what = ("--config", "config") if command == "check" else ("--corpus", "corpus")
    result = run_cli(command, flag, str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"error: cannot read {what} {str(path)!r}: not UTF-8 text")


def test_a_corpus_field_over_the_csv_limit_exits_two(tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("a,b,c,d,e,f,g,h\n1,Pocket Bag,x," + "y" * 131_073 + ",6,26cm x 19cm,-55kPa,Pass\n")
    with pytest.raises(ConfigError, match=r"^line 2: cannot read corpus: field larger than field limit"):
        parse_corpus_csv(path.read_text())
    result = run_cli("batch", "--corpus", str(path))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: line 2: cannot read corpus: ") and result.stderr.count("\n") == 1


def test_a_nul_byte_in_a_corpus_never_ends_in_a_traceback(tmp_path):
    # before Python 3.11 the csv reader refuses a NUL byte; from 3.11 it is a character
    path = tmp_path / "nul.csv"
    path.write_text("a,b,c,d,e,f,g,h\n1,Pocket\0Bag,x,y,6,26cm x 19cm,-55kPa,Pass\n")
    result = run_cli("batch", "--corpus", str(path))
    assert result.returncode == (0 if sys.version_info >= (3, 11) else 2)
    assert "Traceback" not in result.stderr


def test_bom_config_reads_like_the_file_without_it(tmp_path, bag_config):
    path = tmp_path / "bom.conf"
    path.write_bytes(b"\xef\xbb\xbf" + Path(bag_config).read_bytes())
    with_bom, without = run_cli("check", "--config", str(path)), run_cli("check", "--config", bag_config)
    assert with_bom.returncode == without.returncode == 0
    assert (with_bom.stdout, with_bom.stderr) == (without.stdout, without.stderr)
    text = path.read_text("utf-8")  # str form: the BOM stays in the text
    assert text.startswith("\ufeff")
    assert parse_config(text) == parse_config(path.read_bytes()) == parse_config(shipped("pocket_bag.conf"))


@pytest.mark.parametrize("command", ["check", "line-loss"])
@pytest.mark.parametrize(
    "velocity, bores, delta",
    [
        ("37.14", ("1 m", "1e-150 m", "1 m"), "inf"),  # a +inf step, then a -inf step
        ("1e200", ("1 m", "1 m"), "nan"),  # a speed whose square overflows, times no bore change
    ],
    ids=["inf-minus-inf", "nan"],
)
def test_undefined_line_loss_exit_two(tmp_path, command, velocity, bores, delta):
    text = shipped("pocket_bag.conf")
    lines = [f"[line]\ninner_diameter = {bore}\n" for bore in bores]
    lines[0] += f"upstream_velocity = {velocity}\n"
    path = tmp_path / "line.conf"
    path.write_text(text[: text.index("[line]")] + "\n".join(lines))
    result = run_cli(command, "--config", str(path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr == (
        f"error: line-loss stage: line step 1: pressure change {delta} Pa is not finite, "
        "so the line loss is undefined\n"
    )


def test_batch_huge_gripper_count_is_a_row_error(tmp_path):
    # 5,000 digits is past the 4,300 that int() converts
    for digits in (401, 5000):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "h1,h2,h3,h4,h5,h6,h7,h8\n"
            f"1,Pocket Bag,x,mat,{'9' * digits},26cm x 19cm,-55kPa,Pass\n"
            "2,Pocket Bag,y,mat,6,26cm x 19cm,-55kPa,Pass\n"
        )
        result = run_cli("batch", "--corpus", str(path), "--format", "csv")
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        lines = result.stdout.strip().splitlines()
        assert len(lines) == 3
        assert "error: count must be an integer from 1 to 1.79769e+308" in lines[1]
        assert "9" * 20 not in result.stdout + result.stderr
        assert lines[2].startswith("lot2-y,") and lines[2].endswith(",Pass")


def test_corpus_count_with_leading_zeros_past_the_int_digit_limit():
    text = "h1,h2,h3,h4,h5,h6,h7,h8\n" f"1,Pocket Bag,x,mat,{'0' * 5000}7,26cm x 19cm,-55kPa,Pass\n"
    assert parse_corpus_csv(text)[0].gripper_count == 7


def test_corpus_count_that_is_no_integer_is_echoed_cut_short():
    text = "h1,h2,h3,h4,h5,h6,h7,h8\n" f"1,Pocket Bag,x,mat,{'9' * 5000}x,26cm x 19cm,-55kPa,Pass\n"
    with pytest.raises(ConfigError, match=r"^line 2: gripper count '9{40}\.\.\.' is not an integer$"):
        parse_corpus_csv(text)


_CORPUS_HEADER = ["lot", "application", "code", "material", "grippers", "outline", "supply", "result"]
_JUNK = st.text(max_size=12)
# a readable row: count, outline and supply cells the parser reads, though the
# model may refuse the values (a count of 0, an outline of 0 cm, 0 kPa)
_READABLE_ROW = st.tuples(
    _JUNK, _JUNK, _JUNK, _JUNK,
    st.sampled_from(["6", "12", "0", "-3", " 06 ", "1_000", "9" * 400, "9" * 5000]),
    st.sampled_from(["26cm x 19cm", "30 CM × 36 cm", "0cm x 19cm", "2.5cm x 4cm", "9" * 400 + "cm x 1cm"]),
    st.sampled_from(["-55kPa", "55 kPa", "-92000 Pa", "0kPa", "-" + "9" * 400 + "kPa"]),
    _JUNK,
).map(list)


def _mangled(row: list[str], column: int, junk: str) -> list[str]:
    return [junk if i == column else cell for i, cell in enumerate(row)]


# (cells, readable): readable rows must parse; the others may stop the batch
_CORPUS_ROWS = st.one_of(
    _READABLE_ROW.map(lambda row: (row, True)),
    _READABLE_ROW.map(lambda row: (row, True)),
    st.builds(_mangled, _READABLE_ROW, st.integers(4, 6), _JUNK).map(lambda row: (row, False)),
    st.sampled_from([[], [" "] * 8, ["", "\t"]]).map(lambda row: (row, True)),  # blank rows
    st.lists(_JUNK, min_size=1, max_size=11)  # wrong width
    .filter(lambda cells: len(cells) != 8)
    .map(lambda row: (row, False)),
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    return tmp_path_factory.mktemp("corpus_fuzz") / "corpus.csv"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(_CORPUS_ROWS, max_size=5),
    bom=st.booleans(),
    strict=st.booleans(),
)
def test_any_corpus_exits_with_a_code_and_keeps_every_row(corpus_path, rows, bom, strict):
    buffer = io.StringIO()
    csv.writer(buffer).writerows([_CORPUS_HEADER, *(cells for cells, _ in rows)])
    corpus_path.write_bytes((b"\xef\xbb\xbf" if bom else b"") + buffer.getvalue().encode("utf-8"))
    argv = ["batch", "--corpus", str(corpus_path), "--format", "structured", *(["--strict"] if strict else [])]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # an exception escaping main would be a traceback
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert not all(readable for _, readable in rows), err.getvalue()
    else:
        entries = json.loads(out.getvalue())
        assert len(entries) == sum(any(cell.strip() for cell in cells) for cells, _ in rows)
        assert [e["index"] for e in entries] == list(range(len(entries)))


def test_batch_bundled_corpus(capsys):
    assert main(["batch", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert all(line.endswith("Pass") for line in lines[1:])


def test_batch_custom_corpus(tmp_path, capsys):
    path = tmp_path / "corpus.csv"
    path.write_text(
        "h1,h2,h3,h4,h5,h6,h7,h8\n"
        "1,Pocket Bag,x,mat,6,26cm x 19cm,-55kPa,Pass\n"
        "2,Sleeve,y,mat,6,10cm x 10cm,-55kPa,Pass\n"
    )
    assert main(["batch", "--corpus", str(path), "--format", "csv"]) == 0
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[1].endswith("Pass")
    assert "error" in lines[2]


# ---------------------------------------------------------------------------
# whole-pipeline invariants

def with_and_without_circle(name):
    """A shipped config's text with a [vgtc] section, and the same text without one."""
    text = shipped(name)
    start = text.find("[vgtc]")
    if start < 0:
        return text + "\n[vgtc]\nradius = 3 cm\np_min = 30 kPa\nmargin = 2 cm\n", text
    assert text[start:].count("[") == 1  # the last section: cutting it leaves the rest whole
    return text, text[:start]


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("command", ["force", "pressure", "line-loss"])
@pytest.mark.parametrize("name", ["pocket_bag.conf", "pocket_facing.conf"])
def test_layout_free_commands_ignore_the_circle(tmp_path, capsys, name, command, fmt):
    path = tmp_path / name
    results = []
    for text in with_and_without_circle(name):
        path.write_text(text)
        code = main([command, "--config", str(path), "--format", fmt])
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] == 0 and results[0][1]


def _decimal_cm(low, high):
    # an exact decimal of up to three places, so its text can be shifted rather than multiplied
    def scaled(places):
        return st.integers(low * 10**places, high * 10**places).map(lambda n: Decimal(n).scaleb(-places))

    return st.integers(0, 3).flatmap(scaled)


@st.composite
def _pieces_in_cm(draw):
    """Box corners, radius and margin in cm: a box at the origin or anywhere, margin 0 and r on purpose."""
    origin = st.just((Decimal(0), Decimal(0)))
    x0, y0 = draw(st.one_of(origin, st.tuples(_decimal_cm(-50, 50), _decimal_cm(-50, 50))))
    x1, y1 = x0 + draw(_decimal_cm(2, 60)), y0 + draw(_decimal_cm(2, 60))
    radius = draw(_decimal_cm(1, 10))
    margin = draw(st.one_of(st.just(Decimal(0)), st.just(radius), _decimal_cm(0, 10)))
    return x0, y0, x1, y1, radius, min(margin, (x1 - x0) / 2, (y1 - y0) / 2)


def _piece_config(x0, y0, x1, y1, radius, margin, shift):
    """The piece with its bare lengths written as decimal text shifted by `shift` places."""
    def text(value):
        return format(value.scaleb(shift), "f")

    if x0 == y0 == 0:
        outline = f"length = {text(x1)}\nwidth = {text(y1)}"
    else:
        xs, ys = (text(x0), text(x1)), (text(y0), text(y1))
        outline = f"vertices = {xs[0]}, {ys[0]}; {xs[1]}, {ys[0]}; {xs[1]}, {ys[1]}; {xs[0]}, {ys[1]}"
    return (
        ("[units]\nlength = cm\n" if shift == 0 else "")
        + f"[fabric]\nid = units\n{outline}\nmass = 2.0 g\nfriction = 0.5\npermeability = impermeable\n"
        + "[cup]\norifice_diameter = 2 mm\ncount = 6\n"
        + "[line]\ninner_diameter = 5.2 mm\nupstream_velocity = 37.14\n[line]\ninner_diameter = 2 mm\n"
        + f"[vgtc]\nradius = {text(radius)}\np_min = 37.561 kPa\nmargin = {text(margin)}\n"
    )


@settings(max_examples=60, deadline=None)
# the shipped facing piece: 26 x 5 cm, radius 4.4 cm, margin 2 cm
@example(piece=(Decimal(0), Decimal(0), Decimal(26), Decimal(5), Decimal("4.4"), Decimal(2)))
@given(piece=_pieces_in_cm())
def test_a_config_in_cm_and_in_m_gives_the_same_report(piece):
    in_cm = evaluate(parse_config(_piece_config(*piece, shift=0)))
    in_m = evaluate(parse_config(_piece_config(*piece, shift=-2)))
    assert in_cm.verdict is in_m.verdict
    assert (in_cm.layout.cols, in_cm.layout.rows) == (in_m.layout.cols, in_m.layout.rows)
    assert in_cm.effective_ratios == pytest.approx(in_m.effective_ratios, rel=1e-12, abs=0)
