"""The config schema (cli.CONFIG_FIELDS) against the README and the CLI.

Configs are generated from the schema itself: every key of every
section, with values drawn by the key's declared kind, optionally with
one value replaced by a corrupt or extreme token. Whatever the input,
the CLI must answer with an exit code in {0, 1, 2, 3} and never raise.

Each key is also varied alone on a working config: some command's
stdout or exit code must change, except for the keys declared INERT,
which must change nothing.
"""

import enum
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from vacgrab import Polygon
from vacgrab.cli import CONFIG_FIELDS, main
from vacgrab.model import supported_units

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_lists_the_schema():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Config format.*?```ini\n(.*?)```", text, re.S).group(1)
    listed = set()
    section = None
    for line in block.splitlines():
        header = re.match(r"\[([a-z_]+)\]", line)
        if header:
            section = header.group(1)
            continue
        key = re.match(r"#?\s*([a-z_]+)\s*=", line)  # commented keys count as listed
        if key:
            listed.add((section, key.group(1)))
    assert listed == {(f.section, f.key) for f in CONFIG_FIELDS}


# plausible magnitudes per dimension, so that many drawn rigs reach a verdict
_RANGES = {
    "mass": (1.0, 10.0, "g"),
    "length": (1.0, 40.0, "cm"),
    "pressure": (10.0, 100.0, "kPa"),
    "flow": (10.0, 100.0, "L/min"),
}
_FLOATS = st.floats(min_value=0.1, max_value=3.0)
_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789 _-;%.", min_size=1, max_size=16).filter(
    lambda s: s.strip()
)

# tokens that must be rejected (exit 2) or survive as extreme numbers
_CORRUPT = st.sampled_from([
    "1e400", "-1e400", "1e-320", "1e-200", "0", "-1", "1e308", "-0", "9" * 400, "9" * 5000,
    "nan", "inf", "abc", "1.5", "2 furlong", "1e306 bar", "1e400 cm", "5 kg", "0, 0; 1, 1; 1, 0; 0, 1",
    "0, 0; 1e400, 0; 1, 1", "0, 0", "0 cm, 0 cm; 1e-200 m, 0 m; 0 m, 1e-200 m",
])


def _value(field):
    kind = field.kind
    if kind is str:
        return _NAMES
    if isinstance(kind, enum.EnumMeta):
        return st.sampled_from([m.value for m in kind])
    if kind is int:
        return st.integers(min_value=1, max_value=12).map(str)
    if kind is float:
        return _FLOATS.map(repr)
    if kind is Polygon:
        return st.tuples(st.floats(5.0, 40.0), st.floats(5.0, 30.0)).map(
            lambda lw: f"0 cm, 0 cm; {lw[0]} cm, 0 cm; {lw[0]} cm, {lw[1]} cm; 0 cm, {lw[1]} cm"
        )
    low, high, unit = _RANGES[kind]
    return st.floats(low, high).map(lambda v: f"{v!r} {unit}")


def _present(draw, field, copy, outline):
    if field.section == "fabric" and field.target is None:  # the outline keys
        return field.key in outline
    if field.key == "upstream_velocity":
        return copy == 0 and draw(st.booleans())
    if field.required:
        return True
    return draw(st.integers(0, 3)) > 0  # an optional key is set three times in four


@st.composite
def configs(draw):
    """Config text from the schema; at most one value corrupted."""
    line_sections = draw(st.integers(min_value=1, max_value=3))
    outline = draw(st.sampled_from([("length", "width"), ("vertices",)]))
    entries = []  # (section, copy, key, text)
    for field in CONFIG_FIELDS:
        if field.section == "units":
            if draw(st.booleans()):
                entries.append((field.section, 0, field.key, draw(st.sampled_from(supported_units(field.key)))))
            continue
        for copy in range(line_sections if field.section == "line" else 1):
            if _present(draw, field, copy, outline):
                entries.append((field.section, copy, field.key, draw(_value(field))))
    if entries and draw(st.booleans()):
        i = draw(st.integers(0, len(entries) - 1))
        section, copy, key, _ = entries[i]
        entries[i] = (section, copy, key, draw(_CORRUPT))
    blocks = {}
    for section, copy, key, text in entries:
        blocks.setdefault((section, copy), []).append(f"{key} = {text}")
    return "\n\n".join(f"[{s}]\n" + "\n".join(lines) for (s, _), lines in blocks.items()) + "\n"


_COMMANDS = st.sampled_from([
    ["check"], ["check", "--format", "structured"], ["force"], ["pressure"], ["line-loss"],
    ["plan"], ["calibrate", "--target-count", "6"],
])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "rig.conf"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=configs(), command=_COMMANDS)
def test_any_config_exits_with_a_code(config_path, text, command):
    config_path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, "--config", str(config_path)])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# ---------------------------------------------------------------------------
# every key feeds an output

# pocket_facing's rig with every command answering: a grabbing circle for
# plan/check/calibrate and two bores for line-loss
BASE = {
    "fabric": {
        "id": "piece", "length": "26 cm", "width": "5 cm", "mass": "2 g", "friction": "0.5",
        "permeability": "impermeable", "material": "polyester",
    },
    "motion": {"acceleration": "5", "safety_factor": "2", "load_case": "friction_lift"},
    "cup": {"orifice_diameter": "2 mm", "count": "6"},
    "generator": {"max_vacuum": "-92 kPa", "supply_flow_rate": "63 L/min"},
    "line": {"inner_diameter": "5.2 mm", "length": "1 m", "upstream_velocity": "37.14"},
    "vgtc": {"radius": "4.4 cm", "p_min": "37.561 kPa", "margin": "2 cm"},
}
SECOND_LINE = "[line]\ninner_diameter = 2 mm\nlength = 10 cm\n"

# contexts a key only matters in (None removes a key)
_VERTICES = {"fabric": {"length": None, "width": None, "vertices": "0 cm, 0 cm; 26 cm, 0 cm; 26 cm, 5 cm; 0 cm, 5 cm"}}
_NO_VELOCITY = {"line": {"upstream_velocity": None}}
_WINDOW = {"fabric": {"permeability": "permeable"}, "vgtc": {"p_min": "10 kPa", "p_max": "50 kPa"}}

# (section, key) -> (context, another value for the key); every key of the schema
CHANGES = {
    ("fabric", "id"): ({}, "other"),
    ("fabric", "material"): ({}, "cotton"),
    ("fabric", "length"): ({}, "30 cm"),
    ("fabric", "width"): ({}, "8 cm"),
    ("fabric", "vertices"): (_VERTICES, "0 cm, 0 cm; 30 cm, 0 cm; 30 cm, 8 cm; 0 cm, 8 cm"),
    ("fabric", "mass"): ({}, "3 g"),
    ("fabric", "friction"): ({}, "0.6"),
    ("fabric", "permeability"): ({"vgtc": {"p_min": "10 kPa"}}, "permeable"),  # Pass -> Uncalibrated
    ("motion", "acceleration"): ({}, "3"),
    ("motion", "safety_factor"): ({}, "3"),
    ("motion", "load_case"): ({}, "plate_lift"),
    ("cup", "orifice_diameter"): ({}, "3 mm"),
    ("cup", "count"): ({}, "4"),
    ("generator", "max_vacuum"): ({}, "-80 kPa"),
    ("generator", "supply_flow_rate"): (_NO_VELOCITY, "40 L/min"),
    ("line", "inner_diameter"): ({}, "6 mm"),
    ("line", "length"): ({}, "5 m"),
    ("line", "upstream_velocity"): ({}, "20"),
    ("vgtc", "radius"): ({}, "3 cm"),
    ("vgtc", "p_min"): ({}, "10 kPa"),
    ("vgtc", "p_max"): (_WINDOW, "60 kPa"),
    ("vgtc", "margin"): ({}, "1 cm"),
    ("units", "length"): ({"units": {"length": "cm"}, "vgtc": {"radius": "4.4"}}, "mm"),
    ("units", "mass"): ({"units": {"mass": "g"}, "fabric": {"mass": "2"}}, "kg"),
    ("units", "pressure"): ({"units": {"pressure": "kPa"}, "generator": {"max_vacuum": "-92"}}, "Pa"),
    ("units", "flow"): ({"units": {"flow": "L/min"}, "generator": {"supply_flow_rate": "63"}, **_NO_VELOCITY}, "m3/s"),
}

# keys that are parsed and kept but change no output, each with the reason it stays
INERT = {
    ("fabric", "material"): "recorded for the audit trail; every benchmark-generated config writes it",
    ("line", "length"): "the bore-step loss model has no friction term; generated configs write it",
}

_EVERY_COMMAND = [
    ["force", "--format", "structured"], ["pressure", "--format", "structured"],
    ["line-loss", "--format", "structured"], ["plan", "--format", "structured"],
    ["calibrate", "--target-count", "6", "--format", "structured"], ["check", "--format", "structured"],
]


def _config_text(edits):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    for name, keys in edits.items():
        section = sections.setdefault(name, {})
        for key, value in keys.items():
            if value is None:
                section.pop(key, None)
            else:
                section[key] = value
    blocks = [f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()]
    return "\n".join(blocks) + "\n" + SECOND_LINE


def _answers(path, text):
    """(exit code, stdout) of every command on one config."""
    path.write_text(text, encoding="utf-8")
    answers = []
    for command in _EVERY_COMMAND:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main([*command, "--config", str(path)])
        answers.append((code, out.getvalue()))
    return answers


def test_every_key_is_varied():
    assert set(CHANGES) == {(f.section, f.key) for f in CONFIG_FIELDS}
    assert set(INERT) <= set(CHANGES)


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=lambda f: f"{f.section}.{f.key}")
def test_every_key_changes_some_output(field, tmp_path):
    where = (field.section, field.key)
    assert where in CHANGES, f"[{field.section}] {field.key} has no varied value; remove it or declare it inert"
    context, other = CHANGES[where]
    changed = {name: dict(keys) for name, keys in context.items()}
    changed.setdefault(field.section, {})[field.key] = other
    before = _answers(tmp_path / "a.conf", _config_text(context))
    after = _answers(tmp_path / "b.conf", _config_text(changed))
    assert any(code == 0 for code, _ in before), "the context config must be accepted"
    if where in INERT:
        assert before == after, f"{where} is declared inert but changed an output"
    else:
        assert before != after
