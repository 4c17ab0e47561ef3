"""The config schema (cli.CONFIG_FIELDS) against the README and the CLI.

Configs are generated from the schema itself: every key of every
section, with values drawn by the key's declared kind, optionally with
one value replaced by a corrupt or extreme token. Whatever the input,
the CLI must answer with an exit code in {0, 1, 2, 3} and never raise.
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

