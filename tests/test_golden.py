"""Byte-for-byte CLI outputs that a refactor must keep.

Every command runs in every --format on both shipped configs and the
bundled corpus, and `check` runs on one broken config per kind of
config fault. Each case's exit code, stdout and stderr must equal the
recording in tests/golden/cli.json, and the SVG files the successful
runs write must equal tests/golden/*.svg.

To re-record after an intended output change, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

BAG = "pocket_bag.conf"
FACING = "pocket_facing.conf"
# pocket_bag.conf with a grabbing circle: 48 positions, the 24 on the
# border overhang the piece and the 24 inside do not, so one SVG holds
# shaded and unshaded disks
CIRCLE = "pocket_bag_circle.conf"
# pocket_bag.conf with no flow through bores 1e150 m, 1e-150 m and 1 mm:
# the first area ratio overflows to inf, and 0 * inf must not become nan
ZERO_FLOW = "zero_flow_overflowing_ratio.conf"
COMMANDS = ("force", "pressure", "line-loss", "plan", "calibrate", "check")
FORMATS = ("human", "csv", "structured")


def shipped(name: str) -> str:
    return resources.files("vacgrab").joinpath(f"data/{name}").read_text("utf-8")


def _edit(old: str, new: str) -> str:
    text = shipped(BAG)
    assert old in text
    return text.replace(old, new, 1)


# one config per kind of config fault, each derived from pocket_bag.conf
FAULTS = {
    "unknown_key": _edit("friction = 0.5", "fricton = 0.5"),
    "duplicate_key": _edit("mass = 2.5 g", "mass = 2.5 g\nmass = 3 g"),
    "bad_unit": _edit("mass = 2.5 g", "mass = 2.5 lb"),
    "missing_key": _edit("mass = 2.5 g\n", ""),
    "bad_enum": _edit("load_case = friction_lift", "load_case = sideways"),
    "both_outlines": _edit("width = 19 cm", "width = 19 cm\nvertices = 0, 0; 0.26, 0; 0.26, 0.19; 0, 0.19"),
    "later_upstream_velocity": _edit("inner_diameter = 2 mm", "inner_diameter = 2 mm\nupstream_velocity = 1.0"),
    "bad_int": _edit("count = 6", "count = 6.5"),
    "unit_on_bare_number": _edit("friction = 0.5", "friction = 0.5 cm"),
    "bad_units_section": "[units]\nlength = furlong\n\n" + shipped(BAG),
    "missing_section": _edit("[cup]\norifice_diameter = 2 mm\ncount = 6\n", ""),
    "malformed_line": _edit("count = 6", "count 6"),
    "malformed_header": _edit("[motion]", "[motion"),
    "unknown_section": _edit("[motion]", "[kinematics]"),
    "key_outside_section": "id = pocket_bag\n" + shipped(BAG),
    "malformed_key": _edit("friction = 0.5", "Friction = 0.5"),
    "empty_value": _edit("friction = 0.5", "friction ="),
    "self_intersecting_outline": _edit(
        "length = 26 cm\nwidth = 19 cm", "vertices = 0, 0; 0.26, 0.19; 0.26, 0; 0, 0.1"
    ),
    "missing_side": _edit("width = 19 cm\n", ""),
    "missing_line_section": shipped(BAG).split("[line]", 1)[0],
}


def _circle_config() -> str:
    return shipped(BAG) + "\n[vgtc]\nradius = 3 cm\np_min = 30 kPa\nmargin = 2 cm\n"


def _zero_flow_config() -> str:
    return _edit("[line]\ninner_diameter = 5.2 mm", "[line]\ninner_diameter = 1e150 m").replace(
        "upstream_velocity = 37.14\n\n[line]\ninner_diameter = 2 mm",
        "upstream_velocity = 0\n\n[line]\ninner_diameter = 1e-150 m",
    ) + "\n[line]\ninner_diameter = 1 mm\n"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for config in (BAG, FACING):
        stem = config.split(".")[0]
        for command in COMMANDS:
            extra = ["--target-count", "6"] if command == "calibrate" else []
            for fmt in FORMATS:
                cases[f"{command}-{stem}-{fmt}"] = [command, "--config", config, *extra, "--format", fmt]
    for fmt in FORMATS:
        cases[f"batch-bundled-{fmt}"] = ["batch", "--format", fmt]
    cases.update({
        "check-pocket_bag-strict": ["check", "--config", BAG, "--strict"],
        "check-pocket_facing-svg": ["check", "--config", FACING, "--svg", "check-pocket_facing.svg"],
        "plan-pocket_facing-svg": ["plan", "--config", FACING, "--svg", "plan-pocket_facing.svg"],
        "plan-pocket_facing-spacing": ["plan", "--config", FACING, "--spacing", "2.2 cm"],
        "plan-pocket_facing-margin": ["plan", "--config", FACING, "--margin", "1 cm"],
        "calibrate-pocket_bag-unreachable": ["calibrate", "--config", BAG, "--target-count", "8"],
        "batch-bundled-strict": ["batch", "--strict"],
        "plan-pocket_bag_circle-human-svg": ["plan", "--config", CIRCLE, "--svg", "plan-pocket_bag_circle.svg"],
        "plan-pocket_bag_circle-structured-svg": [
            "plan", "--config", CIRCLE, "--format", "structured", "--svg", "plan-pocket_bag_circle.svg",
        ],
        "check-pocket_bag_circle-svg": ["check", "--config", CIRCLE, "--svg", "check-pocket_bag_circle.svg"],
        "check-pocket_bag_circle-structured": ["check", "--config", CIRCLE, "--format", "structured"],
        "check-zero_flow_overflowing_ratio": ["check", "--config", ZERO_FLOW],
        "fault-svg_unwritable": ["check", "--config", FACING, "--svg", "no_such_dir/layout.svg"],
        "fault-range_without_comma": ["calibrate", "--config", BAG, "--target-count", "6", "--range", "1 cm"],
    })
    for fault in FAULTS:
        cases[f"fault-{fault}"] = ["check", "--config", f"{fault}.conf"]
    return cases


CASES = _cases()


def _write_inputs(directory: Path) -> None:
    for name in (BAG, FACING):
        (directory / name).write_text(shipped(name), encoding="utf-8")
    (directory / CIRCLE).write_text(_circle_config(), encoding="utf-8")
    (directory / ZERO_FLOW).write_text(_zero_flow_config(), encoding="utf-8")
    for fault, text in FAULTS.items():
        (directory / f"{fault}.conf").write_text(text, encoding="utf-8")


def _run(argv: list[str]) -> dict:
    from vacgrab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _svg_outputs(argv: list[str], result: dict) -> list[str]:
    """The SVG paths a run wrote: those after --svg, if the run succeeded."""
    if result["exit"] != 0:
        return []
    return [argv[i + 1] for i, arg in enumerate(argv) if arg == "--svg"]


@pytest.fixture(scope="module")
def recorded():
    return json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))


def test_golden_cases_match_recording(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, recorded, tmp_path, monkeypatch):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    result = _run(CASES[case])
    assert result == recorded[case]
    for svg in _svg_outputs(CASES[case], result):
        assert (tmp_path / svg).read_bytes() == (GOLDEN / svg).read_bytes()


def test_golden_svgs_parse_as_xml():
    svgs = sorted(GOLDEN.glob("*.svg"))
    assert len(svgs) == 4
    for path in svgs:
        assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


def record() -> None:
    """Run every case in a scratch directory and rewrite tests/golden/."""
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    results = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        _write_inputs(Path(work))
        os.chdir(work)
        try:
            for case, argv in CASES.items():
                results[case] = _run(argv)
                for svg in _svg_outputs(argv, results[case]):
                    (GOLDEN / svg).write_bytes((Path(work) / svg).read_bytes())
        finally:
            os.chdir(home)
    text = json.dumps(results, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    (GOLDEN / "cli.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(record())
