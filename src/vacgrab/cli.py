"""Command-line front end: config files, reports, corpus batches, SVG.

Config grammar (full reference in the README):

    [section]            one per line, lowercase
    key = value          '#' starts a comment, blank lines ignored

Quantities take an optional unit suffix (g, kg, mm, cm, m, kPa, Pa,
bar, L/min); bare numbers are SI unless a [units] section overrides
the default unit for that dimension. Unknown sections or keys are
fatal so unit-suffix typos surface instead of silently parsing as
something else. The [line] section may repeat; each occurrence is one
hose segment, ordered from generator to cup.

Exit codes: 0 success, 1 usage error, 2 validation/config error,
3 advisory escalated by --strict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from typing import Sequence

from . import pneumatics, statics
from .feasibility import (
    CorpusEntry,
    CorpusRow,
    GraspReport,
    Scenario,
    Verdict,
    evaluate,
    run_corpus,
)
from .model import (
    FabricPiece,
    LoadCase,
    MotionProfile,
    Permeability,
    PhysicalConstants,
    PipeSegment,
    Polygon,
    PressureWindow,
    SI_UNIT,
    SuctionCup,
    UnitError,
    VacuumGenerator,
    ValidationError,
    convert_units,
)
from .vgtc import (
    Layout,
    Vgtc,
    calibrate_spacing,
    circle_polygon_intersection_area,
    effective_ratio,
    generate_layout,
)


class ConfigError(ValueError):
    """Config file problem, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config parsing

_NUMBER_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(.*)$")

# key kinds: dimensional kinds convert units; the rest parse bare tokens
_FABRIC_KEYS = {
    "id": "str",
    "length": "length",
    "width": "length",
    "vertices": "vertices",
    "mass": "mass",
    "friction": "float",
    "permeability": "str",
    "material": "str",
}
_MOTION_KEYS = {
    "acceleration": "float",
    "safety_factor": "float",
    "load_case": "str",
    "lift_height": "length",
    "translate_distance": "length",
}
_CUP_KEYS = {"orifice_diameter": "length", "count": "int"}
_GENERATOR_KEYS = {
    "max_vacuum": "pressure",
    "supply_flow_rate": "flow",
    "setup_pressure": "pressure",
    "nozzle_diameter": "length",
}
_LINE_KEYS = {
    "inner_diameter": "length",
    "length": "length",
    "elevation": "length",
    "upstream_velocity": "float",
}
_VGTC_KEYS = {
    "radius": "length",
    "p_min": "pressure",
    "p_max": "pressure",
    "center_x": "length",
    "center_y": "length",
    "margin": "length",
}
_UNITS_KEYS = {"mass": "str", "length": "str", "pressure": "str", "flow": "str"}

_SCHEMA = {
    "fabric": _FABRIC_KEYS,
    "motion": _MOTION_KEYS,
    "cup": _CUP_KEYS,
    "generator": _GENERATOR_KEYS,
    "line": _LINE_KEYS,
    "vgtc": _VGTC_KEYS,
    "units": _UNITS_KEYS,
}


@dataclass
class _RawSection:
    name: str
    line: int
    entries: dict[str, tuple[str, int]] = field(default_factory=dict)


@dataclass
class ConfigDocument:
    """Parsed config: singleton sections plus the ordered [line] list."""

    sections: dict[str, _RawSection]
    line_sections: list[_RawSection]
    units: dict[str, str]

    def require(self, name: str) -> _RawSection:
        try:
            return self.sections[name]
        except KeyError:
            raise ConfigError(f"missing section: {name}") from None


def _tokenize(text: str) -> list[_RawSection]:
    sections: list[_RawSection] = []
    current: _RawSection | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = re.fullmatch(r"\[([a-z_]+)\]", line)
            if not m:
                raise ConfigError(f"malformed section header {line!r}", line_no)
            name = m.group(1)
            if name not in _SCHEMA:
                raise ConfigError(f"unknown section [{name}]", line_no)
            current = _RawSection(name=name, line=line_no)
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"key outside any section: {line!r}", line_no)
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if not re.fullmatch(r"[a-z_][a-z0-9_]*", key):
            raise ConfigError(f"malformed key {key!r}", line_no)
        if key not in _SCHEMA[current.name]:
            raise ConfigError(f"unknown key {key!r} in [{current.name}]", line_no)
        if key in current.entries:
            raise ConfigError(f"duplicate key {key!r} in [{current.name}]", line_no)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line_no)
        current.entries[key] = (value, line_no)
    return sections


def parse_document(text: str) -> ConfigDocument:
    """Tokenize and structure a config; strict about sections and keys."""
    singles: dict[str, _RawSection] = {}
    lines: list[_RawSection] = []
    for section in _tokenize(text):
        if section.name == "line":
            lines.append(section)
        elif section.name in singles:
            raise ConfigError(f"duplicate section [{section.name}]", section.line)
        else:
            singles[section.name] = section

    units: dict[str, str] = {}
    if "units" in singles:
        for dim, (value, line_no) in singles["units"].entries.items():
            try:
                convert_units(1.0, value, SI_UNIT[dim])
            except UnitError as exc:
                raise ConfigError(str(exc), line_no) from exc
            units[dim] = value
    return ConfigDocument(sections=singles, line_sections=lines, units=units)


def _parse_quantity(text: str, kind: str, units: dict[str, str], key: str, line_no: int) -> float:
    m = _NUMBER_RE.match(text.strip())
    if not m:
        raise ConfigError(f"{key}: cannot parse a number from {text!r}", line_no)
    value = float(m.group(1))
    suffix = m.group(2).strip()
    if kind == "float":
        if suffix:
            raise ConfigError(f"{key}: unexpected unit {suffix!r} on a bare number", line_no)
        return value
    if suffix == "":
        suffix = units.get(kind, SI_UNIT[kind])
    try:
        return convert_units(value, suffix, SI_UNIT[kind])
    except UnitError as exc:
        raise ConfigError(f"{key}: {exc}", line_no) from exc


def _get(
    section: _RawSection,
    key: str,
    kind: str,
    units: dict[str, str],
    default=None,
    required: bool = False,
):
    if key not in section.entries:
        if required:
            raise ConfigError(f"missing key {key!r} in [{section.name}]", section.line)
        return default
    text, line_no = section.entries[key]
    if kind in ("mass", "length", "pressure", "flow", "float"):
        return _parse_quantity(text, kind, units, key, line_no)
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}", line_no) from None
    return text  # str


def _parse_vertices(text: str, units: dict[str, str], line_no: int) -> Polygon:
    points = []
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        coords = pair.split(",")
        if len(coords) != 2:
            raise ConfigError(f"vertices: expected 'x, y' pairs, got {pair!r}", line_no)
        points.append(
            tuple(_parse_quantity(c, "length", units, "vertices", line_no) for c in coords)
        )
    try:
        return Polygon(tuple(points))
    except ValidationError as exc:
        raise ConfigError(f"vertices: {exc}", line_no) from exc


def _enum_value(enum_cls, text: str, key: str, line_no: int):
    for member in enum_cls:
        if member.value == text:
            return member
    choices = ", ".join(m.value for m in enum_cls)
    raise ConfigError(f"{key}: expected one of {choices}, got {text!r}", line_no)


def build_fabric(doc: ConfigDocument) -> FabricPiece:
    sec = doc.require("fabric")
    units = doc.units
    length = _get(sec, "length", "length", units)
    width = _get(sec, "width", "length", units)
    vertices = sec.entries.get("vertices")
    if vertices is not None and (length is not None or width is not None):
        raise ConfigError("give either length/width or vertices, not both", sec.line)
    if vertices is not None:
        outline = _parse_vertices(vertices[0], units, vertices[1])
    elif length is not None and width is not None:
        outline = Polygon.rectangle(length, width)
    else:
        raise ConfigError("fabric needs length and width, or vertices", sec.line)
    permeability = _enum_value(
        Permeability,
        _get(sec, "permeability", "str", units, default=Permeability.AIR_IMPERMEABLE.value),
        "permeability",
        sec.line,
    )
    return FabricPiece(
        id=_get(sec, "id", "str", units, required=True),
        outline=outline,
        mass=_get(sec, "mass", "mass", units, required=True),
        friction_coefficient=_get(sec, "friction", "float", units, required=True),
        permeability=permeability,
        material=_get(sec, "material", "str", units, default=""),
    )


def build_motion(doc: ConfigDocument) -> MotionProfile:
    if "motion" not in doc.sections:
        return MotionProfile()
    sec = doc.sections["motion"]
    units = doc.units
    defaults = MotionProfile()
    return MotionProfile(
        acceleration=_get(sec, "acceleration", "float", units, defaults.acceleration),
        safety_factor=_get(sec, "safety_factor", "float", units, defaults.safety_factor),
        load_case=_enum_value(
            LoadCase,
            _get(sec, "load_case", "str", units, defaults.load_case.value),
            "load_case",
            sec.line,
        ),
        lift_height=_get(sec, "lift_height", "length", units, defaults.lift_height),
        translate_distance=_get(
            sec, "translate_distance", "length", units, defaults.translate_distance
        ),
    )


def build_cup(doc: ConfigDocument) -> SuctionCup:
    sec = doc.require("cup")
    units = doc.units
    return SuctionCup(
        orifice_diameter=_get(sec, "orifice_diameter", "length", units, required=True),
        count=_get(sec, "count", "int", units, default=1),
    )


def build_generator(doc: ConfigDocument) -> VacuumGenerator:
    if "generator" not in doc.sections:
        return VacuumGenerator()
    sec = doc.sections["generator"]
    units = doc.units
    defaults = VacuumGenerator()
    max_vac = _get(sec, "max_vacuum", "pressure", units, defaults.max_vacuum)
    return VacuumGenerator(
        max_vacuum=abs(max_vac),  # signed gauge accepted at the boundary
        supply_flow_rate=_get(sec, "supply_flow_rate", "flow", units, defaults.supply_flow_rate),
        setup_pressure=_get(sec, "setup_pressure", "pressure", units, defaults.setup_pressure),
        nozzle_diameter=_get(sec, "nozzle_diameter", "length", units, defaults.nozzle_diameter),
    )


def build_line(doc: ConfigDocument) -> tuple[tuple[PipeSegment, ...], float | None]:
    if not doc.line_sections:
        raise ConfigError("missing section: line")
    segments = []
    upstream_velocity: float | None = None
    for i, sec in enumerate(doc.line_sections):
        if "upstream_velocity" in sec.entries:
            if i != 0:
                raise ConfigError(
                    "upstream_velocity belongs in the first [line] section only",
                    sec.entries["upstream_velocity"][1],
                )
            upstream_velocity = _get(sec, "upstream_velocity", "float", doc.units)
        segments.append(
            PipeSegment(
                inner_diameter=_get(sec, "inner_diameter", "length", doc.units, required=True),
                length=_get(sec, "length", "length", doc.units, default=0.0),
                elevation=_get(sec, "elevation", "length", doc.units, default=0.0),
            )
        )
    return tuple(segments), upstream_velocity


def build_vgtc(doc: ConfigDocument) -> tuple[Vgtc | None, float | None]:
    if "vgtc" not in doc.sections:
        return None, None
    sec = doc.sections["vgtc"]
    units = doc.units
    window = PressureWindow(
        p_min=_get(sec, "p_min", "pressure", units, required=True),
        p_max=_get(sec, "p_max", "pressure", units, default=None),
    )
    circle = Vgtc(
        center=(
            _get(sec, "center_x", "length", units, default=0.0),
            _get(sec, "center_y", "length", units, default=0.0),
        ),
        radius=_get(sec, "radius", "length", units, required=True),
        pressure_window=window,
    )
    return circle, _get(sec, "margin", "length", units, default=None)


def build_scenario(doc: ConfigDocument) -> Scenario:
    fabric = build_fabric(doc)
    motion = build_motion(doc)
    cup = build_cup(doc)
    generator = build_generator(doc)
    line, upstream_velocity = build_line(doc)
    vgtc, margin = build_vgtc(doc)
    if upstream_velocity is None:
        # flow-rate-driven fallback: v = Q / A of the first segment
        upstream_velocity = generator.supply_flow_rate / line[0].area
    return Scenario(
        fabric=fabric,
        motion=motion,
        cup=cup,
        generator=generator,
        line=line,
        upstream_velocity=upstream_velocity,
        vgtc=vgtc,
        margin=margin if margin is not None else 0.02,
    )


def parse_config(text: str | bytes) -> Scenario:
    """Parse a full scenario config; raises ConfigError or ValidationError."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return build_scenario(parse_document(text))


def emit_scenario_config(scenario: Scenario) -> str:
    """Echo a scenario as a config document (SI units, bare numbers).

    parse_config() on the result reconstructs the scenario exactly.
    """
    out = ["[fabric]"]
    out.append(f"id = {scenario.fabric.id}")
    verts = "; ".join(f"{x!r}, {y!r}" for x, y in scenario.fabric.outline.vertices)
    out.append(f"vertices = {verts}")
    out.append(f"mass = {scenario.fabric.mass!r}")
    out.append(f"friction = {scenario.fabric.friction_coefficient!r}")
    out.append(f"permeability = {scenario.fabric.permeability.value}")
    if scenario.fabric.material:
        out.append(f"material = {scenario.fabric.material}")
    out.append("")
    out.append("[motion]")
    out.append(f"acceleration = {scenario.motion.acceleration!r}")
    out.append(f"safety_factor = {scenario.motion.safety_factor!r}")
    out.append(f"load_case = {scenario.motion.load_case.value}")
    out.append(f"lift_height = {scenario.motion.lift_height!r}")
    out.append(f"translate_distance = {scenario.motion.translate_distance!r}")
    out.append("")
    out.append("[cup]")
    out.append(f"orifice_diameter = {scenario.cup.orifice_diameter!r}")
    out.append(f"count = {scenario.cup.count}")
    out.append("")
    out.append("[generator]")
    out.append(f"max_vacuum = {scenario.generator.max_vacuum!r}")
    out.append(f"supply_flow_rate = {scenario.generator.supply_flow_rate!r}")
    out.append(f"setup_pressure = {scenario.generator.setup_pressure!r}")
    out.append(f"nozzle_diameter = {scenario.generator.nozzle_diameter!r}")
    for i, seg in enumerate(scenario.line):
        out.append("")
        out.append("[line]")
        out.append(f"inner_diameter = {seg.inner_diameter!r}")
        out.append(f"length = {seg.length!r}")
        out.append(f"elevation = {seg.elevation!r}")
        if i == 0:
            out.append(f"upstream_velocity = {scenario.upstream_velocity!r}")
    if scenario.vgtc is not None:
        out.append("")
        out.append("[vgtc]")
        out.append(f"radius = {scenario.vgtc.radius!r}")
        out.append(f"p_min = {scenario.vgtc.pressure_window.p_min!r}")
        if scenario.vgtc.pressure_window.p_max is not None:
            out.append(f"p_max = {scenario.vgtc.pressure_window.p_max!r}")
        out.append(f"center_x = {scenario.vgtc.center[0]!r}")
        out.append(f"center_y = {scenario.vgtc.center[1]!r}")
        out.append(f"margin = {scenario.margin!r}")
    out.append("")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# report emission

CSV_COLUMNS = ("id", "force_N", "req_pressure_Pa", "loss_Pa", "net_Pa", "gripper_count", "verdict")


def _layout_to_dict(layout: Layout | None):
    if layout is None:
        return None
    return {
        "positions": [[x, y] for x, y in layout.positions],
        "spacing": layout.spacing,
        "margin": layout.margin,
        "rows": layout.rows,
        "cols": layout.cols,
    }


def report_to_dict(report: GraspReport) -> dict:
    return {
        "fabric_id": report.fabric_id,
        "gripper_count": report.gripper_count,
        "holding_force": report.holding_force,
        "required_pressure_single_cup": report.required_pressure_single_cup,
        "required_pressure_shared": report.required_pressure_shared,
        "line_loss": report.line_loss,
        "net_supply": report.net_supply,
        "layout": _layout_to_dict(report.layout),
        "effective_ratios": list(report.effective_ratios),
        "verdict": report.verdict.value,
        "advisories": list(report.advisories),
    }


def report_from_dict(data: dict) -> GraspReport:
    layout = None
    if data.get("layout") is not None:
        raw = data["layout"]
        layout = Layout(
            positions=tuple((x, y) for x, y in raw["positions"]),
            spacing=raw["spacing"],
            margin=raw["margin"],
            rows=raw["rows"],
            cols=raw["cols"],
        )
    return GraspReport(
        fabric_id=data["fabric_id"],
        gripper_count=data["gripper_count"],
        holding_force=data["holding_force"],
        required_pressure_single_cup=data["required_pressure_single_cup"],
        required_pressure_shared=data["required_pressure_shared"],
        line_loss=data["line_loss"],
        net_supply=data["net_supply"],
        layout=layout,
        effective_ratios=tuple(data["effective_ratios"]),
        verdict=Verdict(data["verdict"]),
        advisories=tuple(data["advisories"]),
    )


def _csv_row(report: GraspReport) -> list[str]:
    return [
        report.fabric_id,
        f"{report.holding_force:.6g}",
        f"{report.required_pressure_single_cup:.6g}",
        f"{report.line_loss:.6g}",
        f"{report.net_supply:.6g}",
        str(report.gripper_count),
        report.verdict.value,
    ]


def _human_report(report: GraspReport) -> str:
    rows = [
        ("fabric", report.fabric_id),
        ("grippers", str(report.gripper_count)),
        ("holding force", f"{report.holding_force:.6g} N"),
        ("required pressure", f"{report.required_pressure_single_cup:.6g} Pa (single cup)"),
        ("shared per cup", f"{report.required_pressure_shared:.6g} Pa"),
        ("line loss", f"{report.line_loss:.6g} Pa"),
        ("net supply", f"{report.net_supply:.6g} Pa"),
        ("verdict", report.verdict.value),
    ]
    if report.layout is not None:
        rows.insert(
            7,
            (
                "layout",
                f"{report.layout.cols} x {report.layout.rows} grid, "
                f"spacing {report.layout.spacing:.6g} m, min effective ratio "
                f"{min(report.effective_ratios):.4f}",
            ),
        )
    width = max(len(label) for label, _ in rows)
    lines = [f"{label:<{width}} : {value}" for label, value in rows]
    if report.advisories:
        lines.append("advisories:")
        lines.extend(f"  - {a}" for a in report.advisories)
    return "\n".join(lines) + "\n"


def emit_report(report: GraspReport, format: str = "human") -> bytes:
    """Render one report as aligned text, a CSV row, or structured JSON."""
    if format == "structured":
        return (json.dumps(report_to_dict(report), indent=2) + "\n").encode("utf-8")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerow(_csv_row(report))
        return buf.getvalue().encode("utf-8")
    if format == "human":
        return _human_report(report).encode("utf-8")
    raise UsageError(f"unknown format {format!r}")


def parse_report(data: bytes | str) -> GraspReport:
    """Inverse of emit_report(..., 'structured')."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return report_from_dict(json.loads(data))


def emit_batch(entries: Sequence[CorpusEntry], format: str = "human") -> bytes:
    """Render a corpus run; error entries keep their slot."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for entry in entries:
            if entry.report is not None:
                writer.writerow(_csv_row(entry.report))
            else:
                writer.writerow([entry.label, "", "", "", "", "", f"error: {entry.error}"])
        return buf.getvalue().encode("utf-8")
    if format == "structured":
        payload = [
            {
                "index": e.index,
                "label": e.label,
                "report": report_to_dict(e.report) if e.report else None,
                "error": e.error,
            }
            for e in entries
        ]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if format == "human":
        lines = []
        for entry in entries:
            if entry.report is not None:
                r = entry.report
                lines.append(
                    f"{entry.label:<10} {r.fabric_id:<24} force {r.holding_force:>9.4g} N  "
                    f"req {r.required_pressure_single_cup:>9.6g} Pa  "
                    f"net {r.net_supply:>9.6g} Pa  {r.verdict.value}"
                )
            else:
                lines.append(f"{entry.label:<10} error: {entry.error}")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise UsageError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# SVG emission

_SVG_SCALE = 1000.0  # 1 m = 1000 user units, so 1 cm = 10 units
_SVG_PAD = 20.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def emit_layout_svg(layout: Layout, outline: Polygon, vgtc: Vgtc) -> bytes:
    """Standalone SVG: outline, dashed margin inset, grip dots, circles.

    Positions whose circle exits the outline additionally get their
    effective (clipped) area shaded. Output is deterministic byte for
    byte for identical inputs.
    """
    bx0, by0, bx1, by1 = outline.bounds
    ext = vgtc.radius
    x_min, y_min = bx0 - ext, by0 - ext
    x_max, y_max = bx1 + ext, by1 + ext
    width = (x_max - x_min) * _SVG_SCALE + 2 * _SVG_PAD
    height = (y_max - y_min) * _SVG_SCALE + 2 * _SVG_PAD

    def tx(x: float) -> float:
        return _SVG_PAD + (x - x_min) * _SVG_SCALE

    def ty(y: float) -> float:
        return _SVG_PAD + (y_max - y) * _SVG_SCALE

    def poly_points(points) -> str:
        return " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in points)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<defs>",
        f'<clipPath id="fabric-clip"><polygon points="{poly_points(outline.vertices)}"/></clipPath>',
        "</defs>",
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
        f'<polygon class="fabric" points="{poly_points(outline.vertices)}" '
        'fill="#f6efdd" stroke="#444444" stroke-width="1.5"/>',
    ]
    if layout.margin > 0:
        inset = (
            (bx0 + layout.margin, by0 + layout.margin),
            (bx1 - layout.margin, by0 + layout.margin),
            (bx1 - layout.margin, by1 - layout.margin),
            (bx0 + layout.margin, by1 - layout.margin),
        )
        parts.append(
            f'<polygon class="margin-inset" points="{poly_points(inset)}" '
            'fill="none" stroke="#999999" stroke-width="1" stroke-dasharray="6 4"/>'
        )

    disk_area = vgtc.disk_area
    clipped = []
    for pos in layout.positions:
        circle = Vgtc(center=pos, radius=vgtc.radius, pressure_window=vgtc.pressure_window)
        area = circle_polygon_intersection_area(circle, outline)
        clipped.append(area < disk_area * (1.0 - 1e-9))
    r_px = _fmt(vgtc.radius * _SVG_SCALE)
    for pos, is_clipped in zip(layout.positions, clipped):
        if is_clipped:
            parts.append(
                f'<circle class="effective-shade" cx="{_fmt(tx(pos[0]))}" cy="{_fmt(ty(pos[1]))}" '
                f'r="{r_px}" fill="#7fb3d5" fill-opacity="0.35" clip-path="url(#fabric-clip)"/>'
            )
    for pos in layout.positions:
        parts.append(
            f'<circle class="vgtc-ring" cx="{_fmt(tx(pos[0]))}" cy="{_fmt(ty(pos[1]))}" '
            f'r="{r_px}" fill="none" stroke="#2e6da4" stroke-width="1.2"/>'
        )
    for pos in layout.positions:
        parts.append(
            f'<circle class="grip-dot" cx="{_fmt(tx(pos[0]))}" cy="{_fmt(ty(pos[1]))}" '
            f'r="3" fill="#c0392b"/>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# corpus file I/O

CORPUS_COLUMN_COUNT = 8
_OUTLINE_RE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*cm\s*[x×]\s*(\d+(?:\.\d+)?)\s*cm\s*$", re.IGNORECASE
)
_SUPPLY_RE = re.compile(r"^\s*([-+]?\d+(?:\.\d+)?)\s*(kPa|Pa)\s*$")


def parse_corpus_csv(text: str) -> list[CorpusRow]:
    """Read a grabbing-test table: header row plus one row per test lot."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError("corpus file is empty; a header row is required") from None
    if len(header) != CORPUS_COLUMN_COUNT:
        raise ConfigError(
            f"corpus header has {len(header)} columns, expected {CORPUS_COLUMN_COUNT}"
        )
    rows: list[CorpusRow] = []
    for line_no, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != CORPUS_COLUMN_COUNT:
            raise ConfigError(
                f"expected {CORPUS_COLUMN_COUNT} columns, got {len(record)}", line_no
            )
        lot, application, code, material, grippers, outline, supply, result = (
            cell.strip() for cell in record
        )
        m = _OUTLINE_RE.match(outline)
        if not m:
            raise ConfigError(f"cannot parse outline {outline!r}", line_no)
        s = _SUPPLY_RE.match(supply)
        if not s:
            raise ConfigError(f"cannot parse supply pressure {supply!r}", line_no)
        try:
            count = int(grippers)
        except ValueError:
            raise ConfigError(f"gripper count {grippers!r} is not an integer", line_no) from None
        rows.append(
            CorpusRow(
                lot=lot,
                application=application,
                fabric_code=code,
                material=material,
                gripper_count=count,
                length_m=convert_units(float(m.group(1)), "cm", "m"),
                width_m=convert_units(float(m.group(2)), "cm", "m"),
                supply_pressure=abs(convert_units(float(s.group(1)), s.group(2), "Pa")),
                expected="Pass" if "pass" in result.casefold() else "Fail",
            )
        )
    return rows


def bundled_corpus_text() -> str:
    return resources.files("vacgrab").joinpath("data/table1.csv").read_text("utf-8")


def load_bundled_corpus() -> list[CorpusRow]:
    return parse_corpus_csv(bundled_corpus_text())


# ---------------------------------------------------------------------------
# command dispatch

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2 for validation
        raise UsageError(message)


def _parse_cli_quantity(text: str, kind: str, flag: str) -> float:
    try:
        return _parse_quantity(text, kind, {}, flag, 0)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="vacgrab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, config: bool = True):
        p = sub.add_parser(name, help=help_text)
        if config:
            p.add_argument("--config", required=True, help="path to a scenario config file")
        p.add_argument(
            "--format",
            choices=("human", "csv", "structured"),
            default="human",
            help="output format (csv only for check/batch)",
        )
        return p

    add("force", "holding force for the configured load case")
    add("pressure", "required suction pressure per cup")
    add("line-loss", "pressure loss along the hose line and net supply")

    plan = add("plan", "gripper layout from the calibrated grabbing circle")
    plan.add_argument("--spacing", help="override grid spacing (quantity, e.g. '4.4 cm')")
    plan.add_argument("--margin", help="override edge margin (quantity)")
    plan.add_argument("--svg", help="write a layout diagram to this path")

    cal = add("calibrate", "spacing intervals that hit a target gripper count")
    cal.add_argument("--target-count", required=True, type=int)
    cal.add_argument("--range", default="1 cm,15 cm", help="search range 'low,high' (quantities)")
    cal.add_argument(
        "--step",
        default="1 mm",
        help="resolution of the answer (quantity); the cost is logarithmic in range/step",
    )
    cal.add_argument("--margin", help="edge margin (quantity, default 2 cm)")

    check = add("check", "full grasp feasibility verdict")
    check.add_argument("--svg", help="write a layout diagram when a grabbing circle is set")
    check.add_argument("--strict", action="store_true", help="advisories escalate to exit 3")

    batch = add("batch", "evaluate a grabbing-test corpus", config=False)
    batch.add_argument("--corpus", help="corpus CSV path (default: bundled test table)")
    batch.add_argument("--strict", action="store_true", help="advisories escalate to exit 3")
    return parser


def _load_document(path: str) -> ConfigDocument:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_document(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc.strerror}") from exc


def _cmd_force(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    result = statics.holding_force(build_fabric(doc), build_motion(doc))
    if args.format == "structured":
        m, mu, g, a, s = result.inputs_echo
        payload = {
            "force": result.force,
            "load_case": result.load_case.value,
            "inputs": {"mass": m, "friction": mu, "gravity": g, "acceleration": a, "safety_factor": s},
        }
        return (json.dumps(payload, indent=2) + "\n").encode(), []
    if args.format != "human":
        raise UsageError("force supports --format human or structured")
    return (
        f"load case     : {result.load_case.value}\n"
        f"holding force : {result.force:.6g} N\n"
    ).encode(), []


def _cmd_pressure(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    cup = build_cup(doc)
    result = statics.holding_force(build_fabric(doc), build_motion(doc))
    single = statics.required_pressure(result.force, cup)
    shared = statics.required_pressure(statics.per_gripper_force(result.force, cup), cup)
    if args.format == "structured":
        payload = {
            "holding_force": result.force,
            "required_pressure_single_cup": single,
            "required_pressure_shared": shared,
            "cup_count": cup.count,
        }
        return (json.dumps(payload, indent=2) + "\n").encode(), []
    if args.format != "human":
        raise UsageError("pressure supports --format human or structured")
    return (
        f"holding force      : {result.force:.6g} N\n"
        f"required (1 cup)   : {single:.6g} Pa\n"
        f"required (shared)  : {shared:.6g} Pa across {cup.count} cups\n"
    ).encode(), []


def _cmd_line_loss(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    line, upstream_velocity = build_line(doc)
    generator = build_generator(doc)
    if upstream_velocity is None:
        upstream_velocity = generator.supply_flow_rate / line[0].area
    total, steps = pneumatics.line_loss_total(line, upstream_velocity)
    net = pneumatics.net_supply_vacuum(generator, max(total, 0.0))
    advisories = [
        f"line step {i}: velocity above {pneumatics.MACH_ADVISORY_VELOCITY:.0f} m/s"
        for i, step in enumerate(steps, start=1)
        if step.mach_advisory
    ]
    if args.format == "structured":
        payload = {
            "upstream_velocity": upstream_velocity,
            "steps": [
                {
                    "delta_p": s.delta_p,
                    "upstream_velocity": s.upstream_velocity,
                    "downstream_velocity": s.downstream_velocity,
                    "area_ratio": s.area_ratio,
                    "pressure_recovery": s.pressure_recovery,
                    "mach_advisory": s.mach_advisory,
                }
                for s in steps
            ],
            "total_loss": total,
            "net_supply": net.pressure,
            "clamped": net.clamped,
        }
        return (json.dumps(payload, indent=2) + "\n").encode(), advisories
    if args.format != "human":
        raise UsageError("line-loss supports --format human or structured")
    lines = [f"upstream velocity : {upstream_velocity:.6g} m/s"]
    for i, step in enumerate(steps, start=1):
        lines.append(
            f"step {i}            : {step.delta_p:.6g} Pa "
            f"(v {step.upstream_velocity:.4g} -> {step.downstream_velocity:.4g} m/s)"
        )
    lines.append(f"total loss        : {total:.6g} Pa")
    lines.append(f"net supply        : {net.pressure:.6g} Pa")
    return ("\n".join(lines) + "\n").encode(), advisories


def _cmd_plan(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    fabric = build_fabric(doc)
    circle, cfg_margin = build_vgtc(doc)
    if circle is None:
        raise ConfigError("missing section: vgtc")
    margin = cfg_margin if cfg_margin is not None else 0.02
    if args.margin:
        margin = _parse_cli_quantity(args.margin, "length", "--margin")
    spacing = circle.radius
    if args.spacing:
        spacing = _parse_cli_quantity(args.spacing, "length", "--spacing")
    layout = generate_layout(fabric.outline, margin, spacing)
    ratios = [
        effective_ratio(
            Vgtc(center=pos, radius=circle.radius, pressure_window=circle.pressure_window),
            fabric.outline,
        )
        for pos in layout.positions
    ]
    if args.svg:
        with open(args.svg, "wb") as fh:
            fh.write(emit_layout_svg(layout, fabric.outline, circle))
    if args.format == "structured":
        payload = {
            "layout": _layout_to_dict(layout),
            "effective_ratios": ratios,
            "radius": circle.radius,
        }
        return (json.dumps(payload, indent=2) + "\n").encode(), []
    if args.format != "human":
        raise UsageError("plan supports --format human or structured")
    lines = [
        f"grid          : {layout.cols} cols x {layout.rows} rows = {len(layout.positions)} grippers",
        f"spacing       : {layout.spacing:.6g} m",
        f"margin        : {layout.margin:.6g} m",
        f"min ratio     : {min(ratios):.4f}" if ratios else "min ratio     : n/a",
    ]
    for pos, ratio in zip(layout.positions, ratios):
        lines.append(f"  ({pos[0]:.4f}, {pos[1]:.4f}) m  effective {ratio:.4f}")
    return ("\n".join(lines) + "\n").encode(), []


def _cmd_calibrate(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    fabric = build_fabric(doc)
    try:
        low_text, high_text = args.range.split(",", 1)
    except ValueError:
        raise UsageError("--range expects 'low,high'") from None
    low = _parse_cli_quantity(low_text, "length", "--range")
    high = _parse_cli_quantity(high_text, "length", "--range")
    step = _parse_cli_quantity(args.step, "length", "--step")
    margin = _parse_cli_quantity(args.margin, "length", "--margin") if args.margin else 0.02
    intervals = calibrate_spacing(fabric.outline, margin, args.target_count, (low, high), step)
    if args.format == "structured":
        payload = {
            "target_count": args.target_count,
            "margin": margin,
            "intervals": [[a, b] for a, b in intervals],
        }
        return (json.dumps(payload, indent=2) + "\n").encode(), []
    if args.format != "human":
        raise UsageError("calibrate supports --format human or structured")
    if not intervals:
        return (f"no spacing in range yields {args.target_count} grippers\n").encode(), []
    lines = [f"spacing intervals for {args.target_count} grippers:"]
    lines.extend(f"  {a:.4f} m .. {b:.4f} m" for a, b in intervals)
    return ("\n".join(lines) + "\n").encode(), []


def _cmd_check(args) -> tuple[bytes, list[str]]:
    doc = _load_document(args.config)
    scenario = build_scenario(doc)
    report = evaluate(scenario)
    if args.svg:
        if report.layout is None or scenario.vgtc is None:
            raise UsageError("--svg needs a [vgtc] section in the config")
        with open(args.svg, "wb") as fh:
            fh.write(emit_layout_svg(report.layout, scenario.fabric.outline, scenario.vgtc))
    return emit_report(report, args.format), list(report.advisories)


def _cmd_batch(args) -> tuple[bytes, list[str]]:
    if args.corpus:
        try:
            with open(args.corpus, encoding="utf-8") as fh:
                rows = parse_corpus_csv(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read corpus {args.corpus!r}: {exc.strerror}") from exc
    else:
        rows = load_bundled_corpus()
    entries = run_corpus(rows)
    advisories = [
        f"{entry.label}: {advisory}"
        for entry in entries
        if entry.report is not None
        for advisory in entry.report.advisories
    ]
    advisories.extend(
        f"{entry.label}: row error: {entry.error}" for entry in entries if entry.error
    )
    return emit_batch(entries, args.format), advisories


_COMMANDS = {
    "force": _cmd_force,
    "pressure": _cmd_pressure,
    "line-loss": _cmd_line_loss,
    "plan": _cmd_plan,
    "calibrate": _cmd_calibrate,
    "check": _cmd_check,
    "batch": _cmd_batch,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        output, advisories = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ValidationError, UnitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output.decode("utf-8"))
    for advisory in advisories:
        print(f"advisory: {advisory}", file=sys.stderr)
    if advisories and getattr(args, "strict", False):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
