"""Command-line front end: config files, reports, corpus batches, SVG.

Config grammar (full reference in the README):

    [section]            one per line, lowercase
    key = value          '#' starts a comment, blank lines ignored

Quantities take an optional unit suffix (g, kg, mm, cm, m, kPa, Pa,
bar, L/min); bare numbers are SI unless a [units] section overrides
the default unit for that dimension. Units resolve through the table
of conversion factors that model builds at import: one lookup per
value, and the same float as the value times the ratio of the two
units' SI factors. Unknown sections or keys are fatal so unit-suffix
typos surface instead of silently parsing as something else, and
every value is parsed when the file is read, whichever sections a
command uses. The [line] section may repeat; each occurrence is one
hose segment, ordered from generator to cup.

Exit codes: 0 success, 1 usage error, 2 validation/config error,
3 advisory escalated by --strict.
"""

from __future__ import annotations

import io
import os
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from itertools import groupby, product
from operator import countOf

from . import statics
from .feasibility import (
    DEFAULT_EDGE_MARGIN,
    LAYOUT_STAGE,
    CorpusEntry,
    CorpusRow,
    GraspReport,
    Scenario,
    cup_demand,
    evaluate,
    layout_stage,
    line_supply,
    run_corpus,
)
from .model import (
    AMBIENT,
    FabricPiece,
    LoadCase,
    MotionProfile,
    Permeability,
    PipeSegment,
    Polygon,
    PressureWindow,
    Record,
    SI_UNIT,
    SuctionCup,
    UnitError,
    VacuumGenerator,
    ValidationError,
    _clip,
    _echo,
    convert_units,
    require_range,
)
from .vgtc import Layout, Vgtc, calibrate_spacing, effective_ratios
# not called here: bench/vgbench/trace.py resolves and patches these names
from .vgtc import circle_polygon_intersection_area, effective_ratio, generate_layout  # noqa: F401


class ConfigError(ValueError):
    """Config file problem, carrying the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


# ---------------------------------------------------------------------------
# config schema and parsing

_NUMBER_RE = re.compile(r"^([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(.*)$")
_SECTION_RE = re.compile(r"\[([a-z_]+)\]")
_KEY_RE = re.compile(r"[a-z_][a-z0-9_]*")
_INTEGER_RE = re.compile(r"([-+]?)0*(\d+)")
_FLOAT_DIGITS = sys.float_info.max_10_exp + 1  # digits of the largest float
_FLOAT_MAX = sys.float_info.max


class ConfigField(Record):
    """One config key: its section, how its text parses, what it sets.

    kind: a dimension of SI_UNIT (number with optional unit), float (bare
    number), int, str, an Enum class or Polygon (vertex list). target: the
    value object the key sets; attr: its attribute, if not named like the
    key. Keys without a target are applied by explicit code. Stored when
    built: attribute (attr or key), and required, true when the target
    attribute has no default, so the key must be given.
    """

    section: str
    key: str
    kind: object
    target: type | None = None
    attr: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "attribute", self.attr or self.key)
        object.__setattr__(self, "required", self.attribute in getattr(self.target, "_required", ()))


# Keys with a rule the table cannot state, applied by name below.
_LENGTH = ConfigField("fabric", "length", "length")  # with width: a rectangle outline
_WIDTH = ConfigField("fabric", "width", "length")
_VERTICES = ConfigField("fabric", "vertices", Polygon)  # or the outline itself
_MAX_VACUUM = ConfigField("generator", "max_vacuum", "pressure", VacuumGenerator)  # sign ignored
_UPSTREAM_VELOCITY = ConfigField("line", "upstream_velocity", float)  # first [line] only
_MARGIN = ConfigField("vgtc", "margin", "length")

CONFIG_FIELDS = (
    ConfigField("fabric", "id", str, FabricPiece),
    _LENGTH,
    _WIDTH,
    _VERTICES,
    ConfigField("fabric", "mass", "mass", FabricPiece),
    ConfigField("fabric", "friction", float, FabricPiece, "friction_coefficient"),
    ConfigField("fabric", "permeability", Permeability, FabricPiece),
    ConfigField("fabric", "material", str, FabricPiece),
    ConfigField("motion", "acceleration", float, MotionProfile),
    ConfigField("motion", "safety_factor", float, MotionProfile),
    ConfigField("motion", "load_case", LoadCase, MotionProfile),
    ConfigField("cup", "orifice_diameter", "length", SuctionCup),
    ConfigField("cup", "count", int, SuctionCup),
    _MAX_VACUUM,
    ConfigField("generator", "supply_flow_rate", "flow", VacuumGenerator),
    ConfigField("line", "inner_diameter", "length", PipeSegment),
    ConfigField("line", "length", "length", PipeSegment),
    _UPSTREAM_VELOCITY,
    ConfigField("vgtc", "radius", "length", Vgtc),
    ConfigField("vgtc", "p_min", "pressure", PressureWindow),
    ConfigField("vgtc", "p_max", "pressure", PressureWindow),
    _MARGIN,
    *(ConfigField("units", dim, str) for dim in SI_UNIT),  # default unit for bare numbers
)

# section -> key -> field, header line -> section, and (section, the attribute a
# ValidationError names) -> key
_SECTIONS = {
    section: {f.key: f for f in CONFIG_FIELDS if f.section == section}
    for section in dict.fromkeys(f.section for f in CONFIG_FIELDS)
}
_HEADERS = {f"[{section}]": section for section in _SECTIONS}
_KEY_OF_FIELD = {(f.section, f.attribute): f.key for f in CONFIG_FIELDS}
# (section, target) -> (key, attribute, required) of each field that sets the target, in table order
_BUILDS = {
    (section, target): tuple((f.key, f.attribute, f.required) for f in fields.values() if f.target is target)
    for section, fields in _SECTIONS.items()
    for target in dict.fromkeys(f.target for f in fields.values())
}


class _Section:
    """A section's header line, its entries key -> (text, line) and their parsed
    values. Inside `with section:` a ValidationError becomes a ConfigError at its
    field's key line, else the header's."""

    __slots__ = ("name", "line", "entries", "values")

    def __init__(self, name: str, line: int):
        self.name, self.line = name, line
        self.entries: dict[str, tuple[str, int]] = {}
        self.values: dict[str, object] = {}

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, ValidationError):
            entry = self.entries.get(_KEY_OF_FIELD.get((self.name, exc.field)))
            raise ConfigError(str(exc), entry[1] if entry else self.line) from exc


class ConfigDocument:
    """Parsed config: singleton sections plus the ordered [line] list."""

    def __init__(self, sections: dict[str, _Section], lines: list[_Section]):
        self.sections, self.line_sections = sections, lines

    def require(self, name: str) -> _Section:
        try:
            return self.sections[name]
        except KeyError:
            raise ConfigError(f"missing section: {name}") from None

    def get(self, name: str) -> _Section:
        """A section, or an empty one when the config leaves it out."""
        return self.sections.get(name) or _Section(name=name, line=0)


def parse_document(text: str) -> ConfigDocument:
    """Split a config into sections, then parse every value by its key's kind.

    Strict about sections and keys. [units] is checked first: it sets the
    unit of every bare number.
    """
    doc, sections = ConfigDocument({}, []), []
    current: _Section | None = None
    declared: dict[str, ConfigField] = {}
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if line[0] == "[":
            name = _HEADERS.get(line)  # a known header is well formed
            if name is None:
                m = _SECTION_RE.fullmatch(line)
                if not m:
                    raise ConfigError(f"malformed section header {_echo(line)}", line_no)
                raise ConfigError(f"unknown section [{_clip(m.group(1))}]", line_no)
            current = _Section(name, line_no)
            declared, entries = _SECTIONS[name], current.entries
            sections.append(current)
            if name == "line":
                doc.line_sections.append(current)
            elif name in doc.sections:
                raise ConfigError(f"duplicate section [{name}]", line_no)
            else:
                doc.sections[name] = current
            continue
        if current is None:
            raise ConfigError(f"key outside any section: {_echo(line)}", line_no)
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(f"expected 'key = value', got {_echo(line)}", line_no)
        key, value = key.rstrip(), value.lstrip()  # the line is stripped already
        if key not in declared:  # every declared key is well formed
            if not _KEY_RE.fullmatch(key):
                raise ConfigError(f"malformed key {_echo(key)}", line_no)
            raise ConfigError(f"unknown key {_echo(key)} in [{current.name}]", line_no)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} in [{current.name}]", line_no)
        if not value:
            raise ConfigError(f"empty value for {key!r}", line_no)
        entries[key] = (value, line_no)

    units: dict[str, str] = {}
    for dim, (value, line_no) in doc.get("units").entries.items():
        try:
            convert_units(1.0, value, SI_UNIT[dim])
        except UnitError as exc:
            raise ConfigError(str(exc), line_no) from exc
        units[dim] = value
    for section in sections:  # in file order, so the first bad value is reported
        declared, values = _SECTIONS[section.name], section.values
        for key, (value, line_no) in section.entries.items():
            values[key] = _parse_value(declared[key].kind, key, value, units, line_no)
    return doc


def _parse_quantity(text: str, kind, units: dict[str, str], key: str, line_no: int | None) -> float:
    m = _NUMBER_RE.match(text.strip())
    if m is None:
        raise ConfigError(f"{key}: cannot parse a number from {_echo(text)}", line_no)
    number, suffix = m.groups()  # the suffix is stripped: \s* takes its left, strip() its right
    if kind is float:
        if suffix:
            raise ConfigError(f"{key}: unexpected unit {_echo(suffix)} on a bare number", line_no)
        return float(number)
    si = SI_UNIT[kind]
    try:
        return convert_units(float(number), suffix or units.get(kind, si), si)
    except UnitError as exc:
        raise ConfigError(f"{key}: {exc}", line_no) from exc


def _parse_count(text: str) -> int | float:
    """An integer: plain digits, or another form int() reads, such as 1_000.

    More digits than the largest float has are read as +-inf, which every
    caller refuses as out of range (int() itself refuses past 4,300
    digits). Raises ValueError for text that is no integer.
    """
    whole = _INTEGER_RE.fullmatch(text)
    if whole is None:
        return int(text)
    sign, digits = whole.groups()
    return int(sign + digits) if len(digits) <= _FLOAT_DIGITS else float(sign + "inf")


def _parse_value(kind, key: str, text: str, units: dict[str, str], line_no: int):
    """One config value parsed by its field's kind."""
    if kind is float or kind in SI_UNIT:
        value = _parse_quantity(text, kind, units, key, line_no)
    elif kind is int:
        try:
            value = _parse_count(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {_echo(text)}", line_no) from None
    elif kind is str:
        return text
    elif kind is Polygon:
        return _parse_vertices(text, units, key, line_no)
    else:
        try:
            return kind(text)
        except ValueError:
            choices = ", ".join(m.value for m in kind)
            raise ConfigError(f"{key}: expected one of {choices}, got {_echo(text)}", line_no) from None
    if not abs(value) <= _FLOAT_MAX:  # overflowed to inf, or an int no float can hold
        raise ConfigError(f"{key}: {_echo(text.strip())} is out of range", line_no)
    return value


def _parse_vertices(text: str, units: dict[str, str], key: str, line_no: int) -> Polygon:
    coords = []  # x0, y0, x1, y1, ...
    for pair in text.split(";"):
        pair = pair.strip()
        if not pair:
            continue
        xy = pair.split(",")
        if len(xy) != 2:
            raise ConfigError(f"{key}: expected 'x, y' pairs, got {_echo(pair)}", line_no)
        for c in xy:  # each checked before the next is read
            coords.append(_parse_value("length", key, c, units, line_no))
    coords = iter(coords)  # once read to the end, it lets the list go before the polygon is checked
    try:
        return Polygon(tuple(zip(coords, coords)))
    except ValidationError as exc:
        raise ConfigError(f"{key}: {exc}", line_no) from exc


def _build(target: type, sec: _Section, **given):
    """`target` from one section's parsed values; keys left out keep its defaults."""
    values = sec.values
    for key, attribute, required in _BUILDS[sec.name, target]:
        if attribute not in given:
            if key in values:
                given[attribute] = values[key]
            elif required:
                raise ConfigError(f"missing key {key!r} in [{sec.name}]", sec.line)
    with sec:
        return target(**given)


def build_fabric(doc: ConfigDocument) -> FabricPiece:
    sec = doc.require("fabric")
    outline = sec.values.get(_VERTICES.key)
    sides = [sec.values[f.key] for f in (_LENGTH, _WIDTH) if f.key in sec.values]
    if outline is not None and sides:
        raise ConfigError("give either length/width or vertices, not both", sec.line)
    if outline is None:
        if len(sides) != 2:
            raise ConfigError("fabric needs length and width, or vertices", sec.line)
        with sec:
            outline = Polygon.rectangle(*sides)
    return _build(FabricPiece, sec, outline=outline)


def build_motion(doc: ConfigDocument) -> MotionProfile:
    return _build(MotionProfile, doc.get("motion"))


def build_cup(doc: ConfigDocument) -> SuctionCup:
    return _build(SuctionCup, doc.require("cup"))


def build_generator(doc: ConfigDocument) -> VacuumGenerator:
    sec = doc.get("generator")
    if _MAX_VACUUM.key in sec.values:  # signed gauge accepted at the boundary
        return _build(VacuumGenerator, sec, max_vacuum=abs(sec.values[_MAX_VACUUM.key]))
    return _build(VacuumGenerator, sec)


def build_line(
    doc: ConfigDocument, generator: VacuumGenerator
) -> tuple[tuple[PipeSegment, ...], float]:
    """The hose segments and the velocity entering the first one.

    Without upstream_velocity the velocity follows from the flow rate:
    v = Q / A of the first segment.
    """
    if not doc.line_sections:
        raise ConfigError("missing section: line")
    segments = []
    for i, sec in enumerate(doc.line_sections):
        if i and _UPSTREAM_VELOCITY.key in sec.entries:
            raise ConfigError(
                f"{_UPSTREAM_VELOCITY.key} belongs in the first [line] section only",
                sec.entries[_UPSTREAM_VELOCITY.key][1],
            )
        segments.append(_build(PipeSegment, sec))
    first = doc.line_sections[0]
    upstream_velocity = first.values.get(_UPSTREAM_VELOCITY.key)
    if upstream_velocity is None:
        upstream_velocity = generator.supply_flow_rate / segments[0].area
    with first:  # Scenario's rule, checked here to name the line
        return tuple(segments), require_range(_UPSTREAM_VELOCITY.attribute, upstream_velocity, 0)


def build_vgtc(doc: ConfigDocument) -> tuple[Vgtc | None, float]:
    """The grabbing circle (None without [vgtc]) and the edge margin for layouts."""
    if "vgtc" not in doc.sections:
        return None, DEFAULT_EDGE_MARGIN
    sec = doc.sections["vgtc"]
    circle = _build(Vgtc, sec, pressure_window=_build(PressureWindow, sec))
    with sec:  # Scenario's rule, checked here to name the line
        return circle, require_range(_MARGIN.attribute, sec.values.get(_MARGIN.key, DEFAULT_EDGE_MARGIN), 0)


def build_scenario(doc: ConfigDocument) -> Scenario:
    fabric, motion, cup = build_fabric(doc), build_motion(doc), build_cup(doc)
    generator = build_generator(doc)
    return Scenario(fabric, motion, cup, generator, *build_line(doc, generator), *build_vgtc(doc))


def parse_config(text: str | bytes) -> Scenario:
    """Parse a full scenario config, bytes as UTF-8, one leading BOM dropped; raises ConfigError or ValidationError."""
    text = text.decode("utf-8") if isinstance(text, bytes) else text
    return build_scenario(parse_document(text.removeprefix("\ufeff")))


# ---------------------------------------------------------------------------
# report emission

CSV_COLUMNS = ("id", "force_N", "req_pressure_Pa", "loss_Pa", "net_Pa", "gripper_count", "verdict")


def _layout_dict(layout: Layout) -> dict:
    """A layout as its axes: the x of each column and the y of each row.

    Its positions are every (x, y) row by row, [[x, y] for y in ys for x
    in xs], in the order of the report's effective_ratios; the axes are
    the layout's own tuples, not copies, listed by the generic writer.
    """
    return {
        "xs": layout.xs,
        "ys": layout.ys,
        "spacing": layout.spacing,
        "margin": layout.margin,
        "rows": layout.rows,
        "cols": layout.cols,
    }


# vars() of a report or line step maps its fields to their values in
# declaration order, without the deep copy dataclasses.asdict() makes.
def report_to_dict(report: GraspReport) -> dict:
    """A report as data for the structured writer (_json_text)."""
    return {
        **vars(report),
        "layout": _layout_dict(report.layout) if report.layout is not None else None,
        "verdict": report.verdict.value,
        "effective_ratios": _Floats(report.effective_ratios),
    }


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


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NON_FINITE.get(text, text)


class _Floats:
    """Floats the structured writer lists as they are, with no per-item type check.

    Only for values that are floats by construction, such as the ratios
    vgtc.effective_ratios builds. The tuple is held, not copied, and the
    writer formats each run of equal values once (_write_json).
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[float, ...]) -> None:
        self.values = values


def _write_json(value, pad: str, out: list[str], escape: Callable[[str], str]) -> None:
    """Append `value` to out as json.dumps(value, indent=2) writes it.

    pad is a newline followed by the indentation of the line the value
    starts on, and escape is json's C string escaper. Dict keys must be
    str. A _Floats is written as a list, one piece per run of equal
    consecutive values: itertools.groupby finds the runs and
    operator.countOf counts each one in C, and the run's value is
    formatted once and repeated by string multiplication, so a grid of
    full disks, one 1.0 repeated, is one piece with no Python step per
    value. A run of 0.0 or -0.0 (equal, but spelled differently), or of
    nan or inf, sends the whole list to the generic list writer. Lists
    are appended to out in pieces, so only the caller's final join
    copies their text.
    """
    if isinstance(value, str):
        out.append(escape(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out, escape)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(value, dict):
        inner = pad + "  "
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + escape(key) + ": ")
            _write_json(item, inner, out, escape)
            sep = "," + inner
        out.append(pad + "}")
    elif isinstance(value, _Floats):
        values = value.values
        first = len(out)
        sep = "," + pad + "  "
        lead = "[" + pad + "  "
        for item, run in groupby(values):
            text = float.__repr__(item)
            # 0.0 == -0.0 share a run, but their texts differ; json spells nan and inf NaN and Infinity
            if item == 0.0 or "n" in text:
                del out[first:]
                _write_json(values, pad, out, escape)
                return
            out.append(lead + text + (sep + text) * (countOf(run, item) - 1))
            lead = sep
        out.append(pad + "]" if len(out) > first else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_text(value) -> str:
    """The text json.dumps(value, indent=2) + "\n" gives, built faster.

    json.dumps runs its pure-Python encoder whenever indent is set.
    This writer gives every scalar the encoding json gives it
    (float.__repr__ and NaN/Infinity, int.__repr__, the C string
    escaper) and lays out the indentation itself. The escaper is
    imported here, not at start-up, from _json, as json.encoder takes it.
    """
    try:
        from _json import encode_basestring_ascii
    except ImportError:  # json.encoder's own pure-Python fallback
        from json.encoder import encode_basestring_ascii

    out: list[str] = []
    _write_json(value, "\n", out, encode_basestring_ascii)
    out.append("\n")
    return "".join(out)


def _render(format: str, command: str, renderers: dict[str, Callable[[], object]]) -> bytes:
    """A command's output in `format`, which must be one of its formats.

    renderers maps each format the command supports to a function that
    builds the output: text for human and csv, JSON-ready data for
    structured, which _json_text writes as json.dumps(indent=2) would.
    """
    if format not in renderers:
        *others, last = renderers
        raise UsageError(f"{command} supports --format {', '.join(others)} or {last}")
    output = renderers[format]()
    if format == "structured":
        output = _json_text(output)
    return output.encode("utf-8")


def _csv_text(rows: Iterable[list[str]]) -> str:
    import csv  # here, not at start-up: only csv output and corpus files use it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def emit_report(report: GraspReport, format: str = "human") -> bytes:
    """Render one report as aligned text, a CSV row, or structured JSON."""
    return _render(format, "check", {
        "human": lambda: _human_report(report),
        "csv": lambda: _csv_text([_csv_row(report)]),
        "structured": lambda: report_to_dict(report),
    })


def _human_batch(entries: Sequence[CorpusEntry]) -> str:
    lines = []
    for entry in entries:
        if entry.report is not None:
            r = entry.report
            lines.append(
                f"{entry.label!s:<10} {r.fabric_id:<24} force {r.holding_force:>9.4g} N  "
                f"req {r.required_pressure_single_cup:>9.6g} Pa  "
                f"net {r.net_supply:>9.6g} Pa  {r.verdict.value}"
            )
        else:
            lines.append(f"{entry.label!s:<10} error: {entry.error}")
    return "\n".join(lines) + "\n"


def emit_batch(entries: Sequence[CorpusEntry], format: str = "human") -> bytes:
    """Render a corpus run; error entries keep their slot. A label that is not
    a str is written as str() gives it, except that csv writes None as an
    empty cell and structured output as null."""
    return _render(format, "batch", {
        "human": lambda: _human_batch(entries),
        "csv": lambda: _csv_text(
            _csv_row(e.report) if e.report is not None else [e.label, "", "", "", "", "", f"error: {e.error}"]
            for e in entries
        ),
        "structured": lambda: [
            {
                "index": e.index,
                "label": e.label if e.label is None else str(e.label),
                "report": report_to_dict(e.report) if e.report else None,
                "error": e.error,
            }
            for e in entries
        ],
    })


# ---------------------------------------------------------------------------
# SVG emission

_SVG_SCALE = 1000.0  # 1 m = 1000 user units, so 1 cm = 10 units
_SVG_PAD = 20.0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def emit_layout_svg(layout: Layout, outline: Polygon, vgtc: Vgtc) -> bytes:
    """Standalone SVG: outline, dashed margin inset, grip dots, circles.

    A position whose effective ratio (vgtc.effective_ratios, the ratios
    check and plan report) is below 1 - 1e-9 additionally gets its
    effective (clipped) area shaded. The ratios come from one
    intersection call per position; a grid whose ratios are all 1.0,
    found by a count made in C, has no shade and takes no Python step
    per position, and any other grid is scanned position by position
    against the threshold. Each family of circles (shades,
    then rings, then dots) sits in one <g> that states the family's
    fill and stroke once; every <circle> keeps only its class, cx, cy
    and r, one a line, and each shade its own clip-path. A family with
    no element writes no group. Each column's x and each row's y are
    formatted once, and each row of circles is joined in one step.
    The document is written once, in order, into one bytes buffer: the
    header and shading encoded in one piece, then each row of circles
    as it is made, so no second copy of it is ever held. Output is
    deterministic byte for byte for identical inputs.
    """
    xs, ys = zip(*outline.vertices)
    bx0, by0, bx1, by1 = min(xs), min(ys), max(xs), max(ys)
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

    fabric = poly_points(outline.vertices)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        "<defs>",
        f'<clipPath id="fabric-clip"><polygon points="{fabric}"/></clipPath>',
        "</defs>",
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
        f'<polygon class="fabric" points="{fabric}" '
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

    r_px = _fmt(vgtc.radius * _SVG_SCALE)
    cxs = [_fmt(tx(x)) for x in layout.xs]
    cys = [_fmt(ty(y)) for y in layout.ys]

    def circles(head: str, tail: str) -> Iterable[bytes]:
        """One encoded string per row: its elements, head, cx, cy, tail, one a line."""
        heads = [f'{head} cx="{cx}" cy="' for cx in cxs]
        tails = [f'{cy}" {tail}\n' for cy in cys]
        return map(str.encode, (t.join(heads) + t for t in tails))

    cols = layout.cols
    ratios = effective_ratios(vgtc, outline, layout)
    shades = [] if ratios.count(1.0) == len(ratios) else [
        f'<circle class="effective-shade" cx="{cxs[i % cols]}" cy="{cys[i // cols]}" '
        f'r="{r_px}" clip-path="url(#fabric-clip)"/>'
        for i, ratio in enumerate(ratios)
        if ratio < 1.0 - 1e-9
    ]
    del ratios  # not held while the rings and dots are written
    if shades:
        parts += ['<g fill="#7fb3d5" fill-opacity="0.35">', *shades, "</g>"]
    parts.append("")  # "" ends the header with a newline
    out = io.BytesIO()
    out.write("\n".join(parts).encode())
    if cxs and cys:  # no position, no group; and a row of no columns would still print its tail
        out.write(b'<g fill="none" stroke="#2e6da4" stroke-width="1.2">\n')
        out.writelines(circles('<circle class="vgtc-ring"', f'r="{r_px}"/>'))
        out.write(b'</g>\n<g fill="#c0392b">\n')
        out.writelines(circles('<circle class="grip-dot"', 'r="3"/>'))
        out.write(b"</g>\n")
    out.write(b"</svg>\n")
    return out.getvalue()  # the buffer itself, not a copy of it


# ---------------------------------------------------------------------------
# corpus file I/O

CORPUS_COLUMN_COUNT = 8
_OUTLINE_RE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*cm\s*[x×]\s*(\d+(?:\.\d+)?)\s*cm\s*$", re.IGNORECASE
)
_SUPPLY_RE = re.compile(r"^\s*([-+]?\d+(?:\.\d+)?)\s*(kPa|Pa)\s*$")


def parse_corpus_csv(text: str) -> list[CorpusRow]:
    """Read a grabbing-test table: header row plus one row per test lot."""
    import csv  # here, not at start-up: only batch reads a corpus

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ConfigError("corpus file is empty; a header row is required")
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
                raise ConfigError(f"cannot parse outline {_echo(outline)}", line_no)
            s = _SUPPLY_RE.match(supply)
            if not s:
                raise ConfigError(f"cannot parse supply pressure {_echo(supply)}", line_no)
            try:
                count = _parse_count(grippers)  # +-inf past 309 digits: SuctionCup makes it an error entry
            except ValueError:
                raise ConfigError(f"gripper count {_echo(grippers)} is not an integer", line_no) from None
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
    except csv.Error as exc:  # a field over the reader's limit; a NUL byte before Python 3.11
        raise ConfigError(f"cannot read corpus: {exc}", reader.line_num) from None
    return rows


def load_bundled_corpus() -> list[CorpusRow]:
    """The bundled Table 1, opened as a plain file beside this module: package
    data installs as plain files, never in a zip, so importlib.resources is not needed."""
    with open(os.path.join(os.path.dirname(__file__), "data", "table1.csv"), encoding="utf-8") as fh:
        return parse_corpus_csv(fh.read())


# ---------------------------------------------------------------------------
# command dispatch

def _parse_cli_quantity(text: str, kind: str, flag: str) -> float:
    try:
        return _parse_quantity(text, kind, {}, flag, None)
    except ConfigError as exc:
        raise UsageError(str(exc)) from exc


def _target_count(text: str) -> int:
    """--target-count read by _parse_count; an error quotes at most 40 characters of it."""
    from argparse import ArgumentTypeError  # loaded already: only build_parser's parser calls this

    try:
        count = _parse_count(text)
    except ValueError:
        raise ArgumentTypeError(f"invalid int value: {_echo(text)}") from None
    if isinstance(count, float):  # +-inf: more digits than a float holds
        raise ArgumentTypeError(f"{_echo(text)} is out of range")
    return count


def build_parser(command: str | None):
    """The command line's argparse parser. argparse, which loads gettext, is
    imported here, not at start-up: the library never parses arguments. Help
    and the choices name every command, but only `command` gets its arguments."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # argparse default exits 2; we reserve 2 for validation
            raise UsageError(message)

        def print_help(self, file=None):
            # argparse swallows a write error; stdout help fails like any command's output
            if file is not None:
                return super().print_help(file)
            _write_stdout(self.format_help().encode("utf-8"))

    parser = _Parser(prog="vacgrab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, run: Callable, help_text: str, config: bool = True):
        p = sub.add_parser(name, help=help_text)
        if name != command:
            return None
        p.set_defaults(run=run, config=None)
        if config:
            p.add_argument("--config", required=True, help="path to a scenario config file")
        p.add_argument(
            "--format",
            choices=("human", "csv", "structured"),
            default="human",
            help="output format (csv only for check/batch)",
        )
        return p

    add("force", _cmd_force, "holding force for the configured load case")
    add("pressure", _cmd_pressure, "required suction pressure per cup")
    add("line-loss", _cmd_line_loss, "pressure loss along the hose line and net supply")

    if plan := add("plan", _cmd_plan, "gripper layout from the calibrated grabbing circle"):
        plan.add_argument("--spacing", help="override grid spacing (quantity, e.g. '4.4 cm')")
        plan.add_argument("--margin", help="override edge margin (quantity)")
        plan.add_argument("--svg", help="write a layout diagram to this path")

    if cal := add("calibrate", _cmd_calibrate, "spacing intervals that hit a target gripper count"):
        cal.add_argument("--target-count", required=True, type=_target_count)
        cal.add_argument("--range", default="1 cm,15 cm", help="search range 'low,high' (quantities)")
        cal.add_argument(
            "--step",
            default="1 mm",
            help="resolution of the answer (quantity); the cost is logarithmic in range/step",
        )
        cal.add_argument(
            "--margin", help="edge margin (quantity; default: the config's [vgtc] margin, else 2 cm)"
        )

    if check := add("check", _cmd_check, "full grasp feasibility verdict"):
        check.add_argument("--svg", help="write a layout diagram when a grabbing circle is set")
        check.add_argument("--strict", action="store_true", help="advisories escalate to exit 3")

    if batch := add("batch", _cmd_batch, "evaluate a grabbing-test corpus", config=False):
        batch.add_argument("--corpus", help="corpus CSV path (default: bundled test table)")
        batch.add_argument("--strict", action="store_true", help="advisories escalate to exit 3")
    return parser


def _read_text(path: str, what: str) -> str:
    """A config or corpus file as UTF-8 text, one leading BOM dropped; a decode error's offset counts the BOM."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
        raise ConfigError(f"cannot read {what} {path!r}: {reason}") from exc


def _write_svg(path: str, svg: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(svg)
    except OSError as exc:
        raise ConfigError(f"cannot write SVG {path!r}: {exc.strerror}") from exc


def _cmd_force(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    fabric, motion = build_fabric(doc), build_motion(doc)
    force = statics.holding_force(fabric, motion)
    return _render(args.format, args.command, {
        "human": lambda: (
            f"load case     : {motion.load_case.value}\n"
            f"holding force : {force:.6g} N\n"
        ),
        "structured": lambda: {
            "force": force,
            "load_case": motion.load_case.value,
            "inputs": {
                "mass": fabric.mass,
                "friction": fabric.friction_coefficient,
                "gravity": AMBIENT.gravity,
                "acceleration": motion.acceleration,
                "safety_factor": motion.safety_factor,
            },
        },
    }), []


def _cmd_pressure(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    cup = build_cup(doc)
    force, single, shared = cup_demand(build_fabric(doc), build_motion(doc), cup)
    return _render(args.format, args.command, {
        "human": lambda: (
            f"holding force      : {force:.6g} N\n"
            f"required (1 cup)   : {single:.6g} Pa\n"
            f"required (shared)  : {shared:.6g} Pa across {cup.count} cups\n"
        ),
        "structured": lambda: {
            "holding_force": force,
            "required_pressure_single_cup": single,
            "required_pressure_shared": shared,
            "cup_count": cup.count,
        },
    }), []


def _cmd_line_loss(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    generator = build_generator(doc)
    line, upstream_velocity = build_line(doc, generator)
    total, steps, net, advisories = line_supply(line, upstream_velocity, generator)

    def human() -> str:
        lines = [f"upstream velocity : {upstream_velocity:.6g} m/s"]
        for i, step in enumerate(steps, start=1):
            lines.append(
                f"step {i}            : {step.delta_p:.6g} Pa "
                f"(v {step.upstream_velocity:.4g} -> {step.downstream_velocity:.4g} m/s)"
            )
        lines.append(f"total loss        : {total:.6g} Pa")
        lines.append(f"net supply        : {net.pressure:.6g} Pa")
        return "\n".join(lines) + "\n"

    return _render(args.format, args.command, {
        "human": human,
        "structured": lambda: {
            "upstream_velocity": upstream_velocity,
            "steps": [vars(step) for step in steps],
            "total_loss": total,
            "net_supply": net.pressure,
            "clamped": net.clamped,
        },
    }), advisories


def _cmd_plan(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    fabric = build_fabric(doc)
    circle, margin = build_vgtc(doc)
    if circle is None:
        raise ConfigError("missing section: vgtc")
    if args.margin:
        margin = _parse_cli_quantity(args.margin, "length", "--margin")
    spacing = circle.radius
    if args.spacing:
        spacing = _parse_cli_quantity(args.spacing, "length", "--spacing")
    layout, ratios = layout_stage(circle, fabric.outline, margin, spacing)

    def human() -> str:
        lines = [
            f"grid          : {layout.cols} cols x {layout.rows} rows = {layout.cols * layout.rows} grippers",
            f"spacing       : {layout.spacing:.6g} m",
            f"margin        : {layout.margin:.6g} m",
            f"min ratio     : {min(ratios):.4f}",
        ]
        xs = [f"{x:.4f}" for x in layout.xs]
        ys = [f"{y:.4f}" for y in layout.ys]
        for (y, x), ratio in zip(product(ys, xs), ratios):
            lines.append(f"  ({x}, {y}) m  effective {ratio:.4f}")
        return "\n".join(lines) + "\n"

    output = _render(args.format, args.command, {
        "human": human,
        "structured": lambda: {
            "layout": _layout_dict(layout),
            "effective_ratios": _Floats(ratios),
            "radius": circle.radius,
        },
    })
    if args.svg:  # after rendering, so a usage error writes no file
        _write_svg(args.svg, emit_layout_svg(layout, fabric.outline, circle))
    return output, []


def _cmd_calibrate(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    fabric = build_fabric(doc)
    _, margin = build_vgtc(doc)
    try:
        low_text, high_text = args.range.split(",")
    except ValueError:
        raise UsageError("--range expects 'low,high'") from None
    low = _parse_cli_quantity(low_text, "length", "--range")
    high = _parse_cli_quantity(high_text, "length", "--range")
    step = _parse_cli_quantity(args.step, "length", "--step")
    if args.margin:
        margin = _parse_cli_quantity(args.margin, "length", "--margin")
    try:  # the layout stage's grids, counted without being built
        intervals = calibrate_spacing(fabric.outline, margin, args.target_count, (low, high), step)
    except ValidationError as exc:
        raise ValidationError(LAYOUT_STAGE + str(exc)) from exc

    def human() -> str:
        if not intervals:
            return f"no spacing in range yields {args.target_count} grippers\n"
        lines = [f"spacing intervals for {args.target_count} grippers:"]
        lines.extend(f"  {a:.4f} m .. {b:.4f} m" for a, b in intervals)
        return "\n".join(lines) + "\n"

    return _render(args.format, args.command, {
        "human": human,
        "structured": lambda: {
            "target_count": args.target_count,
            "margin": margin,
            "intervals": [[a, b] for a, b in intervals],
        },
    }), []


def _cmd_check(args, doc: ConfigDocument) -> tuple[bytes, list[str]]:
    scenario = build_scenario(doc)
    report = evaluate(scenario)
    if args.svg:
        if report.layout is None or scenario.vgtc is None:
            raise UsageError("--svg needs a [vgtc] section in the config")
        _write_svg(args.svg, emit_layout_svg(report.layout, scenario.fabric.outline, scenario.vgtc))
    return emit_report(report, args.format), list(report.advisories)


def _cmd_batch(args, doc: None) -> tuple[bytes, list[str]]:
    if args.corpus:
        rows = parse_corpus_csv(_read_text(args.corpus, "corpus"))
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


def _to_devnull(stream) -> None:
    """Point a stream's descriptor at os.devnull, so that the flush at exit cannot fail either."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _write_stdout(output: bytes) -> None:
    """Write a command's UTF-8 output to stdout and flush it, before any advisory.

    The bytes go to the stream's binary buffer, whatever its encoding; a
    text-only stream (io.StringIO) gets the decoded text. A write error
    points stdout at os.devnull: if the reader has closed the pipe, the
    rest is dropped; any other error, or no stdout, raises ConfigError.
    """
    stream = sys.stdout
    if stream is None:
        raise ConfigError("cannot write output: stdout is closed")
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(output.decode("utf-8"))
        return
    try:
        stream.flush()  # text written before this goes first
        buffer.write(output)
        buffer.flush()
    except OSError as exc:
        _to_devnull(stream)
        if not isinstance(exc, BrokenPipeError):
            raise ConfigError(f"cannot write output: {exc.strerror}") from exc


def _finish(code: int, diagnostics: list[str]) -> int:
    """Print each diagnostic line to stderr and return the exit code.

    No stderr, or a write error, loses the lines but not the code or stdout.
    """
    if sys.stderr is not None:
        try:
            for line in diagnostics:
                print(line, file=sys.stderr)
        except OSError:
            _to_devnull(sys.stderr)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the command is the first token that is not an option: no top-level option takes a value
    parser = build_parser(next((arg for arg in argv if not arg.startswith("-")), None))
    try:
        args = parser.parse_args(argv)
        doc = None if args.config is None else parse_document(_read_text(args.config, "config"))
        output, advisories = args.run(args, doc)
        _write_stdout(output)
    except UsageError as exc:
        return _finish(1, [f"usage error: {exc}"])
    except (ConfigError, ValidationError, UnitError) as exc:
        return _finish(2, [f"error: {exc}"])
    return _finish(3 if advisories and getattr(args, "strict", False) else 0, [f"advisory: {a}" for a in advisories])


if __name__ == "__main__":
    sys.exit(main())
