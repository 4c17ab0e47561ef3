"""Independent correctness oracles.

Nothing here imports vacgrab. Every expected value is recomputed from
the generator's specs by closed form or quadrature, and program results
are read only through their attributes or their emitted bytes. Each
`check_*` function returns a list of problems; an empty list means the
output is correct. The oracles run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

GRAVITY = 9.81  # m/s^2
AIR_DENSITY = 1.204  # kg/m^3
GRID_TOL = 1e-9  # m, the grid rule's tolerance
CORPUS_MASS = {"pocket bag": 2.5e-3, "pocket facing": 2.0e-3}  # kg by application
CORPUS_FRICTION = 0.5
CORPUS_ORIFICE = 2e-3  # m
CORPUS_MOTION = (5.0, 2.0)  # acceleration m/s^2, safety factor

REL = 1e-9  # closed forms against the program's arithmetic
FULL_DISK_TOL = 1e-12  # ratio of a disk wholly on the piece
QUADRATURE_TOL = 1e-6  # ratio of a clipped disk against quadrature
TANGENT_BAND = 1e-6  # m; disks this close to tangency may shade either way
EDGE_SAMPLES = 6


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def rectangle(length: float, width: float) -> tuple[tuple[float, float], ...]:
    return ((0.0, 0.0), (length, 0.0), (length, width), (0.0, width))


def shoelace(vertices) -> float:
    n = len(vertices)
    return 0.5 * abs(sum(
        vertices[i][0] * vertices[(i + 1) % n][1] - vertices[(i + 1) % n][0] * vertices[i][1]
        for i in range(n)
    ))


def is_simple(vertices) -> bool:
    """Brute-force check that no two non-adjacent edges meet."""
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]

    def orient(o, a, b):
        v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        return (v > 0) - (v < 0)

    def meet(p1, p2, q1, q2):
        o = (orient(q1, q2, p1), orient(q1, q2, p2), orient(p1, p2, q1), orient(p1, p2, q2))
        return o[0] * o[1] <= 0 and o[2] * o[3] <= 0 and any(o)

    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if meet(*edges[i], *edges[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# statics and pneumatics by closed form

def holding_force(mass: float, friction: float, acceleration: float, safety: float) -> float:
    return mass / friction * (GRAVITY + acceleration) * safety


def required_pressure(force: float, orifice_diameter: float) -> float:
    return force / (math.pi * (orifice_diameter / 2.0) ** 2)


def line_loss(diameters, velocity: float) -> float:
    """Summed constriction drop rho/2 v1^2 ((A1/A2)^2 - 1) over the bore steps."""
    drops = []
    for d1, d2 in zip(diameters, diameters[1:]):
        ratio = (d1 / d2) ** 2
        drops.append(0.5 * AIR_DENSITY * velocity * velocity * (ratio * ratio - 1.0))
        velocity *= ratio
    return math.fsum(drops)


# ---------------------------------------------------------------------------
# grid layouts and calibration

def grid_count(usable: float, spacing: float) -> int:
    return int(math.floor((usable + GRID_TOL) / spacing)) + 1


def grid_axes(length: float, width: float, margin: float, spacing: float):
    """Per-axis position lists of the centred grid, or None if the margin leaves no room."""
    axes = []
    for side in (length, width):
        usable = (side - 0.0) - 2.0 * margin
        if usable < -GRID_TOL:
            return None
        usable = max(usable, 0.0)
        n = grid_count(usable, spacing)
        start = margin + 0.5 * (usable - (n - 1) * spacing)
        axes.append([start + i * spacing for i in range(n)])
    return axes


def scan(low: float, high: float, step: float) -> list[float]:
    """The spacings calibrate_spacing visits in the open range (low, high)."""
    samples = []
    k = 1
    while True:
        s = low + k * step
        if s >= high - 1e-12:
            return samples
        samples.append(s)
        k += 1


def calibrate_samples(spec) -> list[float]:
    return scan(spec.low_m, spec.high_m, spec.step_m)


def calibrate_counts(spec) -> list[int]:
    """Grid size at every scanned spacing; -1 where the margin leaves no room."""
    counts = []
    for s in calibrate_samples(spec):
        axes = grid_axes(spec.length_m, spec.width_m, spec.margin_m, s)
        counts.append(-1 if axes is None else len(axes[0]) * len(axes[1]))
    return counts


def calibrate_intervals(spec) -> list[tuple[float, float]]:
    intervals = []
    run = None
    for s, count in zip(calibrate_samples(spec), calibrate_counts(spec)):
        if count == spec.target:
            run = (run[0], s) if run else (s, s)
        elif run:
            intervals.append(run)
            run = None
    if run:
        intervals.append(run)
    return intervals


def check_calibration(spec, intervals) -> list[str]:
    expected = calibrate_intervals(spec)
    got = [tuple(pair) for pair in intervals]
    if got != expected:
        return [f"calibrate target {spec.target}: intervals {got[:3]} != {expected[:3]}"]
    return []


# ---------------------------------------------------------------------------
# disk / rectangle overlap by quadrature

def _simpson(f, a: float, b: float, panels: int = 128) -> float:
    h = (b - a) / panels
    total = f(a) + f(b)
    for i in range(1, panels):
        total += (4.0 if i % 2 else 2.0) * f(a + i * h)
    return total * h / 3.0


def disk_rect_ratio(cx: float, cy: float, r: float, x0: float, y0: float, x1: float, y1: float) -> float:
    """Share of the disk inside the rectangle, as a 1-D quadrature of clipped chords.

    With x = cx + r sin(t) the chord at x has half-length r cos(t). The
    angles where the chord meets an edge of the rectangle split the
    range into pieces; each piece lies wholly on or off the rectangle in
    x and is smooth, so Simpson's rule integrates it to high accuracy.
    """
    def clipped(t: float) -> float:
        h = r * math.cos(t)
        return max(min(cy + h, y1) - max(cy - h, y0), 0.0) * h

    cuts = {-0.5 * math.pi, 0.5 * math.pi}
    for xe in (x0, x1):
        s = (xe - cx) / r
        if -1.0 < s < 1.0:
            cuts.add(math.asin(s))
    for ye in (y0, y1):
        c = abs(ye - cy) / r
        if c < 1.0:
            cuts.update((math.acos(c), -math.acos(c)))
    pts = sorted(cuts)
    area = sum(
        _simpson(clipped, a, b)
        for a, b in zip(pts, pts[1:])
        if x0 <= cx + r * math.sin(0.5 * (a + b)) <= x1  # pieces off the rectangle add nothing
    )
    return area / (math.pi * r * r)


# ---------------------------------------------------------------------------
# reports

def _expected_rig(spec) -> dict:
    force = holding_force(spec.mass_kg, spec.friction, spec.acceleration, spec.safety_factor)
    loss = max(line_loss(spec.diameters_m, spec.upstream_velocity), 0.0)
    return {
        "holding_force": force,
        "required_pressure_single_cup": required_pressure(force, spec.orifice_m),
        "line_loss": loss,
        "net_supply": max(0.0, spec.max_vacuum_pa - loss),
    }


def _verdict_problem(net: float, demand: float, verdict: str) -> list[str]:
    if abs(net - demand) <= REL * demand:
        return []  # a tie within rounding may go either way
    expected = "Pass" if net >= demand else "Fail"
    if verdict != expected:
        return [f"verdict {verdict}, expected {expected} (net {net:.6g} Pa, demand {demand:.6g} Pa)"]
    return []


def _classify(pos, r: float, x1: float, y1: float) -> float:
    """Signed clearance of the disk from the rectangle edges (m); > 0 means wholly inside."""
    x, y = pos
    return min(x, x1 - x, y, y1 - y) - r


def check_rig_report(spec, report) -> list[str]:
    """Statics, pneumatics, layout, ratios and verdict of one evaluated config."""
    problems = []
    expected = _expected_rig(spec)
    for name, value in expected.items():
        got = getattr(report, name)
        if not (close(got, value) or abs(got - value) <= 1e-9):
            problems.append(f"{name} {got!r} != closed form {value!r}")
    if report.gripper_count != spec.cup_count:
        problems.append(f"gripper_count {report.gripper_count} != {spec.cup_count}")
    demand = expected["required_pressure_single_cup"]
    if spec.radius_m is None:
        if report.layout is not None or report.effective_ratios:
            problems.append("layout reported without a grabbing circle")
        return problems + _verdict_problem(expected["net_supply"], demand, report.verdict.value)

    r = spec.radius_m
    length, width = spec.outline_m[2]
    axes = grid_axes(length, width, spec.margin_m, r)
    layout = report.layout
    if axes is None or layout is None:
        return problems + ["layout missing"]
    xs, ys = axes
    if (layout.cols, layout.rows) != (len(xs), len(ys)):
        problems.append(f"grid {layout.cols}x{layout.rows}, expected {len(xs)}x{len(ys)}")
    positions = [(x, y) for y in ys for x in xs]
    ratios = report.effective_ratios
    if len(layout.positions) != len(positions) or len(ratios) != len(positions):
        return problems + [
            f"{len(layout.positions)} positions and {len(ratios)} ratios, expected {len(positions)}"
        ]
    edge = []
    for i, (want, got, ratio) in enumerate(zip(positions, layout.positions, ratios)):
        if abs(want[0] - got[0]) > 1e-12 or abs(want[1] - got[1]) > 1e-12:
            problems.append(f"position {i} at {got}, expected {want}")
            break
        clearance = _classify(want, r, length, width)
        if clearance > TANGENT_BAND:
            if abs(ratio - 1.0) > FULL_DISK_TOL:
                problems.append(f"full disk at position {i} has ratio {ratio!r}")
                break
        else:
            edge.append(i)
    sample_rng = random.Random(spec.text)
    sample = sorted(set([0] + sample_rng.sample(edge, min(EDGE_SAMPLES, len(edge)))))
    quad = {}
    for i in sample:
        quad[i] = disk_rect_ratio(*positions[i], r, 0.0, 0.0, length, width)
        if abs(ratios[i] - quad[i]) > QUADRATURE_TOL:
            problems.append(f"position {i} ratio {ratios[i]!r}, quadrature {quad[i]!r}")
    # the corner disk has the smallest overlap on a centred grid
    if quad[0] > 0.0:
        demand = max(demand, spec.p_min_pa / quad[0])
    return problems + _verdict_problem(expected["net_supply"], demand, report.verdict.value)


def check_report_json(report, data: bytes) -> list[str]:
    """Structured emission of a report carries the report's own values."""
    doc = json.loads(data)
    problems = []
    if doc["verdict"] != report.verdict.value:
        problems.append(f"JSON verdict {doc['verdict']} != {report.verdict.value}")
    if doc["effective_ratios"] != list(report.effective_ratios):
        problems.append("JSON effective_ratios differ from the report")
    if doc["holding_force"] != report.holding_force:
        problems.append("JSON holding_force differs from the report")
    return problems


def check_svg(spec, data: bytes) -> list[str]:
    """Ring and dot per position; a shade on each disk that leaves the piece."""
    length, width = spec.outline_m[2]
    xs, ys = grid_axes(length, width, spec.margin_m, spec.radius_m)
    clear_out = near = 0
    for y in ys:
        for x in xs:
            c = _classify((x, y), spec.radius_m, length, width)
            if c < -TANGENT_BAND:
                clear_out += 1
            elif c <= TANGENT_BAND:
                near += 1
    n = len(xs) * len(ys)
    rings = data.count(b'class="vgtc-ring"')
    dots = data.count(b'class="grip-dot"')
    shades = data.count(b'class="effective-shade"')
    problems = []
    if rings != n or dots != n:
        problems.append(f"SVG has {rings} rings and {dots} dots for {n} positions")
    if not clear_out <= shades <= clear_out + near:
        problems.append(f"SVG shades {shades} disks, expected {clear_out} (+{near} near tangent)")
    if not data.rstrip().endswith(b"</svg>"):
        problems.append("SVG not closed")
    return problems


def check_outline_area(spec, area: float) -> list[str]:
    want = shoelace(spec.outline_m)
    return [] if close(area, want) else [f"outline area {area!r} != shoelace {want!r}"]


# ---------------------------------------------------------------------------
# corpus batches

def expected_corpus_row(row) -> dict | None:
    """Closed-form report values of one corpus row; None for an unknown application."""
    mass = CORPUS_MASS.get(row.application.strip().casefold())
    if mass is None:
        return None
    force = holding_force(mass, CORPUS_FRICTION, *CORPUS_MOTION)
    demand = required_pressure(force, CORPUS_ORIFICE)
    return {
        "holding_force": force,
        "required_pressure_single_cup": demand,
        "required_pressure_shared": required_pressure(force / row.grippers, CORPUS_ORIFICE),
        "line_loss": 0.0,
        "net_supply": row.supply_pa,
        "verdict": "Pass" if row.supply_pa >= demand else "Fail",
    }


def check_corpus_report(row, report) -> list[str]:
    expected = expected_corpus_row(row)
    problems = []
    for name, value in expected.items():
        got = getattr(report, name)
        got = got.value if name == "verdict" else got
        if got != value and not (isinstance(value, float) and close(got, value)):
            problems.append(f"lot {row.lot}: {name} {got!r} != {value!r}")
    if report.gripper_count != row.grippers:
        problems.append(f"lot {row.lot}: gripper_count {report.gripper_count} != {row.grippers}")
    return problems


def check_corpus_entries(rows, entries) -> list[str]:
    if len(entries) != len(rows):
        return [f"{len(entries)} entries for {len(rows)} rows"]
    problems = []
    for i, (row, entry) in enumerate(zip(rows, entries)):
        if entry.index != i or entry.label != row.lot:
            problems.append(f"entry {i} labelled {entry.label!r}, expected {row.lot!r}")
        elif expected_corpus_row(row) is None:
            if entry.report is not None or not entry.error:
                problems.append(f"lot {row.lot}: unknown application did not become an error entry")
        elif entry.report is None:
            problems.append(f"lot {row.lot}: unexpected error {entry.error!r}")
        else:
            problems += check_corpus_report(row, entry.report)
    return problems


def check_corpus_output(rows, fmt: str, data: bytes) -> list[str]:
    """The emitted batch, in any format, carries one correct line per row."""
    text = data.decode("utf-8")
    expected = [expected_corpus_row(row) for row in rows]
    problems = []
    if fmt == "structured":
        doc = json.loads(text)
        if len(doc) != len(rows):
            return [f"{len(doc)} JSON entries for {len(rows)} rows"]
        for row, want, entry in zip(rows, expected, doc):
            if want is None:
                ok = entry["report"] is None and entry["error"]
            else:
                rep = entry["report"]
                ok = (
                    rep is not None
                    and rep["verdict"] == want["verdict"]
                    and close(rep["holding_force"], want["holding_force"])
                    and close(rep["net_supply"], want["net_supply"])
                )
            if entry["label"] != row.lot or not ok:
                problems.append(f"lot {row.lot}: JSON entry {entry!r:.120}")
    elif fmt == "csv":
        records = list(csv.reader(io.StringIO(text)))
        if len(records) != len(rows) + 1:
            return [f"{len(records) - 1} CSV rows for {len(rows)} corpus rows"]
        for row, want, rec in zip(rows, expected, records[1:]):
            if want is None:
                ok = rec[0] == row.lot and rec[-1].startswith("error: ")
            else:
                ok = rec[-1] == want["verdict"] and close(float(rec[1]), want["holding_force"], 1e-5)
            if not ok:
                problems.append(f"lot {row.lot}: CSV row {rec!r:.120}")
    else:
        lines = text.splitlines()
        if len(lines) != len(rows):
            return [f"{len(lines)} lines for {len(rows)} corpus rows"]
        for row, want, line in zip(rows, expected, lines):
            label = line.split(maxsplit=1)[0]
            tail = "error:" if want is None else want["verdict"]
            ok = label == row.lot and (tail in line if want is None else line.endswith(" " + tail))
            if not ok:
                problems.append(f"lot {row.lot}: line {line!r:.120}")
    return problems


# ---------------------------------------------------------------------------
# command-line invocations

def check_invocation(inv, code: int, stdout: str, stderr: str, verdicts=None) -> list[str]:
    """Exit code, no traceback, parseable structured output, verdicts as in-process."""
    problems = []
    if code != inv.expected_code:
        problems.append(f"{' '.join(inv.argv)}: exit {code}, expected {inv.expected_code}")
    if "Traceback" in stderr:
        problems.append(f"{' '.join(inv.argv)}: traceback on stderr")
    if code == 0 and "structured" in inv.argv:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return problems + [f"{' '.join(inv.argv)}: structured output is not JSON"]
        if inv.verdict_of is not None:
            if isinstance(doc, list):
                got = [e["report"]["verdict"] if e["report"] else None for e in doc]
            else:
                got = doc["verdict"]
            if got != verdicts:
                problems.append(f"{' '.join(inv.argv)}: verdicts {got!r:.80} != in-process {verdicts!r:.80}")
    elif code == 0 and not stdout:
        problems.append(f"{' '.join(inv.argv)}: empty output")
    return problems
