"""Grabbing-circle geometry, edge-pressure inflation, and grid layouts.

A calibrated grabbing circle (radius, pressure window) models the
disk over which one gripper reliably picks up one and only one fabric
layer. Where a gripper sits is the layout's choice, not the circle's:
every function that places the disk takes its center from the caller.
When the disk hangs over the fabric edge, only the part of it on the
fabric pulls; the effective ratio is that fraction of the disk area.
The minimum grabbing pressure is inflated by 1/ratio: required force
is fixed, effective area scales with the ratio, so pressure scales
inversely. The inflation law is a modeling choice, not a measured
curve; treat its outputs as conservative. effective_ratios gives the
ratio at every layout position, and the verdict, the plan listing and
the SVG shading all read those values; effective_ratio is the same
rule at one center.

The disk/polygon intersection is exact, at a tangency too. Each edge
contributes a Green's theorem term: straight pieces inside the disk
integrate as origin triangles (shoelace), pieces outside along the arc
their chord shadows (r^2/2 * wrapped angle), and an edge whose line
only touches the circle is all arc: a tangent point is never an inside
piece. Summed over a CCW boundary this gives the intersection area to
floating-point accuracy for any simple polygon, convex or not. Its
domain is a radius of at least 2^-200 m and edges of at most 2^16
radii whose squares are finite about the center: a disk that has to be
integrated outside it is refused with ValidationError, not computed.
A disk wholly on an exact box needs no integration, at any scale.

A layout is its columns and rows: the x of each column and the y of
each row, and nothing else is stored. Its positions are made row by
row as the ratio pass reads them, and the emitters format each column
and each row once. Layouts exist only for outlines that are an exact
box (Polygon.box, no tolerance): a rectangle given as vertices must
list its corners in ring order, each edge repeating one coordinate
exactly, or come from length and width. On an exact box, disk ∩ box
has an area log-concave in the disk's centre (Prékopa 1973; Saumard
and Wellner 2014) and symmetric about the box's centre, so a grid
centred in it has its smallest ratio at a corner, up to rounding. On
a real layout almost every disk lies wholly on the piece. So when
the outline's box contains the disk's bounding square, the
intersection is the disk's own area, returned without integrating,
and the ratio is the shared constant 1.0. The fast path sits inside
circle_polygon_intersection_area, not in effective_ratios, so every
caller of the intersection gets it and each layout position still
makes exactly one intersection call. effective_ratios then tells a
grid of full disks by one count in C and repeats the one 1.0, with no
Python step per position.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from math import atan2, floor, fmod, inf, isfinite, sqrt  # by bare name in the edge terms and probes: one lookup, not two

from .model import (
    Point,
    Polygon,
    PressureWindow,
    Record,
    ValidationError,
    circular_area,
    require_count,
    require_range,
)


class Vgtc(Record):
    """A grabbing circle: its radius in meters and its pressure window.

    A bench-measured circle is recorded by constructing one: the largest
    radius at which the single-gripper test still picked exactly one
    layer, with the pressure window observed while doing it. It has no
    position; the caller gives the center wherever a disk is placed.
    disk_area is computed once at construction, outside the fields.
    """

    radius: float
    pressure_window: PressureWindow

    def __post_init__(self):
        require_range("radius", self.radius, 0, above=True)
        disk_area = circular_area(2.0 * self.radius)
        if not 0 < disk_area < math.inf:
            raise ValidationError(f"radius {self.radius} m has a disk area of {disk_area:g}", "radius")
        object.__setattr__(self, "disk_area", disk_area)
        if not isinstance(self.pressure_window, PressureWindow):
            raise ValidationError("pressure_window must be a PressureWindow")


class Layout(Record):
    """A rectangular grid of gripper positions inside a margin inset.

    xs holds the finite x of each column and ys the y of each row; cols
    and rows, their lengths, are stored at construction, outside the
    fields. Nothing else is stored: iterating a layout yields every
    (x, y), row by row (all of the first row, then the next), each pair
    made in C as it is read. positions is that sequence as a tuple,
    built anew on each read.
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]
    spacing: float
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple([float(require_range("xs", x)) for x in self.xs]))
        object.__setattr__(self, "ys", tuple([float(require_range("ys", y)) for y in self.ys]))
        require_range("spacing", self.spacing, 0, above=True)
        require_range("margin", self.margin, 0)
        object.__setattr__(self, "cols", len(self.xs))
        object.__setattr__(self, "rows", len(self.ys))

    def __iter__(self) -> Iterator[Point]:
        # xs once per row, beside each y repeated once per column
        return zip(self.xs * self.rows, chain.from_iterable(map(repeat, self.ys, repeat(self.cols))))

    @property
    def positions(self) -> tuple[Point, ...]:
        return tuple(self)


# ---------------------------------------------------------------------------
# disk / polygon intersection

_TWO_PI = 2.0 * math.pi

# The domain of the integration. An edge longer than 2^16 radii
# (a > _LONG_EDGE2 * r^2) would lose its crossings: b*b and 4*a*c cancel
# in disc, so a 2e6-radius edge is 7e-12 off and past 7e7 radii the
# crossing is gone. Below _SMALL_RADIUS, disc (of the order of a*r^2)
# would underflow, and a crossing edge would read as one arc; from
# 2^-200 m up it keeps full precision for edges down to 2^-100 radii.
# Golden, shipped and bench edges are at most a few hundred radii.
_LONG_EDGE2 = 2.0**32
_SMALL_RADIUS = 2.0**-200


def _arc(ax: float, ay: float, bx: float, by: float, r2: float) -> float:
    # r^2/2 times the angle from a to b, wrapped to (-pi, pi]: a piece
    # outside the disk subtends less than pi, so the wrap picks its arc
    angle = fmod(atan2(by, bx) - atan2(ay, ax), _TWO_PI)
    if angle <= -math.pi:
        angle += _TWO_PI
    elif angle > math.pi:
        angle -= _TWO_PI
    return 0.5 * r2 * angle


def _edge_term(x1: float, y1: float, x2: float, y2: float, r: float) -> float:
    """Green's theorem contribution of one edge against the disk |p| <= r.

    The edge is x1 + t*dx, t in [0, 1]; x1 + 1.0*dx need not round to
    x2. A line that misses or only touches the circle (disc <= 0) never
    enters the disk, so the edge is one arc: a tangent point is never
    an inside piece. A line that crosses it is cut at its roots strictly
    inside (0, 1), in order; each piece whose midpoint lies in the disk
    is a triangle, each other one an arc. An edge longer than 2^16 r, or
    whose disc is not finite (a, b and c are finite only when it is),
    lies outside the domain and raises OverflowError, which
    circle_polygon_intersection_area refuses.
    """
    dx = x2 - x1
    dy = y2 - y1
    a = dx * dx + dy * dy
    if a == 0.0:
        return 0.0
    r2 = r * r
    if a > _LONG_EDGE2 * r2:
        length = math.hypot(dx, dy)
        raise OverflowError(f"an edge of {length:.4g} m is longer than 2^16 radii ({65536.0 * r:.4g} m)")
    b = 2.0 * (x1 * dx + y1 * dy)
    c = x1 * x1 + y1 * y1 - r2
    disc = b * b - 4.0 * a * c
    if not isfinite(disc):
        raise OverflowError("an edge lies too far from the center for its squares to be finite")
    ax = x1 + 0.0 * dx
    ay = y1 + 0.0 * dy
    if not disc > 0.0:
        return _arc(ax, ay, x1 + 1.0 * dx, y1 + 1.0 * dy, r2)
    sq = sqrt(disc)
    total = 0.0
    t0 = 0.0
    for t1 in ((-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a), 1.0):
        if t0 < t1 <= 1.0:
            tm = 0.5 * (t0 + t1)
            mx = x1 + tm * dx
            my = y1 + tm * dy
            bx = x1 + t1 * dx
            by = y1 + t1 * dy
            if mx * mx + my * my <= r2:
                total += 0.5 * (ax * by - ay * bx)
            else:
                total += _arc(ax, ay, bx, by, r2)
            t0, ax, ay = t1, bx, by
    return total


def circle_polygon_intersection_area(circle: Vgtc, outline: Polygon, center: Point) -> float:
    """Exact area of the grabbing disk at center clipped to the fabric outline.

    circle may be any object with a validated radius and disk_area; the
    caller gives center, a pair of floats. A disk wholly on an exact box
    returns its own area at any scale. Any other disk is integrated edge
    by edge, within the domain of a radius of at least 2^-200 m and
    edges of at most 2^16 radii whose squares are finite about the
    center; outside it, ValidationError names the radius and the limit.
    A center that is not finite, or an int center that no float holds
    (it overflows in the box test), is refused first, as center.
    """
    cx, cy = center
    r = circle.radius
    try:
        if outline.box is not None:
            x0, y0, x1, y1 = outline.box
            if x0 <= cx - r and cx + r <= x1 and y0 <= cy - r and cy + r <= y1:
                return circle.disk_area
        if r < _SMALL_RADIUS:
            raise OverflowError("a disk that is integrated needs a radius of at least 2^-200 m")
        total = 0.0
        for (x1, y1), (x2, y2) in outline.ccw_ring:
            total += _edge_term(x1 - cx, y1 - cy, x2 - cx, y2 - cy, r)
    except OverflowError as exc:
        # a center that is not finite ends here too: refused as such first
        require_range("center", cx)
        require_range("center", cy)
        message = f"radius {r:.4g} m is outside the exact intersection's domain: {exc}"
        raise ValidationError(message, "radius") from None
    cap = min(circle.disk_area, outline.area)
    if total < 1e-14 * cap:  # rounding residue of a disjoint pair
        return 0.0
    return min(total, cap)


def effective_ratio(circle: Vgtc, outline: Polygon, center: Point) -> float:
    """Fraction of the grabbing disk at center on the fabric, in [0, 1]: the intersection is at most disk_area.

    circle may be any object with a validated radius and disk_area; the
    caller gives center. This is effective_ratios at one position, so
    the ratio rule lives in one place: a full disk's ratio is the one
    shared constant 1.0, the value disk_area / disk_area has.
    """
    return effective_ratios(circle, outline, (center,))[0]


def effective_ratios(circle: Vgtc, outline: Polygon, positions: Iterable[Point]) -> tuple[float, ...]:
    """Fraction of the circle's disk on the fabric at each position, in order.

    The caller gives the centers: positions are pairs of floats, such
    as a Layout yields them, each passed as it stands to
    circle_polygon_intersection_area. The intersection is looked up once
    per call through the module global, so a replaced one sees every
    position, and map makes its calls in C, one per position, in order.
    A full disk's ratio is the shared constant 1.0, so a grid of full
    disks holds one float, not one per position. When every area is
    disk_area (a count made in C, which finds the full disks' shared
    area object by identity), the ratios are that one 1.0 repeated, with
    no Python step per position; else each area takes the rule below.
    """
    disk_area = circle.disk_area
    areas = list(map(circle_polygon_intersection_area, repeat(circle), repeat(outline), positions))
    if areas.count(disk_area) == len(areas):
        return (1.0,) * len(areas)
    return tuple([1.0 if a == disk_area else a / disk_area for a in areas])


def adjusted_min_pressure(window: PressureWindow, ratio: float) -> float:
    """Minimum grabbing pressure inflated for a partially overhanging disk."""
    return window.p_min / require_range("ratio", ratio, 0, 1, above=True)


# ---------------------------------------------------------------------------
# grid layouts

# lengths this close count as equal (grid counts, usable-span slack); meters
BOUNDARY_TOL = 1e-9

# Largest grid generate_layout builds: 35x the 28,959 positions of a
# 2 x 1.5 m piece at 1 cm, far below what a sizing run needs. A layout
# stores only its axes, so the cap bounds the work of a ratio pass and
# the ratios it returns: a mistyped spacing fails at once instead of
# running for seconds and filling memory with one ratio per position.
MAX_LAYOUT_POSITIONS = 10**6

# Most scan samples calibrate_spacing accepts: past 2**53 the sample index
# no longer converts exactly to a float.
MAX_CALIBRATION_SAMPLES = 2**53


def _axis_count(usable: float, spacing: float) -> int | float:
    # the tolerance keeps exact multiples (0.22 / 0.044) from rounding down;
    # a quotient that overflows counts as unboundedly many positions
    q = (usable + BOUNDARY_TOL) / spacing
    return math.floor(q) + 1 if q < math.inf else math.inf


def _axis_positions(low: float, usable: float, spacing: float, count: int) -> list[float]:
    span = (count - 1) * spacing
    start = low + 0.5 * (usable - span)
    return [start + i * spacing for i in range(count)]


class _NoUsableArea(ValidationError):
    """The margin leaves no usable area inside the outline."""


def _usable_span(outline: Polygon, margin: float) -> tuple[float, float]:
    """Length and width of the margin-shrunk rectangle a grid may fill.

    Raises ValidationError for a margin not finite and >= 0 or an outline
    with no exact box (Polygon.box), and _NoUsableArea for a margin that
    leaves no usable area; none of these depends on the grid spacing.
    """
    require_range("margin", margin, 0)
    if outline.box is None:
        raise ValidationError("layout generation needs an axis-aligned rectangular outline")
    x0, y0, x1, y1 = outline.box
    usable_l = (x1 - x0) - 2.0 * margin
    usable_w = (y1 - y0) - 2.0 * margin
    if usable_l < -BOUNDARY_TOL or usable_w < -BOUNDARY_TOL:
        raise _NoUsableArea(
            f"margin {margin} m too large: no usable area inside a "
            f"{x1 - x0:.4g} x {y1 - y0:.4g} m outline"
        )
    return max(usable_l, 0.0), max(usable_w, 0.0)


def generate_layout(outline: Polygon, margin: float, spacing: float) -> Layout:
    """Axis-aligned gripper grid over the margin-shrunk rectangle.

    Per axis the grid holds floor(usable/spacing) + 1 positions at the
    exact requested pitch, centered in the usable span; when usable is
    an exact multiple of spacing the end positions land on the inset
    boundary. A dimension shorter than the spacing degenerates to a
    single centered row or column.

    Only outlines with an exact box (Polygon.box) are supported. A grid
    of more than MAX_LAYOUT_POSITIONS positions is rejected before its
    axes are built; the layout stores only those axes.
    """
    require_range("spacing", spacing, 0, above=True)
    usable_l, usable_w = _usable_span(outline, margin)
    cols = _axis_count(usable_l, spacing)
    rows = _axis_count(usable_w, spacing)
    if cols * rows > MAX_LAYOUT_POSITIONS:
        raise ValidationError(
            f"spacing {spacing:.3g} m too small: {cols:.4g} x {rows:.4g} positions exceed "
            f"the {MAX_LAYOUT_POSITIONS} a layout may hold"
        )
    x0, y0, _, _ = outline.box
    xs = _axis_positions(x0 + margin, usable_l, spacing, cols)
    ys = _axis_positions(y0 + margin, usable_w, spacing, rows)
    return Layout(xs=xs, ys=ys, spacing=spacing, margin=margin)


def calibrate_spacing(
    outline: Polygon,
    margin: float,
    target_count: int,
    search_range: tuple[float, float],
    step: float,
) -> list[tuple[float, float]]:
    """Spacing sub-intervals whose grid holds exactly target_count grippers.

    The candidates are the samples s_k = low + k*step, k >= 1, that lie
    below high - 1e-12 in the open range (low, high); the step sets the
    resolution of the answer. The grid at s_k holds
    _axis_count(usable_l, s_k) * _axis_count(usable_w, s_k) grippers,
    exactly as generate_layout would build it.

    s_k never decreases as k grows, and each axis count never increases
    as the spacing grows, so the count never increases along the
    samples: the matching samples form one contiguous run. A sample at
    or past high - 1e-12 counts 0 grippers, which keeps that order and
    matches no target, so the bisections run over k from 1 to
    ceil(n + 2*ulp(high)/step) + 1, n = (high - low) / step: the last k
    is past the range, and no search for the end of the samples is
    made. Each probe is one call that returns minus the count, so
    bisect_left finds the first sample with count <= target_count
    directly. If its count is not the target, no sample matches: an
    unmatched target costs that one bisection plus one probe. Else a
    second bisection, from the next sample on, finds the first with
    count < target_count. A call makes at most two bisections of
    O(log(samples)) probes, and builds no layout. The result is
    [(first, last)] of the run, or [] when no sample matches -- a valid
    answer: no spacing in range reproduces the target. A margin that
    leaves no usable area fits no grid at any spacing, so it also
    yields [].

    Raises ValidationError for a target_count that is no integer from 1
    to the largest float, a negative or non-finite margin, an outline
    with no exact box (Polygon.box), a range that is not
    0 <= low < high with a finite high, a step that is not finite and
    positive, or more than MAX_CALIBRATION_SAMPLES samples in range.
    """
    require_count("target_count", target_count)
    low = float(require_range("search_range", search_range[0], 0))
    high = float(require_range("search_range", search_range[1], low, above=True))
    require_range("step", step, 0, above=True)
    n = (high - low) / step
    if n > MAX_CALIBRATION_SAMPLES:
        raise ValidationError(f"step {step:.3g} m too small: {n:.3g} samples in range exceed 2**53")
    try:
        usable_l, usable_w = _usable_span(outline, margin)
    except _NoUsableArea:
        return []

    span_l, span_w = usable_l + BOUNDARY_TOL, usable_w + BOUNDARY_TOL
    cutoff = high - 1e-12

    def minus_count(k: int) -> int | float:
        # minus the grid count at s_k, each axis by _axis_count's own expression
        s = low + k * step
        if s >= cutoff:
            return 0
        q, r = span_l / s, span_w / s
        return -((floor(q) + 1 if q < inf else inf) * (floor(r) + 1 if r < inf else inf))

    # the last index is past the cutoff; split this way, no term overflows
    samples = range(1, math.ceil(n + 2.0 * (math.ulp(high) / step)) + 2)
    first = bisect_left(samples, -target_count, key=minus_count)
    if minus_count(samples[first]) != -target_count:
        return []
    stop = bisect_left(samples, 1 - target_count, first + 1, key=minus_count)
    return [(low + samples[first] * step, low + samples[stop - 1] * step)]
