"""Shared domain model: value types, physical constants, units, geometry.

Everything downstream (statics, pneumatics, layout planning, the CLI)
builds on the types defined here. All stored quantities are SI:
kilograms, meters, seconds, pascals, cubic meters per second. Bench
units (g, cm, kPa, bar, L/min) are converted once at the I/O boundary
via convert_units() and never appear internally.

Vacuum levels are stored as positive magnitudes of negative gauge
pressure; signed gauge values exist only in input/output text. This
keeps comparisons like "is 55 kPa of vacuum enough for a 47.1 kPa
demand" free of sign-convention bugs.

Every value type is a frozen Record that validates its invariants in
__post_init__, so an instance that exists is valid and finite (Layout's
axes too), and safe to share across threads; .replace(...) validates
again. Polygon.rectangle is the one constructor that skips it: it
validates its two lengths and stores the values __post_init__ would
store for that ring directly. Quantities are checked by require_range,
which refuses nan, counts by require_count; library functions check
arguments before converting. A derived value (an area, a polygon's
box, a layout's counts) is stored beside the fields, outside ==, hash
and repr; only Polygon.ccw_ring waits for its first read (see
Polygon), and a layout's positions are made as they are read, never
stored (see vgtc.Layout).
"""

from __future__ import annotations

import enum
import math
import sys
from functools import cached_property
from itertools import product


class ValidationError(ValueError):
    """A value violated a domain invariant at construction time; field names its attribute."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class UnitError(ValueError):
    """Unknown unit name, or a conversion across dimensions."""


# ---------------------------------------------------------------------------
# units

# unit name -> (dimension, multiplicative factor to the SI base unit)
_UNIT_TABLE: dict[str, tuple[str, float]] = {
    "g": ("mass", 1e-3),
    "kg": ("mass", 1.0),
    "mm": ("length", 1e-3),
    "cm": ("length", 1e-2),
    "m": ("length", 1.0),
    "kPa": ("pressure", 1e3),
    "Pa": ("pressure", 1.0),
    "bar": ("pressure", 1e5),
    "L/min": ("flow", 1.0 / 60_000.0),
    "m3/s": ("flow", 1.0),
}

_UNIT_ALIASES = {"m³/s": "m3/s"}

# canonical SI unit name per dimension
SI_UNIT = {"mass": "kg", "length": "m", "pressure": "Pa", "flow": "m3/s"}

_FLOAT_MAX = sys.float_info.max


# every accepted unit name, aliases included -> its (dimension, factor)
_UNITS = {**_UNIT_TABLE, **{alias: _UNIT_TABLE[unit] for alias, unit in _UNIT_ALIASES.items()}}

# (from name, to name) -> factor_from / factor_to, for every same-dimension pair
_FACTORS = {
    (a, b): factor_a / factor_b
    for (a, (dim_a, factor_a)), (b, (dim_b, factor_b)) in product(_UNITS.items(), repeat=2)
    if dim_a == dim_b
}


def _lookup_unit(name: str) -> tuple[str, float]:
    try:
        return _UNITS[name]
    except KeyError:
        raise UnitError(f"unknown unit {_echo(name)}") from None


def supported_units(dimension: str) -> tuple[str, ...]:
    """Unit names accepted for one dimension (mass, length, pressure, flow)."""
    return tuple(u for u, (dim, _) in _UNIT_TABLE.items() if dim == dimension)


def convert_units(value: float, from_unit: str, to_unit: str) -> float:
    """Convert a value between two units of the same dimension.

    Supported: mass g/kg, length mm/cm/m, pressure kPa/Pa/bar, flow
    L/min and m3/s. A pair resolves through a table built at import; its
    factor is the one the two units' SI factors give, so every result is
    value * (factor_from / factor_to), bit for bit. A name the table lacks
    raises UnitError naming it; a pair that mixes dimensions raises
    UnitError naming both units.
    """
    try:
        factor = _FACTORS[from_unit, to_unit]
    except KeyError:
        dim_from, dim_to = _lookup_unit(from_unit)[0], _lookup_unit(to_unit)[0]
        raise UnitError(
            f"cannot convert {_echo(from_unit)} ({dim_from}) to {_echo(to_unit)} ({dim_to})"
        ) from None
    return value * factor


def circular_area(diameter: float) -> float:
    """Cross-section area of a circular orifice or pipe bore.

    A square too large for a float gives inf; float ** raises instead.
    """
    try:
        return math.pi * (diameter / 2.0) ** 2
    except OverflowError:
        return math.inf


def _require(condition: bool, message: str, field: str | None = None) -> None:
    if not condition:
        raise ValidationError(message, field)


def _clip(text: str) -> str:
    """Input text for a message: its first 40 characters, and '...' if there are more."""
    return text if len(text) <= 40 else text[:40] + "..."


def _echo(value) -> str:
    """A value for a message: text clipped and repr'd, an int too big for a float as its
    bit length, anything else repr'd in at most 40 characters."""
    if isinstance(value, str):
        return repr(_clip(value))
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"an integer of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def require_range(name: str, value, low=-_FLOAT_MAX, high=_FLOAT_MAX, *, above=False):
    """Return value if it is in [low, high], or in (low, high] if above.

    Else raise ValidationError for field `name`. The default bounds, the
    largest floats, refuse ±inf, so the value must be finite; high=math.inf
    lets +inf through. An int no float holds and nan fail whatever the bounds,
    and so does a value that does not compare with numbers (a str, None, a
    complex): its TypeError is caught, so a valid value pays no type test.
    """
    try:
        if (low < value if above else low <= value) and value <= high:
            if -_FLOAT_MAX <= value <= _FLOAT_MAX or not isinstance(value, int):
                return value
            raise ValidationError(f"{name} must fit in a float, got {_echo(value)}", name)
    except TypeError:
        raise ValidationError(f"{name} must be a real number, got {_echo(value)}", name) from None
    lo = "" if low == -_FLOAT_MAX else f" and {'>' if above else '>='} {low}"
    hi = "" if high >= _FLOAT_MAX else f" and <= {high}"
    rule = ("" if high == math.inf else "finite") + lo + hi
    raise ValidationError(f"{name} must be {rule.removeprefix(' and ')}, got {_echo(value)}", name)


def require_count(name: str, value, high=_FLOAT_MAX):
    """Return value if it is an int (not a bool) in [1, high], else raise ValidationError."""
    if isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= high:
        return value
    raise ValidationError(f"{name} must be an integer from 1 to {high:.6g}, got {_echo(value)}", name)


class Record:
    """Base of the frozen value types: a subclass's fields are its own annotations, in order.

    A subclass gets a generated __init__: it stores the fields through
    object.__setattr__ (reading self.__dict__ there would stop Python 3.11
    specializing later attribute reads), class-level values as defaults,
    then calls self.__post_init__(), if any, looked up per call. _required
    names the fields without a default. Setting or deleting an attribute
    raises AttributeError; ==, hash and repr read the fields only.
    """

    def __init_subclass__(cls):
        own = vars(cls)
        cls._fields = names = tuple(own.get("__annotations__", {}))
        cls._required = tuple(name for name in names if name not in own)
        params = "".join(f", {name}" + (f"=_cls.{name}" if name in own else "") for name in names)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        scope = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self{params}):{body}{post}", scope)
        cls.__init__ = scope["__init__"]

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __setattr__ = __delattr__ = _frozen

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def replace(self, **changes):
        """A copy with `changes` applied, validated like a new instance."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


# ---------------------------------------------------------------------------
# geometry

Point = tuple[float, float]


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p: Point, q: Point, r: Point) -> bool:
    # r is known collinear with p-q; is it within the bounding box?
    return (
        min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
        and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])
    )


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """True if closed segments p1-p2 and q1-q2 share any point."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    if math.isnan(d1 + d2 + d3 + d4):  # an overflow left no sign: decide again exactly
        from fractions import Fraction
        p1, p2, q1, q2 = [(Fraction(x), Fraction(y)) for x, y in (p1, p2, q1, q2)]
        d1, d2, d3, d4 = _cross(q1, q2, p1), _cross(q1, q2, p2), _cross(p1, p2, q1), _cross(p1, p2, q2)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _ring_box(verts: tuple[Point, ...]) -> tuple[float, float, float, float] | None:
    """The bounds of four vertices whose edges alternate horizontal and vertical, else None.

    Such a ring is an axis-aligned rectangle in ring order, once its edges
    are known to have nonzero length.
    """
    if len(verts) != 4:
        return None
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = verts
    if (ay == by and bx == cx and cy == dy and dx == ax) or (
        ax == bx and by == cy and cx == dx and dy == ay
    ):
        return min(ax, bx, cx, dx), min(ay, by, cy, dy), max(ax, bx, cx, dx), max(ay, by, cy, dy)
    return None


class Polygon(Record):
    """Simple polygon in fabric-local coordinates (meters).

    Vertices may be given in either winding order; signed_area exposes
    the raw orientation, area the magnitude; both and box are stored at
    construction. ccw_ring is cached on first read: only an intersection
    that integrates reads it, and building it for every outline made
    construction measurably slower. None of the four is a field.
    Construction rejects degenerate outlines: fewer than three vertices,
    an int coordinate too large for a float, repeated consecutive points,
    an area that is zero or not finite (as any inf or nan vertex makes
    it), or self-intersection.

    box is (min x, min y, max x, max y) when the outline is exactly an
    axis-aligned rectangle in ring order: four vertices whose edges
    alternate horizontal and vertical. No tolerance: a corner off by
    1e-10 m is no box, and has box None. A box skips the sweep.

    rectangle(length, width) validates its two lengths, then stores the
    same vertices, signed_area, area and box that construction from its
    four corners would, directly: that ring needs none of the checks.

    Simplicity: edges sorted by smaller x are swept (Shamos & Hoey 1976);
    only non-adjacent pairs overlapping in x and y reach the segment test,
    near linear on star-like outlines and O(n²) in the worst case.
    """

    vertices: tuple[Point, ...]

    def __post_init__(self):
        try:
            verts = tuple((float(x), float(y)) for x, y in self.vertices)
        except OverflowError:  # an int no float holds
            raise ValidationError("vertices must be finite, got an int too large", "vertices") from None
        object.__setattr__(self, "vertices", verts)
        _require(len(verts) >= 3, "polygon needs at least 3 vertices")
        n = len(verts)
        ends = verts[1:] + verts[:1]  # edge i runs from verts[i] to ends[i]
        total = 0.0
        for p, q in zip(verts, ends):
            if p == q:
                raise ValidationError("polygon has a zero-length edge")
            total += p[0] * q[1] - q[0] * p[1]
        object.__setattr__(self, "signed_area", 0.5 * total)
        area = require_range("area", abs(self.signed_area), 0, above=True)  # an inf or nan vertex fails
        object.__setattr__(self, "area", area)
        box = _ring_box(verts)
        object.__setattr__(self, "box", box)
        if box is not None:
            return
        lo = [min(p[0], q[0]) for p, q in zip(verts, ends)]
        active: list[int] = []
        for i in sorted(range(n), key=lo.__getitem__):
            p, q, x_lo = verts[i], ends[i], lo[i]
            y_lo, y_hi = (p[1], q[1]) if p[1] <= q[1] else (q[1], p[1])
            kept = [i]
            for j in active:
                r, s = verts[j], ends[j]
                if r[0] < x_lo and s[0] < x_lo:
                    continue  # ends left of this edge and of every later one
                kept.append(j)
                if (r[1] < y_lo and s[1] < y_lo) or (r[1] > y_hi and s[1] > y_hi):
                    continue
                if abs(i - j) not in (1, n - 1) and _segments_intersect(p, q, r, s):
                    raise ValidationError("polygon must be simple (non-self-intersecting)")
            active = kept

    @classmethod
    def rectangle(cls, length: float, width: float) -> "Polygon":
        """Axis-aligned rectangle with one corner at the origin.

        Its two sides are validated, then the values __post_init__ would
        store for the ring (0, 0), (L, 0), (L, W), (0, W) are stored
        directly: the shoelace sum of that ring is 0 + L*W + L*W + 0, and
        its box is (0, 0, L, W). An area that underflows to 0 or
        overflows is refused, as area, exactly as there.
        """
        length = float(require_range("length", length, 0, above=True))
        width = float(require_range("width", width, 0, above=True))
        lw = length * width
        signed_area = 0.5 * (lw + lw)
        area = require_range("area", signed_area, 0, above=True)
        self = object.__new__(cls)
        _set = object.__setattr__
        _set(self, "vertices", ((0.0, 0.0), (length, 0.0), (length, width), (0.0, width)))
        _set(self, "signed_area", signed_area)
        _set(self, "area", area)
        _set(self, "box", (0.0, 0.0, length, width))
        return self

    @cached_property
    def ccw_ring(self) -> tuple[tuple[Point, Point], ...]:
        """The edges as (start, end) pairs, wound counter-clockwise."""
        verts = self.vertices if self.signed_area > 0 else self.vertices[::-1]
        return tuple(zip(verts, verts[1:] + verts[:1]))


# ---------------------------------------------------------------------------
# enums

class Permeability(enum.Enum):
    AIR_IMPERMEABLE = "impermeable"
    AIR_PERMEABLE = "permeable"


class LoadCase(enum.Enum):
    PLATE_LIFT = "plate_lift"
    FRICTION_LIFT = "friction_lift"


# ---------------------------------------------------------------------------
# value types

class PhysicalConstants(Record):
    """Ambient air and gravity constants used throughout."""

    gravity: float = 9.81  # m/s^2
    air_density: float = 1.204  # kg/m^3 at 101.325 kPa, 20 C

    def __post_init__(self):
        require_range("gravity", self.gravity, 0, above=True)
        require_range("air_density", self.air_density, 0, above=True)


# the one state the sizing pipeline runs at; only the energy-balance API takes another
AMBIENT = PhysicalConstants()


class FabricPiece(Record):
    """One cut fabric piece to be grasped."""

    id: str
    outline: Polygon
    mass: float  # kg
    friction_coefficient: float  # dimensionless, (0, 2]
    permeability: Permeability = Permeability.AIR_IMPERMEABLE
    material: str = ""  # recorded for the audit trail; no equation reads it

    def __post_init__(self):
        _require(isinstance(self.outline, Polygon), "outline must be a Polygon", "outline")
        require_range("mass", self.mass, 0, above=True)
        require_range("friction_coefficient", self.friction_coefficient, 0, 2, above=True)
        _require(isinstance(self.permeability, Permeability), "permeability must be a Permeability value")


class MotionProfile(Record):
    """Pick-path kinematics and the safety margin applied to forces."""

    acceleration: float = 5.0  # m/s^2
    safety_factor: float = 2.0
    load_case: LoadCase = LoadCase.FRICTION_LIFT

    def __post_init__(self):
        require_range("acceleration", self.acceleration, 0)
        require_range("safety_factor", self.safety_factor, 1)
        _require(isinstance(self.load_case, LoadCase), "load_case must be a LoadCase value")


class SuctionCup(Record):
    """A suction cup orifice and how many identical cups share the load; area is the orifice's."""

    orifice_diameter: float  # m
    count: int = 1

    def __post_init__(self):
        d = require_range("orifice_diameter", self.orifice_diameter, 0, above=True)
        area = circular_area(d)  # 0 or inf where the square underflows or overflows
        _require(0 < area < math.inf, f"orifice_diameter {d} m has an area of {area:g}", "orifice_diameter")
        object.__setattr__(self, "area", area)
        require_count("count", self.count)  # the statics divide by it as a float


class VacuumGenerator(Record):
    """Compressed-air ejector spec feeding the suction line.

    max_vacuum is the magnitude of the deepest negative gauge pressure
    the unit can hold, bounded by one atmosphere.
    """

    max_vacuum: float = 92_000.0  # Pa magnitude
    supply_flow_rate: float = 63.0 / 60_000.0  # m^3/s (63 L/min)

    def __post_init__(self):
        require_range("max_vacuum", self.max_vacuum, 0, 101_325, above=True)
        require_range("supply_flow_rate", self.supply_flow_rate, 0, above=True)


class PipeSegment(Record):
    """One hose segment of the suction line; area is its bore's."""

    inner_diameter: float  # m
    length: float = 0.0  # m, recorded; the bore-step loss model does not read it

    def __post_init__(self):
        d = require_range("inner_diameter", self.inner_diameter, 0, above=True)
        area = circular_area(d)  # 0 or inf where the square underflows or overflows
        _require(0 < area < math.inf, f"inner_diameter {d} m has a bore area of {area:g}", "inner_diameter")
        object.__setattr__(self, "area", area)
        require_range("length", self.length, 0)


class EnergyHeads(Record):
    """Pump, loss, and turbine heads in meters of fluid column."""

    pump_head: float = 0.0
    loss_head: float = 0.0
    turbine_head: float = 0.0

    def __post_init__(self):
        require_range("pump_head", self.pump_head, 0)
        require_range("loss_head", self.loss_head, 0)
        require_range("turbine_head", self.turbine_head, 0)


class FlowState(Record):
    """Pressure, speed, height, and volumetric flow at one line station."""

    pressure: float  # Pa, signed gauge
    velocity: float = 0.0  # m/s
    elevation: float = 0.0  # m
    volumetric_flow: float = 0.0  # m^3/s

    def __post_init__(self):
        require_range("pressure", self.pressure)
        require_range("velocity", self.velocity, 0)
        require_range("elevation", self.elevation)
        require_range("volumetric_flow", self.volumetric_flow, 0)


class PressureWindow(Record):
    """Calibrated grabbing window for a single fabric layer.

    p_min is the smallest vacuum magnitude that lifts one layer; p_max
    the largest before more than one layer comes up. p_max is None
    until a bench test supplies it.
    """

    p_min: float  # Pa magnitude
    p_max: float | None = None

    def __post_init__(self):
        require_range("p_min", self.p_min, 0, above=True)
        if self.p_max is not None:
            require_range("p_max", self.p_max, self.p_min)
