import math
import random
import sys
import tracemalloc
from bisect import bisect_left

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vacgrab import vgtc
from vacgrab import (
    Layout,
    Polygon,
    PressureWindow,
    ValidationError,
    Vgtc,
    adjusted_min_pressure,
    calibrate_spacing,
    circle_polygon_intersection_area,
    effective_ratio,
    effective_ratios,
    generate_layout,
)

from oracles import (
    GRID_TOL,
    disk_rect_area,
    grid_count,
    grid_spacing_runs,
    mc_disk_rect_area,
    scan_matching_spacings,
)

WINDOW = PressureWindow(p_min=37_561.0)


def circle(r):
    return Vgtc(radius=r, pressure_window=WINDOW)


# ---------------------------------------------------------------------------
# disk / polygon intersection

def test_interior_circle_full_disk():
    rect = Polygon.rectangle(1.0, 0.5)
    area = circle_polygon_intersection_area(circle(0.1), rect, (0.5, 0.25))
    assert area == pytest.approx(math.pi * 0.01, rel=1e-9)


def test_edge_centered_half_disk():
    rect = Polygon.rectangle(1.0, 0.5)
    area = circle_polygon_intersection_area(circle(0.1), rect, (0.5, 0.0))
    assert area == pytest.approx(math.pi * 0.01 / 2, rel=1e-9)


def test_corner_centered_quarter_disk():
    rect = Polygon.rectangle(1.0, 0.5)
    area = circle_polygon_intersection_area(circle(0.1), rect, (0.0, 0.0))
    assert area == pytest.approx(math.pi * 0.01 / 4, rel=1e-9)


def test_huge_radius_with_an_inf_disk_area_is_refused():
    # float ** raises OverflowError where the square is simply too large; the
    # inf area it stands for is refused, as an area of 0 is
    with pytest.raises(ValidationError, match="radius 1e\\+300 m has a disk area of inf"):
        circle(1e300)


def test_disjoint_is_zero():
    rect = Polygon.rectangle(1.0, 0.5)
    assert circle_polygon_intersection_area(circle(0.2), rect, (3.0, 3.0)) == 0.0


def test_disk_containing_polygon_returns_polygon_area():
    rect = Polygon.rectangle(0.3, 0.2)
    area = circle_polygon_intersection_area(circle(5.0), rect, (0.15, 0.1))
    assert area == pytest.approx(0.06, rel=1e-12)


def test_winding_order_does_not_matter():
    ccw = Polygon.rectangle(1.0, 0.5)
    cw = Polygon(tuple(reversed(ccw.vertices)))
    c = circle(0.2)
    assert circle_polygon_intersection_area(c, ccw, (0.15, 0.1)) == pytest.approx(
        circle_polygon_intersection_area(c, cw, (0.15, 0.1)), rel=1e-12
    )


def test_nonconvex_outline():
    # L-shaped piece; disk sits in the notch corner
    ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    # the notch corner exposes three quadrants of the disk
    assert circle_polygon_intersection_area(circle(0.2), ell, (1.0, 1.0)) == pytest.approx(
        0.75 * math.pi * 0.04, rel=1e-9
    )


def test_area_against_monte_carlo_spot_checks():
    rect = Polygon.rectangle(1.2, 0.7)
    cases = [(0.3, 0.2, 0.25), (1.15, 0.68, 0.2), (-0.05, 0.35, 0.3), (0.6, 0.35, 0.05)]
    for i, (cx, cy, r) in enumerate(cases):
        analytic = circle_polygon_intersection_area(circle(r), rect, (cx, cy))
        mc, se = mc_disk_rect_area(cx, cy, r, 1.2, 0.7, n=200_000, seed=100 + i)
        assert abs(analytic - mc) <= 3 * se + 1e-9


@given(
    cx=st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    cy=st.floats(min_value=-0.5, max_value=1.0, allow_nan=False),
    r=st.floats(min_value=0.01, max_value=0.8, allow_nan=False),
)
def test_intersection_bounds(cx, cy, r):
    rect = Polygon.rectangle(1.0, 0.5)
    c = circle(r)
    area = circle_polygon_intersection_area(c, rect, (cx, cy))
    assert 0.0 <= area <= min(c.disk_area, rect.area) + 1e-15


@settings(max_examples=60)
# tangent to the bottom edge at its midpoint, overhanging the top
@example(cx=0.5, cy=0.375, r=0.375, angle=1.0, tx=0.0, ty=0.0)
@given(
    cx=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    cy=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    r=st.floats(min_value=0.02, max_value=0.4, allow_nan=False),
    angle=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    tx=st.floats(min_value=-3, max_value=3, allow_nan=False),
    ty=st.floats(min_value=-3, max_value=3, allow_nan=False),
)
def test_effective_ratio_rigid_motion_invariant(cx, cy, r, angle, tx, ty):
    rect = Polygon.rectangle(1.0, 0.5)
    base = effective_ratio(circle(r), rect, (cx, cy))

    cos_a, sin_a = math.cos(angle), math.sin(angle)

    def move(p):
        x, y = p
        return (x * cos_a - y * sin_a + tx, x * sin_a + y * cos_a + ty)

    moved_rect = Polygon(tuple(move(v) for v in rect.vertices))
    moved = effective_ratio(circle(r), moved_rect, move((cx, cy)))
    assert moved == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_area_monotone_along_outward_ray():
    rect = Polygon.rectangle(1.0, 0.5)
    direction = (math.cos(0.4), math.sin(0.4))
    start = (0.5, 0.25)
    prev = math.inf
    for k in range(60):
        t = k * 0.02
        centre = (start[0] + t * direction[0], start[1] + t * direction[1])
        area = circle_polygon_intersection_area(circle(0.15), rect, centre)
        assert area <= prev + 1e-12
        prev = area


# ---------------------------------------------------------------------------
# degenerate rigs against the closed form: dyadic boxes, radii and
# centres, so that every tangency below is exact in floats

DYADIC_BOXES = [(0.0, 0.0, 1.0, 0.5), (0.25, -0.125, 0.75, 0.375), (-1.0, 2.0, -0.25, 2.375)]


def assert_matches_closed_form(box, r, centres):
    x0, y0, x1, y1 = box
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    disk_area = circle(r).disk_area
    ratios = effective_ratios(circle(r), outline, tuple(centres))
    for (cx, cy), ratio in zip(centres, ratios):
        expected = disk_rect_area(cx, cy, r, x0, y0, x1, y1) / disk_area
        assert ratio == pytest.approx(expected, rel=0, abs=1e-12), (box, r, cx, cy)


def edge_rig_centres(box, r):
    # the x and y of: a side's line -r and +r (tangent from outside and
    # inside), the side itself (centre on an edge or a corner) and the
    # middle (tangent at an edge's midpoint); with a radius of half a side
    # the middle is also tangent to both sides
    x0, y0, x1, y1 = box
    xs = (x0 - r, x0, x0 + r, 0.5 * (x0 + x1), x1 - r, x1, x1 + r)
    ys = (y0 - r, y0, y0 + r, 0.5 * (y0 + y1), y1 - r, y1, y1 + r)
    return [(cx, cy) for cx in xs for cy in ys]


@pytest.mark.parametrize("box", DYADIC_BOXES)
def test_ratios_match_the_closed_form_at_tangencies_edges_and_corners(box):
    x0, y0, x1, y1 = box
    for r in (0.0625, 0.25, 0.375, 0.5 * (x1 - x0), 0.5 * (y1 - y0)):
        assert_matches_closed_form(box, r, edge_rig_centres(box, r))


@pytest.mark.parametrize("box", DYADIC_BOXES)
@pytest.mark.parametrize("r", [0.0625, 0.125, 0.1875])
def test_layout_ratios_match_the_closed_form_at_margin_zero_and_r(box, r):
    x0, y0, x1, y1 = box
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    for margin in (0.0, r):
        assert_matches_closed_form(box, r, generate_layout(outline, margin, r).positions)


def test_layout_ratios_match_the_closed_form_where_rounding_meets_a_tangency():
    # 22 x 10 cm, 55 mm radius, 28 mm margin: the disk at (0.165, 0.05)
    # touches the right edge at its midpoint, and its midpoint rounds to
    # just inside the circle
    outline = Polygon.rectangle(0.22, 0.10)
    positions = generate_layout(outline, 0.028, 0.055).positions
    assert (0.165, 0.05) in positions
    assert_matches_closed_form((0.0, 0.0, 0.22, 0.10), 0.055, positions)


# ---------------------------------------------------------------------------
# the domain of the exact intersection: a radius of at least 2^-200 m and
# edges of at most 2^16 radii whose squares are finite about the centre;
# a disk that has to be integrated outside it is refused, never summed

REFUSED = r"^radius .* m is outside the exact intersection's domain: "


def assert_refused(r, outline, centre):
    for call in (circle_polygon_intersection_area, effective_ratio):
        with pytest.raises(ValidationError, match=REFUSED) as err:
            call(circle(r), outline, centre)
        assert err.value.field == "radius"
        assert f"radius {r:.4g} m" in str(err.value)


@pytest.mark.parametrize(
    "centre, r, outline",
    [
        # a 3e154 x 1 m box: its long edges square to more than the largest float
        ((1.5e154, 0.5), 1.0, Polygon.rectangle(3e154, 1.0)),
        # a 2e155 m triangle whose apex is 1e-100 above the centre
        ((0.0, 0.0), 1.0, Polygon(((-1e155, -0.5), (1e155, -0.5), (0.0, 1e-100)))),
        # a base whose dx itself overflows
        ((0.0, 0.0), 1.0, Polygon(((-1e308, -0.5), (1e308, -0.5), (0.0, 1e-300)))),
        # the same strip at radius 1e-150
        ((0.0, 0.0), 1e-150, Polygon(((-1e308, -0.5e-150), (1e308, -0.5e-150), (0.0, 1e-300)))),
    ],
    ids=["box-3e154", "triangle-2e155", "base-dx-overflows", "base-dx-overflows-tiny-r"],
)
def test_edges_whose_squares_overflow_are_refused(centre, r, outline):
    assert_refused(r, outline, centre)


def rect_ratio(cx, cy, r, x0, y0, x1, y1):
    return disk_rect_area(cx, cy, r, x0, y0, x1, y1) / circle(r).disk_area


@pytest.mark.parametrize(
    "centre, r, box",
    [
        # a 2e8 x 1 m box: disc of its long edges would cancel to 0
        ((1e8, 0.5), 1.0, (0.0, 0.0, 2e8, 1.0)),
        # 2e6 radii: integrated in one piece, the ratio would be 7e-12 off
        ((1e6, 0.5), 1.0, (0.0, 0.0, 2e6, 1.0)),
        # 1e20 radii: a 1e-20 m circle centred on the unit square's bottom edge
        ((0.5, 0.0), 1e-20, (0.0, 0.0, 1.0, 1.0)),
        # a 1e-150 m circle: disc would underflow on every crossing edge
        ((2e-150, 0.5e-150), 1e-150, (0.0, 0.0, 4e-150, 1e-150)),
        # one ulp past 2^16 radii
        ((0.5, 0.0), 1.0, (0.0, 0.0, math.nextafter(65536.0, math.inf), 1.0)),
        # one ulp below 2^-200 m, on a box whose edges are a few radii
        ((2e-60, 0.0), math.nextafter(2.0**-200, 0.0), (0.0, 0.0, 4e-60, 1e-60)),
    ],
    ids=["box-2e8", "box-2e6", "radius-1e-20", "radius-1e-150", "edge-past-2^16", "radius-below-2^-200"],
)
def test_long_edges_and_tiny_radii_are_refused(centre, r, box):
    x0, y0, x1, y1 = box
    assert_refused(r, Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1))), centre)


def test_a_vertex_beyond_the_largest_float_from_the_centre_is_refused():
    # x - cx overflows for these vertices
    far = Polygon(((1e308, 0.0), (1e308, 1.0), (0.9e308, 0.0)))
    assert_refused(1.0, far, (-1e308, 0.0))
    strip = Polygon(((-1e308, -0.5), (1e308, -0.5), (0.0, 1e-300)))
    assert_refused(1.0, strip, (-0.9e308, 0.0))


def test_full_disks_need_no_domain():
    # a disk wholly on an exact box is its own area at any length and radius
    assert effective_ratio(circle(1.0), Polygon.rectangle(3e154, 4.0), (1.5e154, 2.0)) == 1.0
    assert effective_ratio(circle(1e-150), Polygon.rectangle(4e-150, 2e-150), (2e-150, 1e-150)) == 1.0


@pytest.mark.parametrize("r", [1.0, 0.0625, 2.0**-199])
def test_edges_of_2_to_the_16_radii_match_the_closed_form(r):
    # just inside the domain: a box whose long sides are exactly 2^16 radii
    for box in ((0.0, 0.0, 65536.0 * r, r), (-32768.0 * r, 2.0 * r, 32768.0 * r, 65538.0 * r)):
        assert_matches_closed_form(box, r, edge_rig_centres(box, r))


def test_random_edges_of_2_to_the_16_radii_match_the_closed_form():
    # radii, corners and centres on a 2^-20 m grid: every difference and
    # square below is exact, so the long sides are 2^16 radii to the bit
    rng = random.Random(16)

    def grid(low, high):
        return math.ldexp(rng.randint(math.ceil(low * 2**20), math.floor(high * 2**20)), -20)

    for _ in range(300):
        r = grid(0.001, 0.1)
        length, width = 65536.0 * r, grid(0.5 * r, 4.0 * r)
        x0, y0 = grid(-1.0, 1.0), grid(-1.0, 1.0)
        centre = (x0 + grid(-r, length + r), y0 + grid(-r, width + r))
        assert_matches_closed_form((x0, y0, x0 + length, y0 + width), r, [centre])


@pytest.mark.parametrize("box", [(0.0, 0.0, 4.0, 1.0), (-1.0, -1.0, 1.0, 1.0), (0.25, -3.0, 0.75, 5.0)])
def test_a_radius_of_2_to_the_minus_199_matches_the_closed_form(box):
    # just inside the domain: box and centres are scaled by r exactly
    r = 2.0**-199
    box = tuple(v * r for v in box)
    assert_matches_closed_form(box, r, edge_rig_centres(box, r))


def test_effective_ratios_never_calls_effective_ratio(monkeypatch):
    # 35 positions, the 20 on the border overhanging: one intersection call
    # each, straight from the ratio pass
    outline = Polygon.rectangle(0.3, 0.2)
    positions = generate_layout(outline, 0.0, 0.05).positions
    expected = tuple(rect_ratio(x, y, 0.04, 0.0, 0.0, 0.3, 0.2) for x, y in positions)
    ratios = effective_ratios(circle(0.04), outline, positions)
    assert ratios == pytest.approx(expected, rel=0, abs=1e-12) and 1.0 in ratios

    def refuse(*args):
        raise AssertionError("effective_ratios called effective_ratio")

    monkeypatch.setattr(vgtc, "effective_ratio", refuse)
    assert vgtc.effective_ratios(circle(0.04), outline, positions) == ratios


# ---------------------------------------------------------------------------
# full-disk fast path: a disk inside an exact box reads its own area

X0, Y0, X1, Y1 = 0.1, 0.2, 0.36, 0.39


def box_and_ring(x0, y0, x1, y1):
    """The rectangle as a box, and as 5 vertices with a collinear midpoint
    on its bottom edge, which is no box and takes the full integration."""
    box = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    ring = Polygon(((x0, y0), (0.5 * (x0 + x1), y0), (x1, y0), (x1, y1), (x0, y1)))
    assert box.box == (x0, y0, x1, y1) and ring.box is None
    return box, ring


def count_edge_terms(monkeypatch):
    calls = []
    edge_term = vgtc._edge_term
    monkeypatch.setattr(vgtc, "_edge_term", lambda *a: calls.append(a) or edge_term(*a))
    return calls


def _edge_cases(r):
    mx, my = 0.5 * (X0 + X1), 0.5 * (Y0 + Y1)
    tangent = [(X0 + r, my), (X1 - r, my), (mx, Y0 + r), (mx, Y1 - r)]
    inward = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for (cx, cy), (ux, uy) in zip(tangent, inward):
        yield cx, cy
        for d in (1e-9, -1e-9):
            yield cx + d * ux, cy + d * uy
    for cx, cy in ((X0, Y0), (X1, Y0), (X1, Y1), (X0, Y1)):
        yield cx, cy
    for cx in (X0 + r, X1 - r):
        for cy in (Y0 + r, Y1 - r):
            yield cx, cy


@pytest.mark.parametrize("r", [0.01, 0.03, 0.095])
def test_fast_path_matches_full_integration_at_edges_and_corners(r):
    box, ring = box_and_ring(X0, Y0, X1, Y1)
    for cx, cy in _edge_cases(r):
        fast = effective_ratio(circle(r), box, (cx, cy))
        full = effective_ratio(circle(r), ring, (cx, cy))
        assert fast == pytest.approx(full, rel=0, abs=1e-12), (cx, cy)


def test_fast_path_matches_full_integration_on_clip_like_pieces():
    # table1.csv pieces (cm) with a 2 cm margin, calibration-range radii
    rng = random.Random(20240)
    pieces = ((26, 19), (30, 36), (26, 5), (30, 5))
    full_disks = 0
    for _ in range(40):
        length, width = (0.01 * v for v in rng.choice(pieces))
        x0, y0 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        box, ring = box_and_ring(x0, y0, x0 + length, y0 + width)
        r = 0.01 * rng.uniform(1.0, 15.0)
        layout = generate_layout(box, 0.02, r)
        scattered = [(rng.uniform(x0 - r, x0 + length + r), rng.uniform(y0 - r, y0 + width + r))
                     for _ in range(10)]
        for cx, cy in layout.positions + tuple(scattered):
            fast = effective_ratio(circle(r), box, (cx, cy))
            full = effective_ratio(circle(r), ring, (cx, cy))
            assert fast == pytest.approx(full, rel=0, abs=1e-12), (length, width, r, cx, cy)
            full_disks += fast == 1.0
    assert full_disks > 0


@pytest.mark.parametrize("winding", [1, -1], ids=["ccw", "cw"])
def test_disk_inside_a_box_skips_the_integration(monkeypatch, winding):
    calls = count_edge_terms(monkeypatch)
    box = Polygon(((X0, Y0), (X1, Y0), (X1, Y1), (X0, Y1))[::winding])
    assert box.signed_area * winding > 0 and box.box == (X0, Y0, X1, Y1)
    assert effective_ratio(circle(0.03), box, (X0 + 0.03, Y0 + 0.03)) == 1.0
    assert calls == []


@pytest.mark.parametrize(
    "vertices",
    [
        ((X0, Y0), (X1, Y0), (X1 - 0.05, Y1), (X0 + 0.05, Y1)),  # trapezoid
        ((X0, Y0), (X1, Y0), (X1 + 1e-10, Y1), (X0, Y1)),  # one corner skewed
    ],
    ids=["trapezoid", "skewed"],
)
def test_near_rectangles_take_the_full_integration(monkeypatch, vertices):
    calls = count_edge_terms(monkeypatch)
    outline = Polygon(vertices)
    assert outline.box is None
    effective_ratio(circle(0.02), outline, (0.23, 0.3))
    assert len(calls) == 4


@pytest.mark.parametrize("winding", [1, -1], ids=["ccw", "cw"])
def test_layout_inside_the_margin_skips_every_integration(monkeypatch, winding):
    # any outline that gets a layout has a box, so a radius within the
    # margin puts every disk on the fast path
    calls = count_edge_terms(monkeypatch)
    box = Polygon(((X0, Y0), (X1, Y0), (X1, Y1), (X0, Y1))[::winding])
    layout = generate_layout(box, 0.02, 0.015)
    ratios = effective_ratios(circle(0.02), box, layout.positions)
    assert len(ratios) == 15 * 11 and set(ratios) == {1.0}
    assert calls == []


# one corner 1e-10 m off a box, and a 70 x 5 cm rectangle whose corner
# mixes 70 cm with 0.7 m, which differ by one ulp
NEAR_BOXES = [
    ((X0, Y0), (X1, Y0), (X1 + 1e-10, Y1), (X0, Y1)),
    ((0.0, 0.0), (70 * 0.01, 0.0), (0.7, 0.05), (0.0, 0.05)),
]


@pytest.mark.parametrize("vertices", NEAR_BOXES, ids=["skewed", "mixed-units"])
def test_near_box_gets_no_layout_or_calibration(vertices):
    outline = Polygon(vertices)
    assert outline.box is None
    with pytest.raises(ValidationError, match="rectangular outline"):
        generate_layout(outline, 0.02, 0.03)
    with pytest.raises(ValidationError, match="rectangular outline"):
        calibrate_spacing(outline, 0.02, 4, (0.01, 0.15), 0.001)


def test_polygon_caches_stay_out_of_identity():
    box = Polygon(((X0, Y0), (X1, Y0), (X1, Y1), (X0, Y1)))
    fresh = Polygon(box.vertices)
    before = repr(box), hash(box)
    assert box.box and box.ccw_ring
    assert (repr(box), hash(box)) == before
    assert box == fresh and repr(fresh) == before[0]


# ---------------------------------------------------------------------------
# effective ratio and pressure inflation

def test_ratio_symmetry_cases():
    rect = Polygon.rectangle(1.0, 0.5)
    assert effective_ratio(circle(0.1), rect, (0.5, 0.25)) == pytest.approx(1.0, rel=1e-9)
    assert effective_ratio(circle(0.1), rect, (0.5, 0.0)) == pytest.approx(0.5, rel=1e-9)
    assert effective_ratio(circle(0.1), rect, (0.0, 0.0)) == pytest.approx(0.25, rel=1e-9)


def test_adjusted_pressure_identity_and_inflation():
    assert adjusted_min_pressure(WINDOW, 1.0) == WINDOW.p_min
    assert adjusted_min_pressure(WINDOW, 0.5) == pytest.approx(2 * WINDOW.p_min, rel=1e-15)
    assert adjusted_min_pressure(WINDOW, 0.25) == pytest.approx(4 * WINDOW.p_min, rel=1e-15)


def test_adjusted_pressure_rejects_no_contact():
    with pytest.raises(ValidationError, match="ratio"):
        adjusted_min_pressure(WINDOW, 0.0)
    with pytest.raises(ValidationError, match="ratio"):
        adjusted_min_pressure(WINDOW, 1.5)


# ---------------------------------------------------------------------------
# layout generation

def test_layout_facing_single_row():
    layout = generate_layout(Polygon.rectangle(0.26, 0.05), 0.02, 0.044)
    assert (layout.cols, layout.rows) == (6, 1)
    assert len(layout.positions) == 6
    xs = sorted(p[0] for p in layout.positions)
    assert xs[0] == pytest.approx(0.02, abs=1e-9)  # end position on the inset boundary
    assert xs[-1] == pytest.approx(0.24, abs=1e-9)
    assert all(p[1] == pytest.approx(0.025, abs=1e-12) for p in layout.positions)


def test_layout_bag_grid():
    layout = generate_layout(Polygon.rectangle(0.26, 0.19), 0.02, 0.11)
    assert (layout.cols, layout.rows) == (3, 2)
    assert len(layout.positions) == 6


def test_layout_large_bag_grid():
    layout = generate_layout(Polygon.rectangle(0.30, 0.36), 0.02, 0.09)
    assert (layout.cols, layout.rows) == (3, 4)
    assert len(layout.positions) == 12


def test_layout_positions_inside_inset_and_spaced():
    outline = Polygon.rectangle(0.30, 0.36)
    margin, spacing = 0.02, 0.09
    layout = generate_layout(outline, margin, spacing)
    x0, y0, x1, y1 = outline.box
    for x, y in layout.positions:
        assert x0 + margin - 1e-9 <= x <= x1 - margin + 1e-9
        assert y0 + margin - 1e-9 <= y <= y1 - margin + 1e-9
    # grid-adjacent distances equal the requested spacing
    for row in range(layout.rows):
        for col in range(layout.cols - 1):
            a = layout.positions[row * layout.cols + col]
            b = layout.positions[row * layout.cols + col + 1]
            assert math.dist(a, b) == pytest.approx(spacing, abs=1e-9)
    for row in range(layout.rows - 1):
        a = layout.positions[row * layout.cols]
        b = layout.positions[(row + 1) * layout.cols]
        assert math.dist(a, b) == pytest.approx(spacing, abs=1e-9)


def test_layout_grid_is_centered():
    layout = generate_layout(Polygon.rectangle(0.30, 0.36), 0.02, 0.09)
    xs = sorted({p[0] for p in layout.positions})
    ys = sorted({p[1] for p in layout.positions})
    assert xs[0] - 0.02 == pytest.approx(0.28 - xs[-1], abs=1e-12)
    assert ys[0] - 0.02 == pytest.approx(0.34 - ys[-1], abs=1e-12)


def test_layout_margin_too_large():
    with pytest.raises(ValidationError, match="margin"):
        generate_layout(Polygon.rectangle(0.10, 0.05), 0.06, 0.01)


def test_layout_rejects_non_rectangle():
    tri = Polygon(((0, 0), (0.3, 0), (0.15, 0.2)))
    with pytest.raises(ValidationError, match="rectangular"):
        generate_layout(tri, 0.01, 0.05)


def test_layout_rejects_bad_parameters():
    rect = Polygon.rectangle(0.2, 0.2)
    with pytest.raises(ValidationError):
        generate_layout(rect, -0.01, 0.05)
    with pytest.raises(ValidationError):
        generate_layout(rect, 0.01, 0.0)
    for spacing in (math.nan, math.inf):  # inf used to place a nan position
        with pytest.raises(ValidationError, match="spacing"):
            generate_layout(rect, 0.01, spacing)
    with pytest.raises(ValidationError):
        generate_layout(rect, math.nan, 0.05)


def test_layout_size_capped_before_allocation(monkeypatch):
    def no_allocation(*args):
        raise AssertionError("grid positions built for an over-size layout")

    monkeypatch.setattr(vgtc, "_axis_positions", no_allocation)
    # 1 um on 1 x 1 m: about 1e12 positions
    with pytest.raises(ValidationError, match="positions"):
        generate_layout(Polygon.rectangle(1.0, 1.0), 0.0, 1e-6)
    # a quotient that overflows to inf is rejected the same way
    with pytest.raises(ValidationError, match="positions"):
        generate_layout(Polygon.rectangle(1.0, 1.0), 0.0, 1e-320)


def test_layout_size_cap_message_stays_short():
    # 2.2e169 x 5e168 positions, not two 170-digit integers
    with pytest.raises(ValidationError, match=r"2\.2e\+169 x 5e\+168 positions") as err:
        generate_layout(Polygon.rectangle(0.22, 0.05), 0.0, 1e-170)
    assert len(str(err.value)) < 200


def test_layout_size_cap_is_inclusive(monkeypatch):
    monkeypatch.setattr(vgtc, "MAX_LAYOUT_POSITIONS", 12)
    assert len(generate_layout(Polygon.rectangle(0.30, 0.36), 0.02, 0.09).positions) == 12
    with pytest.raises(ValidationError, match="positions"):
        generate_layout(Polygon.rectangle(0.30, 0.36), 0.02, 0.08)  # 4 x 5


@settings(max_examples=80)
@given(
    length=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    width=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    margin_lo=st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    margin_hi=st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
    spacing_lo=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
    spacing_hi=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
)
def test_layout_count_monotone(length, width, margin_lo, margin_hi, spacing_lo, spacing_hi):
    margin_lo, margin_hi = sorted((margin_lo, margin_hi))
    spacing_lo, spacing_hi = sorted((spacing_lo, spacing_hi))
    rect = Polygon.rectangle(length, width)

    def count(margin, spacing):
        return len(generate_layout(rect, margin, spacing).positions)

    assert count(margin_lo, spacing_lo) >= count(margin_lo, spacing_hi)
    assert count(margin_lo, spacing_lo) >= count(margin_hi, spacing_lo)


# ---------------------------------------------------------------------------
# spacing calibration

def test_calibrate_facing_contains_reference_spacing():
    intervals = calibrate_spacing(Polygon.rectangle(0.26, 0.05), 0.02, 6, (0.01, 0.15), 0.001)
    assert intervals
    assert any(lo - 1e-12 <= 0.044 <= hi + 1e-12 for lo, hi in intervals)


def test_calibrate_bag_contains_reference_spacing():
    intervals = calibrate_spacing(Polygon.rectangle(0.26, 0.19), 0.02, 6, (0.01, 0.15), 0.001)
    assert intervals
    assert any(lo - 1e-12 <= 0.11 <= hi + 1e-12 for lo, hi in intervals)


def test_calibrate_single_gripper_limit():
    rect = Polygon.rectangle(0.10, 0.08)
    intervals = calibrate_spacing(rect, 0.02, 1, (0.001, 0.30), 0.001)
    assert intervals
    # one gripper needs the spacing to exceed both usable dimensions
    assert all(lo > 0.06 for lo, hi in intervals)


def test_calibrate_matches_brute_scan():
    rect = Polygon.rectangle(0.26, 0.19)

    def count(s):
        try:
            return len(generate_layout(rect, 0.02, s).positions)
        except ValidationError:
            return None

    for target in (4, 6, 9, 12):
        intervals = calibrate_spacing(rect, 0.02, target, (0.01, 0.15), 0.001)
        assert intervals == grid_spacing_runs(0.26, 0.19, 0.02, target, 0.01, 0.15, 0.001)
        expected = scan_matching_spacings(count, target, 0.01, 0.15, 0.001)
        covered = [
            s for s in expected
            if any(lo - 1e-12 <= s <= hi + 1e-12 for lo, hi in intervals)
        ]
        assert len(covered) == len(expected)
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            assert count(mid) == target


@settings(max_examples=150, deadline=None)
@given(
    length=st.floats(min_value=0.03, max_value=0.40),
    width=st.floats(min_value=0.03, max_value=0.40),
    margin=st.floats(min_value=0.0, max_value=0.05),
    low=st.floats(min_value=0.005, max_value=0.05),
    span=st.floats(min_value=0.001, max_value=0.15),
    step=st.floats(min_value=0.0002, max_value=0.005),
    reachable=st.booleans(),
    probe=st.floats(min_value=0.0, max_value=1.0),
    arbitrary=st.integers(min_value=1, max_value=60),
)
def test_calibrate_matches_grid_oracle(
    length, width, margin, low, span, step, reachable, probe, arbitrary
):
    high = low + span
    has_room = min(length, width) - 2.0 * margin >= -GRID_TOL
    target = arbitrary
    if reachable and has_room:
        target = grid_count(length, width, margin, low + probe * span)
    intervals = calibrate_spacing(
        Polygon.rectangle(length, width), margin, target, (low, high), step
    )
    expected = (
        grid_spacing_runs(length, width, margin, target, low, high, step) if has_room else []
    )
    assert intervals == expected
    assert len(intervals) <= 1


def test_calibrate_run_ends_at_fine_step():
    # 1.4e8 samples: the run's ends are checked against their neighbours
    # by sample index, without enumerating the samples
    low, high, step = 0.01, 0.15, 1e-9
    [(a, b)] = calibrate_spacing(Polygon.rectangle(0.26, 0.19), 0.02, 6, (low, high), step)
    for end, outward in ((a, -1), (b, 1)):
        k = round((end - low) / step)
        assert low + k * step == end
        assert grid_count(0.26, 0.19, 0.02, end) == 6
        neighbour = low + (k + outward) * step
        assert (
            k + outward < 1
            or neighbour >= high - 1e-12
            or grid_count(0.26, 0.19, 0.02, neighbour) != 6
        )
    assert (a, b) == pytest.approx((0.075, 0.11), abs=2e-9)


def test_calibrate_empty_result_is_valid():
    # 22 x 15 cm usable never produces exactly 8 on a square grid
    intervals = calibrate_spacing(Polygon.rectangle(0.26, 0.19), 0.02, 8, (0.01, 0.15), 0.001)
    assert intervals == []


def test_calibrate_rejects_bad_inputs():
    rect = Polygon.rectangle(0.2, 0.2)
    with pytest.raises(ValidationError):
        calibrate_spacing(rect, 0.02, 0, (0.01, 0.15), 0.001)
    with pytest.raises(ValidationError):
        calibrate_spacing(rect, 0.02, 4, (0.15, 0.01), 0.001)
    with pytest.raises(ValidationError):
        calibrate_spacing(rect, 0.02, 4, (0.01, 0.15), 0.0)
    for step in (math.inf, math.nan):
        with pytest.raises(ValidationError, match="step"):
            calibrate_spacing(rect, 0.02, 4, (0.01, 0.15), step)
    with pytest.raises(ValidationError, match="search_range"):
        calibrate_spacing(rect, 0.02, 4, (0.01, math.inf), 0.001)
    # a bad margin or outline is bad input, not an unreachable count
    for margin in (-0.01, math.nan):
        with pytest.raises(ValidationError, match="margin"):
            calibrate_spacing(rect, margin, 4, (0.01, 0.15), 0.001)
    triangle = Polygon(((0.0, 0.0), (0.3, 0.0), (0.0, 0.2)))
    with pytest.raises(ValidationError, match="rectangular"):
        calibrate_spacing(triangle, 0.02, 4, (0.01, 0.15), 0.001)
    # more samples in range than a float index holds exactly
    with pytest.raises(ValidationError, match="samples"):
        calibrate_spacing(rect, 0.02, 4, (0.01, 0.15), 1e-320)
    with pytest.raises(ValidationError, match="samples"):
        calibrate_spacing(rect, 0.02, 4, (0.0, 1.0), 0.99 / 2**53)
    # exactly at the cap the bisection still runs, with exact indices
    [(a, b)] = calibrate_spacing(rect, 0.02, 4, (0.0, 1.0), 1.0 / 2**53)
    assert 0.08 < a < 0.0801 and 0.16 - 1e-9 < b < 0.1601


def test_calibrate_never_builds_a_layout(monkeypatch):
    def no_layout(*args):
        raise AssertionError("calibration built a layout")

    monkeypatch.setattr(vgtc, "generate_layout", no_layout)
    rect = Polygon.rectangle(0.26, 0.19)
    assert calibrate_spacing(rect, 0.02, 6, (0.01, 0.15), 0.001)
    assert calibrate_spacing(rect, 0.2, 6, (0.01, 0.15), 0.001) == []  # no usable area


@pytest.mark.parametrize("target, calls, expected", [
    (8, 1, []),  # table1 row 6: the first count <= 8 holds 6, so no run
    (6, 2, [(0.076, 0.11)]),  # the run's first sample, then its end
])
def test_calibrate_bisects_once_for_an_unmatched_target(monkeypatch, target, calls, expected):
    searches = []

    def counting(*args, **kwargs):
        searches.append(args)
        return bisect_left(*args, **kwargs)

    monkeypatch.setattr(vgtc, "bisect_left", counting)
    intervals = calibrate_spacing(Polygon.rectangle(0.26, 0.19), 0.02, target, (0.01, 0.15), 0.001)
    assert intervals == expected
    assert len(searches) == calls


def _doubling_end(low, high, step):
    """First k >= 1 with low + k*step >= high - 1e-12, by doubling k from 1, then bisecting."""
    cutoff = high - 1e-12
    hi = 1
    while low + hi * step < cutoff:
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if low + mid * step >= cutoff:
            hi = mid
        else:
            lo = mid + 1
    return lo


def test_sample_end_matches_doubling_search(monkeypatch):
    # the indices calibrate_spacing bisects start at 1 and end at or past the first sample past the range
    rng = random.Random(16)
    cases = [
        (1e3, 1e3 + 1e-6, 1e-13),  # low >> step: low + k*step is flat over runs of k
        (1e3, 1e3 + 1e-9, 1e-16),
        (0.01, 0.15, 0.001),
        (0.0, 1.0, 1.0 / 2**53),
        (0.0, 5e-324, 5e-324),  # subnormal, and narrower than the cutoff
        (1e-320, 2e-320, 5e-324),
        (0.0, sys.float_info.max, 1e293),  # the largest float
        (sys.float_info.max / 2, sys.float_info.max, sys.float_info.max / 2**40),
        (9.798043597939954e17, 2.1596572885255555e18, 134.48207199136453),  # k = ceil(n) + 1 falls short
    ]
    for _ in range(3100):
        low = rng.choice([0.0, rng.uniform(0.0, 0.2), 10 ** rng.uniform(-3, 4)])
        step = 10 ** rng.uniform(-16, -1)
        k = 10 ** rng.uniform(0, 8)
        high = low + rng.choice([k * step, round(k) * step, round(k) * step + 1e-12])
        if high > low and (high - low) / step <= vgtc.MAX_CALIBRATION_SAMPLES:
            cases.append((low, high, step))
    assert len(cases) > 3000
    searched = []
    monkeypatch.setattr(vgtc, "bisect_left", lambda samples, *args, **kwargs: searched.append(samples) or 0)
    rect = Polygon.rectangle(0.26, 0.19)
    for low, high, step in cases:
        searched.clear()
        calibrate_spacing(rect, 0.02, 6, (low, high), step)
        samples = searched[0]
        assert samples.start == 1 and samples.step == 1, (low, high, step)
        assert samples[-1] >= _doubling_end(low, high, step), (low, high, step)


@pytest.mark.parametrize("low", [0.0, 0.01, 1e3])
def test_range_within_the_cutoff_has_no_samples(low):
    # samples lie below high - 1e-12, so a range that narrow holds none
    for high in (low + 1e-12, low + 5e-13, math.nextafter(low, math.inf)):
        assert calibrate_spacing(Polygon.rectangle(0.26, 0.19), 0.02, 6, (low, high), 1e-13) == []


def test_calibrate_answers_at_the_ends_of_the_floats():
    rect = Polygon.rectangle(0.26, 0.19)
    assert calibrate_spacing(rect, 0.02, 6, (1e-320, 2e-320), 5e-324) == []
    assert calibrate_spacing(rect, 0.02, 1, (0.0, sys.float_info.max), 1e293) == [(1e293, 1.797693134862315e308)]


def test_calibrate_only_answers_or_refuses_extreme_finite_floats():
    rng = random.Random(37)
    largest = sys.float_info.max
    pool = [0.0, 5e-324, 1e-320, 1e-308, 1e-300, 5e-13, 1e-12, 0.02, 0.26, 1e300, largest,
            math.nextafter(largest, 0.0)]

    def draw():
        value = rng.choice(pool) if rng.random() < 0.6 else 10 ** rng.uniform(-323, 308)
        return math.nextafter(value, math.inf) if rng.random() < 0.2 and value < largest else value

    outlines = [Polygon.rectangle(*sides) for sides in ((0.26, 0.19), (1e-150, 1e-150), (1e150, 1e150))]
    answered = 0
    for _ in range(4000):
        low, step = draw(), draw()
        high = min(low + draw(), largest) if rng.random() < 0.5 else draw()
        try:
            intervals = calibrate_spacing(
                rng.choice(outlines), rng.choice([0.0, 0.02, 1e-320]), rng.choice([1, 2, 6, 8, 10**6]),
                (low, high), step,
            )
        except ValidationError:
            continue
        answered += 1
        assert len(intervals) <= 1
        for a, b in intervals:
            assert low < a <= b < high
    assert answered > 500


# ---------------------------------------------------------------------------
# calibrated circle entry point

def test_single_grab_radius_test_builds_circle():
    window = PressureWindow(p_min=37_561.0)
    c = Vgtc(radius=0.044, pressure_window=window)
    assert c.radius == 0.044
    assert c.pressure_window is window
    assert Vgtc._fields == ("radius", "pressure_window")


def test_single_grab_radius_test_rejects_zero_radius():
    with pytest.raises(ValidationError):
        Vgtc(radius=0.0, pressure_window=WINDOW)


def test_radius_whose_disk_area_underflows_rejected():
    with pytest.raises(ValidationError, match="radius 1e-170 m has a disk area of 0"):
        Vgtc(radius=1e-170, pressure_window=WINDOW)
    assert Vgtc(radius=1e-150, pressure_window=WINDOW).disk_area > 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=str)
def test_non_finite_radius_and_spacing_rejected(value):
    with pytest.raises(ValidationError, match="radius"):
        Vgtc(radius=value, pressure_window=WINDOW)
    with pytest.raises(ValidationError, match="spacing"):
        Layout(xs=(), ys=(), spacing=value, margin=0.0)


@pytest.mark.parametrize("value", [math.nan, -math.inf, math.inf], ids=str)
def test_nan_and_negative_margin_rejected(value):
    with pytest.raises(ValidationError, match="margin must be finite and >= 0"):
        Layout(xs=(), ys=(), spacing=0.1, margin=value)


def test_window_ordering_still_enforced():
    with pytest.raises(ValidationError):
        Vgtc(radius=0.05, pressure_window=PressureWindow(p_min=5.0, p_max=4.0))


@settings(max_examples=80, deadline=None)
@given(
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    length=st.floats(0.05, 1.0),
    width=st.floats(0.05, 1.0),
    margin=st.floats(0.0, 0.02),
    radius=st.floats(0.002, 0.1),
    spacing=st.floats(0.05, 0.5),
)
def test_layout_positions_and_ratios_follow_its_axes(x0, y0, length, width, margin, radius, spacing):
    # radius up to 5x the margin, so many disks overhang the piece
    x1, y1 = x0 + length, y0 + width
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    layout = generate_layout(outline, margin, spacing)
    assert (layout.cols, layout.rows) == (len(layout.xs), len(layout.ys))
    assert layout.positions == tuple((x, y) for y in layout.ys for x in layout.xs)
    ratios = effective_ratios(circle(radius), outline, layout.positions)
    assert ratios == tuple(effective_ratio(circle(radius), outline, (x, y)) for x, y in layout.positions)
    assert Layout(xs=(), ys=layout.ys, spacing=spacing, margin=margin).positions == ()


def comprehension_ratios(circle, outline, positions):
    # the ratio pass as one comprehension, one intersection call and one rule step per position
    disk_area = circle.disk_area
    area = circle_polygon_intersection_area
    return tuple([1.0 if (a := area(circle, outline, p)) == disk_area else a / disk_area for p in positions])


@settings(max_examples=100, deadline=None)
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=0.0, spacing=0.0625)  # margin 0
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=1.0, spacing=0.0625)  # tangent rings
@example(x0=0.1, y0=0.2, length=0.26, width=0.19, radius=0.01, share=2.0, spacing=0.01)  # every disk full
@given(
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    length=st.floats(0.05, 1.0),
    width=st.floats(0.05, 1.0),
    radius=st.floats(0.002, 0.2),
    share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    spacing=st.floats(0.02, 0.5),
)
def test_ratio_pass_matches_the_comprehension_bit_for_bit(x0, y0, length, width, radius, share, spacing):
    # margin 0, a radius above the margin (share below 1) and rings
    # tangent to the sides (share 1) are drawn on purpose
    margin = share * radius
    assume(2.0 * margin < min(length, width))
    x1, y1 = x0 + length, y0 + width
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    layout = generate_layout(outline, margin, spacing)
    c = circle(radius)
    ratios = effective_ratios(c, outline, layout)
    assert [r.hex() for r in ratios] == [r.hex() for r in comprehension_ratios(c, outline, layout)]
    assert len({id(r) for r in ratios if r == 1.0}) <= 1  # every full disk shares one 1.0
    original = vgtc.circle_polygon_intersection_area
    centres = []

    def counted(circle, outline, center):
        centres.append(center)
        return original(circle, outline, center)

    vgtc.circle_polygon_intersection_area = counted
    try:
        for positions in (layout, (p for p in layout)):  # a one-shot generator too
            centres.clear()
            assert effective_ratios(c, outline, positions) == ratios
            assert centres == list(layout.positions)  # one call per position, in layout order
    finally:
        vgtc.circle_polygon_intersection_area = original


AXIS = st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(allow_nan=False, allow_infinity=False)), max_size=6)


def bits(points):
    return [(type(p), p[0].hex(), p[1].hex()) for p in points]


@settings(max_examples=200, deadline=None)
@example(xs=[0.1, -0.0, 0.3], ys=[0.05])  # a single row
@example(xs=[-0.0], ys=[0.0, -0.0, 2.5])  # a single column
@example(xs=[-0.0], ys=[-0.0])
@example(xs=[], ys=[1.0])
@given(xs=AXIS, ys=AXIS)
def test_layout_yields_every_position_row_by_row_bit_for_bit(xs, ys):
    layout = Layout(xs=xs, ys=ys, spacing=0.1, margin=0.0)
    expected = tuple([(x, y) for y in layout.ys for x in layout.xs])
    assert bits(layout) == bits(layout.positions) == bits(expected)


def test_layout_stores_only_its_axes():
    # 197 x 147 = 28,959 positions on the 2 x 1.5 m piece at 1 cm; a
    # stored (x, y) per position would take about 2 MiB
    outline = Polygon.rectangle(2.0, 1.5)
    tracemalloc.start()
    try:
        layout = generate_layout(outline, 0.02, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (layout.cols, layout.rows) == (197, 147)
    assert peak < 64 * 1024


@settings(max_examples=100, deadline=None)
# margin = r on a dyadic piece: the outer rings are tangent to the sides
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=1.0, spacing=0.0625)
@given(
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    length=st.floats(0.05, 1.0),
    width=st.floats(0.05, 1.0),
    radius=st.floats(0.002, 0.2),
    share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    spacing=st.floats(0.02, 0.5),
)
def test_layout_ratios_are_mirror_symmetric(x0, y0, length, width, radius, share, spacing):
    # the grid is centred in the box, so column i and column cols - 1 - i
    # (and likewise rows) see the piece alike
    margin = share * radius  # margin 0 and margin r drawn on purpose
    assume(2.0 * margin < min(length, width))
    x1, y1 = x0 + length, y0 + width
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    layout = generate_layout(outline, margin, spacing)
    ratios = effective_ratios(circle(radius), outline, layout.positions)
    cols, rows = layout.cols, layout.rows
    for j in range(rows):
        for i in range(cols):
            ratio = ratios[j * cols + i]
            assert ratio == pytest.approx(ratios[j * cols + cols - 1 - i], rel=0, abs=1e-12), (i, j)
            assert ratio == pytest.approx(ratios[(rows - 1 - j) * cols + i], rel=0, abs=1e-12), (i, j)


@settings(max_examples=200, deadline=None)
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=0.0, grid="free", spacing=0.0625)  # margin 0
# margin = r on a dyadic piece: the outer rings are tangent to the sides
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=1.0, grid="free", spacing=0.0625)
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.1, share=0.0, grid="one row", spacing=0.05)
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.1, share=0.0, grid="one column", spacing=0.05)
@given(
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    length=st.floats(0.05, 1.0),
    width=st.floats(0.05, 1.0),
    radius=st.floats(0.002, 0.2),
    share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    grid=st.sampled_from(["free", "one row", "one column"]),
    spacing=st.floats(0.02, 0.5),
)
def test_the_smallest_ratio_is_a_corner_ratio(x0, y0, length, width, radius, share, grid, spacing):
    # on an exact box the disk's area on the piece is log-concave in its
    # centre and symmetric about the box's centre, and the grid is centred:
    # in exact arithmetic the smallest ratio is at a corner position
    margin = share * radius  # margin 0 and margin r (tangent rings) drawn on purpose
    assume(2.0 * margin < min(length, width))
    if grid == "one row":  # a spacing longer than the usable width
        spacing = max(spacing, 1.5 * width)
    elif grid == "one column":
        spacing = max(spacing, 1.5 * length)
    x1, y1 = x0 + length, y0 + width
    outline = Polygon(((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    layout = generate_layout(outline, margin, spacing)
    assert grid != "one row" or layout.rows == 1
    assert grid != "one column" or layout.cols == 1
    ratios = effective_ratios(circle(radius), outline, layout)
    cols = layout.cols
    corner = min(ratios[0], ratios[cols - 1], ratios[-cols], ratios[-1])
    assert corner - min(ratios) <= 8 * math.ulp(corner)


@settings(max_examples=100, deadline=None)
# margin = r on a dyadic piece: the outer rings are tangent to the sides
@example(x0=0.0, y0=0.0, length=0.5, width=0.25, radius=0.0625, share=1.0, spacing=0.0625, kx=1536, ky=-768)
@given(
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    length=st.floats(0.05, 1.0),
    width=st.floats(0.05, 1.0),
    radius=st.floats(0.002, 0.2),
    share=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 2.0)),
    spacing=st.floats(0.02, 0.5),
    kx=st.integers(-4096, 4096),
    ky=st.integers(-4096, 4096),
)
def test_layout_ratios_are_translation_invariant(x0, y0, length, width, radius, share, spacing, kx, ky):
    # shifting the piece by a multiple of 2^-10 m (up to 4 m) moves its
    # grid with it and leaves every ratio within 1e-12
    margin = share * radius  # margin 0 and margin r drawn on purpose
    assume(2.0 * margin < min(length, width))
    tx, ty = math.ldexp(kx, -10), math.ldexp(ky, -10)
    ratios = []
    for dx, dy in ((0.0, 0.0), (tx, ty)):
        a, b = x0 + dx, y0 + dy
        c, d = a + length, b + width
        outline = Polygon(((a, b), (c, b), (c, d), (a, d)))
        layout = generate_layout(outline, margin, spacing)
        ratios.append(effective_ratios(circle(radius), outline, layout.positions))
    assert len(ratios[0]) == len(ratios[1])
    assert ratios[1] == pytest.approx(ratios[0], rel=0, abs=1e-12)
