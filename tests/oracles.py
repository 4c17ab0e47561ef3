"""Independent oracles the tests check the analytic code against.

These deliberately avoid the library's own algorithms: the area oracles
are Monte Carlo point sampling and a closed form built from the
antiderivative of sqrt(r^2 - t^2), which shares nothing with the
library's Green's theorem edge terms, the spacing oracle is a brute scan that
re-counts layouts sample by sample through a count function the caller
supplies, the grid oracle counts the single-pitch grid in closed
form from the piece's sides alone, and the simplicity oracle tests
every edge pair in exact rational arithmetic. Nothing here imports
vacgrab.
"""

import math
from fractions import Fraction

import numpy as np


def mc_disk_rect_area(cx, cy, r, rect_w, rect_h, n=1_000_000, seed=0):
    """Monte Carlo estimate of disk/rectangle intersection area.

    The rectangle is [0, rect_w] x [0, rect_h]. Samples are drawn in the
    rectangle clipped to the disk's bounding box, which keeps the hit
    fraction well away from zero for small disks. Returns (area,
    standard_error).
    """
    lo_x, hi_x = max(0.0, cx - r), min(rect_w, cx + r)
    lo_y, hi_y = max(0.0, cy - r), min(rect_h, cy + r)
    if lo_x >= hi_x or lo_y >= hi_y:
        return 0.0, 0.0
    box_area = (hi_x - lo_x) * (hi_y - lo_y)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(lo_x, hi_x, n)
    ys = rng.uniform(lo_y, hi_y, n)
    hit = (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r
    p = hit.mean()
    return box_area * p, box_area * math.sqrt(p * (1.0 - p) / n)


def _quadrant_area(x, y, r):
    """Area of the disk u^2 + v^2 <= r^2 within {u <= x, v <= y}.

    H(t), the integral of s(u) = sqrt(r^2 - u^2) from -r to t, gives
    every piece. The chord at u spans [-s, s]; the line v = y cuts it
    only where |u| < w = sqrt(r^2 - y^2). There, over u up to
    m = min(x, w), the chord keeps y + s of its length; elsewhere, for
    y >= 0 all of it (2s), for y < 0 none.
    """
    x = min(max(x, -r), r)
    y = min(max(y, -r), r)

    def s(t):  # (r - t)(r + t) keeps its digits where t nears +-r
        return math.sqrt((r - t) * (r + t))

    def h(t):  # atan2, not asin(t / r), which loses half its digits near +-1
        return 0.5 * (t * s(t) + r * r * math.atan2(t, s(t))) + 0.25 * math.pi * r * r

    w = s(y)
    if x <= -w:
        return 2.0 * h(x) if y >= 0.0 else 0.0
    m = min(x, w)
    cut = h(m) - h(-w) + y * (m + w)  # the chords that v = y cuts
    return 2.0 * h(x) - 2.0 * (h(m) - h(-w)) + cut if y >= 0.0 else cut


def disk_rect_area(cx, cy, r, x0, y0, x1, y1):
    """Exact area of the disk of radius r at (cx, cy) within the box
    [x0, x1] x [y0, y1]: inclusion-exclusion over the box's four corners
    of the quadrant area below and left of each."""
    def q(x, y):
        return _quadrant_area(x - cx, y - cy, r)

    return (q(x1, y1) - q(x0, y1)) - (q(x1, y0) - q(x0, y0))


# boundary tolerance of the grid rule: keeps exact multiples from rounding down
GRID_TOL = 1e-9


def sample_spacings(low, high, step):
    """The calibration scan grid over the open range (low, high):
    low + k*step for k >= 1, while below high - 1e-12."""
    samples = []
    k = 1
    while True:
        s = low + k * step
        if s >= high - 1e-12:
            break
        samples.append(s)
        k += 1
    return samples


def scan_matching_spacings(count_fn, target, low, high, step):
    """Brute scan of the open range (low, high): spacings whose layout
    count equals target. count_fn(spacing) -> int or None."""
    return [s for s in sample_spacings(low, high, step) if count_fn(s) == target]


def grid_count(length, width, margin, spacing):
    """Closed-form gripper count of the single-pitch grid on a
    length x width rectangle whose margin leaves a usable area:
    floor((u + tol)/spacing) + 1 positions on each axis of the
    margin-shrunk usable span u."""

    def axis(side):
        return math.floor((side - 2.0 * margin + GRID_TOL) / spacing) + 1

    return axis(length) * axis(width)


def grid_spacing_runs(length, width, margin, target, low, high, step):
    """Runs of consecutive scan samples whose grid_count equals target,
    merged into (first, last) tuples; [] when no sample matches."""
    runs = []
    run = None
    for s in sample_spacings(low, high, step):
        if grid_count(length, width, margin, s) == target:
            run = (run[0], s) if run else (s, s)
        elif run:
            runs.append(run)
            run = None
    if run:
        runs.append(run)
    return runs


def _orientation(o, a, b):
    """Sign of the cross product (a - o) x (b - o): -1, 0 or 1."""
    v = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (v > 0) - (v < 0)


def _in_box(p, q, r):
    return min(p[0], q[0]) <= r[0] <= max(p[0], q[0]) and min(p[1], q[1]) <= r[1] <= max(p[1], q[1])


def _closed_segments_meet(p1, p2, q1, q2):
    d1, d2 = _orientation(q1, q2, p1), _orientation(q1, q2, p2)
    d3, d4 = _orientation(p1, p2, q1), _orientation(p1, p2, q2)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True
    return (
        (d1 == 0 and _in_box(q1, q2, p1))
        or (d2 == 0 and _in_box(q1, q2, p2))
        or (d3 == 0 and _in_box(p1, p2, q1))
        or (d4 == 0 and _in_box(p1, p2, q2))
    )


def brute_self_intersects(vertices):
    """Whether any two non-adjacent edges of the closed ring share a
    point, testing all n(n-3)/2 such pairs. Coordinates become exact
    fractions, so collinear, touching and shared-vertex cases are
    decided without rounding."""
    pts = [(Fraction(x), Fraction(y)) for x, y in vertices]
    n = len(pts)
    edges = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue  # adjacent edges share a vertex by design
            if _closed_segments_meet(*edges[i], *edges[j]):
                return True
    return False
