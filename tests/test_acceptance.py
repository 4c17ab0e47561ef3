"""Acceptance suite: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.

Criterion 7 note: each corpus row's calibration answer must equal, to
the last interval endpoint, the runs that a closed-form grid count
(tests/oracles.py) finds on the same scan grid. Corpus row 6 records a
bench rig of 8 grippers on a 26x19 cm piece, but the single-pitch grid
(floor((usable + tol)/spacing) + 1 per axis, margin 2 cm) can only
produce 4, 6, 9, 12, ... positions on its 22x15 cm usable area, so the
exact answer there is empty. The suite asserts that empty answer, and
the counts 6 and 9 that bracket 8, rather than quietly loosening the
check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vacgrab import (
    EnergyHeads,
    FabricPiece,
    FlowState,
    MotionProfile,
    PhysicalConstants,
    PipeSegment,
    Polygon,
    PressureWindow,
    SuctionCup,
    VacuumGenerator,
    Verdict,
    Vgtc,
    calibrate_spacing,
    circle_polygon_intersection_area,
    constriction_pressure_drop,
    continuity_velocity,
    effective_ratio,
    evaluate,
    generate_layout,
    holding_force,
    net_supply_vacuum,
    parallel_flow_split,
    required_pressure,
    run_corpus,
    solve_pressure_from_balance,
)
from vacgrab.cli import load_bundled_corpus
from conftest import make_scenario
from oracles import grid_count, grid_spacing_runs, mc_disk_rect_area, sample_spacings


class criterion:
    """Prints one pass/fail line per acceptance criterion."""

    def __init__(self, label, description):
        self.label = label
        self.description = description

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.label}] {self.description}: {status}")
        return False


WINDOW = PressureWindow(p_min=30_000.0)


def fabric(mass, mu=0.5):
    return FabricPiece(id="f", outline=Polygon.rectangle(0.26, 0.19), mass=mass, friction_coefficient=mu)


# ---------------------------------------------------------------------------
# 1. holding forces

def test_criterion_1_holding_forces():
    with criterion(1, "friction-lift holding forces 0.148 N / 0.118 N (+-0.001)"):
        motion = MotionProfile()  # a=5, S=2, friction lift
        bag = holding_force(fabric(2.5e-3), motion)
        facing = holding_force(fabric(2.0e-3), motion)
        assert bag == pytest.approx(0.148, abs=1e-3)
        assert facing == pytest.approx(0.118, abs=1e-3)


# ---------------------------------------------------------------------------
# 2. required pressures

def test_criterion_2_required_pressures():
    with criterion(2, "required pressures 47,111 Pa / 37,561 Pa (+-1%)"):
        motion = MotionProfile()
        cup = SuctionCup(orifice_diameter=2e-3)
        bag = required_pressure(holding_force(fabric(2.5e-3), motion), cup)
        facing = required_pressure(holding_force(fabric(2.0e-3), motion), cup)
        assert bag == pytest.approx(47_111, rel=0.01)
        assert facing == pytest.approx(37_561, rel=0.01)


# ---------------------------------------------------------------------------
# 3. line loss

def test_criterion_3_line_loss():
    with criterion(3, "constriction loss 37,018 Pa (+-500) for 5.2 -> 2.0 mm at 37.14 m/s"):
        drop = constriction_pressure_drop(
            PipeSegment(inner_diameter=5.2e-3),
            PipeSegment(inner_diameter=2.0e-3),
            37.14,
            PhysicalConstants(),
        )
        assert drop.delta_p == pytest.approx(37_018, abs=500)


# ---------------------------------------------------------------------------
# 4. net supply

def test_criterion_4_net_supply_exact():
    with criterion(4, "net supply 92 kPa - 37 kPa = 55 kPa (exact)"):
        net = net_supply_vacuum(VacuumGenerator(max_vacuum=92_000.0), 37_000.0)
        assert net.pressure == 55_000.0


# ---------------------------------------------------------------------------
# 5. corpus verdicts

def test_criterion_5_corpus_all_pass():
    with criterion(5, "bundled 12-row corpus all Pass at -55 kPa supply"):
        rows = load_bundled_corpus()
        assert len(rows) == 12
        entries = run_corpus(rows)
        assert all(e.error is None for e in entries)
        assert all(e.report.verdict is Verdict.PASS for e in entries)


# ---------------------------------------------------------------------------
# 6. geometry oracle

def test_criterion_6_geometry_monte_carlo():
    with criterion(6, "analytic disk/rectangle area vs 1e6-sample Monte Carlo, 200 pairs, 3 sigma"):
        rng = np.random.default_rng(20250808)
        for i in range(200):
            rect_w = rng.uniform(0.5, 3.0)
            rect_h = rng.uniform(0.3, 2.0)
            cx = rng.uniform(-0.5, rect_w + 0.5)
            cy = rng.uniform(-0.5, rect_h + 0.5)
            r = rng.uniform(0.05, 1.2)
            circle = Vgtc(radius=r, pressure_window=WINDOW)
            analytic = circle_polygon_intersection_area(circle, Polygon.rectangle(rect_w, rect_h), (cx, cy))
            mc, se = mc_disk_rect_area(cx, cy, r, rect_w, rect_h, n=1_000_000, seed=31_000 + i)
            assert abs(analytic - mc) <= 3.0 * se + 1e-9, (
                f"pair {i}: analytic {analytic} vs MC {mc} (se {se})"
            )


def test_criterion_6_symmetry_cases():
    with criterion(6, "symmetry ratios interior 1.0 / edge 0.5 / corner 0.25 (rel 1e-6)"):
        rect = Polygon.rectangle(1.0, 0.5)

        def ratio(cx, cy):
            return effective_ratio(Vgtc(radius=0.1, pressure_window=WINDOW), rect, (cx, cy))

        assert ratio(0.5, 0.25) == pytest.approx(1.0, rel=1e-6)
        assert ratio(0.5, 0.0) == pytest.approx(0.5, rel=1e-6)
        assert ratio(0.0, 0.0) == pytest.approx(0.25, rel=1e-6)


# ---------------------------------------------------------------------------
# 7. spacing calibration against the corpus

CALIBRATION_MARGIN = 0.02
CALIBRATION_RANGE = (0.01, 0.15)
CALIBRATION_STEP = 0.001

# Lots whose bench gripper count no spacing in range reproduces, each
# with the reachable counts just below and above it. Row 6: 8 grippers
# on 26x19 cm, usable 22x15 cm. Of the splits 8 = cols x rows (cols on
# the 22 cm axis), 1x8 and 2x4 cannot occur because at one pitch the
# longer axis never holds fewer positions than the shorter, and 8x1
# cannot occur because below 15 cm the shorter axis holds at least two.
# The one candidate, 4x2, needs spacing in (5.5, 7.33] cm for 4 columns
# and in (7.5, 15] cm for 2 rows: the windows do not overlap, so the
# answer is empty. The reachable counts there begin 4, 6, 9, 12, 15. A
# new unreachable row, or a change that makes row 6 reachable, fails
# the test.
UNREACHABLE_LOTS = {"6": (6, 9)}


def _corpus_geometry():
    return [
        (row.lot, row.length_m, row.width_m, row.gripper_count)
        for row in load_bundled_corpus()
    ]


def _nearest_counts(length, width, count):
    reachable = {
        grid_count(length, width, CALIBRATION_MARGIN, s)
        for s in sample_spacings(*CALIBRATION_RANGE, CALIBRATION_STEP)
    }
    below = max(c for c in reachable if c < count)
    above = min(c for c in reachable if c > count)
    return below, above


def _assert_exact_calibration(outline, length, width, count):
    """calibrate_spacing returns the oracle's runs, endpoint for endpoint."""
    intervals = calibrate_spacing(
        outline, CALIBRATION_MARGIN, count, CALIBRATION_RANGE, CALIBRATION_STEP
    )
    expected = grid_spacing_runs(
        length, width, CALIBRATION_MARGIN, count, *CALIBRATION_RANGE, CALIBRATION_STEP
    )
    assert len(intervals) == len(expected), f"intervals {intervals} != oracle {expected}"
    for (lo, hi), (exp_lo, exp_hi) in zip(intervals, expected):
        assert lo == pytest.approx(exp_lo, abs=1e-12)
        assert hi == pytest.approx(exp_hi, abs=1e-12)
    return intervals


@pytest.mark.parametrize(
    "lot,length,width,count",
    _corpus_geometry(),
    ids=[f"row{r[0]}" for r in _corpus_geometry()],
)
def test_criterion_7_calibration(lot, length, width, count):
    label = f"7 row {lot}"
    desc = f"calibrate {count} grippers on {length * 100:.0f}x{width * 100:.0f} cm"
    if lot in UNREACHABLE_LOTS:
        below, above = UNREACHABLE_LOTS[lot]
        desc += f": bench count unreachable on a single-pitch grid (nearest {below}, {above})"
    else:
        desc += ": exact intervals of the grid oracle"
    with criterion(label, desc):
        outline = Polygon.rectangle(length, width)
        intervals = _assert_exact_calibration(outline, length, width, count)
        assert (intervals == []) == (lot in UNREACHABLE_LOTS), (
            f"lot {lot}: calibration answer {intervals} disagrees with the "
            f"pinned unreachable lots {sorted(UNREACHABLE_LOTS)}"
        )
        for lo, hi in intervals:
            mid = 0.5 * (lo + hi)
            layout = generate_layout(outline, CALIBRATION_MARGIN, mid)
            assert len(layout.positions) == count
        if lot in UNREACHABLE_LOTS:
            assert _nearest_counts(length, width, count) == UNREACHABLE_LOTS[lot]
            for near in UNREACHABLE_LOTS[lot]:
                assert _assert_exact_calibration(outline, length, width, near)


# ---------------------------------------------------------------------------
# 8. property suites

def test_criterion_8a_continuity_mass_conservation():
    @given(
        d1=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
        d2=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
        v1=st.floats(min_value=1e-3, max_value=300, allow_nan=False),
    )
    def prop(d1, d2, v1):
        a1 = PipeSegment(inner_diameter=d1).area
        a2 = PipeSegment(inner_diameter=d2).area
        v2 = continuity_velocity(a1, v1, a2)
        assert abs(a1 * v1 - a2 * v2) / (a1 * v1) < 1e-12

    with criterion("8a", "continuity conserves volumetric flow (rel 1e-12)"):
        prop()


def test_criterion_8b_constriction_equals_energy_balance():
    @given(
        v1=st.floats(min_value=0, max_value=100, allow_nan=False),
        d1=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
        d2=st.floats(min_value=1e-3, max_value=0.05, allow_nan=False),
        rho=st.floats(min_value=0.5, max_value=5, allow_nan=False),
    )
    def prop(v1, d1, d2, rho):
        consts = PhysicalConstants(air_density=rho)
        up = PipeSegment(inner_diameter=d1)
        down = PipeSegment(inner_diameter=d2)
        direct = constriction_pressure_drop(up, down, v1, consts).delta_p
        v2 = continuity_velocity(up.area, v1, down.area)
        p2 = solve_pressure_from_balance(
            FlowState(pressure=0.0, velocity=v1), v2, 0.0, EnergyHeads(), consts
        )
        via_balance = 0.0 - p2
        scale = max(abs(direct), abs(via_balance), 0.5 * rho * max(v1, v2) ** 2, 1.0)
        assert abs(direct - via_balance) <= 1e-9 * scale

    with criterion("8b", "constriction drop equals energy-balance solution (rel 1e-9)"):
        prop()


def test_criterion_8c_flow_split_sums_exactly():
    @given(
        total=st.floats(min_value=0, max_value=10, allow_nan=False),
        n=st.integers(min_value=1, max_value=40),
    )
    def prop(total, n):
        flows = parallel_flow_split(total, n)
        assert abs(math.fsum(flows) - total) <= 2 * math.ulp(max(total, 1e-300))

    with criterion("8c", "parallel flow split sums back to the input flow"):
        prop()


def test_criterion_8d_verdict_monotonicity():
    line = (PipeSegment(inner_diameter=5.2e-3), PipeSegment(inner_diameter=2e-3))

    def verdict(mass, vacuum):
        piece = FabricPiece(id="f", outline=Polygon.rectangle(0.26, 0.19), mass=mass, friction_coefficient=0.5)
        scenario = make_scenario(piece, line, generator=VacuumGenerator(max_vacuum=vacuum))
        return evaluate(scenario).verdict

    @settings(max_examples=50)
    @given(
        v_lo=st.floats(min_value=1_000, max_value=101_325, allow_nan=False),
        v_hi=st.floats(min_value=1_000, max_value=101_325, allow_nan=False),
        mass=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
    )
    def more_vacuum(v_lo, v_hi, mass):
        v_lo, v_hi = sorted((v_lo, v_hi))
        assert not (
            verdict(mass, v_lo) is not Verdict.FAIL and verdict(mass, v_hi) is Verdict.FAIL
        )

    @settings(max_examples=50)
    @given(
        m_lo=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
        m_hi=st.floats(min_value=5e-4, max_value=0.05, allow_nan=False),
        vacuum=st.floats(min_value=10_000, max_value=101_325, allow_nan=False),
    )
    def more_mass(m_lo, m_hi, vacuum):
        m_lo, m_hi = sorted((m_lo, m_hi))
        assert not (
            verdict(m_lo, vacuum) is Verdict.FAIL and verdict(m_hi, vacuum) is not Verdict.FAIL
        )

    with criterion("8d", "verdict monotone in generator vacuum and fabric mass"):
        more_vacuum()
        more_mass()


def test_criterion_8e_layout_count_monotonicity():
    @settings(max_examples=60)
    @given(
        length=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        width=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
        m_lo=st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        m_hi=st.floats(min_value=0.0, max_value=0.02, allow_nan=False),
        s_lo=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
        s_hi=st.floats(min_value=0.01, max_value=0.5, allow_nan=False),
    )
    def prop(length, width, m_lo, m_hi, s_lo, s_hi):
        m_lo, m_hi = sorted((m_lo, m_hi))
        s_lo, s_hi = sorted((s_lo, s_hi))
        rect = Polygon.rectangle(length, width)

        def count(margin, spacing):
            return len(generate_layout(rect, margin, spacing).positions)

        assert count(m_lo, s_lo) >= count(m_lo, s_hi)
        assert count(m_lo, s_lo) >= count(m_hi, s_lo)

    with criterion("8e", "layout count non-increasing in spacing and margin"):
        prop()
