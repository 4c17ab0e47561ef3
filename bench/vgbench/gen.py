"""Seeded input generator for every workload.

The same (workload, seed) pair yields byte-identical corpus CSV, config
texts and argv lists: every draw comes from one `random.Random` seeded
with a string, and every number is written with a fixed format.

The work in one cycle is held nearly constant across seeds. Sizes,
steps and vertex counts come from fixed ladders or from table1.csv; the
seed picks shapes, materials, supplies, targets, radii within a
calibration interval and the order of operations. A metric's
spread across seeds then reflects the program, not the draw.

Each spec also carries the SI values its text encodes, computed with
the same multiplications the config parser uses, so the oracles can
recompute every result without calling the program.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass

from . import oracles

WORKLOADS = ("corpus", "geometry.check", "geometry.clip", "geometry.calibrate", "geometry.outline", "cli")

# unit factors exactly as the config parser applies them (value * factor)
MM = 1e-3 / 1.0
CM = 1e-2 / 1.0
GRAM = 1e-3 / 1.0
KPA = 1e3 / 1.0

CORPUS_HEADER = (
    "Test Lot / 项目",
    "Fabric Piece Application / 裁片使用",
    "Fabric Code / 物料号",
    "Fabric / 布料",
    "No. of Gripper / 需求数量",
    "Outline rectangular Length & Width (cm)",
    "Supply Negative Air Pressure / 供抽吸气压",
    "Result (pass / fail) / 结果 (通过/失败)",
)
KNOWN_APPLICATIONS = ("Pocket Bag", "Pocket Facing")
UNKNOWN_APPLICATION = "Waist Band"  # no reference mass: an error entry
MATERIALS = (
    "100%Polyester; Plain Weave; TEXTILE-WOVEN",
    "68% Polyester, 32% Nylon; Taffeta; Plain Weave; TEXTILE-WOVEN",
    "96% Nylon (Mechanically Recycled), 4% Elastane; TEXTILE-WOVEN",
    "100% Polyester; TEXTILE-WOVEN; Satin/Sateen",
    "100% Polyester (Recycled); Taffeta; TEXTILE-WOVEN",
    "100% Nylon; Taffeta; TEXTILE-WOVEN",
)
# one operation is one corpus the size of the only real one, table1.csv
BATCH_ROWS = 12
UNKNOWN_PER_BATCH = 1  # one row of every batch names an unknown application
CORPUS_BATCHES = 150  # a multiple of the three output formats
FORMATS = ("human", "csv", "structured")

# [vgtc] values with a source: 2 cm is the program's default margin and
# pocket_facing.conf's; 37.561 kPa is pocket_facing.conf's p_min.
MARGIN_CM = 2.0
P_MIN_KPA = 37.561

# geometry.check, the full-disk side: a 1 cm circle inside the 2 cm margin,
# as in ROADMAP's 2 x 1.5 m case (28,959 positions), so every disk lies on
# the piece. Grids of that piece's 4:3 aspect climb a log ladder from 20 to
# 11,970 positions, and the piece itself comes last. The middle rung and
# the top rung come three times each: of the 19 operations the median then
# falls in the middle of the middle rung's samples and the 90th percentile
# among the top rung's, instead of on one of a few samples.
FULL_RADIUS_CM = 1.0
_LADDER = tuple(round(20 * 600 ** (i / 13)) for i in range(14))
CHECK_TARGETS = _LADDER + (_LADDER[8], _LADDER[8], _LADDER[13], _LADDER[13])
ROADMAP_PIECE_CM = (200.0, 150.0)

# geometry.clip, the clipped side: the gripper count and piece of every
# table1.csv row, (grippers, length cm, width cm), each with a radius drawn
# from the row's own calibration at the 2 cm margin, which is how
# pocket_facing.conf's 4.4 cm follows from row 7. Every such radius exceeds
# the margin, so every disk overhangs the piece. Row 6 has no calibration
# and is skipped.
TABLE1_PIECES = (
    (6, 26, 19), (12, 30, 36), (6, 26, 19), (6, 26, 19), (12, 30, 36), (8, 26, 19),
    (6, 26, 5), (6, 30, 5), (6, 26, 5), (6, 26, 5), (6, 30, 5), (8, 26, 5),
)
CLIP_COPIES = 3  # radii drawn per row and cycle

# geometry.calibrate: nominal pieces (cm) x scan steps (mm); row 6 is added
CAL_PIECES_CM = ((26.0, 19.0), (30.0, 36.0), (26.0, 5.0), (30.0, 5.0), (40.0, 30.0), (20.0, 15.0))
CAL_STEPS_MM = (1.0, 0.5, 0.25, 0.2, 0.1)
CAL_RANGE_CM = (1.0, 15.0)

# geometry.outline: vertex counts, each drawn twice per cycle
OUTLINE_VERTICES = (50, 70, 100, 140, 200, 280, 400)


@dataclass(frozen=True)
class CorpusRowSpec:
    lot: str
    application: str
    grippers: int
    length_m: float
    width_m: float
    supply_pa: float


@dataclass(frozen=True)
class CorpusBatch:
    text: str
    rows: tuple[CorpusRowSpec, ...]
    format: str


@dataclass(frozen=True)
class RigSpec:
    """One generated scenario config and the SI values it encodes."""

    text: str
    outline_m: tuple[tuple[float, float], ...]
    mass_kg: float
    friction: float
    acceleration: float
    safety_factor: float
    orifice_m: float
    cup_count: int
    max_vacuum_pa: float
    diameters_m: tuple[float, ...]
    upstream_velocity: float
    radius_m: float | None = None
    p_min_pa: float | None = None
    margin_m: float = 0.02


@dataclass(frozen=True)
class CalibrateSpec:
    length_m: float
    width_m: float
    margin_m: float
    target: int
    low_m: float
    high_m: float
    step_m: float


@dataclass(frozen=True)
class Invocation:
    """One `python -m vacgrab` call and what its result must be."""

    argv: tuple[str, ...]
    expected_code: int
    verdict_of: str | None = None  # config or corpus path whose verdicts stdout must carry


@dataclass(frozen=True)
class CliInputs:
    files: tuple[tuple[str, str], ...]  # (path relative to the checkout, text)
    invocations: tuple[Invocation, ...]


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"vacgrab-bench:{workload}:{seed}")


def _num(value: float, digits: int) -> tuple[str, float]:
    text = f"{value:.{digits}f}"
    return text, float(text)


# ---------------------------------------------------------------------------
# corpus

def corpus_table(rng: random.Random, rows: int, unknown: int, first_lot: int) -> tuple[str, tuple[CorpusRowSpec, ...]]:
    """A table1.csv-format corpus with `unknown` rows of an unknown application."""
    apps = [UNKNOWN_APPLICATION] * unknown + [
        KNOWN_APPLICATIONS[i % 2] for i in range(rows - unknown)
    ]
    rng.shuffle(apps)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CORPUS_HEADER)
    specs = []
    for i, app in enumerate(apps):
        lot = str(first_lot + i)
        grippers = rng.randint(1, 16)
        length = rng.randint(50, 600) / 10  # 5-60 cm at 0.1 cm
        width = rng.randint(50, 600) / 10
        # straddles the 47.1 kPa (bag) and 37.7 kPa (facing) demands
        supply_hpa = rng.randint(300, 650)
        if rng.random() < 0.25:
            supply_text = f"-{supply_hpa * 100}Pa"
            supply_pa = abs(float(-supply_hpa * 100) * 1.0)
        else:
            number, value = _num(-supply_hpa / 10, 1)
            supply_text = f"{number}kPa"
            supply_pa = abs(value * KPA)
        cross = rng.choice(("x", " x ", "×"))
        writer.writerow((
            lot,
            app,
            f"{rng.randint(1, 1999999):06d}{rng.choice(('', '(TW)', '(CN)', ' (CN)'))}",
            rng.choice(MATERIALS),
            str(grippers),
            f"{length:g}cm{cross}{width:g}cm",
            supply_text,
            rng.choice(("通过 Pass", "失败 Fail")),
        ))
        specs.append(CorpusRowSpec(lot, app, grippers, length * CM, width * CM, supply_pa))
    return buf.getvalue(), tuple(specs)


def corpus_batches(seed: int) -> tuple[CorpusBatch, ...]:
    rng = rng_for("corpus", seed)
    batches = []
    for b in range(CORPUS_BATCHES):
        text, rows = corpus_table(rng, BATCH_ROWS, UNKNOWN_PER_BATCH, b * BATCH_ROWS + 1)
        batches.append(CorpusBatch(text, rows, FORMATS[b % len(FORMATS)]))
    return tuple(batches)


# ---------------------------------------------------------------------------
# scenario configs

def _rig(
    rng: random.Random,
    fabric_id: str,
    outline_lines: list[str],
    outline_m: tuple[tuple[float, float], ...],
    vgtc: tuple[float, float, float] | None = None,  # radius cm, p_min kPa, margin cm
) -> RigSpec:
    mass_t, mass = _num(rng.uniform(1.5, 3.0), 2)
    friction_t, friction = _num(rng.uniform(0.45, 0.6), 2)
    accel_t, accel = _num(rng.uniform(3.0, 6.0), 2)
    vac_t, vac = _num(rng.uniform(60.0, 92.0), 1)
    d2_t, d2 = _num(rng.choice((3.0, 3.5, 4.0)), 1)
    vel_t, vel = _num(rng.uniform(10.0, 30.0), 2)
    count = rng.randint(1, 16)
    lines = [
        "[units]",
        "length = cm",
        "",
        "[fabric]",
        f"id = {fabric_id}",
        *outline_lines,
        f"mass = {mass_t} g",
        f"friction = {friction_t}",
        "permeability = impermeable",
        f"material = {rng.choice(MATERIALS)}",
        "",
        "[motion]",
        f"acceleration = {accel_t}",
        "safety_factor = 2",
        "load_case = friction_lift",
        "",
        "[cup]",
        "orifice_diameter = 2 mm",
        f"count = {count}",
        "",
        "[generator]",
        f"max_vacuum = -{vac_t} kPa",
        "",
        "[line]",
        "inner_diameter = 5.2 mm",
        "length = 100",
        f"upstream_velocity = {vel_t}",
        "",
        "[line]",
        f"inner_diameter = {d2_t} mm",
        "length = 10",
    ]
    radius = p_min = None
    margin = 0.02
    if vgtc is not None:
        r_t, r = _num(vgtc[0], 3)
        p_t, p = _num(vgtc[1], 3)
        m_t, m = _num(vgtc[2], 2)
        lines += ["", "[vgtc]", f"radius = {r_t}", f"p_min = {p_t} kPa", f"margin = {m_t}"]
        radius, p_min, margin = r * CM, p * KPA, m * CM
    return RigSpec(
        text="\n".join(lines) + "\n",
        outline_m=outline_m,
        mass_kg=mass * GRAM,
        friction=friction,
        acceleration=accel,
        safety_factor=2.0,
        orifice_m=2.0 * MM,
        cup_count=count,
        max_vacuum_pa=abs(-vac * KPA),
        diameters_m=(5.2 * MM, d2 * MM),
        upstream_velocity=vel,
        radius_m=radius,
        p_min_pa=p_min,
        margin_m=margin,
    )


def vgtc_rig(rng: random.Random, fabric_id: str, length_cm: float, width_cm: float, radius_cm: float) -> RigSpec:
    """A rectangle with a grabbing circle of the given radius, the 2 cm margin and pocket_facing's p_min."""
    length_t, length = _num(length_cm, 4)
    width_t, width = _num(width_cm, 4)
    return _rig(
        rng,
        fabric_id,
        [f"length = {length_t}", f"width = {width_t}"],
        oracles.rectangle(length * CM, width * CM),
        vgtc=(radius_cm, P_MIN_KPA, MARGIN_CM),
    )


def full_disk_rig(rng: random.Random, fabric_id: str, target: int) -> RigSpec:
    """About `target` positions of the 1 cm circle on a 4:3 piece, every disk wholly on it."""
    length_cm, width_cm = ROADMAP_PIECE_CM
    cols = max(1, round(math.sqrt(target * length_cm / width_cm)))
    rows = max(1, round(target / cols))
    r = FULL_RADIUS_CM
    length = (cols - 1) * r + 2 * MARGIN_CM + rng.uniform(0.05, 0.95) * r
    width = (rows - 1) * r + 2 * MARGIN_CM + rng.uniform(0.05, 0.95) * r
    return vgtc_rig(rng, fabric_id, length, width, r)


def star_rig(rng: random.Random, fabric_id: str, n: int) -> RigSpec:
    """A simple star-shaped outline of n vertices, no grabbing circle.

    Angles increase strictly (gaps between 0.4 and 1.6 of 2*pi/n) and
    every radius is positive, so each ray from the centre crosses the
    boundary once: the polygon is simple by construction.
    """
    big = rng.uniform(8.0, 25.0)  # cm
    texts = []
    verts = []
    for k in range(n):
        theta = 2.0 * math.pi * (k + 0.2 + 0.6 * rng.random()) / n
        rho = big * rng.uniform(0.55, 1.0)
        x_t, x = _num(big + rho * math.cos(theta), 4)
        y_t, y = _num(big + rho * math.sin(theta), 4)
        texts.append(f"{x_t}, {y_t}")
        verts.append((x * CM, y * CM))
    return _rig(rng, fabric_id, ["vertices = " + "; ".join(texts)], tuple(verts))


def check_rigs(seed: int) -> tuple[RigSpec, ...]:
    rng = rng_for("geometry.check", seed)
    rigs = [full_disk_rig(rng, f"check-{i:02d}", t) for i, t in enumerate(CHECK_TARGETS)]
    rigs.append(vgtc_rig(rng, "check-roadmap", *ROADMAP_PIECE_CM, FULL_RADIUS_CM))
    rng.shuffle(rigs)
    return tuple(rigs)


def clip_rigs(seed: int) -> tuple[RigSpec, ...]:
    rng = rng_for("geometry.clip", seed)
    rigs = []
    for row, (grippers, length, width) in enumerate(TABLE1_PIECES, start=1):
        spec = _cal_spec(length * CM, width * CM, 1.0, grippers)
        spacings = [s for a, b in oracles.calibrate_intervals(spec)
                    for s in oracles.calibrate_samples(spec) if a <= s <= b]
        for copy in range(CLIP_COPIES if spacings else 0):
            radius = round(rng.choice(spacings) / CM, 3)
            rigs.append(vgtc_rig(rng, f"clip-{row:02d}-{copy}", length, width, radius))
    rng.shuffle(rigs)
    return tuple(rigs)


def outline_rigs(seed: int) -> tuple[RigSpec, ...]:
    rng = rng_for("geometry.outline", seed)
    rigs = [
        star_rig(rng, f"outline-{n}-{copy}", n)
        for copy in range(2)
        for n in OUTLINE_VERTICES
    ]
    rng.shuffle(rigs)
    return tuple(rigs)


# ---------------------------------------------------------------------------
# calibration requests

def _cal_spec(length_m: float, width_m: float, step_mm: float, target: int) -> CalibrateSpec:
    return CalibrateSpec(
        length_m=length_m,
        width_m=width_m,
        margin_m=MARGIN_CM * CM,
        target=target,
        low_m=CAL_RANGE_CM[0] * CM,
        high_m=CAL_RANGE_CM[1] * CM,
        step_m=step_mm * MM,
    )


def calibrate_specs(seed: int) -> tuple[CalibrateSpec, ...]:
    """Pieces x steps with matching and unmatched targets, plus corpus row 6."""
    rng = rng_for("geometry.calibrate", seed)
    specs = []
    for length_cm, width_cm in CAL_PIECES_CM:
        for step_mm in CAL_STEPS_MM:
            _, length = _num(length_cm * rng.uniform(0.98, 1.02), 2)
            _, width = _num(width_cm * rng.uniform(0.98, 1.02), 2)
            probe = _cal_spec(length * CM, width * CM, step_mm, 1)
            reachable = sorted({c for c in oracles.calibrate_counts(probe) if c > 0})
            if rng.random() < 0.5:
                target = rng.choice(reachable)
            else:
                missing = [c for c in range(1, reachable[-1]) if c not in set(reachable)]
                target = rng.choice(missing) if missing else reachable[-1] + 1
            specs.append(_cal_spec(length * CM, width * CM, step_mm, target))
    # corpus row 6: 8 grippers on 26 x 19 cm has no spacing; the answer is empty
    specs.append(_cal_spec(26.0 * CM, 19.0 * CM, 1.0, 8))
    rng.shuffle(specs)
    return tuple(specs)


# ---------------------------------------------------------------------------
# command lines

SHIPPED_BAG = "src/vacgrab/data/pocket_bag.conf"
SHIPPED_FACING = "src/vacgrab/data/pocket_facing.conf"


def cli_inputs(seed: int, workdir: str) -> CliInputs:
    """Files to write under `workdir` and the argv list of one cycle.

    Expected exit codes: 2 for a config with an unknown key; 3 for
    --strict when advisories exist. Both shipped configs carry a Mach
    advisory (37.14 m/s into a 5.2 -> 2 mm step reaches about 251 m/s),
    and a generated corpus with unknown applications has row errors.
    Generated rigs stay below 100 m/s and carry no advisory.
    """
    rng = rng_for("cli", seed)
    a = full_disk_rig(rng, "cli-a", rng.randint(12, 40))
    b = full_disk_rig(rng, "cli-b", rng.randint(12, 40))
    bad_text = a.text.replace("friction =", "frictoin =")
    corpus_text, _ = corpus_table(rng, BATCH_ROWS, UNKNOWN_PER_BATCH, 1)
    path = {name: f"{workdir}/{name}" for name in ("a.conf", "b.conf", "bad.conf", "corpus.csv")}
    files = (
        (path["a.conf"], a.text),
        (path["b.conf"], b.text),
        (path["bad.conf"], bad_text),
        (path["corpus.csv"], corpus_text),
    )
    cal_a = rng.choice(sorted({
        c for c in oracles.calibrate_counts(_cal_spec(a.outline_m[2][0], a.outline_m[2][1], 2.0, 1))
        if c > 0
    }))

    def inv(args, code=0, verdict_of=None):
        return Invocation(tuple(args), code, verdict_of)

    bag, facing, ga, gb = SHIPPED_BAG, SHIPPED_FACING, path["a.conf"], path["b.conf"]
    corpus = path["corpus.csv"]
    invocations = [
        inv(["force", "--config", bag]),
        inv(["force", "--config", ga, "--format", "structured"]),
        inv(["pressure", "--config", bag]),
        inv(["pressure", "--config", gb, "--format", "structured"]),
        inv(["line-loss", "--config", bag]),
        inv(["line-loss", "--config", ga, "--format", "structured"]),
        inv(["plan", "--config", facing]),
        inv(["plan", "--config", ga, "--format", "structured", "--svg", f"{workdir}/plan-a.svg"]),
        inv(["plan", "--config", gb, "--spacing", "2 cm"]),
        inv(["calibrate", "--config", bag, "--target-count", "6"]),
        inv(["calibrate", "--config", bag, "--target-count", "8", "--format", "structured"]),
        inv(["calibrate", "--config", ga, "--target-count", str(cal_a), "--step", "2 mm",
             "--format", "structured"]),
        inv(["check", "--config", bag]),
        inv(["check", "--config", bag, "--format", "csv"]),
        inv(["check", "--config", bag, "--format", "structured"], verdict_of=bag),
        inv(["check", "--config", bag, "--strict"], code=3),
        inv(["check", "--config", facing, "--format", "structured"], verdict_of=facing),
        inv(["check", "--config", facing, "--svg", f"{workdir}/facing.svg"]),
        inv(["check", "--config", ga, "--format", "structured", "--svg", f"{workdir}/a.svg"],
            verdict_of=ga),
        inv(["check", "--config", gb, "--format", "csv", "--strict"]),
        inv(["check", "--config", path["bad.conf"]], code=2),
        inv(["batch"]),
        inv(["batch", "--format", "structured"], verdict_of="bundled"),
        inv(["batch", "--corpus", corpus, "--format", "csv"]),
        inv(["batch", "--corpus", corpus, "--format", "structured"], verdict_of=corpus),
        inv(["batch", "--corpus", corpus, "--strict"], code=3),
    ]
    rng.shuffle(invocations)
    return CliInputs(files, tuple(invocations))
