import pytest

from vacgrab import (
    FabricPiece,
    MotionProfile,
    PipeSegment,
    Polygon,
    Scenario,
    SuctionCup,
    VacuumGenerator,
)
from vacgrab.model import AMBIENT


@pytest.fixture
def consts():
    return AMBIENT


@pytest.fixture
def pocket_bag():
    return FabricPiece(
        id="pocket_bag",
        outline=Polygon.rectangle(0.26, 0.19),
        mass=2.5e-3,
        friction_coefficient=0.5,
        material="100% Polyester; Plain Weave; TEXTILE-WOVEN",
    )


@pytest.fixture
def pocket_facing():
    return FabricPiece(
        id="pocket_facing",
        outline=Polygon.rectangle(0.26, 0.05),
        mass=2.0e-3,
        friction_coefficient=0.5,
        material="100% Polyester; Plain Weave; TEXTILE-WOVEN",
    )


@pytest.fixture
def std_motion():
    return MotionProfile()


@pytest.fixture
def std_cup():
    return SuctionCup(orifice_diameter=2e-3, count=1)


@pytest.fixture
def std_generator():
    return VacuumGenerator()


@pytest.fixture
def std_line():
    return (
        PipeSegment(inner_diameter=5.2e-3, length=1.0),
        PipeSegment(inner_diameter=2.0e-3, length=0.1),
    )


def make_scenario(fabric, line, **overrides):
    base = dict(
        fabric=fabric,
        motion=MotionProfile(),
        cup=SuctionCup(orifice_diameter=2e-3, count=1),
        generator=VacuumGenerator(),
        line=line,
        upstream_velocity=37.14,
    )
    base.update(overrides)
    return Scenario(**base)


@pytest.fixture
def bag_scenario(pocket_bag, std_line):
    return make_scenario(pocket_bag, std_line)


@pytest.fixture
def facing_scenario(pocket_facing, std_line):
    return make_scenario(pocket_facing, std_line)
