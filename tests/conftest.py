import json
import sys
from pathlib import Path

import pytest

from quadlift import parse_triangulation

DATA = Path(__file__).parent / "data"

# The seeded generators of the benchmark, imported as ``generators``.
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))


def load_doc(name):
    return json.loads((DATA / name).read_text())


def load_tri(name):
    return parse_triangulation(load_doc(name))


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def double_tet():
    return load_tri("double_tet.json")


@pytest.fixture(scope="session")
def fig8():
    return load_tri("fig8.json")


@pytest.fixture(scope="session")
def three_tet():
    return load_tri("three_tet.json")


@pytest.fixture(scope="session")
def one_tet():
    return load_tri("one_tet.json")


@pytest.fixture(scope="session")
def pentachoron():
    return load_tri("pentachoron.json")


@pytest.fixture(scope="session")
def all_fixtures(double_tet, fig8, three_tet, one_tet, pentachoron):
    return {
        "double_tet": double_tet,
        "fig8": fig8,
        "three_tet": three_tet,
        "one_tet": one_tet,
        "pentachoron": pentachoron,
    }


@pytest.fixture(scope="session")
def acceptance_fixtures(double_tet, three_tet, fig8):
    """The acceptance fixture set: doubled tetrahedron, a 3-tet closed
    orientable sphere-link triangulation, and the figure-eight complement."""
    return {"double_tet": double_tet, "three_tet": three_tet, "fig8": fig8}


@pytest.fixture(scope="session")
def sphere_fixtures(double_tet, three_tet):
    return {"double_tet": double_tet, "three_tet": three_tet}
