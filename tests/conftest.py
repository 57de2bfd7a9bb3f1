import json
import random
import sys
from pathlib import Path

import pytest

from quadlift import parse_triangulation

DATA = Path(__file__).parent / "data"

# The seeded generators of the benchmark, imported as ``generators``.
sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))

import generators as gen  # noqa: E402
from oracles import suspended_surface  # noqa: E402


def load_doc(name):
    return json.loads((DATA / name).read_text())


def load_tri(name):
    return parse_triangulation(load_doc(name))


# (name, document): the fixtures, stacked spheres, fig8 covers and the
# suspended surfaces of genus 2 and 3
FAMILY_DOCS = (
    [(name, load_doc(name + ".json"))
     for name in ("double_tet", "fig8", "three_tet", "one_tet", "pentachoron")]
    + [("stacked-%d" % m, gen.stacked(random.Random(m), m))
       for m in (0, 1, 4, 13, 40)]
    + [("cover-%d" % n, gen.fig8_cover(n)) for n in (1, 2, 5, 16)]
    + [("suspended-%d" % g, suspended_surface(g)) for g in (2, 3)])


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
