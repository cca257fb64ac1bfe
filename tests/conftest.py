import pytest

from itertools import product
from pathlib import Path

from hypothesis import assume, strategies as st

from compbase import CheckConfig, load_model

REPO = Path(__file__).resolve().parent.parent
MODELS_DIR = REPO / "models"
FIXTURES_DIR = MODELS_DIR / "fixtures"

BUNDLED = ("m1", "m2", "m3", "m4", "m5")
LATTICE = ("m1", "m2", "m5")
MATRIX = ("m3", "m4")


@pytest.fixture(scope="session")
def fast_cfg():
    """Small sample counts keep the matrix sweeps quick in unit tests."""
    return CheckConfig(height_bound=3, samples=40, seed=0)


@pytest.fixture(scope="session")
def bundled():
    """name -> (model, declared base) for every bundled model file."""
    return {name: load_model(MODELS_DIR / f"{name}.json") for name in BUNDLED}


@st.composite
def seeded_cones(draw):
    """Two or three cone rows in Z^2 and a unit.

    The unit is adj(R) s for the first two rows R and some s > 0, so
    R u = det(R) s: strictly inside the cone those two rows cut out.
    """
    entry = st.integers(-3, 3)
    rows = draw(st.lists(st.tuples(entry, entry), min_size=2, max_size=3))
    (a, b), (c, d) = rows[:2]
    det = a * d - b * c
    assume(det != 0)
    s, t = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    sign = 1 if det > 0 else -1
    return rows, (sign * (d * s - b * t), sign * (a * t - c * s))


def interval_sweep_equal(structure, a, b):
    """a and b agree on every element of the structure's unit interval.

    The interval sweep that models.endo_equal replaced with one matrix
    comparison on finite structures, kept as its oracle.
    """
    return all(a.apply(e) == b.apply(e) for e in structure.interval())


def corner_model(unit) -> dict:
    """The standard cone with `unit`, based on every block of coordinates."""

    dim = len(unit)
    compressions = []
    for bits in product((0, 1), repeat=dim):
        compressions.append(
            {
                "focus": [b * x for b, x in zip(bits, unit)],
                "matrix": [[b if i == j else 0 for j in range(dim)] for i, b in enumerate(bits)],
            }
        )
    cone = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return {"kind": "lattice_cone", "dim": dim, "cone_rows": cone, "unit": list(unit),
            "compressions": compressions}
