"""The benchmark's workloads: which jobs each runs, why, and the known answers.

A job is one ``compbase`` command line.  Its known answer is an exit code
and, for exit 1, the clause the report must name in ``first_failure``.  The
answers come from the mathematics of the inputs, not from running compbase:

* every bundled and every generated lattice model is a product of chains
  (Z^n under a cone unimodularly equivalent to the standard one) whose
  declared foci are the projections onto blocks of coordinates, so every
  law holds and every command exits 0;
* m3 and m4 declare projection families that contain 0 and I and are
  closed under I - p and under products of commuting members, so their
  conjugation bases satisfy the laws and their commands exit 0 too;
* each corrupted fixture breaks one named law by construction (see
  ``FIXTURES``), so it exits 1 naming that law;
* a missing file, a malformed element and a float entry are usage errors,
  exit 2, as is retraction enumeration on a matrix model.

Every workload is closed loop with one client: the next job starts when the
previous verdict is in.  The program is single-threaded, so one job at a
time is all the load it can take.  All inputs are derived from the workload
seed; the program only ever sees the generated argv and model files.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

MODELS = Path("models")

# one sample budget for every sampled job of matrix-report
MATRIX_SAMPLES = 8
# small budgets for the matrix jobs of cli-mixed
CLI_MATRIX_SAMPLES = 2

# fixture -> the law it breaks, and therefore the clause named on exit 1
FIXTURES = {
    # J_(1,0) and J_(0,1) exchanged: each map's focus J(u) is the other focus
    "corrupt_swapped_foci": "family_member_compression",
    # (0,1) dropped: the foci are not closed under u - p
    "corrupt_missing_closure": "foci_sub_effect_algebra",
    # pairs of a 4-cube that overlap without nesting: not normal
    "corrupt_nonnormal_foci": "foci_normal_subalgebra",
    # J_(1,0) = [[1,1],[0,0]] sends u to (2,0), outside [0, u]
    "corrupt_focus_outside_interval": "family_member_compression",
}


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    code: int
    clause: str | None = None


@dataclass(frozen=True)
class Plan:
    jobs: tuple[Job, ...]
    models: tuple[str, ...]          # every model file the jobs read
    in_process: bool                 # jobs share one interpreter, else one process each
    probes: tuple[Job, ...] = ()     # known-defect probes, run once and reported apart


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    bypasses: str
    build: Callable[[int, Path], Plan]


# ---------------------------------------------------------------------------
# model generation


def _diag(bits) -> list[list[int]]:
    n = len(bits)
    return [[bits[i] if i == j else 0 for j in range(n)] for i in range(n)]


def standard_cone_model(unit, blocks) -> dict:
    """Z^n under the standard cone, as the product of the coordinate blocks.

    The base has one focus per union of blocks: the unit restricted to those
    coordinates, compressed onto by the matching 0/1 diagonal matrix.
    """
    n = len(unit)
    comps = []
    for chosen in itertools.product((0, 1), repeat=len(blocks)):
        bits = [0] * n
        for keep, block in zip(chosen, blocks):
            for i in block:
                bits[i] = keep
        comps.append({"focus": [b * u for b, u in zip(bits, unit)], "matrix": _diag(bits)})
    return {"kind": "lattice_cone", "dim": n, "cone_rows": _diag([1] * n),
            "unit": list(unit), "compressions": comps}


def m5_cone_model(unit) -> dict:
    """Z^2 under the m5 cone g1 >= 0, g1 + g2 >= 0.

    h = (g1, g1 + g2) maps it onto the standard cone with unit (x, x + y), so
    the coordinate projections of h give the base: foci (x, -x) and (0, x + y).
    """
    x, y = unit
    comps = [
        {"focus": [0, 0], "matrix": [[0, 0], [0, 0]]},
        {"focus": [x, -x], "matrix": [[1, 0], [-1, 0]]},
        {"focus": [0, x + y], "matrix": [[0, 0], [1, 1]]},
        {"focus": [x, y], "matrix": [[1, 0], [0, 1]]},
    ]
    return {"kind": "lattice_cone", "dim": 2, "cone_rows": [[1, 0], [1, 1]],
            "unit": [x, y], "compressions": comps}


def _mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _unimodular(rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """A seeded 2x2 integer matrix of determinant 1 and its inverse."""
    t = [[1, 0], [0, 1]]
    while t == [[1, 0], [0, 1]]:
        for _ in range(3):
            k = rng.choice((-2, -1, 1, 2))
            shear = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
            t = _mat_mul(shear, t)
    (a, b), (c, d) = t
    return t, [[d, -b], [-c, a]]


def change_coordinates(doc: dict, t, t_inv) -> dict:
    """The isomorphic copy of a lattice model under g -> t g."""
    def apply(v):
        return [sum(x * y for x, y in zip(row, v)) for row in t]
    return {
        "kind": "lattice_cone",
        "dim": doc["dim"],
        "cone_rows": _mat_mul(doc["cone_rows"], t_inv),
        "unit": apply(doc["unit"]),
        "compressions": [
            {"focus": apply(c["focus"]), "matrix": _mat_mul(_mat_mul(t, c["matrix"]), t_inv)}
            for c in doc["compressions"]
        ],
    }


def interval(doc: dict) -> list[tuple[int, ...]]:
    """[0, u] of a small lattice model, by brute force over a box."""
    rows, unit = doc["cone_rows"], doc["unit"]
    reach = 2 * sum(abs(u) for u in unit) + 1
    out = []
    for g in itertools.product(range(-reach, reach + 1), repeat=doc["dim"]):
        if all(0 <= sum(r * x for r, x in zip(row, g)) <= sum(r * u for r, u in zip(row, unit))
               for row in rows):
            out.append(g)
    return out


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return str(path)


def _elem(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# plans


def matrix_report(seed: int, workdir: Path) -> Plan:
    flags = ("--samples", str(MATRIX_SAMPLES), "--seed", str(seed))
    m3, m4 = str(MODELS / "m3.json"), str(MODELS / "m4.json")
    jobs = (
        Job("report-m3", ("report", m3, *flags), 0),
        Job("theorems-m4", ("theorems", m4, *flags), 0),
    )
    return Plan(jobs, (m3, m4), in_process=True)


# Units (a, b) with |E| = (a + 1)(b + 1) = 24 or 25.  The standard cone gets
# (a, b) and the m5 cone the mirrored h-unit (b, a), that is (x, y) =
# (b, a - b), so the pair of reports costs about the same whichever unit the
# seed draws: the seed changes the inputs, not the amount of work.
LATTICE_UNITS = ((3, 5), (5, 3), (2, 7), (7, 2), (4, 4))


def lattice_report(seed: int, workdir: Path) -> Plan:
    a, b = random.Random(seed).choice(LATTICE_UNITS)
    models = [
        (f"z2-std-{a}x{b}", standard_cone_model((a, b), ((0,), (1,)))),
        (f"z2-m5-{b}x{a - b}", m5_cone_model((b, a - b))),
        ("z3-std-1x1x1", standard_cone_model((1, 1, 1), ((0,), (1, 2)))),
    ]
    paths, jobs = [], []
    for name, doc in models:
        path = _write(workdir, name, doc)
        paths.append(path)
        jobs.append(Job(f"report-{name}", ("report", path, "--seed", str(seed)), 0))
    return Plan(tuple(jobs), tuple(paths), in_process=True)


def _lattice_commands(label: str, path: str, doc: dict, rng: random.Random, seed: str):
    elems = interval(doc)
    foci = [c["focus"] for c in doc["compressions"]]
    e, f = rng.choice(elems), rng.choice(elems)
    v, kind = rng.choice(foci), rng.choice(("image", "commutant"))
    s = ("--seed", seed)
    return [
        Job(f"validate-{label}", ("validate", path, *s), 0),
        Job(f"theorems-{label}", ("theorems", path, *s), 0),
        Job(f"compat-table-{label}", ("compat-table", path, *s), 0),
        Job(f"mackey-{label}", ("mackey", path, _elem(e), _elem(f), *s), 0),
        Job(f"substructure-{label}", ("substructure", path, _elem(v), kind, *s), 0),
        Job(f"retractions-{label}", ("retractions", path, *s), 0),
        Job(f"report-{label}", ("report", path, *s), 0),
    ]


def _matrix_elem(p) -> str:
    return ",".join(str(x) for row in p for x in row)


def cli_mixed(seed: int, workdir: Path) -> Plan:
    rng = random.Random(seed)
    s = str(seed)
    jobs: list[Job] = []
    models: list[str] = []
    for label in ("m1", "m2", "m5"):
        path = str(MODELS / f"{label}.json")
        models.append(path)
        doc = json.loads(Path(path).read_text())
        jobs += _lattice_commands(label, path, doc, rng, s)

    small = ("--samples", str(CLI_MATRIX_SAMPLES), "--seed", s)
    m3, m4 = str(MODELS / "m3.json"), str(MODELS / "m4.json")
    models += [m3, m4]
    m3_rank_one = [p for p in json.loads(Path(m3).read_text())["projections"]
                   if p not in ([[0, 0], [0, 0]], [[1, 0], [0, 1]])]
    e, f = rng.sample(m3_rank_one, 2)
    jobs += [
        Job("validate-m3", ("validate", m3, "--samples", "8", "--seed", s), 0),
        Job("mackey-m3", ("mackey", m3, _matrix_elem(e), _matrix_elem(f), *small), 0),
        Job("substructure-m3", ("substructure", m3, _matrix_elem(rng.choice(m3_rank_one)),
                                rng.choice(("image", "commutant")), *small), 0),
        Job("retractions-m3", ("retractions", m3, *small), 2),
        Job("validate-m4", ("validate", m4, *small), 0),
    ]

    for stem, clause in FIXTURES.items():
        path = str(MODELS / "fixtures" / f"{stem}.json")
        models.append(path)
        cmd = rng.choice(("validate", "theorems", "report"))
        jobs.append(Job(f"{cmd}-{stem}", (cmd, path, "--seed", s), 1, clause))

    float_doc = json.loads((MODELS / "m3.json").read_text())
    i, j = rng.randrange(2), rng.randrange(2)
    float_doc["projections"][rng.randrange(1, 5)][i][j] = 0.5
    bad_elem = rng.choice(("1,x", "1", "1/2,0", "1,0,0"))
    jobs += [
        Job("usage-missing-file", ("validate", str(workdir / "missing.json"), "--seed", s), 2),
        Job("usage-bad-element", ("mackey", str(MODELS / "m1.json"), bad_elem, "0,1", "--seed", s), 2),
        Job("usage-float-entry", ("validate", _write(workdir, "float-entry", float_doc), "--seed", s), 2),
    ]
    rng.shuffle(jobs)

    # Isomorphic copies of m1 and m5 must validate like the originals (exit 0).
    # On most draws the copy's cone has no axis-aligned row, and
    # models.integer_points then never starts its bound propagation and the
    # command exits 2 ("unit interval infinite").  Until that is fixed the
    # copies run once per run, outside the timed passes, and are reported
    # by name; they are kept at unit scale k = 1 so that the fix adds little
    # time when they join the timed jobs.
    probes = []
    for label in ("m1", "m5"):
        t, t_inv = _unimodular(rng)
        doc = change_coordinates(json.loads((MODELS / f"{label}.json").read_text()), t, t_inv)
        path = _write(workdir, f"{label}-coords", doc)
        probes.append(Job(f"validate-{label}-coords", ("validate", path, "--seed", s), 0))
    return Plan(tuple(jobs), tuple(models), in_process=False, probes=tuple(probes))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "matrix-report",
            why="the sampler and exact linear algebra path: `report` on m3 (dim 2, "
            "6 foci) and `theorems` on m4 (dim 3, 12 foci) at one fixed sample budget; "
            "a full m4 `report` takes about 28 s even at the 8-sample floor, too long "
            "to repeat",
            stresses="matrix_model samplers, linalg kernels (2x2/3x3 SymMat, 3x3/6x6 "
            "endomorphisms), elements.conjugate, config.rng streams, "
            "validate_compression_base re-runs per focus",
            bypasses="models.integer_points, enumerate_retractions, lattice apply",
            build=matrix_report,
        ),
        Workload(
            "lattice-report",
            why="the exhaustive path with no samplers: `report` on generated Z^2 "
            "models (standard cone and the m5 cone, units drawn from the seed, |E| = 24 "
            "or 25) with coordinate bases, and on Z^3 with unit (1,1,1) split as Z x Z^2; "
            "k = 6-8 grids take 8-24 s each, too long to repeat",
            stresses="models.integer_points, Endomorphism.apply, the |E|^dim "
            "retraction search, mackey_decompositions, substructure re-validation",
            bypasses="matrix_model samplers and the Fraction matrix kernels "
            "(only mat_vec, rank and invert run here)",
            build=lattice_report,
        ),
        Workload(
            "cli-mixed",
            why="short cold commands, one fresh `python -m compbase.cli` process each: "
            "all 7 commands on m1, m2 and m5, small-budget m3/m4 commands, the 4 "
            "corrupted fixtures and usage errors; start-up and early exits dominate",
            stresses="import cost, modelfile.load_model, cli.main, reporting.render_json, "
            "early-exit refutations",
            bypasses="long sampling and retraction sweeps, so work moved into import or "
            "load shows here as a regression",
            build=cli_mixed,
        ),
    )
}
