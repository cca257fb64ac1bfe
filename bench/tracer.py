"""Per-function spans and counters for the traced benchmark run.

The tracer wraps the public functions of each ``compbase`` module from
outside the package: every binding of a wrapped function in every loaded
``compbase.*`` module is replaced, so both ``linalg.mat_mul(...)`` and
``from .models import compose`` call sites go through the wrapper.  Class
methods are replaced on the class itself.

Each wrapper keeps a call count and a self time, which is the span's
duration minus the time spent in wrapped children.  All state lives on one
``Tracer`` object; ``snapshot()`` returns plain JSON counters that
``merge()`` can add up across jobs and processes.

Which end-to-end metric each layer should move, written down before
measuring:

* ``linalg.*``, ``matrix_model.*``, ``elements.conjugate`` and
  ``config.rng.reuse`` move ``wall_s`` on matrix-report and barely move
  lattice-report, where only ``mat_vec`` (via ``apply``) and ``rank`` /
  ``invert`` (the retraction basis) run;
* ``models.Endomorphism.apply``, ``models.integer_points``,
  ``compression.enumerate_retractions`` and
  ``effect_algebra.mackey_decompositions`` move ``wall_s`` on
  lattice-report and not on matrix-report;
* ``compression.validate_compression_base.calls`` and
  ``compatibility.substructure_report.self_s`` move ``wall_s`` on both
  report workloads;
* ``modelfile.load_model``, ``reporting.render_json``, ``cli.main`` and
  import cost move ``setup_s`` and ``latency_p50_s`` on cli-mixed;
* the cache hit ratios move ``wall_s`` and can move ``peak_rss_mb`` the
  other way.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# module -> functions to wrap ("Class.method" for methods)
TARGETS = {
    "cli": ("main",),
    "modelfile": ("load_model",),
    "config": ("CheckConfig.rng",),
    "linalg": ("mat_mul", "mat_vec", "invert", "is_psd", "rank", "int_det"),
    "elements": ("conjugate",),
    "matrix_model": (
        "cayley_orthogonal",
        "draw_effect",
        "draw_projection",
        "draw_projection_pair",
        "draw_nested_projections",
        "draw_positive",
    ),
    "models": (
        "Endomorphism.apply",
        "compose",
        "endo_equal",
        "integer_points",
        "validate_unital_group",
    ),
    "effect_algebra": (
        "mackey_decompositions",
        "is_normal_subalgebra",
        "is_sub_effect_algebra",
    ),
    "compression": (
        "validate_compression_base",
        "enumerate_retractions",
        "retraction_certificate",
        "is_compression",
        "kernel_complement_check",
        "compressible_group_report",
    ),
    "compatibility": (
        "theorem_report",
        "omp_report",
        "compat_battery",
        "meet",
        "substructure_report",
        "direct_product_report",
    ),
    "reporting": ("render_json",),
}

# mat_mul is also split by the row count of its left operand
MAT_MUL_SIZES = (2, 3, 6)

# lru caches whose hit ratio is reported: metric prefix -> (module, attribute)
CACHES = {
    "models.conjugation_endo": ("models", "conjugation_endo"),
    "models.interval": ("models", "_lattice_interval"),
}

RNG = "config.CheckConfig.rng"
MEET = "compatibility.meet"


def _cache(prefix: str):
    """The lru-cached function behind a CACHES entry, or None."""
    mod_name, attr = CACHES[prefix]
    cached = getattr(sys.modules.get(f"compbase.{mod_name}"), attr, None)
    return cached if hasattr(cached, "cache_info") else None


def span_names() -> list[str]:
    names = [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]
    names += [f"linalg.mat_mul.n{n}" for n in MAT_MUL_SIZES]
    return names


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.meet_undefined = 0
        self.rng_streams = 0
        self._job_streams: set = set()
        self.missing: list[str] = []
        self._children = [0.0]
        self._cache_base: dict[str, tuple[int, int]] = {}

    def wrap(self, name: str, fn):
        calls, self_s, children = self.calls, self.self_s, self._children
        split = name == "linalg.mat_mul"
        is_rng = name == RNG
        undefined = ()
        if name == MEET:
            undefined = getattr(sys.modules["compbase.compatibility"], "MeetUndefinedError", ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_rng:
                key = (args[0].seed, args[1] if len(args) > 1 else kwargs.get("tag", ""))
                if key not in self._job_streams:
                    self._job_streams.add(key)
                    self.rng_streams += 1
            children.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except undefined:
                self.meet_undefined += 1
                raise
            finally:
                span = perf_counter() - start
                own = span - children.pop()
                children[-1] += span
                calls[name] += 1
                self_s[name] += own
                if split:
                    sub = f"{name}.n{len(args[0])}"
                    calls[sub] += 1
                    self_s[sub] += own

        return wrapper

    def install(self) -> None:
        """Wrap every target; call after ``import compbase``.

        A target the package no longer has is listed in ``missing`` and its
        metrics read 0, so that a refactor of compbase does not break the
        traced run.
        """
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "compbase" or n.startswith("compbase."))
        ]
        for mod_name, quals in TARGETS.items():
            mod = sys.modules.get(f"compbase.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(mod, owner_name, None) if owner_name else mod
                if not callable(vars(owner).get(attr) if owner is not None else None):
                    self.missing.append(name)
                    continue
                original = vars(owner)[attr]
                wrapped = self.wrap(name, original)
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        self.missing += [prefix for prefix in CACHES if _cache(prefix) is None]
        self._cache_base = self._cache_counts()

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        counts = {}
        for prefix in CACHES:
            cached = _cache(prefix)
            info = cached.cache_info() if cached is not None else None
            counts[prefix] = (info.hits, info.misses) if info else (0, 0)
        return counts

    def begin_job(self) -> None:
        """Streams count as distinct (seed, tag) pairs within one job."""
        self._job_streams = set()

    def snapshot(self) -> dict:
        caches = {}
        for prefix, (hits, misses) in self._cache_counts().items():
            hits0, misses0 = self._cache_base[prefix]
            caches[prefix] = {"hits": hits - hits0, "misses": misses - misses0}
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "meet_undefined": self.meet_undefined,
            "rng_streams": self.rng_streams,
            "caches": caches,
            "missing": self.missing,
        }


def empty_snapshot() -> dict:
    return {
        "calls": {},
        "self_s": {},
        "meet_undefined": 0,
        "rng_streams": 0,
        "caches": {p: {"hits": 0, "misses": 0} for p in CACHES},
        "missing": [],
    }


def merge(total: dict, part: dict) -> dict:
    """Add the counters of ``part`` into ``total`` and return ``total``."""
    for key in ("calls", "self_s"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["meet_undefined"] += part["meet_undefined"]
    total["rng_streams"] += part["rng_streams"]
    for prefix, counts in part["caches"].items():
        for k, v in counts.items():
            total["caches"][prefix][k] += v
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(snap: dict) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) for every per-layer metric of one traced pass."""
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        if name == RNG:
            continue
        out[f"{name}.calls"] = (snap["calls"].get(name, 0), "count")
        out[f"{name}.self_s"] = (snap["self_s"].get(name, 0.0), "s")
    rng_calls = snap["calls"].get(RNG, 0)
    out["config.rng.calls"] = (rng_calls, "count")
    out["config.rng.streams"] = (snap["rng_streams"], "count")
    out["config.rng.reuse"] = (_ratio(rng_calls - snap["rng_streams"], rng_calls), "ratio")
    for prefix, c in snap["caches"].items():
        lookups = c["hits"] + c["misses"]
        out[f"{prefix}.lookups"] = (lookups, "count")
        out[f"{prefix}.hit_ratio"] = (_ratio(c["hits"], lookups), "ratio")
    out["compatibility.meet.undefined_ratio"] = (
        _ratio(snap["meet_undefined"], snap["calls"].get(MEET, 0)),
        "ratio",
    )
    return out
