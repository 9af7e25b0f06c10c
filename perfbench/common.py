"""Shared helpers for the workload modules: inputs, timing, oracles, span
self time, the numpy brute-force floor and the machine stamp.

``repro`` is imported inside the functions that need it, after ``run.py``
has put the checkout's ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence

import numpy as np

#: Neighbours per query on every workload.
K = 10

#: The ``repro.obs`` spans whose self time the per-layer metrics report.
QUERY_SPANS = ("knn.query", "knn.probe_partition", "knn.expand_radius")
BATCH_SPANS = (
    "knn.batch.project_queries", "knn.batch.expand_radius", "knn.batch.settle"
)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


#: What :func:`calibration_s` takes on the reference host (the 2-vCPU
#: development box, each vCPU in its slow state): the speed the
#: ``*_at_ref`` figures are scaled to.
CAL_REF_S = 0.45e-3


def calibration_s() -> float:
    """Wall seconds of a fixed interpreter-bound loop.

    It tracks how fast the vCPU this process is on runs Python right now.
    On the 2-vCPU development host each vCPU flips, independently and
    about once a second, between two speeds: this loop takes ~0.26 ms or
    ~0.45 ms, and the share of time in each state drifts over minutes."""
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - t0


class Phase:
    """Samples of one timed operation, kept per round.

    A run interleaves its timed operations in rounds spread over the whole
    run; figures are taken per round and the median across rounds is
    reported (``rate``, ``p50_ms``), except pooled tails (``quantile_ms``).
    With ``calibrate``, :func:`calibration_s` runs right after each
    sample, close enough in time to share its vCPU state, and the
    ``*_at_ref`` figures scale each sample by it.  One-row samples carry
    the index of their query in the pool (``key``) for
    :meth:`query_tail_ms_at_ref`.
    """

    def __init__(self, calibrate: bool = False) -> None:
        self.calibrate = calibrate
        self.rounds: List[List[float]] = []
        self.keys: List[List[int]] = []
        self.cals: List[List[float]] = []
        self.rows: List[int] = []

    def next_round(self) -> None:
        self.rounds.append([])
        self.keys.append([])
        self.cals.append([])
        self.rows.append(0)

    def add(self, seconds: float, rows: int = 1, key: int = -1) -> None:
        self.rounds[-1].append(seconds)
        self.keys[-1].append(key)
        self.rows[-1] += rows
        if self.calibrate:
            self.cals[-1].append(calibration_s())

    @property
    def samples(self) -> List[float]:
        return [s for r in self.rounds for s in r]

    def rate(self) -> float:
        """Median over rounds of each round's rows per second."""
        return median([n / sum(r) for r, n in zip(self.rounds, self.rows)
                       if r])

    def p50_ms(self) -> float:
        return 1e3 * median([median(r) for r in self.rounds if r])

    def quantile_ms(self, q: float) -> float:
        return 1e3 * float(np.quantile(self.samples, q))

    def calibration_ms(self) -> float:
        return 1e3 * median([c for r in self.cals for c in r])

    def _at_ref(self):
        """``(samples, keys, rows)`` of each round with samples, the
        samples scaled to the reference speed by their calibrations."""
        return [(np.asarray(r) * CAL_REF_S / np.asarray(c), k, n)
                for r, c, k, n in zip(self.rounds, self.cals, self.keys,
                                      self.rows) if r]

    def quantile_ms_at_ref(self, q: float) -> float:
        """Median over rounds of each round's ``q``-quantile latency at
        the reference speed."""
        return 1e3 * median([float(np.quantile(r, q))
                             for r, _, _ in self._at_ref()])

    def rate_at_ref(self) -> float:
        """Median over rounds of each round's rate at the reference
        speed."""
        return median([n / float(r.sum()) for r, _, n in self._at_ref()])

    def query_tail_ms_at_ref(self, q: float) -> float:
        """``q``-quantile, over the distinct queries, of each query's
        median latency at the reference speed.  Each query is repeated
        through the run, and a host stall hits one repeat rather than
        most, so the median over repeats drops it: what is left is the
        tail of query cost, which the program moves, not the tail of host
        stalls, which it does not."""
        by_query: Dict[int, List[float]] = {}
        for r, keys, _ in self._at_ref():
            for seconds, key in zip(r.tolist(), keys):
                by_query.setdefault(key, []).append(seconds)
        return 1e3 * float(np.quantile(
            [median(v) for v in by_query.values()], q))


class SetupClock:
    """Wall seconds of each set-up, raw and at the reference speed.

    A set-up is one long call, so it cannot be calibrated sample by
    sample; calibrations taken just before and just after it give its
    vCPU speed instead.  That follows the host's slow and fast regimes,
    which last minutes and moved the raw set-up time by 1.8x."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.at_ref: List[float] = []

    @contextmanager
    def timing(self):
        cal = [calibration_s() for _ in range(5)]
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0
        cal += [calibration_s() for _ in range(5)]
        self.raw.append(seconds)
        self.at_ref.append(seconds * CAL_REF_S * len(cal) / sum(cal))


def rate_ratio(num: Phase, den: Phase) -> float:
    """Median over rounds of the per-round ratio of two rates."""
    return median([
        (n / sum(a)) / (m / sum(b))
        for a, n, b, m in zip(num.rounds, num.rows, den.rounds, den.rows)
        if a and b
    ])


def reset_peak_rss() -> None:
    """Restart the peak-resident-set count (Linux ``clear_refs``), so that
    ``peak_rss_mb`` leaves out the transient memory of generating the
    inputs, which is the benchmark's (a ~220 MB peak on query_local).
    Where the kernel refuses, the count keeps running from process
    start."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set of this process since ``reset_peak_rss`` (Linux
    reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Ledger:
    """Operations attempted and failed, with the first few failure reasons.

    An operation fails when it raises, is shed, comes back partial, or
    fails its answer check; ``error_rate`` is failed / attempted.
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)

    def call(self, label: str, fn: Callable, *args, **kwargs):
        """Run one operation; a raise counts as a failure and yields
        ``None`` so the closed loop keeps going."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            self.fail(f"{label} raised {sys.exc_info()[0].__name__}")
            return None

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.fail(f"{label}: wrong answer")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``.

    ``metrics`` are the printed metrics of the run's mode; ``details``
    holds the exact logical counts and the figures that are printed for
    people but not gated (``error_rate``, sample counts, ...); ``tracers``
    are exported as span JSONL after a traced run.
    """

    metrics: Dict[str, float]
    details: Dict[str, float]
    ledger: Ledger
    tracers: List = field(default_factory=list)


def seeds(seed: int, n: int) -> List[int]:
    """``n`` independent child seeds of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def rows_equal(ids, dists, ref_ids, ref_dists) -> bool:
    """Exact equality of answers under the canonical ``(distance, rid)``
    order of ``repro.serve.router.canonicalize_rows``."""
    from repro.serve.router import canonicalize_rows

    a_ids, a_d = canonicalize_rows(np.atleast_2d(ids), np.atleast_2d(dists))
    b_ids, b_d = canonicalize_rows(np.atleast_2d(ref_ids),
                                   np.atleast_2d(ref_dists))
    return (
        a_ids.shape == b_ids.shape
        and np.array_equal(a_ids, b_ids)
        and np.array_equal(a_d, b_d)
    )


def neighbours_match(ids, dists, ref_ids, ref_dists, k: int,
                     rtol: float = 1e-9) -> bool:
    """Whether ``(ids, dists)`` is a correct top-``k`` answer, judged by a
    deeper answer of another index (``ref``, distance order, more than
    ``k`` rows): ``k`` distinct rids, each at its reference distance, and
    the ``k`` smallest reference distances.  A rid tied with the k-th may
    stand in for another, and distances need only agree to ``rtol``: two
    index types round the same reduced distance differently in the last
    bit."""
    ids = np.asarray(ids).ravel()
    dists = np.asarray(dists).ravel()
    ref = dict(zip(np.asarray(ref_ids).tolist(),
                   np.asarray(ref_dists).tolist()))
    return (
        ids.size == k
        and np.unique(ids).size == k
        and all(int(r) in ref for r in ids)
        and np.allclose(dists, [ref[int(r)] for r in ids], rtol=rtol,
                        atol=0.0)
        and np.allclose(np.sort(dists), np.asarray(ref_dists)[:k],
                        rtol=rtol, atol=0.0)
    )


def topk_sane(ids: np.ndarray, dists: np.ndarray, k: int, live) -> bool:
    """Cheap invariant check for answers without a precomputed oracle:
    ``k`` distinct live rids with finite, non-decreasing distances."""
    ids = np.asarray(ids).ravel()
    dists = np.asarray(dists).ravel()
    return (
        ids.size == k
        and np.unique(ids).size == k
        and bool(np.all(np.isfinite(dists)))
        and bool(np.all(np.diff(dists) >= 0.0))
        and all(int(r) in live for r in ids)
    )


def recall(got: np.ndarray, exact: np.ndarray) -> float:
    return len(set(got.tolist()) & set(exact.tolist())) / max(1, exact.size)


# -- the brute-force floor ---------------------------------------------------


class Floor:
    """numpy brute force over the raw vectors: one gemm for the squared
    distances plus ``argpartition`` for the top-k, per batch.  It is the
    hardware floor every batched rate is divided by (``floor_ratio``)."""

    def __init__(self, points: np.ndarray, k: int = K) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.norms = np.einsum("ij,ij->i", self.points, self.points)
        self.k = k

    def knn(self, queries: np.ndarray) -> np.ndarray:
        q = np.ascontiguousarray(queries, dtype=np.float64)
        d2 = q @ self.points.T
        d2 *= -2.0
        d2 += self.norms
        part = np.argpartition(d2, self.k - 1, axis=1)[:, : self.k]
        order = np.argsort(np.take_along_axis(d2, part, axis=1), axis=1)
        return np.take_along_axis(part, order, axis=1)


# -- span self time ----------------------------------------------------------


def self_times(spans) -> Dict[str, List[float]]:
    """Self time of every span, grouped by name: its duration minus the
    union of its children's intervals (clipped to its own).  Works on
    :class:`repro.obs.tracer.Span` objects; only ``index``, ``parent``,
    ``start_s`` and ``duration_s`` are read."""
    children: Dict[int, List] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(span)
    out: Dict[str, List[float]] = {}
    for span in spans:
        lo, hi = span.start_s, span.start_s + span.duration_s
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(span.index, ()),
                            key=lambda s: s.start_s):
            c_lo = max(lo, child.start_s)
            c_hi = min(hi, child.start_s + child.duration_s)
            if c_hi <= c_lo:
                continue
            if cur_hi is None or c_lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = c_lo, c_hi
            else:
                cur_hi = max(cur_hi, c_hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.setdefault(span.name, []).append(
            max(0.0, span.duration_s - covered)
        )
    return out


def self_ms_per_query(spans, names: Iterable[str], n_queries: int,
                      prefix: str) -> Dict[str, float]:
    """``{prefix + name: total self ms / n_queries}`` for each span name."""
    selfs = self_times(spans)
    return {
        prefix + name: 1e3 * sum(selfs.get(name, ())) / max(1, n_queries)
        for name in names
    }


def span_count(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


# -- kernels called directly ------------------------------------------------


def time_call(fn: Callable, repeats: int) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn()``."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples)


def linalg_kernels(reduced, queries: np.ndarray, pool_pages: int,
                   repeats: int = 15) -> Dict[str, float]:
    """Time the ``repro.linalg.backend`` kernels on this workload's largest
    reduced partition and its queries projected into that frame.  The
    index modules import these kernels by name, so wrapping them from the
    outside would miss calls; calling them directly is the measurement."""
    from repro.linalg import backend

    sub = max(reduced.subspaces, key=lambda s: s.size)
    points = np.ascontiguousarray(sub.projections, dtype=np.float64)
    q = np.ascontiguousarray(
        np.stack([sub.project(x) for x in queries]), dtype=np.float64
    )
    n = points.shape[0]
    rng = np.random.default_rng(0)
    positions = rng.integers(0, n, size=min(n, 64) * q.shape[0])
    owners = np.repeat(np.arange(q.shape[0]), positions.size // q.shape[0])
    positions = positions[: owners.size]
    pages = rng.integers(0, 2 * pool_pages, size=20 * pool_pages)
    return {
        "linalg.batch_l2_rows_ms": 1e3 * time_call(
            lambda: backend.batch_l2_rows(points, q), repeats),
        "linalg.flat_l2_ms": 1e3 * time_call(
            lambda: backend.flat_l2(points, positions, q, owners), repeats),
        "linalg.cold_lru_ms": 1e3 * time_call(
            lambda: backend.cold_lru_physical_reads(pages, pool_pages),
            repeats),
    }


# -- machine stamp -----------------------------------------------------------


def _git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` inside it (no search
    upwards, no subprocess); ``unknown`` in an exported tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(root: Path) -> dict:
    import repro
    from repro.linalg.backend import kernel_backend_info

    with redirect_stdout(io.StringIO()):
        config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            key: blas[key]
            for key in ("name", "version", "openblas configuration")
            if key in blas
        },
        "kernel_backend": kernel_backend_info(),
        "repro": getattr(repro, "__version__", "unknown"),
        "commit": _git_commit(root),
    }


def dump_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"
    )


def gcd_inputs(seed: int, n_points: int, dims: int, n_queries: int,
               extra_seeds: int):
    """GCD data (4 clusters, 4 retained dims, the ``SyntheticSpec`` shape
    of ``benchmarks/test_throughput.py``), perturbed in-distribution
    queries, and ``extra_seeds`` further child seeds, all from ``seed``."""
    from repro.data.synthetic import (
        SyntheticSpec,
        generate_correlated_clusters,
    )
    from repro.data.workload import sample_queries

    data_seed, query_seed, *rest = seeds(seed, 2 + extra_seeds)
    spec = SyntheticSpec(
        n_points=n_points,
        dimensionality=dims,
        n_clusters=4,
        retained_dims=4,
        variance_r=0.3,
        variance_e=0.015,
        noise_fraction=0.01,
    )
    points = generate_correlated_clusters(
        spec, np.random.default_rng(data_seed)
    ).points
    queries = sample_queries(
        points, n_queries, np.random.default_rng(query_seed), k=K,
        method="perturbed",
    ).queries
    return points, queries, rest


def reduce_points(points: np.ndarray, reduce_seed: int, tracer=None):
    """``MMDRReducer().reduce``; with a tracer, the same fit through
    ``MMDR.fit`` so that the ``kmeans.*`` spans are recorded."""
    from repro import MMDR, model_to_reduced
    from repro.reduction import MMDRReducer

    reducer = MMDRReducer()
    rng = np.random.default_rng(reduce_seed)
    if tracer is None:
        return reducer.reduce(points, rng)
    model = MMDR(reducer.config).fit(points, rng, tracer=tracer)
    return model_to_reduced(model, method=reducer.name)


def kmeans_iterations(spans) -> int:
    return span_count(spans, "kmeans.outer_iteration") + span_count(
        spans, "kmeans.inner_iteration"
    )
