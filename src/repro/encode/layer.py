"""Per-partition code store and the ADC-scan → exact-rerank search.

:func:`build_encoder` freezes one :class:`CodedPartition` per bulk
partition (each reduced subspace, plus the outlier set): a PQ encoder
trained on the partition's frame vectors, the uint8 codes, and the code
pages allocated on the owning index's page store so scans are charged
through the same logical I/O accounting as exact search.

:meth:`ApproxLayer.search` answers one query in two traced phases:

``knn.approx.scan``
    Project the query into every subspace frame, build each partition's
    ADC table, read the code pages, and ADC-scan all bulk codes.  Delta
    entries (online inserts) have no codes — they are scanned *exactly*
    here, mirroring the exact path's delta handling, and bypass rerank.

``knn.approx.rerank``
    Keep the ``rerank_depth * k`` best-scoring live bulk rids, read each
    candidate's data page (via the index's rerank-page map — the
    iDistance locate path, or the recorded build layout elsewhere), and
    score the frame vectors exactly.  The final top-k merges reranked
    bulk candidates with the exactly-scanned delta entries.

Recall is monotone in ``rerank_depth``: a true neighbor that survives
top-k selection in some candidate set survives it in every superset,
and once the candidate set covers all live bulk rids (delta is always
exact) the answer set equals exact search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..linalg.kernels import column_l2
from ..obs.tracer import Tracer, ensure_tracer
from ..storage.pager import PAGE_SIZE
from .pq import EncoderConfig, PQEncoder, adc_scan

EMPTY_IDS = np.empty(0, dtype=np.int64)
EMPTY_DISTS = np.empty(0, dtype=np.float64)


@dataclass
class CodedPartition:
    """Frozen codes for one bulk partition (subspace or outlier set)."""

    subspace_idx: int  # -1 for the outlier set
    encoder: PQEncoder
    codes: np.ndarray  # (m, code_width) uint8
    rids: np.ndarray  # (m,) int64
    pages: List[int]  # code pages on the owning index's store


class ApproxLayer:
    """Code store plus approximate search over one attached index.

    The layer holds references into the index's reduced representation
    (frame vectors are *not* duplicated) and pickles along with the
    index through the snapshot machinery, so a recovered index answers
    ``mode="approx"`` queries without retraining.
    """

    def __init__(self, config: EncoderConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.partitions: List[CodedPartition] = []
        self._all_rids = EMPTY_IDS
        self._all_parts = np.empty(0, dtype=np.int32)
        self._all_rows = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _finalize(self) -> None:
        """Concatenate per-partition rid/row maps for candidate picks."""
        if not self.partitions:
            return
        self._all_rids = np.concatenate([p.rids for p in self.partitions])
        self._all_parts = np.concatenate(
            [
                np.full(p.rids.size, i, dtype=np.int32)
                for i, p in enumerate(self.partitions)
            ]
        )
        self._all_rows = np.concatenate(
            [np.arange(p.rids.size, dtype=np.int64) for p in self.partitions]
        )

    @property
    def total_code_pages(self) -> int:
        return sum(len(p.pages) for p in self.partitions)

    @property
    def total_codes(self) -> int:
        return int(self._all_rids.size)

    def describe(self) -> dict:
        """Compact summary (snapshot manifests, demos, telemetry)."""
        return {
            "partitions": len(self.partitions),
            "codes": self.total_codes,
            "code_pages": self.total_code_pages,
            "n_subquantizers": self.config.n_subquantizers,
            "codebook_size": self.config.codebook_size,
            "rerank_depth": self.config.rerank_depth,
            "seed": self.seed,
        }

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------

    def search(
        self,
        index: Any,
        query: np.ndarray,
        k: int,
        rerank_depth: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """ADC-scan codes, rerank the best candidates exactly."""
        tracer = ensure_tracer(tracer)
        depth = (
            int(rerank_depth)
            if rerank_depth is not None
            else self.config.rerank_depth
        )
        if depth < 1:
            raise ValueError(f"rerank_depth must be >= 1, got {depth}")
        k_eff = min(k, index.live_count)
        if k_eff <= 0:
            return EMPTY_IDS, EMPTY_DISTS
        counters = index.counters
        pool = index.pool
        reduced = index.reduced
        tombstones = index._tombstone_array()

        with tracer.span(
            "knn.approx.scan",
            counters=counters,
            partitions=len(self.partitions),
            depth=depth,
        ):
            q_frames = [
                subspace.project(query) for subspace in reduced.subspaces
            ]
            chunks: List[np.ndarray] = []
            for part in self.partitions:
                q_frame = (
                    q_frames[part.subspace_idx]
                    if part.subspace_idx >= 0
                    else query
                )
                table = part.encoder.adc_table(q_frame, counters=counters)
                for page in part.pages:
                    pool.read(page)
                chunks.append(adc_scan(part.codes, table))
                counters.count_distance(
                    part.codes.shape[0], dims=part.encoder.code_width
                )
            approx_sq = np.concatenate(chunks) if chunks else EMPTY_DISTS
            delta_dists, delta_rids = self._scan_delta(
                index, query, q_frames, tombstones
            )
            if tracer.enabled:
                tracer.counter("encode.codes_scanned").inc(
                    int(approx_sq.size)
                )

        live = (
            np.ones(self._all_rids.size, dtype=bool)
            if tombstones.size == 0
            else ~np.isin(self._all_rids, tombstones)
        )
        live_idx = np.flatnonzero(live)
        n_cand = min(depth * k_eff, live_idx.size)
        if n_cand > 0 and n_cand < live_idx.size:
            scores = approx_sq[live_idx]
            chosen = live_idx[np.argpartition(scores, n_cand - 1)[:n_cand]]
        else:
            chosen = live_idx

        with tracer.span(
            "knn.approx.rerank",
            counters=counters,
            candidates=int(chosen.size),
            delta_entries=int(delta_rids.size),
        ):
            cand_dists, cand_rids = self._rerank(
                index, query, q_frames, chosen
            )
            if delta_rids.size:
                cand_dists = np.concatenate([cand_dists, delta_dists])
                cand_rids = np.concatenate([cand_rids, delta_rids])
            order = np.lexsort((cand_rids, cand_dists))[:k_eff]
            ids = cand_rids[order]
            dists = cand_dists[order]
        if tracer.enabled:
            tracer.counter("encode.candidates_reranked").inc(int(chosen.size))
            tracer.histogram("knn.approx.result_k").observe(float(ids.size))
        return ids, dists

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    @staticmethod
    def _frame_vectors(index: Any, part: CodedPartition) -> np.ndarray:
        if part.subspace_idx >= 0:
            return index.reduced.subspaces[part.subspace_idx].projections
        return index.reduced.outliers.points

    def _rerank(
        self,
        index: Any,
        query: np.ndarray,
        q_frames: List[np.ndarray],
        chosen: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact distances for the chosen bulk candidates.

        Candidates are visited in (partition, row) order so the page
        reads below replay each partition's layout in ascending ranges
        (the LRU dedups within a page exactly as the exact path does).
        """
        if chosen.size == 0:
            return EMPTY_DISTS, EMPTY_IDS
        counters = index.counters
        pool = index.pool
        order = np.lexsort((self._all_rows[chosen], self._all_parts[chosen]))
        chosen = chosen[order]
        rids = self._all_rids[chosen]
        parts_arr = self._all_parts[chosen]
        rows_arr = self._all_rows[chosen]
        for page in index._approx_rerank_pages(rids).tolist():
            pool.read(page)
        dists = np.empty(chosen.size, dtype=np.float64)
        for pidx in np.unique(parts_arr).tolist():
            mask = parts_arr == pidx
            part = self.partitions[pidx]
            frame = self._frame_vectors(index, part)
            ref = (
                q_frames[part.subspace_idx]
                if part.subspace_idx >= 0
                else query
            )
            block = frame[rows_arr[mask]]
            dists[mask] = np.linalg.norm(block - ref, axis=1)
            counters.count_distance(
                int(np.count_nonzero(mask)), dims=max(1, block.shape[1])
            )
        return dists, rids

    def _scan_delta(
        self,
        index: Any,
        query: np.ndarray,
        q_frames: List[np.ndarray],
        tombstones: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact distances for online-inserted (delta) entries.

        Delta entries were routed after the codebooks froze, so they
        carry no codes; scoring them exactly here keeps the approximate
        path's treatment of recent writes identical to exact search
        (score every delta entry, drop tombstoned rids afterwards).
        """
        counters = index.counters
        pool = index.pool
        tomb = set(tombstones.tolist())
        dists: List[float] = []
        rids: List[int] = []
        partitions = getattr(index, "partitions", None)
        if partitions is not None:
            # ExtendedIDistance keeps per-partition delta blocks.
            for partition in partitions:
                if not partition.delta_rids:
                    continue
                for page in partition.delta_pages:
                    pool.read(page)
                ref = partition.project_query(query)
                columns = np.stack(partition.delta_vectors, axis=1)
                scored = column_l2(columns, ref)
                counters.count_distance(
                    columns.shape[1], dims=max(1, columns.shape[0])
                )
                for dist, rid in zip(scored.tolist(), partition.delta_rids):
                    if rid not in tomb:
                        dists.append(dist)
                        rids.append(rid)
        else:
            delta = getattr(index, "delta", None)
            if delta is not None and delta.rids:
                for page in delta.pages:
                    pool.read(page)
                scored = delta.score(query, q_frames, counters)
                for dist, rid in zip(scored.tolist(), delta.rids):
                    if rid not in tomb:
                        dists.append(dist)
                        rids.append(rid)
        return (
            np.asarray(dists, dtype=np.float64),
            np.asarray(rids, dtype=np.int64),
        )


def _allocate_code_pages(
    store: Any, pidx: int, codes: np.ndarray
) -> List[int]:
    """Row-pack one partition's codes onto store pages (1 byte/code)."""
    per_page = max(1, PAGE_SIZE // max(1, codes.shape[1]))
    pages: List[int] = []
    for page_no, lo in enumerate(range(0, codes.shape[0], per_page)):
        hi = min(lo + per_page, codes.shape[0])
        pages.append(
            store.allocate(
                ("pq-codes", pidx, page_no), (hi - lo) * codes.shape[1]
            )
        )
    return pages


def build_encoder(
    index: Any,
    config: Optional[EncoderConfig] = None,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
) -> ApproxLayer:
    """Train and attach-ready an :class:`ApproxLayer` for ``index``.

    One PQ encoder per bulk partition, seeded per
    ``default_rng([seed, partition_index])`` so builds are reproducible
    regardless of partition count or training order.  Training charges
    no query counters; code pages are allocated on the index's store so
    ``size_pages`` and scan-time reads stay honest.
    """
    config = config if config is not None else EncoderConfig()
    tracer = ensure_tracer(tracer)
    layer = ApproxLayer(config, int(seed))
    reduced = index.reduced
    groups: List[Tuple[int, np.ndarray, np.ndarray]] = [
        (sidx, subspace.projections, subspace.member_ids)
        for sidx, subspace in enumerate(reduced.subspaces)
    ]
    outliers = reduced.outliers
    if outliers.size:
        groups.append((-1, outliers.points, outliers.member_ids))
    with tracer.span(
        "encode.build", counters=index.counters, partitions=len(groups)
    ):
        for pidx, (sidx, vectors, rids) in enumerate(groups):
            if vectors.shape[0] == 0:
                continue
            rng = np.random.default_rng([int(seed), pidx])
            encoder = PQEncoder(config).fit(vectors, rng)
            codes = encoder.encode(vectors)
            layer.partitions.append(
                CodedPartition(
                    subspace_idx=sidx,
                    encoder=encoder,
                    codes=codes,
                    rids=np.asarray(rids, dtype=np.int64),
                    pages=_allocate_code_pages(index.store, pidx, codes),
                )
            )
    layer._finalize()
    if tracer.enabled:
        tracer.gauge("encode.partitions").set(len(layer.partitions))
        tracer.gauge("encode.code_pages").set(layer.total_code_pages)
        tracer.gauge("encode.codes").set(layer.total_codes)
    return layer
