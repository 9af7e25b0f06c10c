"""Pluggable kernel backend: reference numpy vs compiled (numba) kernels.

Every hot distance kernel in the query and clustering paths is reachable
through exactly one of two implementations, selected process-wide:

* ``"numpy"`` — the reference kernels in :mod:`repro.linalg.kernels`,
  kept bit-identical forever; this is the default and the implementation
  every equivalence test compares against.
* ``"numba"`` — fused, cache-blocked kernels compiled with
  ``@njit(cache=True)`` (:mod:`repro.linalg._kernels_numba`).  When numba
  is not installed the backend *degrades gracefully* to the bit-identical
  blocked-numpy fallbacks (:mod:`repro.linalg._kernels_blocked`) instead
  of failing — selection is about speed, never availability.

Selection is explicit: :func:`set_kernel_backend` at runtime, or the
``REPRO_KERNEL_BACKEND`` environment variable at import (unknown names
raise either way — a typo'd backend silently running the default would
invalidate a benchmark).  Logical cost counters (distance evaluations,
flops, page reads, key comparisons) are charged at the call sites, never
inside kernels, so they are identical across backends by construction —
which is what keeps the machine-independent bench gate meaningful while
wall-clock improves.

The iDistance scan's dimension-major kernels
(:func:`~repro.linalg.kernels.column_l2`,
:func:`~repro.linalg.kernels.gather_column_l2`) are the exception: they
are called directly on every backend, being both bit-exact to the
reference row norms and faster than the row-major gather.

The dispatchers below enforce the contiguity/dtype contract once per call
(:func:`repro.linalg.kernels.require_kernel_matrix`) for the compiled
path; the reference kernels carry the same guard themselves.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from . import kernels as _reference
from .kernels import multi_arange, normalize_rows, require_kernel_matrix

__all__ = [
    "KERNEL_BACKENDS",
    "set_kernel_backend",
    "get_kernel_backend",
    "kernel_backend_info",
    "batch_l2_rows",
    "flat_l2",
    "batch_mahalanobis_rows",
    "cold_lru_physical_reads",
    "multi_arange",
    "normalize_rows",
]

#: Selectable backend names.
KERNEL_BACKENDS = ("numpy", "numba")

_ENV_KNOB = "REPRO_KERNEL_BACKEND"

#: Lazily resolved implementation module for the "numba" backend:
#: _kernels_numba when importable, else the blocked-numpy fallback.
_fast_module = None


def _resolve_fast_module():
    global _fast_module
    if _fast_module is None:
        try:
            from . import _kernels_numba as fast
        except ImportError:
            from . import _kernels_blocked as fast
        _fast_module = fast
    return _fast_module


def _validate(name: str) -> str:
    if name not in KERNEL_BACKENDS:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"expected one of {list(KERNEL_BACKENDS)}"
        )
    return name


_active = _validate(os.environ.get(_ENV_KNOB, "numpy"))


def set_kernel_backend(name: str) -> str:
    """Select the process-wide kernel backend; returns the previous one.

    ``"numpy"`` is the bit-exact reference; ``"numba"`` is the compiled
    fast path (or its bit-identical blocked-numpy fallback when numba is
    absent).  Switching backends never changes logical counters or bench
    fingerprints — only wall-clock.
    """
    global _active
    previous = _active
    _active = _validate(name)
    return previous


def get_kernel_backend() -> str:
    """The currently selected backend name."""
    return _active


def kernel_backend_info() -> dict:
    """Resolved backend state, for bench reports and diagnostics.

    ``compiled`` reports whether the *fast* implementations are actual
    machine code (numba importable) — informative even while the numpy
    backend is selected.
    """
    fast = _resolve_fast_module()
    return {
        "backend": _active,
        "compiled": bool(fast.COMPILED),
        "fast_module": fast.__name__.rsplit(".", 1)[-1],
    }


def batch_l2_rows(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Backend-dispatched :func:`repro.linalg.kernels.batch_l2_rows`."""
    if _active == "numpy":
        return _reference.batch_l2_rows(points, queries)
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    return _resolve_fast_module().batch_l2_rows(points, queries)


def flat_l2(
    points: np.ndarray,
    positions: np.ndarray,
    queries: np.ndarray,
    query_of_entry: np.ndarray,
) -> np.ndarray:
    """Backend-dispatched :func:`repro.linalg.kernels.flat_l2`."""
    if _active == "numpy":
        return _reference.flat_l2(points, positions, queries, query_of_entry)
    points = require_kernel_matrix("points", points)
    queries = require_kernel_matrix("queries", queries)
    return _resolve_fast_module().flat_l2(
        points, positions, queries, query_of_entry
    )


def batch_mahalanobis_rows(
    points: np.ndarray,
    centroids: np.ndarray,
    chol_invs: np.ndarray,
    penalties: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Backend-dispatched fused normalized-Mahalanobis batch kernel."""
    if _active == "numpy":
        return _reference.batch_mahalanobis_rows(
            points, centroids, chol_invs, penalties
        )
    return _resolve_fast_module().batch_mahalanobis_rows(
        points, centroids, chol_invs, penalties
    )


def cold_lru_physical_reads(page_sequence: np.ndarray, capacity: int) -> int:
    """Backend-dispatched LRU cold-read model (exact integer both ways)."""
    if _active == "numpy":
        return _reference.cold_lru_physical_reads(page_sequence, capacity)
    return _resolve_fast_module().cold_lru_physical_reads(
        page_sequence, capacity
    )
