"""Pure per-block kernels of the engine's bulk loops.

Each kernel is the exact per-block computation of the loop it shards —
same NumPy calls, same slice shapes, same operand layouts — so a block
computed in a worker process is byte-identical to the same block
computed inline. The bootstrap and repair kernels are also the *only*
bodies of their loops: the default engine calls them inline (the
bootstrap's canonical chunks are its chunk rule; an inline repair wave
is the single block ``[0, q)``). Kernels are pure functions of their
inputs: no engine state, no mutation, no RNG, no wall clock. All
mutation (MemberStore fills, delta emission) stays in the main process
and consumes kernel results strictly in block order.

Kernels must be module-level (picklable by reference) and are looked
up by name through :data:`KERNELS` so the worker entrypoint never
unpickles code objects.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
IndexArray = NDArray[np.intp]

#: Result of one bootstrap chunk: ``(taus, topk_rows, bounds, cols,
#: member_pids, member_scores, mins)`` — everything the main process
#: needs to install the chunk's MemberStore rows and inverted-index
#: fragment without touching the score matrix again.
BootstrapChunkResult = tuple[
    FloatArray, FloatArray, IndexArray, IndexArray,
    IndexArray, FloatArray, FloatArray,
]

#: Result of one repair column: ``(tau, member_ids, member_scores)``.
RepairResult = tuple[float, IndexArray, FloatArray]


def column_top_k(scores: FloatArray, k: int) -> FloatArray:
    """The k largest entries of every column of an ``(n, b)`` block.

    Returns a ``(b, k)`` matrix, rows ascending; requires ``n >= k``.
    For ``k = 1`` this is ``max(axis=0)``, which returns exactly the
    value a partition puts in its top row. For ``k > 1`` the partition
    over the full kth range ``[n - k, n)`` runs along the rows of a
    contiguous ``(b, n)`` copy instead of down the strided columns; it
    returns the same sorted values on either axis.
    """
    if k == 1:
        return scores.max(axis=0)[:, None]
    n = scores.shape[0]
    rows = scores.T.copy()  # (b, n), C order; never a view of scores
    rows.partition(range(n - k, n), axis=1)
    return rows[:, n - k:].copy()


def bootstrap_chunk(
    pts: FloatArray,
    ids: IndexArray,
    u: FloatArray,
    start: int,
    end: int,
    k: int,
    eps: float,
) -> BootstrapChunkResult:
    """One utility chunk of the vectorized bootstrap.

    The only chunk body of ``ApproxTopKIndex._bootstrap``, run inline
    or by a backend: the GEMM, the top-k selection
    (:func:`column_top_k`) and the membership extraction, returning the
    raw arrays for the caller to install. ``u`` is the full utility
    pool; the chunk is the row slice ``u[start:end]``.

    Members are found with one flat scan of the contiguous ``(n, b)``
    score block, which yields them tuple-major; one stable argsort of
    their column indices puts them utility-major, rows ascending within
    each utility — the order a column-by-column scan would give.
    """
    n = pts.shape[0]
    block = u[start:end]
    b = block.shape[0]
    scores = pts @ block.T  # (n, b)
    if n <= k:
        taus = np.zeros(b)
        topk_rows = np.full((b, k), -np.inf)
        topk_rows[:, k - n:] = np.sort(scores, axis=0).T
    else:
        topk_rows = column_top_k(scores, k)  # (b, k) ascending
        taus = (1.0 - eps) * topk_rows[:, 0]
    flat = np.flatnonzero(scores >= taus)  # row-major over (n, b)
    rows, cols = np.divmod(flat, b)
    member_scores = np.take(scores, flat)
    order = np.argsort(cols, kind="stable")
    cols = cols[order]
    bounds = np.r_[0, np.cumsum(np.bincount(cols, minlength=b))]
    member_pids = ids[rows[order]]
    member_scores = member_scores[order]
    if member_scores.size:
        mins = np.minimum.reduceat(member_scores, bounds[:-1])
    else:
        mins = np.empty(0)
    return (taus, topk_rows, bounds, cols, member_pids,
            member_scores, mins)


def score_rows(
    pts: FloatArray,
    u: FloatArray,
    start: int,
    end: int,
) -> FloatArray:
    """One row block of the ``(batch × M)`` insert-run scoring GEMM."""
    return pts[start:end] @ u.T


def repair_columns(
    ids: IndexArray,
    pts: FloatArray,
    u_sel: FloatArray,
    start: int,
    end: int,
    n_db: int,
    k: int,
    eps: float,
) -> list[RepairResult]:
    """One column block of a brute-force delete-repair wave.

    ``u_sel`` is the gathered ``(q, d)`` matrix of affected utilities;
    this kernel scores the alive snapshot against columns
    ``[start, end)`` and rebuilds each one's membership: k-th score
    (:func:`column_top_k`) → τ, ``>= τ`` gather, and the canonical
    (-score, id) lexsort order. The inline wave is the single block
    ``[0, q)``.
    """
    scores = pts @ u_sel[start:end].T  # (n, block)
    if n_db <= k:
        taus = np.zeros(end - start)
    else:
        taus = (1.0 - eps) * column_top_k(scores, k)[:, 0]
    out: list[RepairResult] = []
    # reprolint: disable=RPL004 -- one pass per repaired utility (block small)
    for col, tau in enumerate(taus.tolist()):
        s = scores[:, col]
        hit = s >= tau
        hit_ids, hit_scores = ids[hit], s[hit]
        order = np.lexsort((hit_ids, -hit_scores))
        out.append((tau, hit_ids[order], hit_scores[order]))
    return out


KERNELS: dict[str, Callable[..., Any]] = {
    "bootstrap_chunk": bootstrap_chunk,
    "score_rows": score_rows,
    "repair_columns": repair_columns,
}
