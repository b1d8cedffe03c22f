"""Canonical block decompositions for the parallel hot-path engine.

Every parallelized loop shards its work into **canonical blocks** whose
boundaries are a pure function of the problem size — never of the
worker count, the backend, or the machine. Workers are assigned whole
blocks and results are reduced in block order, so the engine's output
is a function of (data, decomposition) alone: running with 1, 2, or 4
workers — or inline on the serial fallback backend — produces
byte-identical results. This is the *worker-count-invariance rule*
documented in ``docs/DETERMINISM.md``.

Why blocks must be canonical: BLAS GEMM results are bitwise
reproducible only for identical calls (same shapes, same strides, same
values). Splitting one GEMM differently — e.g. deriving block sizes
from ``os.cpu_count()`` — changes the last ulp of the output, which
the engine's digests would observe. The constants below are therefore
part of the determinism contract; changing them is a (legitimate,
but digest-visible for parallel sessions) behavior change.

Three decompositions:

* :func:`bootstrap_chunks` — the utility-chunk rule of the vectorized
  bootstrap (``ApproxTopKIndex._bootstrap``). This is the *historical*
  PR-4 rule, so the default (non-parallel) engine and every worker
  count compute exactly the same per-chunk GEMMs, byte for byte.
* :func:`score_row_blocks` — row blocks of the ``(batch × M)``
  insert-run scoring GEMM.
* :func:`repair_col_blocks` — column blocks (affected utilities) of
  the ``(n × q)`` delete-repair wave GEMM.

The ``*_PAR_MIN_ELEMS`` thresholds gate *whether* a loop is sharded at
all (below them, dispatch overhead dominates and the historical
single-call path runs). They compare against the element count of the
score matrix — again a pure function of problem size, so the decision
is identical for every worker count.
"""

from __future__ import annotations

#: Elements per bootstrap GEMM chunk — ``chunk = ELEMS // n`` utilities
#: per block. The default engine and the parallel backends both chunk by
#: this rule, and GEMM bits depend on the chunk shape: changing it moves
#: every bootstrap digest.
BOOTSTRAP_CHUNK_ELEMS = 4_000_000

#: Row-block height of the sharded insert-run scoring GEMM.
SCORE_BLOCK_ROWS = 1024

#: Minimum ``batch * M`` before insert-run scoring is sharded; smaller
#: runs use the historical single full GEMM.
SCORE_PAR_MIN_ELEMS = 1 << 21

#: Column-block width of the sharded delete-repair wave.
REPAIR_BLOCK_COLS = 32

#: Minimum ``n_alive * q_affected`` before a repair wave is sharded.
REPAIR_PAR_MIN_ELEMS = 1 << 21


def bootstrap_chunks(n: int, m_total: int) -> list[tuple[int, int]]:
    """Utility-index ranges ``[(start, end), ...]`` of the bootstrap.

    ``n`` is the database size, ``m_total`` the utility-pool size M.
    Mirrors the chunk rule the vectorized bootstrap has used since it
    was introduced: ``max(1, BOOTSTRAP_CHUNK_ELEMS // max(1, n))``
    utilities per chunk.
    """
    chunk = max(1, int(BOOTSTRAP_CHUNK_ELEMS // max(1, n)))
    return [(start, min(start + chunk, m_total))
            for start in range(0, m_total, chunk)]


def score_row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """Row ranges of a sharded insert-run scoring GEMM."""
    return [(start, min(start + SCORE_BLOCK_ROWS, n_rows))
            for start in range(0, n_rows, SCORE_BLOCK_ROWS)]


def repair_col_blocks(q: int) -> list[tuple[int, int]]:
    """Column ranges (affected-utility positions) of a repair wave."""
    return [(start, min(start + REPAIR_BLOCK_COLS, q))
            for start in range(0, q, REPAIR_BLOCK_COLS)]
