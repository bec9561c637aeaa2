"""Correctness checks for every answer the benchmark receives.

Each check returns ``True`` for a right answer.  The workloads count a
``False`` as a failed operation instead of raising, so one wrong answer
shows up in the run's ``failed`` count rather than aborting it.

``err`` is the certified max-abs-error of the store generation an
answer came from (0 for the raw codec, which must match bitwise).  A
lossy comparison also allows ``_REL`` relative slack, because the
reference matrix comes from scipy and may sum a path in another order.
"""

from __future__ import annotations

import hashlib
import math
from typing import List, Sequence, Tuple

import numpy as np

_REL = 1e-9


def digest(matrix) -> str:
    """Shape and bytes of a float64 matrix, for bitwise comparison."""
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    return f"{matrix.shape}:{hashlib.sha256(matrix.tobytes()).hexdigest()}"


def value_matches(got: float, exact: float, err: float = 0.0) -> bool:
    """One distance: equal when ``err == 0`` or infinite, else within ``err``."""
    if err == 0.0 or not math.isfinite(exact):
        return got == exact
    return abs(got - exact) <= err + _REL * abs(exact)


def rows_match(got, exact, err: float = 0.0) -> bool:
    """``got`` equals ``exact`` (bitwise when ``err == 0``), inf for inf."""
    got = np.asarray(got, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    if got.shape != exact.shape:
        return False
    finite = np.isfinite(exact)
    if not np.array_equal(np.isfinite(got), finite):
        return False
    if not np.all(got[~finite] == exact[~finite]):  # +inf, never nan
        return False
    if err == 0.0:
        return got[finite].tobytes() == exact[finite].tobytes()
    diff = np.abs(got[finite] - exact[finite])
    return bool(np.all(diff <= err + _REL * np.abs(exact[finite])))


def reference_topk(row: np.ndarray, u: int, k: int) -> List[Tuple[int, float]]:
    """The exact ``k`` nearest reachable vertices, ties by vertex id."""
    ids = np.flatnonzero(np.isfinite(row) & (np.arange(row.size) != u))
    order = np.lexsort((ids, row[ids]))[:k]
    return [(int(ids[i]), float(row[ids[i]])) for i in order]


def topk_matches(
    answer: Sequence[Tuple[int, float]], row: np.ndarray, u: int, k: int,
    err: float = 0.0,
) -> bool:
    """A top-k answer is right for the exact row ``row = d(u, ·)``.

    Exact stores must reproduce :func:`reference_topk` bit for bit.  A
    lossy store may swap vertices whose distances lie within ``2·err``,
    so there each answered value must be within ``err`` of the truth,
    in ascending order, and no answered vertex may be farther than the
    true k-th distance plus ``2·err``.
    """
    ref = reference_topk(row, u, k)
    answer = [(int(v), float(d)) for v, d in answer]
    if err == 0.0:
        return answer == ref
    if len(answer) != len(ref):
        return False
    ids = [v for v, _ in answer]
    if len(set(ids)) != len(ids) or u in ids:
        return False
    values = [d for _, d in answer]
    if any(b < a for a, b in zip(values, values[1:])):
        return False
    kth = ref[-1][1] if ref else 0.0
    for v, d in answer:
        if not 0 <= v < row.size or not np.isfinite(row[v]):
            return False
        if abs(d - row[v]) > err + _REL * abs(row[v]):
            return False
        if row[v] > kth + 2 * err + _REL * abs(kth):
            return False
    return True


def response_matches(req, resp, exact: np.ndarray, err: float = 0.0) -> bool:
    """One served request against the exact matrix.

    Degraded and shed responses are not answers, so they fail.
    """
    if resp is None or resp.status != "ok":
        return False
    if req.kind == "point":
        return value_matches(float(resp.value), float(exact[req.u, req.v]), err)
    if req.kind == "row":
        return rows_match(resp.value, exact[req.u], err)
    return topk_matches(resp.value, exact[req.u], req.u, req.k, err)


def store_matches(store, exact: np.ndarray) -> bool:
    """Every decoded shard of ``store`` equals its rows of ``exact``."""
    for index in range(store.num_shards):
        start, rows = store.shard_span(index)
        block = store.load_shard(index)
        if not rows_match(block, exact[start:start + rows], store.shard_error(index)):
            return False
    return True


def stores_identical(a, b) -> bool:
    """Two stores hold byte-identical shard and landmark payloads."""
    if a.num_shards != b.num_shards or a.n != b.n:
        return False
    for index in range(a.num_shards):
        fa = a.path / a.manifest["shards"][index]["file"]
        fb = b.path / b.manifest["shards"][index]["file"]
        if fa.read_bytes() != fb.read_bytes():
            return False
    la, lb = a.manifest["landmarks"], b.manifest["landmarks"]
    if la["ids"] != lb["ids"]:
        return False
    if not la["ids"]:
        return True
    return (a.path / la["file"]).read_bytes() == (b.path / lb["file"]).read_bytes()
