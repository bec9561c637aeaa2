"""One-worker lockstep sweep engine (blocked min-plus execution).

The per-source sweep (:func:`~repro.core.modified_dijkstra.modified_dijkstra_sssp`)
runs Algorithm 1 one source and one row operation at a time, so on a
single core the Python/numpy dispatch cost of every ``merge_row`` /
``relax_edges`` call dominates the arithmetic.  This module runs a
*block* of :data:`BLOCK` sources in lockstep rounds instead: each round,
every still-active source of the block classifies the head of its own
queue, and then

* all sources that popped an earlier-issued vertex are folded in **one**
  2-D min-plus merge (:func:`~repro.core.kernels.merge_block`), and
* all other sources relax their frontiers in **one** concatenated-CSR
  scatter (:func:`~repro.core.kernels.relax_block`).

:func:`repro.core.sweep.run_sweep` uses it whenever the sweep runs on
one worker; with two or more workers it runs the per-source sweep.

Equivalence to the per-source sweep
-----------------------------------
Each source keeps its *own* queue, dedup state and operation counters,
and every read of another row touches only **final** rows — so each
source's logical operation sequence is exactly the one the sequential
sweep would issue.  Merge-vs-relax is decided by issue position (the
sequential sweep sees ``flag[t]`` set iff ``t`` was issued earlier), and
a source whose queue head is an earlier source of the same, still
unfinished block stalls until that row is final.  The engine is
therefore **bitwise-identical** to an in-order loop of
``modified_dijkstra_sssp`` in both the distance matrix and the
per-source ``OpCounts`` (asserted by
``tests/integration/test_property_batch.py``).  That positional rule is
why the engine needs one worker: the paper's flag reuse (§5) makes a
source depend on rows finished earlier, so only the sequential order
keeps the lockstep exact and worth it.

Stall progress argument: a source only ever waits on an *earlier*
position of its own block, so the earliest unfinished source of a block
can never stall — every round makes progress and the lockstep cannot
deadlock.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List

import numpy as np

from ..exceptions import AlgorithmError
from ..graphs.csr import CSRGraph
from ..obs import metrics as _obs
from ..types import OpCounts
from .kernels import merge_block, merge_row, relax_block, relax_edges
from .state import APSPState

__all__ = ["BLOCK", "run_block"]

#: sources per lockstep block (the unit a one-worker sweep claims)
BLOCK = 64

#: drop out of lockstep into sequential sprints at/below this occupancy
#: (low-occupancy rounds pay the blocked kernels' fixed cost for
#: nothing; the inline row-kernel loop is faster there)
SPRINT_THRESHOLD = 4

#: dispatch a round's merge/relax set to the row kernels below these
#: batch sizes (measured break-even of the blocked kernels' fixed cost)
MERGE_BATCH_MIN = 3
RELAX_BATCH_MIN = 6


def run_block(
    graph: CSRGraph,
    state: APSPState,
    block_sources: np.ndarray,
    positions: np.ndarray,
    *,
    queue: str = "fifo",
    use_flags: bool = True,
) -> Dict[int, OpCounts]:
    """Run one block of sources in lockstep; returns per-source counts.

    ``block_sources`` are the sources of this block in issue order;
    ``positions`` is the inverse permutation of the *full* sweep order
    (``positions[order[i]] == i``), which decides merge-vs-relax exactly
    like the sequential sweep would.  Every source issued before this
    block must be finished.

    Scheduling inside the block:

    * sources that would stall (queue head is an earlier in-block
      source that has not finished) are *parked* on their blocker and
      woken when it finishes — no per-round re-checks;
    * a round's merge or relax set smaller than
      :data:`MERGE_BATCH_MIN` / :data:`RELAX_BATCH_MIN` dispatches to
      the row kernels (the blocked kernels' fixed cost does not pay
      off for so few rows);
    * at or below :data:`SPRINT_THRESHOLD` runnable sources the engine
      *sprints*: it drops out of lockstep and drains the earliest
      source's queue with the plain inline loop at per-source speed.
      That source is provably the earliest unfinished one (parked
      sources wait on earlier positions), so it can never stall
      mid-sprint.
    """
    if queue not in ("fifo", "heap"):
        raise AlgorithmError(f"unknown queue discipline {queue!r}")
    dist = state.dist
    flag = state.flag
    n = state.n
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    srcs = [int(s) for s in block_sources]
    nb = len(srcs)
    reg = _obs._current
    fifo = queue == "fifo"
    pos_list: List[int] = positions.tolist()
    pos_s: List[int] = [pos_list[s] for s in srcs]
    blk_index: Dict[int, int] = {s: j for j, s in enumerate(srcs)}
    rows_v: List[np.ndarray] = [dist[s] for s in srcs]  # 1-D row views

    for s in srcs:
        dist[s, s] = 0.0  # Algorithm 1 line 2

    if fifo:
        queues: List = [deque((s,)) for s in srcs]
        in_queue: List[bytearray] = []
        for s in srcs:
            iq = bytearray(n)
            iq[s] = 1
            in_queue.append(iq)
    else:
        queues = [[(0.0, s)] for s in srcs]
        in_queue = []

    pops = [0] * nb
    relax_att = [0] * nb
    relax_imp = [0] * nb
    merges = [0] * nb
    peaks = [1] * nb
    finished = [False] * nb
    parked_on: List[List[int]] = [[] for _ in range(nb)]
    out: Dict[int, OpCounts] = {}
    active = list(range(nb))
    rounds = 0
    parks = 0
    sprints = 0

    def finish(j: int) -> List[int]:
        """Close source j's sweep; returns the sources it unblocks."""
        s = srcs[j]
        counts = OpCounts(
            pops=pops[j],
            edge_relaxations=relax_att[j],
            edge_improvements=relax_imp[j],
            row_merges=merges[j],
            merge_comparisons=merges[j] * n,
            flag_hits=merges[j],
        )
        out[s] = counts
        finished[j] = True
        flag[s] = 1  # Algorithm 1 line 21 — row s is now final
        if reg is not None:
            reg.add("sweep.count", 1)
            reg.add_many(counts.as_dict(), prefix="ops")
            reg.gauge_max(
                f"sweep.{queue}.peak_queue_occupancy", peaks[j]
            )
        woken = parked_on[j]
        parked_on[j] = []
        return woken

    def sprint_fifo(j: int) -> None:
        s = srcs[j]
        q = queues[j]
        iq = in_queue[j]
        row = rows_v[j]
        ps = pos_s[j]
        while q:
            if reg is not None and len(q) > peaks[j]:
                peaks[j] = len(q)
            t = q.popleft()
            iq[t] = 0
            pops[j] += 1
            if use_flags and t != s and pos_list[t] < ps:
                merges[j] += 1
                merge_row(row, dist[t], float(row[t]))
                continue
            lo, hi = indptr[t], indptr[t + 1]
            nbrs = indices[lo:hi]
            relax_att[j] += int(nbrs.size)
            got, k = relax_edges(row, nbrs, weights[lo:hi], float(row[t]))
            relax_imp[j] += k
            for v in got.tolist():
                if not iq[v]:
                    iq[v] = 1
                    q.append(v)

    def sprint_heap(j: int) -> None:
        s = srcs[j]
        q = queues[j]
        row = rows_v[j]
        ps = pos_s[j]
        while q:
            if reg is not None and len(q) > peaks[j]:
                peaks[j] = len(q)
            d, t = heapq.heappop(q)
            pops[j] += 1
            if d > row[t]:
                continue  # stale entry (lazy deletion)
            if use_flags and t != s and pos_list[t] < ps:
                merges[j] += 1
                merge_row(row, dist[t], float(row[t]))
                continue
            lo, hi = indptr[t], indptr[t + 1]
            nbrs = indices[lo:hi]
            relax_att[j] += int(nbrs.size)
            got, k = relax_edges(row, nbrs, weights[lo:hi], float(row[t]))
            relax_imp[j] += k
            for v in got.tolist():
                heapq.heappush(q, (float(row[v]), v))

    sprint = sprint_fifo if fifo else sprint_heap

    while active:
        if len(active) <= SPRINT_THRESHOLD:
            # low occupancy: sprint the earliest-position runnable
            # source sequentially.  That source is the
            # earliest *unfinished* one (parked sources wait on earlier
            # positions, and the earliest unfinished can never park),
            # so the sprint can never need a row that is not final.
            j = min(active, key=pos_s.__getitem__)
            sprints += 1
            sprint(j)
            active.remove(j)
            active.extend(finish(j))
            continue

        rounds += 1
        next_active: List[int] = []
        merge_js: List[int] = []
        merge_ts: List[int] = []
        relax_js: List[int] = []
        relax_ts: List[int] = []
        for j in active:
            q = queues[j]
            s = srcs[j]
            if fifo:
                # pop optimistically; parking is rare enough that the
                # appendleft put-back beats a peek-then-pop on every pop
                t = q.popleft()
            else:
                # skip stale entries exactly like the per-source sweep
                # (lazy deletion; the row is not touched in between)
                row = rows_v[j]
                while q:
                    d, t = heapq.heappop(q)
                    pops[j] += 1
                    if d > row[t]:
                        t = -1
                        continue
                    break
                if t < 0:
                    next_active.extend(finish(j))
                    continue
            # positional rule: the sequential sweep would see flag[t]
            # set iff t was issued earlier
            do_merge = use_flags and t != s and pos_list[t] < pos_s[j]
            if do_merge:
                jb = blk_index.get(t)
                if jb is not None and not finished[jb]:
                    # row t not final yet — park until it is
                    if fifo:
                        q.appendleft(t)
                    else:
                        heapq.heappush(q, (d, t))
                        pops[j] -= 1
                    parked_on[jb].append(j)
                    parks += 1
                    continue
            if fifo:
                in_queue[j][t] = 0
                pops[j] += 1
            if do_merge:
                merges[j] += 1
                merge_js.append(j)
                merge_ts.append(t)
            else:
                relax_js.append(j)
                relax_ts.append(t)
            next_active.append(j)

        if merge_js:
            if len(merge_js) < MERGE_BATCH_MIN:
                for k, j in enumerate(merge_js):
                    row = rows_v[j]
                    t = merge_ts[k]
                    merge_row(row, dist[t], float(row[t]))
            else:
                merge_block(
                    dist,
                    np.fromiter(
                        (srcs[j] for j in merge_js),
                        np.int64,
                        len(merge_js),
                    ),
                    np.fromiter(merge_ts, np.int64, len(merge_ts)),
                )
        if relax_js:
            if len(relax_js) < RELAX_BATCH_MIN:
                targets = []
                lens = []
                for k, j in enumerate(relax_js):
                    row = rows_v[j]
                    t = relax_ts[k]
                    lo, hi = indptr[t], indptr[t + 1]
                    nbrs = indices[lo:hi]
                    got, _k = relax_edges(
                        row, nbrs, weights[lo:hi], float(row[t])
                    )
                    targets.append(got)
                    lens.append(int(nbrs.size))
            else:
                targets, lens = relax_block(
                    dist,
                    np.fromiter(
                        (srcs[j] for j in relax_js),
                        np.int64,
                        len(relax_js),
                    ),
                    np.fromiter(relax_ts, np.int64, len(relax_ts)),
                    indptr,
                    indices,
                    weights,
                )
            if fifo:
                for k, j in enumerate(relax_js):
                    relax_att[j] += int(lens[k])
                    got = targets[k]
                    relax_imp[j] += int(got.size)
                    if got.size:
                        q = queues[j]
                        iq = in_queue[j]
                        for v in got.tolist():
                            if not iq[v]:
                                iq[v] = 1
                                q.append(v)
                        if reg is not None and len(q) > peaks[j]:
                            peaks[j] = len(q)
            else:
                for k, j in enumerate(relax_js):
                    relax_att[j] += int(lens[k])
                    got = targets[k]
                    relax_imp[j] += int(got.size)
                    if got.size:
                        q = queues[j]
                        row = rows_v[j]
                        for v in got.tolist():
                            heapq.heappush(q, (float(row[v]), v))
                        if reg is not None and len(q) > peaks[j]:
                            peaks[j] = len(q)

        active = []
        for j in next_active:
            if queues[j]:
                active.append(j)
            else:
                active.extend(finish(j))

    if reg is not None:
        reg.add("kernel.batch.blocks", 1)
        reg.add("kernel.batch.rounds", rounds)
        reg.add("kernel.batch.sprints", sprints)
        if parks:
            reg.add("kernel.batch.stalls", parks)
    return out
