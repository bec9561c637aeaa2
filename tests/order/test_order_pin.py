"""Exact pins of every ordering procedure, real and simulated.

Each case runs one name of :data:`repro.order.ORDERINGS` at one thread
count on one degree vector and hashes the result with sha256:

* the real run (``compute_order`` on the serial backend): the order's
  bytes, the ``exact`` flag and the sorted stats;
* the simulated run (``simulate_order(..., trace=True)``): makespan,
  per-thread busy and overhead, lock acquisitions and every trace event
  with its label.  The sequential bucket references have no simulated
  variant; their cases pin the error type instead.

Floats enter the hash by their exact ``repr``, so a refactor that moves
one virtual time by one ulp, reorders one tie or renames one event
fails here.  The quick experiment reports do not see event labels.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.exceptions import OrderingError
from repro.graphs import degree_array, load_dataset
from repro.graphs.rmat import rmat
from repro.order import ORDERINGS, compute_order, simulate_order
from repro.simx import MACHINE_I

THREADS = (1, 4, 16)


def _degrees(graph: str) -> np.ndarray:
    if graph == "rmat8":
        return degree_array(rmat(8, seed=2))
    return degree_array(load_dataset("WordNet", scale=600))


def _digest(name: str, degrees: np.ndarray, threads: int) -> str:
    h = hashlib.sha256()
    real = compute_order(name, degrees, num_threads=threads, backend="serial")
    h.update(real.order.astype(np.int64).tobytes())
    h.update(json.dumps([real.exact, sorted(real.stats.items())]).encode())
    try:
        sim = simulate_order(
            name, degrees, MACHINE_I, num_threads=threads, trace=True
        ).sim
    except OrderingError as exc:
        h.update(type(exc).__name__.encode())
        return h.hexdigest()
    h.update(json.dumps([
        sim.num_threads,
        sim.makespan,
        sim.busy.tolist(),
        sim.overhead.tolist(),
        sim.total_acquisitions,
        sim.contended_acquisitions,
        [[e.item, e.thread, e.start, e.end, e.kind, e.label]
         for e in sim.events],
    ]).encode())
    return h.hexdigest()


DIGESTS = {
    "rmat8/none/t1":
        "9dedbf4edef4c8d631f37fb08ddcc366b116f96ae5d56dc155cb166155712706",
    "rmat8/none/t4":
        "9dedbf4edef4c8d631f37fb08ddcc366b116f96ae5d56dc155cb166155712706",
    "rmat8/none/t16":
        "9dedbf4edef4c8d631f37fb08ddcc366b116f96ae5d56dc155cb166155712706",
    "rmat8/selection/t1":
        "9e03266801e2791c9bddd497d0e11a6d88517d7f8a9b519b0d7ed10339b1a986",
    "rmat8/selection/t4":
        "9e03266801e2791c9bddd497d0e11a6d88517d7f8a9b519b0d7ed10339b1a986",
    "rmat8/selection/t16":
        "9e03266801e2791c9bddd497d0e11a6d88517d7f8a9b519b0d7ed10339b1a986",
    "rmat8/approx-buckets/t1":
        "217717ee5b54078316e0ea3fe0440ed09705af35a1d4efdb03c389467526c384",
    "rmat8/approx-buckets/t4":
        "217717ee5b54078316e0ea3fe0440ed09705af35a1d4efdb03c389467526c384",
    "rmat8/approx-buckets/t16":
        "217717ee5b54078316e0ea3fe0440ed09705af35a1d4efdb03c389467526c384",
    "rmat8/exact-buckets/t1":
        "18a05cdca6f8f62d37e8d26203e9eb56aa91ad98e0d1b62bd09076949f7297cf",
    "rmat8/exact-buckets/t4":
        "18a05cdca6f8f62d37e8d26203e9eb56aa91ad98e0d1b62bd09076949f7297cf",
    "rmat8/exact-buckets/t16":
        "18a05cdca6f8f62d37e8d26203e9eb56aa91ad98e0d1b62bd09076949f7297cf",
    "rmat8/parbuckets/t1":
        "37e0e995384a46c0654fc447802fd41034ba17a1722e86cef504d64f0adcd0b8",
    "rmat8/parbuckets/t4":
        "8d8e76c04625c045b721d234f9191b792ef6b92e977a39db9e6063bea74dc49e",
    "rmat8/parbuckets/t16":
        "1a569836c0bfc3692361877d74d603757aa83b1e123ac9f52e9ee8ab87b3bc88",
    "rmat8/parmax/t1":
        "bc55b7ddc66cb8457af119f65399eecd79e9eab0c13d6c3523a00b0ec12d9e09",
    "rmat8/parmax/t4":
        "2c388131e6ff844f64f651e1fabc7ed80fb570aadfd4292731561983405e9e3e",
    "rmat8/parmax/t16":
        "33d5c7ab0b6cd3353d7c589b28e5c5714e980aeb99fe8f4ff0e2d128fecf66b2",
    "rmat8/multilists/t1":
        "e1fba6d3106be96215004c9bce425d19bcdaf9de3f8dfb4bf7ee94a0056c7312",
    "rmat8/multilists/t4":
        "36c39932b83abbdc575e12db65beb0ddea28f981e3c3bc6553f0a4b1e6482af5",
    "rmat8/multilists/t16":
        "8a517c0a33f6f05defa933885280e262c118e51740a191bbeaee73f790d7b848",
    "wordnet/none/t1":
        "3f3eb179ec50aa9d57d2eff4739bc17479a5cdfdf37075e70b9e9be81564ef11",
    "wordnet/none/t4":
        "3f3eb179ec50aa9d57d2eff4739bc17479a5cdfdf37075e70b9e9be81564ef11",
    "wordnet/none/t16":
        "3f3eb179ec50aa9d57d2eff4739bc17479a5cdfdf37075e70b9e9be81564ef11",
    "wordnet/selection/t1":
        "a8fc3aa9270d4c235ececa30e2ed0b85d0e9886cff783c8a4eda2eb0360758ce",
    "wordnet/selection/t4":
        "a8fc3aa9270d4c235ececa30e2ed0b85d0e9886cff783c8a4eda2eb0360758ce",
    "wordnet/selection/t16":
        "a8fc3aa9270d4c235ececa30e2ed0b85d0e9886cff783c8a4eda2eb0360758ce",
    "wordnet/approx-buckets/t1":
        "2ec3cbf2b059945b22f6816b54d9bec6e2421a9d61c374be7246f252b80be810",
    "wordnet/approx-buckets/t4":
        "2ec3cbf2b059945b22f6816b54d9bec6e2421a9d61c374be7246f252b80be810",
    "wordnet/approx-buckets/t16":
        "2ec3cbf2b059945b22f6816b54d9bec6e2421a9d61c374be7246f252b80be810",
    "wordnet/exact-buckets/t1":
        "380b81c0d9f43864016974c7439be769cf8a7fe3c8d3a33dd2e17f13cf3b7464",
    "wordnet/exact-buckets/t4":
        "380b81c0d9f43864016974c7439be769cf8a7fe3c8d3a33dd2e17f13cf3b7464",
    "wordnet/exact-buckets/t16":
        "380b81c0d9f43864016974c7439be769cf8a7fe3c8d3a33dd2e17f13cf3b7464",
    "wordnet/parbuckets/t1":
        "81f0563c9830ad3c6a207fa72f295908c6a81a0dc34330c4c1ef5d9397b247e6",
    "wordnet/parbuckets/t4":
        "674c59ebf30c3db09bb20c52a6bbaa5976a48bf4043c3e4abf817260eb1bc5e1",
    "wordnet/parbuckets/t16":
        "0bc95ad9acee7b81239032bd78d1ddb09a431992ae992fedf7a20d785a42de41",
    "wordnet/parmax/t1":
        "16ec5719ffd4f2ef588d59c413e59c8145c3f1340cc1922716b1d40063f2aef2",
    "wordnet/parmax/t4":
        "b659b2b127998b322270782b42e6c7e8e97f65a347c1bac65be32f8864bf1a20",
    "wordnet/parmax/t16":
        "3742a798534819ec3de822817404e0be16914d92534d4a2e84a59f3d3bea2efa",
    "wordnet/multilists/t1":
        "5150ce220c9defa82d487e56bea0b262a0a1bca92db7022abb2571235f68a8a2",
    "wordnet/multilists/t4":
        "b86bc96139c647a7cb2aa046ad4d171b1adef323457965c84436a3c4598fc143",
    "wordnet/multilists/t16":
        "b989be7606a1f0690ceaeec8352b841a70cf529b7565b6fa8d35f76badb298b4",
}


@pytest.mark.parametrize("graph", ["rmat8", "wordnet"])
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("name", ORDERINGS)
def test_ordering_pinned(graph, threads, name):
    key = f"{graph}/{name}/t{threads}"
    assert _digest(name, _degrees(graph), threads) == DIGESTS[key], key
