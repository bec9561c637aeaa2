"""Exact pins of the distance store's on-disk bytes.

Each case builds (and then updates or repairs) a small store and hashes
every file in its directory — ``manifest.json`` included — with sha256.
The digests were computed once and written down, so any change to how
the store encodes, names, checksums or describes its files fails here.
The bench fingerprint (``serve.store.fingerprint``) cannot do this: it
covers the shard and landmark checksums only, not the manifest bytes.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.graphs.generators import attach_random_weights
from repro.graphs.rmat import rmat
from repro.serve import DistStore, apply_edge_updates, solve_to_store
from repro.serve.update import EdgeUpdate

#: deletes edge (0, 31): re-solves shards 0 and 1 only and rebuilds
#: the landmark file, reusing the rows of landmarks in clean shards
BATCH = [EdgeUpdate(0, 31, None)]

PINS = {
    "raw-unit":
        "5a9d2d1490bf339d353c7adab17495ff0bb926f7267256f04cdd0f3f1a59692d",
    "raw-weighted":
        "1047bf9426f4d7a551f7b78ec655fd1d9d511dcd000e40db6e11536ffb38f977",
    "u16q-weighted":
        "d7fce2b56d7528dbda83c42ab2906bd31eb305757f606fba89a4feb804c2ff36",
    "raw-weighted+update":
        "4f67f90462df69ef9ec3f4937968d746eb7cecddd2be643574e334b9e05023a1",
    "u16q-weighted+update":
        "d7693950e69e5a10bb461f23b676e57c77a5de82af6e2332659df24cedbe7050",
    "raw-weighted+update+prune":
        "385c9fd7b58d9023816f4a1e004e37f6a0e66407115096b0a1ce7361575526e6",
    "u16q-weighted+update+prune":
        "50bcdad6bbfa15bdf04d89d35de97eec4201ea7084f7d33d65049b7202536f35",
    "u16q-weighted+repair":
        "d7fce2b56d7528dbda83c42ab2906bd31eb305757f606fba89a4feb804c2ff36",
}


def _unit():
    return rmat(6, 8, seed=2)


def _weighted():
    return attach_random_weights(_unit(), seed=3)


def _digests(path) -> dict:
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(path.iterdir())
    }


def _digest(path) -> str:
    h = hashlib.sha256()
    for name, digest in _digests(path).items():
        h.update(f"{name} {digest}\n".encode())
    return h.hexdigest()


def _build(tmp_path, graph, codec):
    return solve_to_store(graph, tmp_path / "store", shard_rows=16,
                          num_landmarks=4, codec=codec)


@pytest.mark.parametrize(
    "case, graph, codec",
    [("raw-unit", _unit, "raw"),
     ("raw-weighted", _weighted, "raw"),
     ("u16q-weighted", _weighted, "u16q")],
)
def test_build_bytes(tmp_path, case, graph, codec):
    store = _build(tmp_path, graph(), codec)
    assert _digest(store.path) == PINS[case]


@pytest.mark.parametrize("codec", ["raw", "u16q"])
@pytest.mark.parametrize("prune", [False, True])
def test_update_bytes(tmp_path, codec, prune):
    graph = _weighted()
    store = _build(tmp_path, graph, codec)
    result = apply_edge_updates(store, graph, BATCH, prune=prune)
    assert result.dirty_shards == (0, 1)
    assert result.landmarks_rebuilt
    case = f"{codec}-weighted+update" + ("+prune" if prune else "")
    assert _digest(store.path) == PINS[case]


def test_repair_bytes(tmp_path):
    graph = _weighted()
    store = _build(tmp_path, graph, "u16q")
    clean = _digests(store.path)
    for name in ("shard_00001.bin", "landmarks.bin"):
        target = store.path / name
        data = bytearray(target.read_bytes())
        data[7] ^= 0xFF
        target.write_bytes(bytes(data))
    assert DistStore.open(store.path).repair(graph) == [1, "landmarks"]
    assert _digests(store.path) == clean
    assert _digest(store.path) == PINS["u16q-weighted+repair"]
