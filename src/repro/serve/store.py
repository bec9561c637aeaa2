"""Sharded on-disk distance store (``repro.serve.store/2``).

The APSP result for a production-sized graph does not fit in RAM (the
Spark APSP study measures sx-superuser at ≈160 GB), so the serving
layer never materialises n×n.  A :class:`DistStore` is a directory:

.. code-block:: text

    store/
      manifest.json     schema, shapes, codec, per-shard checksums,
                        per-shard error bounds, config
      shard_00000.bin   rows [0, shard_rows)       codec-encoded
      shard_00001.bin   rows [shard_rows, 2·shard_rows)
      ...
      landmarks.bin     pinned landmark rows (always raw f8 — the ALT
                        bounds in repro.serve.engine must stay exact)

built shard-by-shard from :func:`repro.core.runner.solve_apsp_shards`,
so peak resident memory during the build is O(shard_rows × n) — the
shard buffer plus, on integral weights, a hub-row block of the same
size — never O(n²).

Shard bytes go through a pluggable **codec**
(:mod:`repro.serve.codecs`): ``raw`` f8 (byte-identical to schema
``/1`` stores, which still open), ``f4``, ``u16q`` affine quantization
with a certified max-abs-error recorded per shard and store-wide in the
manifest, and ``u16qd`` (delta along the degree ordering + zlib).
Checksums are computed over the **encoded** bytes, so corruption
detection and :meth:`DistStore.repair` work identically for every
codec.

Stores are **byte-deterministic**: every shard row is bitwise the
flagless row (the build reuses hub rows only where integral weights
make every sum exact), which makes shard bytes independent of
``shard_rows``, and codec encoding is deterministic by contract — so a
repaired shard must reproduce the manifest checksum or the repair
itself fails loudly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

from ..exceptions import StoreCorruptionError, StoreError
from ..graphs.degree import degree_order
from ..obs import metrics as _obs
from . import telemetry as _tel
from .codecs import get_codec

__all__ = ["STORE_SCHEMA_VERSION", "DistStore", "solve_to_store"]

STORE_SCHEMA_VERSION = "repro.serve.store/2"
#: previous schema — raw f8, no codec/error fields; still readable
_STORE_SCHEMA_V1 = "repro.serve.store/1"

_MANIFEST = "manifest.json"
_LANDMARKS = "landmarks.bin"
_DTYPE = np.dtype("<f8")


def _crc32(data) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _graph_crc32(graph) -> int:
    """crc32 over the CSR ``indptr``/``indices``/``weights`` bytes: the
    digest of the graph a store serves, recorded in its manifest."""
    crc = 0
    for array in (graph.indptr, graph.indices, graph.weights):
        crc = zlib.crc32(array, crc)
    return crc & 0xFFFFFFFF


def _shard_file(index: int) -> str:
    return f"shard_{index:05d}.bin"


class DistStore:
    """Read access to a sharded distance store directory.

    Open with :meth:`DistStore.open`; build with :func:`solve_to_store`.
    All loads go through :meth:`load_shard`, which checksums the
    encoded bytes it read (unless told not to) and decodes them through
    the manifest's codec, so serving never silently returns rotten
    distances.
    """

    def __init__(self, path: "str | os.PathLike", manifest: Dict[str, Any]):
        self.path = Path(path)
        self.manifest = manifest
        self.n: int = manifest["n"]
        self.shard_rows: int = manifest["shard_rows"]
        self.num_shards: int = manifest["num_shards"]
        self.landmark_ids: List[int] = list(manifest["landmarks"]["ids"])
        # schema /1 manifests predate codecs: raw f8, zero error
        self.codec_name: str = manifest.get("codec", "raw")
        self.codec = get_codec(
            self.codec_name, **manifest.get("codec_params", {})
        )
        self.max_abs_error: float = float(manifest.get("max_abs_error", 0.0))
        #: store-recommended short-circuit gap for the query engine
        #: (``None`` = disabled); see StoreConfig.epsilon
        self.epsilon = manifest.get("epsilon")

    @property
    def generation(self) -> int:
        """Monotonic update counter; 0 for a fresh build (and for any
        store written before generations existed)."""
        return int(self.manifest.get("generation", 0))

    # -- open / validate ------------------------------------------------

    @classmethod
    def open(cls, path: "str | os.PathLike") -> "DistStore":
        path = Path(path)
        manifest_path = path / _MANIFEST
        if not manifest_path.is_file():
            raise StoreError(f"no store manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"unreadable store manifest: {exc}") from exc
        schema = manifest.get("schema")
        if schema not in (STORE_SCHEMA_VERSION, _STORE_SCHEMA_V1):
            raise StoreError(
                f"store schema mismatch: found {schema!r}, this build "
                f"reads {STORE_SCHEMA_VERSION!r} (and legacy "
                f"{_STORE_SCHEMA_V1!r})"
            )
        for key in ("n", "shard_rows", "num_shards", "shards", "landmarks"):
            if key not in manifest:
                raise StoreError(f"store manifest missing {key!r}")
        if len(manifest["shards"]) != manifest["num_shards"]:
            raise StoreError(
                f"manifest lists {len(manifest['shards'])} shards but "
                f"declares num_shards={manifest['num_shards']}"
            )
        return cls(path, manifest)

    # -- geometry -------------------------------------------------------

    def shard_of(self, vertex: int) -> int:
        """Which shard holds ``dist_from(vertex)``."""
        if not 0 <= vertex < self.n:
            raise StoreError(
                f"vertex {vertex} out of range for store of n={self.n}"
            )
        return vertex // self.shard_rows

    def shard_span(self, index: int) -> "tuple[int, int]":
        """``(start_row, num_rows)`` of a shard."""
        if not 0 <= index < self.num_shards:
            raise StoreError(
                f"shard {index} out of range (store has {self.num_shards})"
            )
        entry = self.manifest["shards"][index]
        return entry["start"], entry["rows"]

    def shard_nbytes(self, index: int) -> int:
        """Encoded on-disk payload size of one shard."""
        _, rows = self.shard_span(index)
        entry = self.manifest["shards"][index]
        # /1 manifests carry no nbytes: raw f8 size is implied
        return entry.get("nbytes", rows * self.n * _DTYPE.itemsize)

    def store_bytes(self) -> int:
        """Total encoded shard payload bytes (landmarks excluded)."""
        return sum(
            self.shard_nbytes(index) for index in range(self.num_shards)
        )

    def shard_error(self, index: int) -> float:
        """Certified max abs error of one decoded shard."""
        entry = self.manifest["shards"][index]
        return float(entry.get("max_abs_error", 0.0))

    # -- loads ----------------------------------------------------------

    def load_shard(self, index: int, *, verify: bool = True) -> np.ndarray:
        """Read one shard into memory as a ``(rows, n)`` float64 array."""
        start, rows = self.shard_span(index)
        entry = self.manifest["shards"][index]
        fpath = self.path / entry["file"]
        expected = self.shard_nbytes(index)
        load_t0 = time.perf_counter()
        with _obs.span("serve.store.load"):
            try:
                raw = fpath.read_bytes()
            except OSError as exc:
                raise StoreError(
                    f"cannot read shard {index} ({fpath}): {exc}"
                ) from exc
            if len(raw) != expected:
                raise StoreCorruptionError(
                    f"shard {index} has {len(raw)} bytes, expected "
                    f"{expected}",
                    shards=(index,),
                )
            if verify and _crc32(raw) != entry["crc32"]:
                _obs.counter_add("serve.store.corruption_detected", 1)
                raise StoreCorruptionError(
                    f"shard {index} failed its checksum "
                    f"(rows [{start}, {start + rows}))",
                    shards=(index,),
                )
            try:
                arr = self.codec.decode(
                    raw, rows, self.n, entry.get("params", {})
                )
            except ValueError as exc:
                # an unverified load of damaged bytes can fail inside
                # the codec (e.g. deflate stream truncated) — that is
                # still corruption, not a programming error
                _obs.counter_add("serve.store.corruption_detected", 1)
                raise StoreCorruptionError(
                    f"shard {index} bytes do not decode as "
                    f"{self.codec_name!r}: {exc}",
                    shards=(index,),
                ) from exc
        _obs.counter_add("serve.store.shard_loads", 1)
        _tel.emit("shard_load", time.perf_counter() - load_t0,
                  shard=index, nbytes=expected, codec=self.codec_name)
        return arr

    def row(self, vertex: int, *, verify: bool = True) -> np.ndarray:
        """``dist_from(vertex)`` straight from disk (no cache)."""
        index = self.shard_of(vertex)
        start, _ = self.shard_span(index)
        return self.load_shard(index, verify=verify)[vertex - start]

    def landmark_rows(self, *, verify: bool = True) -> np.ndarray:
        """The pinned ``(L, n)`` landmark rows for degraded answers.

        Always raw f8 regardless of the shard codec: the ALT bounds
        built from these rows must be exact for the short-circuit
        guarantee to hold.
        """
        entry = self.manifest["landmarks"]
        L = len(entry["ids"])
        if L == 0:
            return np.empty((0, self.n), dtype=np.float64)
        fpath = self.path / entry["file"]
        raw = fpath.read_bytes()
        if len(raw) != L * self.n * _DTYPE.itemsize:
            raise StoreCorruptionError(
                f"landmark file has {len(raw)} bytes, expected "
                f"{L * self.n * _DTYPE.itemsize}",
                shards=("landmarks",),
            )
        if verify and _crc32(raw) != entry["crc32"]:
            _obs.counter_add("serve.store.corruption_detected", 1)
            raise StoreCorruptionError(
                "landmark rows failed their checksum", shards=("landmarks",)
            )
        return np.frombuffer(raw, dtype=_DTYPE).reshape(L, self.n).copy()

    # -- integrity ------------------------------------------------------

    def verify(self) -> None:
        """Checksum every shard and the landmark file.

        Raises :class:`StoreCorruptionError` carrying the full list of
        damaged shards (so a caller repairs them all in one pass) —
        returns ``None`` on a clean store.
        """
        bad: List[Any] = []
        for index, entry in enumerate(self.manifest["shards"]):
            fpath = self.path / entry["file"]
            try:
                raw = fpath.read_bytes()
            except OSError:
                bad.append(index)
                continue
            if len(raw) != self.shard_nbytes(index) \
                    or _crc32(raw) != entry["crc32"]:
                bad.append(index)
        lm = self.manifest["landmarks"]
        if lm["ids"]:
            fpath = self.path / lm["file"]
            try:
                raw = fpath.read_bytes()
            except OSError:
                raw = b""
            expected = len(lm["ids"]) * self.n * _DTYPE.itemsize
            # same length check load_shard/landmark_rows apply: a
            # truncated file must report corruption, not just a crc miss
            if len(raw) != expected or _crc32(raw) != lm["crc32"]:
                bad.append("landmarks")
        if bad:
            _obs.counter_add("serve.store.corruption_detected", len(bad))
            raise StoreCorruptionError(
                f"store verification failed for shards {bad}", shards=bad
            )

    def repair(self, graph) -> List[Any]:
        """Re-solve damaged shards from the graph; exact or loud.

        Because stores are byte-deterministic (flagless rows from the
        manifest's own config, then deterministically encoded), a
        correct repair must reproduce the original encoded checksum
        exactly; if it does not, the graph passed in is not the graph
        the store was built from and we raise rather than quietly
        install different distances.  Returns the list of shards
        repaired (empty for a clean store).
        """
        from ..config import SolverConfig
        from ..core.runner import solve_apsp_rows

        try:
            self.verify()
            return []
        except StoreCorruptionError as exc:
            bad = list(exc.shards)

        if graph.num_vertices != self.n:
            raise StoreError(
                f"repair graph has {graph.num_vertices} vertices, store "
                f"was built for n={self.n}"
            )
        options = SolverConfig.from_dict(self.manifest["config"]).to_kwargs()
        with _obs.span("serve.store.repair"):
            for index in [b for b in bad if b != "landmarks"]:
                start, rows = self.shard_span(index)
                entry = self.manifest["shards"][index]
                block = solve_apsp_rows(
                    graph, np.arange(start, start + rows), **options
                )
                _obs.counter_add("serve.store.shards_solved", 1)
                payload, _, _ = self.codec.encode(block)
                crc = _crc32(payload)
                if crc != entry["crc32"]:
                    raise StoreError(
                        f"repair of shard {index} produced checksum "
                        f"{crc:#010x}, manifest says "
                        f"{entry['crc32']:#010x}; is this the graph the "
                        "store was built from?"
                    )
                (self.path / entry["file"]).write_bytes(payload)
            if "landmarks" in bad:
                _write_landmarks(self, graph, options)
        _obs.counter_add("serve.store.shards_repaired", len(bad))
        self.verify()
        return bad


def _landmark_vertices(graph, count: int, degree_kind: str) -> List[int]:
    count = min(count, graph.num_vertices)
    return [int(v) for v in degree_order(graph, degree_kind)[:count]]


def _write_landmarks(store: DistStore, graph, options) -> None:
    """(Re)build the pinned landmark rows from the graph; ``options``
    are the solver keywords the store was built with.  Only the
    landmark rows are solved, not their shards."""
    from ..core.runner import solve_apsp_rows

    ids = store.manifest["landmarks"]["ids"]
    if not ids:
        return
    rows = solve_apsp_rows(graph, ids, **options)
    raw = np.ascontiguousarray(rows).tobytes()
    # verify BEFORE writing: a wrong-graph repair must leave whatever
    # is on disk untouched instead of installing bytes it then rejects
    if _crc32(raw) != store.manifest["landmarks"]["crc32"]:
        raise StoreError(
            "landmark repair produced different bytes; is this the "
            "graph the store was built from?"
        )
    (store.path / store.manifest["landmarks"]["file"]).write_bytes(raw)


def solve_to_store(
    graph,
    path: "str | os.PathLike",
    *,
    shard_rows=None,
    num_landmarks=None,
    codec=None,
    epsilon=None,
    **options,
) -> DistStore:
    """Solve APSP and stream the result into a new store directory.

    Thin pipeline over :func:`repro.core.runner.solve_apsp_shards`:
    each yielded shard is codec-encoded, checksummed and written before
    the next is solved, so the n×n matrix never exists in memory.
    ``options`` are :func:`repro.solve_apsp`'s flat keywords;
    ``use_flags`` is forced off for byte-determinism (see the module
    docstring), everything else is honoured and recorded in the
    manifest, making the store reproducible from the manifest alone.

    The store-side knobs (``shard_rows``, ``num_landmarks``, ``codec``,
    ``epsilon``) are the fields of :class:`repro.config.StoreConfig`,
    which holds their defaults and validates them; a saved config
    builds as ``solve_to_store(graph, path, **cfg.to_dict())``.
    ``num_landmarks`` top-degree rows are pinned into ``landmarks.bin``
    (always raw f8) for the serving layer's ALT bounds and degraded
    mode.
    """
    from ..config import SolverConfig, StoreConfig

    store_cfg = StoreConfig(
        **{
            name: value
            for name, value in (
                ("shard_rows", shard_rows),
                ("num_landmarks", num_landmarks),
                ("codec", codec),
                ("epsilon", epsilon),
            )
            if value is not None
        }
    )
    cfg = SolverConfig.from_kwargs(**options).with_overrides(use_flags=False)

    path = Path(path)
    if path.exists() and any(path.iterdir()):
        raise StoreError(f"refusing to build a store in non-empty {path}")
    path.parent.mkdir(parents=True, exist_ok=True)
    # build into a hidden temp sibling and rename into place on success:
    # a crash mid-build leaves the target path absent (only a stray
    # dot-dir beside it), so a retry is never blocked by partial output
    build_dir = Path(
        tempfile.mkdtemp(prefix=f".{path.name}.build-", dir=path.parent)
    )
    try:
        manifest = _build_store_files(graph, build_dir, store_cfg, cfg)
        if path.exists():
            path.rmdir()  # known empty from the check above
        os.replace(build_dir, path)
    except BaseException:
        shutil.rmtree(build_dir, ignore_errors=True)
        raise
    _obs.counter_add("serve.store.builds", 1)
    return DistStore(path, manifest)


def _build_store_files(graph, path, store_cfg, cfg):
    """Solve + encode + write every store file into ``path``.

    Returns the manifest dict (also written to ``path``).  Factored out
    of :func:`solve_to_store` so the caller owns directory lifecycle
    (temp-sibling build, atomic rename).
    """
    from ..core.runner import solve_apsp_shards

    n = graph.num_vertices
    shard_rows = store_cfg.shard_rows
    landmark_ids = _landmark_vertices(
        graph, store_cfg.num_landmarks, cfg.algorithm.degree_kind
    )
    landmark_rows = np.empty((len(landmark_ids), n), dtype=np.float64)
    landmark_pos = {v: i for i, v in enumerate(landmark_ids)}

    codec_params: Dict[str, Any] = {}
    codec_obj = get_codec(store_cfg.codec)
    if codec_obj.needs_degree_order:
        codec_params["order"] = [
            int(v) for v in degree_order(graph, cfg.algorithm.degree_kind)
        ]
        codec_obj = get_codec(store_cfg.codec, **codec_params)

    shards: List[Dict[str, Any]] = []
    max_abs_error = 0.0
    with _obs.span("serve.store.build"):
        for start, rows in solve_apsp_shards(
            graph, shard_rows=shard_rows, **cfg.to_kwargs()
        ):
            k = rows.shape[0]
            for v in range(start, start + k):
                if v in landmark_pos:
                    landmark_rows[landmark_pos[v]] = rows[v - start]
            payload, params, err = codec_obj.encode(rows)
            max_abs_error = max(max_abs_error, err)
            fname = _shard_file(len(shards))
            (path / fname).write_bytes(payload)
            shards.append(
                {
                    "file": fname,
                    "start": start,
                    "rows": k,
                    "crc32": _crc32(payload),
                    "nbytes": len(payload),
                    "params": params,
                    "max_abs_error": err,
                }
            )
    lm_raw = np.ascontiguousarray(landmark_rows).tobytes()
    if landmark_ids:
        (path / _LANDMARKS).write_bytes(lm_raw)
    manifest = {
        "schema": STORE_SCHEMA_VERSION,
        "n": n,
        "shard_rows": min(shard_rows, max(1, n)),
        "num_shards": len(shards),
        "generation": 0,
        "dtype": _DTYPE.str,
        "codec": store_cfg.codec,
        "codec_params": codec_params,
        "max_abs_error": max_abs_error,
        "epsilon": store_cfg.epsilon,
        "shards": shards,
        "landmarks": {
            "ids": landmark_ids,
            "file": _LANDMARKS,
            "crc32": _crc32(lm_raw),
        },
        "graph": {
            "name": getattr(graph, "name", "") or "",
            "crc32": _graph_crc32(graph),
        },
        "config": cfg.to_dict(),
    }
    (path / _MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest
