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


class DistStore:
    """Read access to a sharded distance store directory.

    Open with :meth:`DistStore.open`; build with :func:`solve_to_store`.
    Every file read goes through :meth:`_read_file`, which checks the
    length and (unless told not to) the crc32 of the encoded bytes;
    :meth:`load_shard` then decodes them through the manifest's codec,
    so serving never silently returns rotten distances.
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
        if not isinstance(manifest, dict):
            raise StoreError("store manifest is not a JSON object")
        schema = manifest.get("schema")
        if schema not in (STORE_SCHEMA_VERSION, _STORE_SCHEMA_V1):
            raise StoreError(
                f"store schema mismatch: found {schema!r}, this build "
                f"reads {STORE_SCHEMA_VERSION!r} (and legacy "
                f"{_STORE_SCHEMA_V1!r})"
            )
        for key, kind in (("n", int), ("shard_rows", int), ("num_shards", int),
                          ("shards", list), ("landmarks", dict)):
            if not isinstance(manifest.get(key), kind):
                raise StoreError(f"store manifest missing or mistyped {key!r}")
        if len(manifest["shards"]) != manifest["num_shards"]:
            raise StoreError(
                f"manifest lists {len(manifest['shards'])} shards but "
                f"declares num_shards={manifest['num_shards']}"
            )
        # the fields the file reader and writers use, with their types
        # (/1 manifests carry no nbytes: raw f8 size is implied)
        for name, entry in [*enumerate(manifest["shards"]),
                            ("landmarks", manifest["landmarks"])]:
            entry = entry if isinstance(entry, dict) else {}
            fields = {"file": str, "crc32": int, **(
                {"ids": list} if name == "landmarks"
                else {"start": int, "rows": int, "nbytes": int})}
            for key, kind in fields.items():
                value = entry.get(key, 0 if key == "nbytes" else None)
                if not isinstance(value, kind) or isinstance(value, bool):
                    raise StoreError(
                        f"store manifest entry {name!r} has a missing or "
                        f"mistyped {key!r}: {value!r}"
                    )
        # shards tile [0, n) in order, each 1..shard_rows rows long
        n, end = manifest["n"], 0
        for index, entry in enumerate(manifest["shards"]):
            if entry["start"] != end or not (
                    1 <= entry["rows"] <= manifest["shard_rows"]):
                raise StoreError(
                    f"store manifest entry {index!r} spans rows "
                    f"{entry['start']}+{entry['rows']}; expected a start "
                    f"of {end} and 1..{manifest['shard_rows']} rows"
                )
            end += entry["rows"]
        if end != n:
            raise StoreError(f"store manifest shards cover {end} of n={n} rows")
        for v in manifest["landmarks"]["ids"]:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise StoreError(
                    f"store manifest entry 'landmarks' has id {v!r}; "
                    f"ids are ints in [0, {n})"
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

    def _read_file(self, name, *, verify: bool = True,
                   count: bool = True) -> bytes:
        """The bytes of shard ``name`` (or of ``"landmarks"``), checked
        against their manifest entry: :class:`StoreError` if unreadable,
        :class:`StoreCorruptionError` on a length or (with ``verify``)
        crc32 mismatch, counted in ``serve.store.corruption_detected``
        unless ``count`` is off."""
        if name == "landmarks":
            entry = self.manifest["landmarks"]
            nbytes = len(self.landmark_ids) * self.n * _DTYPE.itemsize
            what = "landmark file"
        else:
            entry = self.manifest["shards"][name]
            nbytes = self.shard_nbytes(name)
            what = f"shard {name}"
        fpath = self.path / entry["file"]
        try:
            raw = fpath.read_bytes()
        except OSError as exc:
            raise StoreError(f"cannot read {what} ({fpath}): {exc}") from exc
        if len(raw) != nbytes:
            problem = f"has {len(raw)} bytes, expected {nbytes}"
        elif verify and _crc32(raw) != entry["crc32"]:
            problem = "failed its checksum"
        else:
            return raw
        if count:
            _obs.counter_add("serve.store.corruption_detected", 1)
        raise StoreCorruptionError(f"{what} ({entry['file']}) {problem}",
                                   shards=(name,))

    def load_shard(self, index: int, *, verify: bool = True) -> np.ndarray:
        """Read one shard into memory as a ``(rows, n)`` float64 array."""
        _, rows = self.shard_span(index)
        load_t0 = time.perf_counter()
        with _obs.span("serve.store.load"):
            raw = self._read_file(index, verify=verify)
            params = self.manifest["shards"][index].get("params", {})
            try:
                arr = self.codec.decode(raw, rows, self.n, params)
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
                  shard=index, nbytes=len(raw), codec=self.codec_name)
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
        L = len(self.landmark_ids)
        if L == 0:
            return np.empty((0, self.n), dtype=np.float64)
        raw = self._read_file("landmarks", verify=verify)
        return np.frombuffer(raw, dtype=_DTYPE).reshape(L, self.n).copy()

    def fingerprint(self) -> int:
        """crc32 over the manifest's per-shard and landmark checksums:
        one number that changes if any stored byte changes, gated
        exactly in CI (stores are byte-deterministic by construction)."""
        shards = ",".join(f"{e['crc32']:08x}" for e in self.manifest["shards"])
        landmarks = self.manifest["landmarks"]["crc32"]
        return _crc32(f"{shards},{landmarks:08x}".encode())

    # -- integrity ------------------------------------------------------

    def verify(self) -> None:
        """Checksum every shard and the landmark file.

        Raises :class:`StoreCorruptionError` carrying the full list of
        damaged shards (so a caller repairs them all in one pass) —
        returns ``None`` on a clean store.  A missing file counts as
        damaged.
        """
        bad: List[Any] = []
        lm = ["landmarks"] if self.landmark_ids else []
        for name in [*range(self.num_shards), *lm]:
            try:
                self._read_file(name, count=False)
            except StoreError:
                bad.append(name)
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
                _write_shard(self.path, entry["file"], self.codec, start,
                             block, crc32=entry["crc32"])
            if "landmarks" in bad:
                lm = self.manifest["landmarks"]
                rows = solve_apsp_rows(graph, lm["ids"], **options)
                _write_landmarks(self.path, lm["file"], lm["ids"], rows,
                                 crc32=lm["crc32"])
        _obs.counter_add("serve.store.shards_repaired", len(bad))
        self.verify()
        return bad


# -- the file writers and the decisions builds and updates share --------


def _put(path: Path, fname: str, payload: bytes, crc32=None) -> int:
    """Write one store file and return its crc32.  With ``crc32`` given
    (a repair) the bytes must hash to it, checked BEFORE writing: a
    wrong-graph repair leaves whatever is on disk untouched instead of
    installing bytes it then rejects."""
    crc = _crc32(payload)
    if crc32 is not None and crc != crc32:
        raise StoreError(
            f"repair of {fname} produced checksum {crc:#010x}, manifest "
            f"says {crc32:#010x}; is this the graph the store was built "
            "from?"
        )
    (path / fname).write_bytes(payload)
    return crc


def _write_shard(path: Path, fname: str, codec, start: int, block,
                 crc32=None) -> Dict[str, Any]:
    """Encode ``block`` (rows ``start`` on), write it as ``fname`` and
    return its manifest entry."""
    payload, params, err = codec.encode(block)
    return {"file": fname, "start": start, "rows": block.shape[0],
            "crc32": _put(path, fname, payload, crc32),
            "nbytes": len(payload), "params": params, "max_abs_error": err}


def _write_landmarks(path: Path, fname: str, ids, rows,
                     crc32=None) -> Dict[str, Any]:
    """Write the pinned landmark rows (raw f8) as ``fname`` and return
    the manifest's ``landmarks`` entry; no file without landmarks."""
    raw = np.ascontiguousarray(rows).tobytes()
    crc = _put(path, fname, raw, crc32) if ids else _crc32(raw)
    return {"ids": ids, "file": fname, "crc32": crc}


def _publish_manifest(path: Path, manifest: Dict[str, Any]) -> None:
    """Write ``manifest.json`` atomically: a temp file, then a rename."""
    tmp = path / f".{_MANIFEST}.g{manifest['generation']}.tmp"
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    os.replace(tmp, path / _MANIFEST)


def _store_codec(name: str, graph, degree_kind: str):
    """``(codec, codec_params)`` a store of ``graph`` encodes with; the
    params carry the degree order for codecs that need it."""
    codec = get_codec(name)
    params: Dict[str, Any] = {}
    if codec.needs_degree_order:
        params["order"] = [int(v) for v in degree_order(graph, degree_kind)]
        codec = get_codec(name, **params)
    return codec, params


def _graph_entry(graph) -> Dict[str, Any]:
    """The manifest's ``graph`` block for the graph a store serves."""
    return {"name": getattr(graph, "name", "") or "",
            "crc32": _graph_crc32(graph)}


def _check_graph_matches_store(store: DistStore, graph) -> None:
    """Raise unless ``graph`` is the graph the store serves, by the
    CSR digest its manifest records."""
    recorded = store.manifest.get("graph", {}).get("crc32")
    if recorded is None:
        raise StoreError(
            "the store manifest records no graph digest (graph.crc32; "
            "stores built before it cannot be updated); rebuild the store"
        )
    got = _graph_crc32(graph)
    if got != recorded:
        raise StoreError(
            f"the given graph (crc32 {got:#010x}) is not the graph the "
            f"store serves ({recorded:#010x}); after an update the "
            "store serves the mutated graph (apply_updates_to_graph of "
            "the batch), not the one it was built from"
        )


def _take_landmark_rows(out: np.ndarray, pos: Dict[int, int], start: int,
                        block: np.ndarray) -> None:
    """Copy the row of every landmark ``v`` in ``pos`` that ``block``
    (rows ``start`` on) holds into ``out[pos[v]]``."""
    for v, i in pos.items():
        if start <= v < start + block.shape[0]:
            out[i] = block[v - start]


def _max_abs_error(shards) -> float:
    """The store-wide error bound: the worst shard's."""
    return max((float(entry.get("max_abs_error", 0.0)) for entry in shards),
               default=0.0)


def _landmark_vertices(graph, count: int, degree_kind: str) -> List[int]:
    count = min(count, graph.num_vertices)
    return [int(v) for v in degree_order(graph, degree_kind)[:count]]


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

    given = dict(shard_rows=shard_rows, num_landmarks=num_landmarks,
                 codec=codec, epsilon=epsilon)
    store_cfg = StoreConfig(
        **{name: value for name, value in given.items() if value is not None}
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
    degree_kind = cfg.algorithm.degree_kind
    landmark_ids = _landmark_vertices(
        graph, store_cfg.num_landmarks, degree_kind
    )
    landmark_rows = np.empty((len(landmark_ids), n), dtype=np.float64)
    landmark_pos = {v: i for i, v in enumerate(landmark_ids)}
    codec_obj, codec_params = _store_codec(store_cfg.codec, graph, degree_kind)

    shards: List[Dict[str, Any]] = []
    with _obs.span("serve.store.build"):
        for start, rows in solve_apsp_shards(
            graph, shard_rows=shard_rows, **cfg.to_kwargs()
        ):
            _take_landmark_rows(landmark_rows, landmark_pos, start, rows)
            fname = f"shard_{len(shards):05d}.bin"
            shards.append(_write_shard(path, fname, codec_obj, start, rows))
    manifest = {
        "schema": STORE_SCHEMA_VERSION,
        "n": n,
        "shard_rows": min(shard_rows, max(1, n)),
        "num_shards": len(shards),
        "generation": 0,
        "dtype": _DTYPE.str,
        "codec": store_cfg.codec,
        "codec_params": codec_params,
        "max_abs_error": _max_abs_error(shards),
        "epsilon": store_cfg.epsilon,
        "shards": shards,
        "landmarks": _write_landmarks(
            path, _LANDMARKS, landmark_ids, landmark_rows
        ),
        "graph": _graph_entry(graph),
        "config": cfg.to_dict(),
    }
    _publish_manifest(path, manifest)
    return manifest
