"""Engine persistence: save a built system to disk and reopen it.

The paper's indexes are disk resident; a production deployment also needs
them to *survive restarts* — including restarts in the middle of a save.
:func:`save_engine` writes an engine's block devices verbatim plus a JSON
manifest of the in-memory bookkeeping (page directory, object pointers,
tree shape, index configuration), and :func:`load_engine` reconstructs an
equivalent engine — queries, insertions, and deletions continue exactly
where they left off.

Layout of a saved single engine directory::

    manifest.json    configuration + directory state + file digests
    objects.dat      the plain-text object file's blocks
    index.dat        the index structure's blocks

An adaptive (``auto``) engine saves one device image per candidate child
— ``index-ir2.dat``, ``index-iio.dat``, ... — instead of ``index.dat``,
and its manifest nests each child's bookkeeping under
``index.children``; loading rebuilds the planner statistics from the
restored corpus.

A :class:`~repro.shard.ShardedEngine` saves as a manifest-of-manifests: a
top-level ``manifest.json`` carrying the fitted partitioner, the
oid→shard routing table, and each partition's bounding box, plus one
complete single-engine layout per shard::

    manifest.json    {"sharded": true, partitioner, shard_of, mbbs, ...}
    shard-000/       a full single-engine directory
    shard-001/
    ...

Durability protocol (manifest version 3)
----------------------------------------

A crash half-way through a naive in-place save leaves a directory that
*looks* valid but mixes old and new state.  ``save_engine`` therefore
never touches the destination until the new state is complete:

1. every artifact is written into a fresh ``<dir>.tmp-<nonce>`` sibling,
   each file flushed and fsynced;
2. each data file's SHA-256 digest and byte size are recorded in its
   manifest (a sharded top manifest digests every shard's manifest,
   chaining trust down to every block);
3. the staging directory tree is fsynced, then swapped into place with
   :func:`os.rename` — replacing the *whole* previous directory, so no
   stale file from an earlier layout (e.g. a ``shard-002/`` from a
   previous 3-shard save) can survive into the new one;
4. the previous directory is deleted only after the swap.

``load_engine`` re-hashes every file against the manifest digests before
reconstructing anything and raises a typed
:class:`~repro.errors.PersistError` (a :class:`DatasetError`) on any
mismatch; corrupt or truncated manifests surface as :class:`DatasetError`
naming the offending path, never as raw ``json`` / ``KeyError``
exceptions.  The only non-atomic window is between the two renames of
step 3, and it fails *loudly* (no directory → :class:`DatasetError`),
never silently.  :func:`verify_engine` runs the same integrity checks
without building an engine — the CLI exposes it as ``repro verify``.

Version-1/2 directories (no digests) still load, with digest checks
skipped.  Devices are reloaded into memory by default (matching the
engine's default backend); the block images are identical either way
because both backends share one serialization.

Crash testing hooks: :func:`saving_fault_hook` installs a callback
invoked at every named *fault point* inside a save; pairing it with
:class:`repro.storage.faults.CrashTimer` simulates a power loss at any
step (see ``tests/test_crash_safety.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import shutil
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.core.engine import SpatialKeywordEngine
from repro.core.indexes import (
    AutoIndex,
    IIOIndex,
    IR2Index,
    MIR2Index,
    RTreeIndex,
    SignatureFileIndex,
)
from repro.errors import DatasetError, PersistError, ReproError
from repro.shard.engine import ShardedEngine
from repro.shard.partitioner import partitioner_from_dict
from repro.shard.summary import KeywordSummary
from repro.spatial.geometry import Rect
from repro.storage.block import BlockDevice, InMemoryBlockDevice

#: Manifest format version (bump on incompatible layout changes).
#: Version 2 added sharded layouts; version 3 added per-file SHA-256
#: digests ("files") written by the atomic save protocol.  Loading is
#: backward compatible: v1/v2 directories load with digest checks skipped.
MANIFEST_VERSION = 3

_SUPPORTED_VERSIONS = frozenset({1, 2, 3})

_MANIFEST = "manifest.json"
_OBJECTS = "objects.dat"
_INDEX = "index.dat"

#: Test hook: called with a label at each fault point during a save.
_fault_hook: Callable[[str], None] | None = None


@contextmanager
def saving_fault_hook(hook: Callable[[str], None]) -> Iterator[None]:
    """Install a fault-point callback for the duration of the block.

    The hook is called with a label (``"objects-dumped"``,
    ``"manifest-written"``, ``"swapped-out"``, ...) at every step of
    :func:`save_engine`; raising from it simulates a crash at that
    point.  Test-only — production saves run with no hook installed.
    """
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    try:
        yield
    finally:
        _fault_hook = previous


def _fault_point(label: str) -> None:
    if _fault_hook is not None:
        _fault_hook(label)


def save_engine(
    engine: SpatialKeywordEngine | ShardedEngine, directory: str
) -> str:
    """Atomically persist a built engine; returns the manifest path.

    The previous contents of ``directory`` (if any) are replaced
    wholesale — either the complete new state is visible or the complete
    previous state is, never a mixture.

    Raises:
        DatasetError: when the engine has not been built yet.
        PersistError: when ``directory`` exists but is not a directory.
    """
    if isinstance(engine, ShardedEngine):
        engine.require_built()
    elif not engine.index.built:
        raise DatasetError("cannot save an engine before build()")
    directory = os.path.abspath(directory)
    if os.path.exists(directory) and not os.path.isdir(directory):
        raise PersistError(
            f"save target {directory} exists and is not a directory"
        )
    nonce = secrets.token_hex(4)
    staging = f"{directory}.tmp-{nonce}"
    try:
        if isinstance(engine, ShardedEngine):
            _save_sharded(engine, staging)
        else:
            _save_single(engine, staging)
        _fault_point("staged")
        _swap_into_place(staging, directory, nonce)
    except Exception:
        # Polite failures (full disk, permission errors) clean their
        # staging up; SimulatedCrash is a BaseException precisely so it
        # skips this handler, like the power loss it stands in for.
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return os.path.join(directory, _MANIFEST)


def load_engine(directory: str) -> SpatialKeywordEngine | ShardedEngine:
    """Reopen an engine saved by :func:`save_engine`.

    Verifies every file's SHA-256 digest against the manifest before
    reconstructing anything (version-3 layouts).  Returns a
    :class:`~repro.shard.ShardedEngine` when the directory holds a
    sharded layout, a plain :class:`SpatialKeywordEngine` otherwise.

    Raises:
        DatasetError: missing/corrupt/truncated manifest, or unsupported
            version.
        PersistError: a file is missing, truncated, or fails its digest.
    """
    manifest = _read_manifest(directory)
    try:
        if manifest.get("sharded"):
            return _load_sharded(manifest, directory)
        return _load_single(manifest, directory)
    except PersistError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DatasetError(
            f"corrupt engine manifest under {directory}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _read_manifest(directory: str) -> dict:
    path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(path):
        raise DatasetError(f"no engine manifest at {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise DatasetError(f"corrupt engine manifest at {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DatasetError(
            f"corrupt engine manifest at {path}: not a JSON object"
        )
    if manifest.get("version") not in _SUPPORTED_VERSIONS:
        raise DatasetError(
            f"unsupported manifest version {manifest.get('version')!r} "
            f"at {path}"
        )
    return manifest


# ---------------------------------------------------------------------------
# Durability helpers
# ---------------------------------------------------------------------------


def _fsync_file(handle) -> None:
    handle.flush()
    os.fsync(handle.fileno())


def _fsync_dir(path: str) -> None:
    # Directory fsync persists the entries themselves (the renames);
    # not supported everywhere, so failures are non-fatal.
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def _file_digest(path: str) -> dict:
    digest = hashlib.sha256()
    size = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
            size += len(chunk)
    return {"sha256": digest.hexdigest(), "bytes": size}


def _swap_into_place(staging: str, directory: str, nonce: str) -> None:
    """Replace ``directory`` with ``staging`` via whole-directory renames."""
    parent = os.path.dirname(directory) or "."
    _fsync_dir(parent)
    if os.path.exists(directory):
        trash = f"{directory}.old-{nonce}"
        os.rename(directory, trash)
        _fault_point("swapped-out")
        os.rename(staging, directory)
        _fault_point("swapped-in")
        _fsync_dir(parent)
        shutil.rmtree(trash, ignore_errors=True)
        _fault_point("cleaned-up")
    else:
        os.rename(staging, directory)
        _fault_point("swapped-in")
        _fsync_dir(parent)


def _write_manifest(directory: str, manifest: dict) -> str:
    path = os.path.join(directory, _MANIFEST)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        _fsync_file(handle)
    return path


def _verify_manifest_files(manifest: dict, directory: str) -> None:
    """Re-hash every file the manifest covers; raise on any mismatch."""
    for rel, meta in manifest.get("files", {}).items():
        path = os.path.join(directory, rel)
        if not os.path.exists(path):
            raise PersistError(f"missing engine file {path}")
        actual = _file_digest(path)
        if actual["bytes"] != meta["bytes"]:
            raise PersistError(
                f"truncated engine file {path}: {actual['bytes']} bytes, "
                f"manifest records {meta['bytes']}"
            )
        if actual["sha256"] != meta["sha256"]:
            raise PersistError(
                f"checksum mismatch for {path}: sha256 {actual['sha256']} "
                f"!= manifest {meta['sha256']}"
            )


# ---------------------------------------------------------------------------
# Single engines
# ---------------------------------------------------------------------------


def _save_single(engine: SpatialKeywordEngine, directory: str) -> str:
    if not engine.index.built:
        raise DatasetError("cannot save an engine before build()")
    os.makedirs(directory, exist_ok=True)
    files = {
        _OBJECTS: _dump_device(
            engine.corpus.device, os.path.join(directory, _OBJECTS)
        ),
    }
    _fault_point("objects-dumped")
    if isinstance(engine.index, AutoIndex):
        # One device image per candidate child; the adaptive wrapper
        # itself holds no blocks of its own.
        for kind, child in engine.index.children.items():
            name = _child_index_filename(kind)
            files[name] = _dump_device(
                child.device, os.path.join(directory, name)
            )
    else:
        files[_INDEX] = _dump_device(
            engine.index.device, os.path.join(directory, _INDEX)
        )
    _fault_point("index-dumped")
    manifest = {
        "version": MANIFEST_VERSION,
        "block_size": engine.corpus.device.block_size,
        "index_kind": engine.index_kind,
        "dims": engine.corpus.dims,
        "pointers": {str(oid): ptr for oid, ptr in engine._pointers.items()},
        "store": {
            "end": engine.corpus.store._end,
            "count": engine.corpus.store._count,
        },
        "index": _index_state(engine.index),
        "files": files,
    }
    path = _write_manifest(directory, manifest)
    _fault_point("manifest-written")
    return path


def _load_single(manifest: dict, directory: str) -> SpatialKeywordEngine:
    _verify_manifest_files(manifest, directory)
    state = manifest["index"]
    engine = SpatialKeywordEngine(
        index=manifest["index_kind"],
        signature_bytes=state.get("signature_bytes", 16),
        bits_per_word=state.get("bits_per_word", 3),
        block_size=manifest["block_size"],
        seed=state.get("seed", 0),
        capacity=state.get("capacity"),
        compression=state.get("compression", "raw"),
        auto_kinds=state.get("candidates"),
    )
    # --- Object file + corpus bookkeeping. ---
    _load_device(
        engine.corpus.device, os.path.join(directory, _OBJECTS),
        manifest["block_size"],
    )
    store = engine.corpus.store
    store._end = manifest["store"]["end"]
    store._count = manifest["store"]["count"]
    store._pointers = {
        int(oid): ptr for oid, ptr in manifest["pointers"].items()
    }
    engine._pointers = dict(store._pointers)
    engine.corpus._dims = manifest["dims"]
    # Vocabulary statistics are a pure function of the stored documents.
    for _, obj in store.iter_objects():
        engine.corpus.vocabulary.add_document(engine.corpus.analyzer.terms(obj.text))
    # --- Index structure. ---
    if isinstance(engine.index, AutoIndex):
        for kind, child in engine.index.children.items():
            _load_index_structure(
                child, state["children"][kind], directory,
                _child_index_filename(kind), manifest["block_size"],
            )
        engine.index.stats.rebuild()
        engine.index.built = True
    else:
        _load_index_structure(
            engine.index, state, directory, _INDEX, manifest["block_size"]
        )
    return engine


def _child_index_filename(kind: str) -> str:
    return f"index-{kind}.dat"


def _load_index_structure(
    index, state: dict, directory: str, filename: str, block_size: int
) -> None:
    """Reload one concrete index: device image + in-memory bookkeeping.

    For tree indexes the tree object must exist *before* the device
    image is loaded: constructing it writes a bootstrap root, which the
    wholesale device reload then replaces with the saved blocks.
    """
    if not isinstance(index, (IIOIndex, SignatureFileIndex)):
        if isinstance(index, MIR2Index):
            index.level_lengths = [int(v) for v in state["level_lengths"]]
        index.capacity = state["capacity"]
        index.tree = index._make_tree()
    _load_device(index.device, os.path.join(directory, filename), block_size)
    _restore_index_state(index, state)
    index.built = True


# ---------------------------------------------------------------------------
# Sharded engines
# ---------------------------------------------------------------------------


def _shard_dirname(shard_id: int) -> str:
    return f"shard-{shard_id:03d}"


def _save_sharded(engine: ShardedEngine, directory: str) -> str:
    engine.require_built()
    os.makedirs(directory, exist_ok=True)
    shard_dirs = []
    files = {}
    for shard_id, shard in enumerate(engine.shards):
        name = _shard_dirname(shard_id)
        shard_manifest = _save_single(shard, os.path.join(directory, name))
        files[f"{name}/{_MANIFEST}"] = _file_digest(shard_manifest)
        shard_dirs.append(name)
        _fault_point(f"shard-{shard_id}-saved")
    manifest = {
        "version": MANIFEST_VERSION,
        "sharded": True,
        "index_kind": engine.index_kind,
        "n_shards": engine.n_shards,
        "partitioner": engine.partitioner.to_dict(),
        "shard_of": {
            str(oid): shard_id
            for oid, shard_id in engine._shard_of.items()
            if shard_id >= 0
        },
        "mbbs": [
            list(mbb.to_coords()) if mbb is not None else None
            for mbb in engine.shard_mbbs
        ],
        "shards": shard_dirs,
        # Routing-table keyword summaries (added after manifest v3 shipped;
        # optional, so older manifests — and older readers — stay valid).
        "summaries": [
            summary.to_dict() if summary is not None else None
            for summary in engine.summaries
        ],
        "files": files,
    }
    path = _write_manifest(directory, manifest)
    _fault_point("manifest-written")
    return path


def _load_sharded(manifest: dict, directory: str) -> ShardedEngine:
    _verify_manifest_files(manifest, directory)
    shards = []
    for name in manifest["shards"]:
        shard_dir = os.path.join(directory, name)
        shard_manifest = _read_manifest(shard_dir)
        if shard_manifest.get("sharded"):
            raise DatasetError(f"nested sharded layout at {shard_dir}")
        shards.append(_load_single(shard_manifest, shard_dir))
    # Manifests written before keyword routing carry no "summaries" field;
    # from_parts(summaries=None) rebuilds them from the loaded corpora.
    summaries = None
    if manifest.get("summaries") is not None:
        summaries = [
            KeywordSummary.from_dict(state) if state is not None else None
            for state in manifest["summaries"]
        ]
    return ShardedEngine.from_parts(
        shards=shards,
        partitioner=partitioner_from_dict(manifest["partitioner"]),
        shard_of={
            int(oid): shard_id
            for oid, shard_id in manifest["shard_of"].items()
        },
        mbbs=[
            Rect.from_coords(coords) if coords is not None else None
            for coords in manifest["mbbs"]
        ],
        summaries=summaries,
    )


# ---------------------------------------------------------------------------
# Integrity verification (the `repro verify` command)
# ---------------------------------------------------------------------------


def verify_engine(directory: str, load: bool = True) -> dict:
    """Check an on-disk engine directory's integrity without mutating it.

    Runs the same checks :func:`load_engine` applies — manifest parse,
    version, per-file size + SHA-256 digests, shard layout — and records
    each as a check row instead of raising.  With ``load=True`` (the
    default) it finishes by actually reconstructing the engine, which
    additionally catches bookkeeping corruption the digests cannot see
    (digests cover files written by us; a hand-edited manifest re-hashes
    fine yet still cannot load).

    Returns a JSON-serializable report::

        {"directory": ..., "ok": bool,
         "checks": [{"path", "status": "ok"|"skipped"|"error", "detail"}],
         "warnings": [...]}
    """
    directory = os.path.abspath(directory)
    checks: list[dict] = []
    warnings: list[str] = []

    def check(path: str, status: str, detail: str = "") -> None:
        checks.append({"path": path, "status": status, "detail": detail})

    _verify_directory(directory, directory, check)
    # Leftover staging/trash siblings mean an earlier save crashed.
    parent = os.path.dirname(directory) or "."
    base = os.path.basename(directory)
    if os.path.isdir(parent):
        for entry in sorted(os.listdir(parent)):
            if entry.startswith(f"{base}.tmp-") or entry.startswith(f"{base}.old-"):
                warnings.append(
                    f"leftover directory {os.path.join(parent, entry)} "
                    "from an interrupted save (safe to delete)"
                )
    ok = all(row["status"] != "error" for row in checks)
    if load and ok:
        try:
            load_engine(directory)
            check(directory, "ok", "engine loads")
        except ReproError as exc:
            check(directory, "error", f"load failed: {exc}")
            ok = False
    return {
        "directory": directory,
        "ok": ok,
        "checks": checks,
        "warnings": warnings,
    }


def _verify_directory(directory: str, root: str, check) -> None:
    """Structural + digest checks for one layout directory (recursive)."""

    def rel(path: str) -> str:
        return os.path.relpath(path, root)

    manifest_path = os.path.join(directory, _MANIFEST)
    try:
        manifest = _read_manifest(directory)
    except DatasetError as exc:
        check(rel(manifest_path), "error", str(exc))
        return
    version = manifest.get("version")
    sharded = bool(manifest.get("sharded"))
    label = f"version {version}" + (", sharded" if sharded else "")
    check(rel(manifest_path), "ok", label)
    files = manifest.get("files")
    if files is None:
        check(rel(directory), "skipped",
              "legacy layout without digests (manifest version < 3)")
    else:
        for file_rel, meta in sorted(files.items()):
            path = os.path.join(directory, file_rel)
            try:
                _verify_manifest_files({"files": {file_rel: meta}}, directory)
            except PersistError as exc:
                check(rel(path), "error", str(exc))
            else:
                check(rel(path), "ok",
                      f"sha256 ok, {meta['bytes']} bytes")
    if sharded:
        names = manifest.get("shards", [])
        if not isinstance(names, list):
            check(rel(manifest_path), "error", "invalid shard list")
            return
        for name in names:
            shard_dir = os.path.join(directory, name)
            if not os.path.isdir(shard_dir):
                check(rel(shard_dir), "error", "missing shard directory")
                continue
            _verify_directory(shard_dir, root, check)
        # A directory that looks like a shard but is not in the manifest
        # is stale state from a different layout.
        expected = set(names)
        for entry in sorted(os.listdir(directory)):
            if entry.startswith("shard-") and entry not in expected:
                check(rel(os.path.join(directory, entry)), "error",
                      "stale shard directory not in the manifest")


# ---------------------------------------------------------------------------
# Device images
# ---------------------------------------------------------------------------


def _dump_device(device: BlockDevice, path: str) -> dict:
    digest = hashlib.sha256()
    size = 0
    with open(path, "wb") as handle:
        for block in device.iter_blocks():
            handle.write(block)
            digest.update(block)
            size += len(block)
        _fsync_file(handle)
    return {"sha256": digest.hexdigest(), "bytes": size}


def copy_built_engine(engine):
    """A deep structural copy of a *built* in-memory engine, or ``None``.

    The snapshot maintainer's incremental merges fold a small write
    buffer into a copy of the serving base instead of rebuilding it from
    scratch.  The copy reuses the same state the disk round-trip
    serializes — device block images plus the per-structure bookkeeping
    of :func:`_index_state` — so it is exactly the engine a save/load
    cycle would produce, without touching the filesystem and without
    re-deriving the vocabulary.  Through :meth:`clone_empty` the copy
    also shares the source's row and node-image intern maps: its rows
    and untouched nodes are byte-identical, so its reads return what the
    source already decoded.

    Returns ``None`` when the engine cannot be copied this way (not yet
    built, non-memory block devices, an index kind without persistence
    support); callers fall back to a full rebuild.
    """
    if isinstance(engine, ShardedEngine):
        if not engine.built:
            return None
        shards = []
        for shard in engine.shards:
            duplicate = copy_built_engine(shard)
            if duplicate is None:
                return None
            shards.append(duplicate)
        clone = ShardedEngine.from_parts(
            shards=shards,
            partitioner=partitioner_from_dict(engine.partitioner.to_dict()),
            shard_of={
                oid: shard_id
                for oid, shard_id in engine._shard_of.items()
                if shard_id >= 0
            },
            mbbs=list(engine.shard_mbbs),
            failure_policy=engine.failure_policy,
            retries=engine.retries,
            retry_backoff_s=engine.retry_backoff_s,
            summaries=[
                summary.copy() if summary is not None else None
                for summary in engine.summaries
            ],
        )
        clone.metrics = engine.metrics
        return clone
    if not engine.index.built:
        return None
    try:
        state = _index_state(engine.index)
    except DatasetError:
        return None
    clone = engine.clone_empty()
    if not _copy_device_blocks(engine.corpus.device, clone.corpus.device):
        return None
    src_store, dst_store = engine.corpus.store, clone.corpus.store
    dst_store._end = src_store._end
    dst_store._count = src_store._count
    dst_store._pointers = dict(src_store._pointers)
    clone._pointers = dict(engine._pointers)
    clone.corpus._dims = engine.corpus._dims
    src_vocab, dst_vocab = engine.corpus.vocabulary, clone.corpus.vocabulary
    dst_vocab._df = dict(src_vocab._df)
    dst_vocab.document_count = src_vocab.document_count
    dst_vocab._distinct_terms_total = src_vocab._distinct_terms_total
    if isinstance(engine.index, AutoIndex):
        for kind, child in engine.index.children.items():
            target = clone.index.children[kind]
            if not _copy_index_structure(child, state["children"][kind], target):
                return None
        clone.index.stats.rebuild()
        clone.index.built = True
    else:
        if not _copy_index_structure(engine.index, state, clone.index):
            return None
    return clone


def _copy_index_structure(src_index, state: dict, dst_index) -> bool:
    """In-memory twin of :func:`_load_index_structure`."""
    if not isinstance(dst_index, (IIOIndex, SignatureFileIndex)):
        if isinstance(dst_index, MIR2Index):
            dst_index.level_lengths = [int(v) for v in state["level_lengths"]]
        dst_index.capacity = state["capacity"]
        # The fresh tree writes a bootstrap root; the wholesale block
        # copy below replaces it with the source image.
        dst_index.tree = dst_index._make_tree()
    if not _copy_device_blocks(src_index.device, dst_index.device):
        return False
    _restore_index_state(dst_index, state)
    dst_index.built = True
    return True


def _copy_device_blocks(src, dst) -> bool:
    if not isinstance(src, InMemoryBlockDevice) or not isinstance(
        dst, InMemoryBlockDevice
    ):
        return False
    dst._blocks = [bytearray(block) for block in src._blocks]
    return True


def _load_device(device: InMemoryBlockDevice, path: str, block_size: int) -> None:
    if not os.path.exists(path):
        raise PersistError(f"missing engine file {path}")
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) % block_size:
        raise DatasetError(
            f"{path}: size {len(data)} is not a multiple of block size {block_size}"
        )
    device._blocks = [
        bytearray(data[i : i + block_size]) for i in range(0, len(data), block_size)
    ]


# ---------------------------------------------------------------------------
# Per-index bookkeeping
# ---------------------------------------------------------------------------


def _index_state(index) -> dict:
    if isinstance(index, AutoIndex):
        return {
            "kind": "auto",
            "candidates": list(index.candidates),
            **index._config,
            "children": {
                kind: _index_state(child)
                for kind, child in index.children.items()
            },
        }
    if not isinstance(
        index, (SignatureFileIndex, IIOIndex, IR2Index, MIR2Index, RTreeIndex)
    ):
        raise DatasetError(
            f"persistence is not supported for index kind {index.label!r}"
        )
    if isinstance(index, SignatureFileIndex):
        sigfile = index.sigfile
        return {
            "kind": "sig",
            "signature_bytes": sigfile.factory.length_bits // 8,
            "bits_per_word": sigfile.factory.bits_per_word,
            "seed": sigfile.factory.seed,
            "count": sigfile._count,
            "slots": {str(p): slot for p, slot in sigfile._slot_by_pointer.items()},
        }
    if isinstance(index, IIOIndex):
        inner = index.index
        return {
            "kind": "iio",
            "compression": inner.codec.name,
            "lexicon": {
                term: list(entry) for term, entry in inner._lexicon.items()
            },
            "end": inner._end,
            "live_bytes": inner._live_bytes,
        }
    state: dict = {
        "kind": index.label.lower(),
        "capacity": index.tree.capacity,
        "directory": {
            str(node_id): list(extent)
            for node_id, extent in index.pages._directory.items()
        },
        "next_node_id": index.pages._next_id,
        "allocator_tail": index.pages._allocator.tail,
        "free_extents": list(index.pages._allocator._free),
        "root_id": index.tree.root_id,
        "height": index.tree.height,
        "size": index.tree.size,
        "bulk_loaded": index.tree.bulk_loaded,
    }
    if isinstance(index, IR2Index):
        state.update(
            signature_bytes=index.factory.length_bits // 8,
            bits_per_word=index.factory.bits_per_word,
            seed=index.factory.seed,
        )
    elif isinstance(index, MIR2Index):
        state.update(
            signature_bytes=index.leaf_signature_bytes,
            bits_per_word=index.bits_per_word,
            seed=index.seed,
            level_lengths=index.tree.mir_scheme.level_lengths,
        )
    return state


def _restore_index_state(index, state: dict) -> None:
    """Put back the in-memory bookkeeping over an already-loaded device."""
    if isinstance(index, SignatureFileIndex):
        sigfile = index.sigfile
        sigfile._count = state["count"]
        sigfile._slot_by_pointer = {
            int(p): slot for p, slot in state["slots"].items()
        }
        return
    if isinstance(index, IIOIndex):
        inner = index.index
        inner._lexicon = {
            term: tuple(entry) for term, entry in state["lexicon"].items()
        }
        inner._end = state["end"]
        inner._live_bytes = state["live_bytes"]
        return
    pages = index.pages
    pages._directory = {
        int(node_id): tuple(extent)
        for node_id, extent in state["directory"].items()
    }
    pages._next_id = state["next_node_id"]
    pages._allocator._tail = state["allocator_tail"]
    pages._allocator._free = [tuple(extent) for extent in state["free_extents"]]
    tree = index.tree
    tree.root_id = state["root_id"]
    tree.height = state["height"]
    tree.size = state["size"]
    tree.bulk_loaded = state["bulk_loaded"]
