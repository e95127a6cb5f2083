"""Persistent content-addressed artifact store.

Layout (one file per entry, sharded by key prefix)::

    <dir>/objects/<namespace>/<key[:2]>/<key>.json   JSON payloads
    <dir>/objects/<namespace>/<key[:2]>/<key>.npb    array payloads

Array payloads use a flat binary format — an 8-byte magic, an 8-byte
little-endian header length, a JSON header (version, data checksum,
array descriptors), then the raw C-contiguous array bytes — so a read
can ``mmap`` the file and hand out zero-copy read-only views instead of
materializing copies (unlike ``.npz``, whose members cannot be mapped).

Durability and integrity:

* writes go through :func:`atomic_write` (a temporary file in the
  same directory, ``os.replace``d into place) — a crash mid-write
  never leaves a partial entry visible;
* every payload carries a SHA-256 checksum which is verified on read;
* **any** failure on the read path (missing file, truncation, checksum
  mismatch, undecodable JSON) is a miss: the corrupt entry is deleted
  and the caller recomputes.  The cache can slow a run down, never
  poison or crash it.

Reads touch the entry's mtime, which is the LRU clock the size-budgeted
GC (:mod:`repro.cache.maintenance`) evicts by.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

import numpy as np

from ..sanitize import sanitize_enabled
from ..telemetry.metrics import MetricsRegistry

PathLike = Union[str, Path]

#: Bumped when the on-disk entry format changes incompatibly.
STORE_VERSION = 1

#: Magic prefix of the flat array-payload format.
ARRAY_MAGIC = b"RPROCAB1"

_JSON_EXT = ".json"
_ARRAY_EXT = ".npb"


@dataclass
class CacheCounters:
    """Hit/miss/byte accounting for one store instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }


def atomic_write(path: PathLike, data: bytes) -> None:
    """Publish ``data`` at ``path`` all at once (write-then-rename).

    The bytes go to a ``mkstemp`` file in the target directory, which
    is then ``os.replace``d into place — atomic on POSIX, so readers
    see the old content or the new, never a torn file, and concurrent
    writers never share a temp file.  On failure the temp file is
    unlinked and the old content stays.  The one implementation every
    persisted file (store entries, run-directory plans and rows) goes
    through; the concurrency analyzer flags ``os.replace`` and
    ``tempfile.mkstemp`` anywhere else (``atomic-write-outside-helper``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=path.suffix
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except OSError:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _sha256(data: Union[bytes, memoryview, mmap.mmap]) -> str:
    h = hashlib.sha256()
    h.update(data)
    return h.hexdigest()


@dataclass
class ResultCache:
    """Content-addressed persistent cache rooted at ``directory``.

    Thread-compatible for the repository's use: entries are immutable
    once written (same key => same bits), so concurrent writers racing
    on one key atomically replace identical content and readers see
    either a complete entry or none.
    """

    directory: Path
    #: Optional shared metrics registry; hit/miss/bytes counters land
    #: both here and in :attr:`counters`.
    metrics: Optional[MetricsRegistry] = None
    counters: CacheCounters = field(default_factory=CacheCounters)

    def __init__(
        self,
        directory: PathLike,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.directory = Path(directory)
        self.metrics = metrics
        self.counters = CacheCounters()

    # -- layout --------------------------------------------------------
    @property
    def objects_dir(self) -> Path:
        return self.directory / "objects"

    def entry_path(self, namespace: str, key: str, ext: str) -> Path:
        return self.objects_dir / namespace / key[:2] / f"{key}{ext}"

    # -- counters ------------------------------------------------------
    def _count(self, counter: str, amount: int = 1) -> None:
        setattr(self.counters, counter, getattr(self.counters, counter) + amount)
        if self.metrics is not None:
            name = {
                "hits": "repro_cache_hits_total",
                "misses": "repro_cache_misses_total",
                "writes": "repro_cache_writes_total",
                "corrupt": "repro_cache_corrupt_total",
                "bytes_read": "repro_cache_bytes_read_total",
                "bytes_written": "repro_cache_bytes_written_total",
            }[counter]
            self.metrics.counter(name).inc(amount)

    def _miss(self) -> None:
        self._count("misses")

    def _hit(self, path: Path, nbytes: int) -> None:
        self._count("hits")
        self._count("bytes_read", nbytes)
        try:
            os.utime(path)  # the LRU clock the GC evicts by
        except OSError:  # pragma: no cover - entry raced away
            pass

    def _drop_corrupt(self, path: Path) -> None:
        """A damaged entry is deleted so it cannot keep costing reads."""
        self._count("corrupt")
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / read-only
            pass

    # -- atomic write --------------------------------------------------
    def _write_atomic(self, path: Path, data: bytes) -> None:
        atomic_write(path, data)
        self._count("writes")
        self._count("bytes_written", len(data))

    # -- JSON payloads -------------------------------------------------
    def put_json(self, namespace: str, key: str, payload: Any) -> Path:
        """Store a JSON-able payload under (namespace, key)."""
        body = json.dumps(payload, sort_keys=True)
        envelope = {
            "version": STORE_VERSION,
            "checksum": _sha256(body.encode("utf-8")),
            "payload": body,
        }
        path = self.entry_path(namespace, key, _JSON_EXT)
        self._write_atomic(path, json.dumps(envelope).encode("utf-8"))
        if sanitize_enabled():
            self._verify_written_json(path)
        return path

    def get_json(self, namespace: str, key: str) -> Optional[Any]:
        """The stored payload, or None on miss/corruption (never raises)."""
        path = self.entry_path(namespace, key, _JSON_EXT)
        try:
            raw = path.read_bytes()
        except OSError:
            self._miss()
            return None
        try:
            envelope = json.loads(raw)
            if envelope.get("version") != STORE_VERSION:
                raise ValueError(f"version {envelope.get('version')!r}")
            body = envelope["payload"]
            if _sha256(body.encode("utf-8")) != envelope["checksum"]:
                raise ValueError("checksum mismatch")
            payload = json.loads(body)
        except (ValueError, KeyError, TypeError):
            self._drop_corrupt(path)
            self._miss()
            return None
        self._hit(path, len(raw))
        return payload

    # -- array payloads ------------------------------------------------
    def put_arrays(
        self,
        namespace: str,
        key: str,
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> Path:
        """Store named arrays as one flat, mmap-able binary entry."""
        descriptors = []
        chunks = []
        offset = 0
        for name in arrays:
            value = np.ascontiguousarray(arrays[name])
            descriptors.append(
                {
                    "name": name,
                    "dtype": value.dtype.str,
                    "shape": list(value.shape),
                    "offset": offset,
                    "nbytes": value.nbytes,
                }
            )
            chunks.append(value.tobytes())
            offset += value.nbytes
        data = b"".join(chunks)
        header = {
            "version": STORE_VERSION,
            "checksum": _sha256(data),
            "arrays": descriptors,
            "meta": dict(meta or {}),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        blob = (
            ARRAY_MAGIC
            + len(header_bytes).to_bytes(8, "little")
            + header_bytes
            + data
        )
        path = self.entry_path(namespace, key, _ARRAY_EXT)
        self._write_atomic(path, blob)
        if sanitize_enabled():
            self._verify_written_arrays(path)
        return path

    def get_arrays(
        self, namespace: str, key: str
    ) -> Optional[Dict[str, np.ndarray]]:
        """Zero-copy read-only views onto the stored arrays, or None.

        The file is memory-mapped; the checksum pass reads each page
        once through the map (no heap copy), and the returned arrays
        are read-only views whose lifetime keeps the map alive.
        """
        path = self.entry_path(namespace, key, _ARRAY_EXT)
        try:
            handle = path.open("rb")
        except OSError:
            self._miss()
            return None
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            handle.close()
            self._drop_corrupt(path)
            self._miss()
            return None
        views: Optional[Dict[str, np.ndarray]] = None
        try:
            views = self._decode_arrays(mapped)
        except (ValueError, KeyError, TypeError, IndexError):
            # Leave the except block before closing the map: the
            # traceback pins frame locals that still view the buffer.
            pass
        if views is None:
            mapped.close()
            handle.close()
            self._drop_corrupt(path)
            self._miss()
            return None
        handle.close()  # the mmap holds its own reference to the file
        self._hit(path, len(mapped))
        return views

    @staticmethod
    def _decode_arrays(mapped: mmap.mmap) -> Dict[str, np.ndarray]:
        """Parse + checksum an array entry; raises ValueError on damage."""
        if len(mapped) < len(ARRAY_MAGIC) + 8:
            raise ValueError("truncated entry")
        if mapped[: len(ARRAY_MAGIC)] != ARRAY_MAGIC:
            raise ValueError("bad magic")
        header_len = int.from_bytes(
            mapped[len(ARRAY_MAGIC) : len(ARRAY_MAGIC) + 8], "little"
        )
        data_start = len(ARRAY_MAGIC) + 8 + header_len
        if data_start > len(mapped):
            raise ValueError("truncated header")
        header = json.loads(
            bytes(mapped[len(ARRAY_MAGIC) + 8 : data_start]).decode("utf-8")
        )
        if header.get("version") != STORE_VERSION:
            raise ValueError(f"version {header.get('version')!r}")
        data = memoryview(mapped)[data_start:]
        if _sha256(data) != header["checksum"]:
            raise ValueError("checksum mismatch")
        views: Dict[str, np.ndarray] = {}
        for descriptor in header["arrays"]:
            shape = tuple(int(s) for s in descriptor["shape"])
            start = int(descriptor["offset"])
            nbytes = int(descriptor["nbytes"])
            if start + nbytes > len(data):
                raise ValueError("descriptor out of bounds")
            view: np.ndarray = np.frombuffer(
                data[start : start + nbytes],
                dtype=np.dtype(descriptor["dtype"]),
            ).reshape(shape)
            views[str(descriptor["name"])] = view
        return views

    # -- sanitizer write verification ----------------------------------
    def _verify_written_json(self, path: Path) -> None:
        """REPRO_SANITIZE: re-read + re-checksum the entry just written.

        Counters and the LRU mtime clock are left untouched — this is a
        tripwire, not a read.  A failure here is a hard error: the
        corrupt-as-miss policy exists for entries damaged *later*, not
        for writes that were wrong from the start.
        """
        raw = path.read_bytes()
        envelope = json.loads(raw)
        body = envelope["payload"]
        if (
            envelope.get("version") != STORE_VERSION
            or _sha256(body.encode("utf-8")) != envelope["checksum"]
        ):
            raise RuntimeError(
                f"REPRO_SANITIZE: store write verification failed for "
                f"{path} (checksum/version mismatch on read-back)"
            )
        json.loads(body)

    def _verify_written_arrays(self, path: Path) -> None:
        """REPRO_SANITIZE: decode + checksum the array entry on write."""
        with path.open("rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        error: Optional[str] = None
        try:
            self._decode_arrays(mapped)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            # Leave the except block before closing: the traceback pins
            # frame locals that still view the buffer (see get_arrays).
            error = str(exc)
        try:
            mapped.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass
        if error is not None:
            raise RuntimeError(
                f"REPRO_SANITIZE: store write verification failed for "
                f"{path}: {error}"
            )

    # -- misc ----------------------------------------------------------
    def describe(self) -> str:
        """One-line hit/miss summary for CLI output."""
        c = self.counters
        return (
            f"cache {self.directory}: {c.hits} hits, {c.misses} misses, "
            f"{c.bytes_read} B read, {c.bytes_written} B written"
            + (f", {c.corrupt} corrupt dropped" if c.corrupt else "")
        )
