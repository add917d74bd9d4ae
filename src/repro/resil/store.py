"""One content-addressed store for checkpoints and cached flow results.

Both memoization paths of the platform keep their values here: the
per-stage checkpoints of :class:`~repro.resil.checkpoint.StageCheckpointer`
and the whole :class:`~repro.core.flow.FlowResult` objects the campaign
result cache serves.  A :class:`Store` owns the public ``get``/``put``
API, the hit/miss/eviction counters and the one least-recently-used
eviction routine; a backend only reads, writes, deletes and lists
entries:

* :class:`MemoryStore` keeps values in an ``OrderedDict`` in this
  process.  ``get`` returns the stored object itself, so the producer
  and every hit share one instance;
* :class:`DirectoryStore` keeps one flat ``root/<key>.pkl`` file per
  entry.  It pickles on ``put`` and unpickles on ``get``, so every read
  is a private copy, and it survives the process.

A ``put`` that takes the store over its budget deletes the coldest
entries, never the one just written, until it fits again.
"""

from __future__ import annotations

import itertools
import os
import pickle
from collections import OrderedDict

_SUFFIX = ".pkl"


class Store:
    """Values keyed by content hash; LRU-bounded by ``max_entries``
    (and, on disk, ``max_bytes``).  ``None`` cannot be stored: ``get``
    returns it for a miss."""

    def __init__(self, max_entries: int | None = None,
                 max_bytes: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- backend contract ----------------------------------------------------

    def _read(self, key: str):
        """The value under ``key`` (refreshing its recency), or ``None``."""
        raise NotImplementedError

    def _write(self, key: str, value) -> None:
        raise NotImplementedError

    def _delete(self, key: str) -> bool:
        """Remove one entry; ``False`` if it could not be removed."""
        raise NotImplementedError

    def _entries(self) -> list[tuple[str, int]]:
        """Every ``(key, size in bytes)``, least recently used first
        (size 0 where the backend has no byte budget)."""
        raise NotImplementedError

    # -- public API ----------------------------------------------------------

    def get(self, key: str):
        """The stored value, or ``None`` on a miss."""
        value = self._read(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Store ``value`` under ``key``, then evict down to the budget."""
        self._write(key, value)
        self._evict(keep=key)

    def keys(self) -> list[str]:
        """Stored keys, least recently used first."""
        return [key for key, _ in self._entries()]

    def _evict(self, keep: str) -> None:
        """Delete the coldest entries until the store fits its budget."""
        if self.max_entries is None and self.max_bytes is None:
            return
        entries = self._entries()
        count = len(entries)
        total = sum(size for _, size in entries)
        for key, size in entries:
            if not (
                (self.max_entries is not None and count > self.max_entries)
                or (self.max_bytes is not None and total > self.max_bytes)
            ):
                break
            if key == keep or not self._delete(key):
                continue
            self.evictions += 1
            count -= 1
            total -= size


class MemoryStore(Store):
    """In-process values in recency order.

    A ``MemoryStore`` pickles as an empty store with the same budget: a
    copy sent to a process-pool worker starts cold instead of carrying
    every entry across the process boundary.
    """

    def __init__(self, max_entries: int | None = None):
        super().__init__(max_entries)
        self._values: OrderedDict[str, object] = OrderedDict()

    def __reduce__(self):
        return (type(self), (self.max_entries,))

    def _read(self, key):
        value = self._values.get(key)
        if value is not None:
            self._values.move_to_end(key)
        return value

    def _write(self, key, value):
        self._values[key] = value
        self._values.move_to_end(key)

    def _delete(self, key):
        del self._values[key]
        return True

    def _entries(self):
        return [(key, 0) for key in self._values]


class DirectoryStore(Store):
    """Pickled values in ``root/<key>.pkl`` files, shared with every
    process that opens the same directory.

    ``max_bytes`` budgets the files' total size.  Recency is an
    in-process sequence number for entries this process read or wrote;
    entries inherited from an earlier process count as colder than any
    of those, ordered among themselves by file mtime.
    """

    def __init__(self, root, max_entries: int | None = None,
                 max_bytes: int | None = None):
        super().__init__(max_entries, max_bytes)
        self.root = os.fspath(root)
        self._seq = itertools.count()
        self._recency: dict[str, int] = {}

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + _SUFFIX)

    def _read(self, key):
        try:
            with open(self._path(key), "rb") as handle:
                value = pickle.load(handle)
        except OSError:
            return None
        self._recency[key] = next(self._seq)
        return value

    def _write(self, key, value):
        os.makedirs(self.root, exist_ok=True)
        with open(self._path(key), "wb") as handle:
            pickle.dump(value, handle, protocol=4)
        self._recency[key] = next(self._seq)

    def _delete(self, key):
        try:
            os.remove(self._path(key))
        except OSError:
            return False
        self._recency.pop(key, None)
        return True

    def _entries(self):
        found = []
        try:
            with os.scandir(self.root) as scan:
                for entry in scan:
                    if not entry.name.endswith(_SUFFIX):
                        continue
                    key = entry.name[: -len(_SUFFIX)]
                    try:
                        stat = entry.stat()
                    except OSError:
                        continue
                    if key in self._recency:
                        coldness = (1, self._recency[key])
                    else:
                        coldness = (0, stat.st_mtime)
                    found.append((coldness, key, stat.st_size))
        except OSError:
            return []
        found.sort()
        return [(key, size) for _, key, size in found]
