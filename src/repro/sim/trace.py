"""Trace representation and I/O.

A trace is the stream of memory requests arriving at the DRAM cache
(i.e. L3 misses plus L3 dirty writebacks), in arrival order. For speed
the hot representation is two parallel sequences — byte addresses and
write flags — plus a constant instructions-per-access factor derived
from the workload's MPKI. Traces are treated as immutable once built:
derived values (write counts, split columns) are computed once and
cached on the instance.

Two persistence formats are provided:

* ``repro-trace-v1`` — a self-describing line-oriented text format for
  interchange and hand inspection (:func:`save_trace`/:func:`load_trace`);
* ``.npz`` — a binary numpy archive used by the shared trace cache
  (:mod:`repro.workloads.trace_cache`), ~10x smaller and much faster to
  load (:func:`save_trace_npz`/:func:`load_trace_npz`).

:meth:`Trace.split_columns` precomputes the per-access ``(set_index,
tag, line_addr)`` decomposition for one cache geometry — vectorized in
numpy once, then materialized as plain Python ints so the functional
simulator's hot loop never touches ``geometry.split`` (or a numpy
scalar) per access.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TraceError

if TYPE_CHECKING:  # hint only; geometry does not import trace
    from repro.cache.geometry import CacheGeometry


@dataclass(frozen=True)
class TraceRecord:
    """One request in interchange form."""

    addr: int
    is_write: bool


class SplitColumns:
    """Per-access address decomposition for one cache geometry.

    The columns are computed vectorized (numpy) and stored as flat
    Python lists: the consumers are per-access Python loops, where list
    indexing and small-int compares are ~10x cheaper than numpy scalar
    extraction.
    """

    __slots__ = ("set_indices", "tags", "line_addrs")

    def __init__(
        self,
        set_indices: List[int],
        tags: List[int],
        line_addrs: List[int],
    ):
        self.set_indices = set_indices
        self.tags = tags
        self.line_addrs = line_addrs


class TraceShard:
    """One set-range shard of a trace under one cache geometry.

    Carries the shard's records in arrival order: ``positions`` (their
    global indices in the parent trace, as an int64 numpy array for
    ``searchsorted``/epoch math) plus the hot-loop columns as plain
    Python lists, ready for :meth:`AccessPath.run_stream`. All sets a
    shard covers form one contiguous, region-aligned range, so every
    record of one set lands in exactly one shard.
    """

    __slots__ = ("index", "count", "positions", "writes", "set_indices",
                 "tags", "addrs")

    def __init__(self, index, count, positions, writes, set_indices, tags, addrs):
        self.index = index
        self.count = count
        self.positions = positions
        self.writes = writes
        self.set_indices = set_indices
        self.tags = tags
        self.addrs = addrs

    def __len__(self) -> int:
        return len(self.addrs)

    def warm_index(self, warm: int) -> int:
        """Local index of the first record at global position >= warm."""
        return int(np.searchsorted(self.positions, warm, side="left"))


class Trace:
    """An in-memory request stream.

    ``instructions_per_access`` reconstructs retired instructions for
    CPI math: a workload with MPKI m has 1000/m instructions per L3
    *miss-path* access. Writebacks ride along with the read stream and
    carry no instruction weight of their own.

    ``addrs``/``writes`` may be supplied either as Python sequences
    (a list of ints / a bytearray) or as 1-D numpy columns (int64 /
    uint8) — e.g. memory-mapped arrays from the trace cache or views of
    a shared-memory segment. Whichever form is supplied, the other is
    materialized lazily on first access: array engines that only touch
    :meth:`numpy_addrs`/:meth:`numpy_writes` never pay the per-element
    ``.tolist()`` round trip, and the scalar engines still see plain
    Python ints (numpy scalars would silently change their wrapping
    arithmetic).

    Columns must not be mutated after construction: the write count,
    the numpy column views, and the per-geometry split columns and
    shard partitions are cached.

    ``cache_token`` optionally carries a content identity (the
    :class:`~repro.workloads.trace_cache.TraceKey` digest) so plan
    memos can recognize the same trace across distinct loads.
    """

    __slots__ = (
        "name", "instructions_per_access", "cache_token",
        "_addrs_list", "_writes_list", "_write_count", "_split_cache",
        "_np_addrs", "_np_writes", "_read_prefix_cache", "_shard_cache",
        "__weakref__",
    )

    def __init__(
        self,
        name: str,
        addrs,
        writes,
        instructions_per_access: float,
        *,
        cache_token: Optional[str] = None,
    ):
        self.name = name
        self.instructions_per_access = instructions_per_access
        self.cache_token = cache_token
        if isinstance(addrs, np.ndarray):
            if addrs.ndim != 1:
                raise TraceError(f"trace {name!r}: address column must be 1-D")
            self._np_addrs = (
                addrs if addrs.dtype == np.int64 else addrs.astype(np.int64)
            )
            self._addrs_list: Optional[List[int]] = None
            n_addrs = int(addrs.shape[0])
        else:
            self._np_addrs = None
            self._addrs_list = addrs
            n_addrs = len(addrs)
        if isinstance(writes, np.ndarray):
            if writes.ndim != 1:
                raise TraceError(f"trace {name!r}: write column must be 1-D")
            self._np_writes = (
                writes if writes.dtype == np.uint8 else writes.astype(np.uint8)
            )
            self._writes_list: Optional[Sequence[int]] = None
            n_writes = int(writes.shape[0])
        else:
            self._np_writes = None
            self._writes_list = writes
            n_writes = len(writes)
        if n_addrs != n_writes:
            raise TraceError(
                f"trace {name!r}: {n_addrs} addresses but "
                f"{n_writes} write flags"
            )
        if instructions_per_access <= 0:
            raise TraceError("instructions_per_access must be positive")
        self._write_count: Optional[int] = None
        self._split_cache: Dict[Tuple[int, int], SplitColumns] = {}
        self._read_prefix_cache: Optional[np.ndarray] = None
        self._shard_cache: Dict[
            Tuple[int, int, int], Tuple["TraceShard", ...]
        ] = {}

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, len={len(self)}, "
            f"instructions_per_access={self.instructions_per_access!r})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.name == other.name
            and self.instructions_per_access == other.instructions_per_access
            and np.array_equal(self.numpy_addrs(), other.numpy_addrs())
            and np.array_equal(self.numpy_writes(), other.numpy_writes())
        )

    # Mutable container semantics (matching the former dataclass form).
    __hash__ = None  # type: ignore[assignment]

    @property
    def addrs(self) -> List[int]:
        """Addresses as Python ints (materialized lazily when array-backed)."""
        addrs = self._addrs_list
        if addrs is None:
            addrs = self._np_addrs.tolist()
            self._addrs_list = addrs
        return addrs

    @property
    def writes(self) -> Sequence[int]:
        """Write flags as a byte sequence (materialized lazily)."""
        writes = self._writes_list
        if writes is None:
            writes = bytearray(self._np_writes.tobytes())
            self._writes_list = writes
        return writes

    def __len__(self) -> int:
        addrs = self._addrs_list
        if addrs is not None:
            return len(addrs)
        return int(self._np_addrs.shape[0])

    def __iter__(self) -> Iterator[TraceRecord]:
        for addr, w in zip(self.addrs, self.writes):
            yield TraceRecord(addr, bool(w))

    @property
    def read_count(self) -> int:
        return len(self.addrs) - self.write_count

    @property
    def write_count(self) -> int:
        """Number of writeback records (cached; O(1) after first use)."""
        count = self._write_count
        if count is None:
            flags = self._writes_list
            if isinstance(flags, (bytes, bytearray)):
                count = flags.count(1)
            elif flags is None:
                count = int(np.count_nonzero(self._np_writes))
            else:
                count = sum(1 for w in flags if w)
            self._write_count = count
        return count

    @property
    def total_instructions(self) -> float:
        """Instructions represented by the read (demand) portion."""
        return self.read_count * self.instructions_per_access

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace covering [start, stop) (array-backed parents stay
        array-backed; no list materialization)."""
        if self._addrs_list is None or self._writes_list is None:
            return Trace(
                name=f"{self.name}[{start}:{stop}]",
                addrs=np.ascontiguousarray(self.numpy_addrs()[start:stop]),
                writes=np.ascontiguousarray(self.numpy_writes()[start:stop]),
                instructions_per_access=self.instructions_per_access,
            )
        return Trace(
            name=f"{self.name}[{start}:{stop}]",
            addrs=self._addrs_list[start:stop],
            writes=self._writes_list[start:stop],
            instructions_per_access=self.instructions_per_access,
        )

    def footprint_lines(self, line_size: int = 64) -> int:
        """Number of distinct 64B lines touched."""
        return len({addr // line_size for addr in self.addrs})

    def split_columns(self, geometry: "CacheGeometry") -> SplitColumns:
        """Cached ``(set_index, tag, line_addr)`` columns for a geometry.

        Exactly equivalent to applying ``geometry.split`` /
        ``geometry.line_addr`` per address, but computed in one
        vectorized pass and memoized per ``(offset_bits, index_bits)``
        pair — all designs sharing an associativity share the columns.
        """
        key = (geometry.offset_bits, geometry.index_bits)
        columns = self._split_cache.get(key)
        if columns is None:
            addrs = self.numpy_addrs()
            lines = addrs >> geometry.offset_bits
            set_indices = lines & ((1 << geometry.index_bits) - 1)
            tags = lines >> geometry.index_bits
            columns = SplitColumns(
                set_indices.tolist(), tags.tolist(), lines.tolist()
            )
            self._split_cache[key] = columns
        return columns

    # -- numpy column views (computed once per trace) ----------------------

    def numpy_addrs(self) -> np.ndarray:
        """The address column as int64, converted once and cached.

        Every geometry-dependent derivation (:meth:`split_columns`,
        :meth:`shard`) starts from this array, so a sweep replaying
        one trace against many designs pays the O(n) list-to-array
        conversion a single time.
        """
        addrs = self._np_addrs
        if addrs is None:
            addrs = np.asarray(self._addrs_list, dtype=np.int64)
            self._np_addrs = addrs
        return addrs

    def numpy_writes(self) -> np.ndarray:
        """The write-flag column as uint8, converted once and cached."""
        writes = self._np_writes
        if writes is None:
            flags = self._writes_list
            if isinstance(flags, (bytes, bytearray)):
                writes = np.frombuffer(bytes(flags), dtype=np.uint8)
            else:
                writes = np.asarray(
                    [1 if w else 0 for w in flags], dtype=np.uint8
                )
            self._np_writes = writes
        return writes

    def read_prefix(self) -> np.ndarray:
        """``rp[p]`` = demand reads among the first ``p`` records.

        Length ``len(self) + 1``; cached. Lets shard runners recover any
        record's global *read ordinal* in O(1) — the quantity phase
        epochs are counted in.
        """
        prefix = self._read_prefix_cache
        if prefix is None:
            reads = (self.numpy_writes() == 0).astype(np.int64)
            prefix = np.concatenate(([0], np.cumsum(reads)))
            self._read_prefix_cache = prefix
        return prefix

    # -- set-range sharding ------------------------------------------------

    def shard(self, geometry: "CacheGeometry", n_shards: int) -> Tuple["TraceShard", ...]:
        """Partition the trace into set-range shards for one geometry.

        Shard ``i`` receives every record whose set index falls in the
        contiguous range ``[i * num_sets / n, (i + 1) * num_sets / n)``
        — region-aligned, so a 4KB region's lines (which share their
        upper index bits) stay together. Records keep arrival order and
        their global positions. Reuses the memoized vectorized split
        (:meth:`split_columns`) and is itself memoized per
        ``(offset_bits, index_bits, n_shards)``: many designs over one
        trace and repeat runs share one partition.

        ``n_shards`` is clamped to ``num_sets`` (a shard must own at
        least one set).
        """
        if n_shards < 1:
            raise TraceError(f"n_shards must be positive, got {n_shards}")
        num_sets = 1 << geometry.index_bits
        n_shards = min(n_shards, num_sets)
        key = (geometry.offset_bits, geometry.index_bits, n_shards)
        shards = self._shard_cache.get(key)
        if shards is None:
            from repro.params.system import REGION_SIZE

            columns = self.split_columns(geometry)
            set_arr = np.asarray(columns.set_indices, dtype=np.int64)
            # A 4KB region's lines occupy consecutive sets; align shard
            # boundaries to region-sized set blocks so a region never
            # straddles two shards (when there are enough blocks).
            region_sets = max(1, REGION_SIZE >> geometry.offset_bits)
            num_blocks = num_sets // region_sets
            if num_blocks >= n_shards:
                shard_ids = ((set_arr // region_sets) * n_shards) // num_blocks
            else:
                shard_ids = (set_arr * n_shards) // num_sets
            addrs = self.numpy_addrs()
            writes = self.numpy_writes()
            tags_arr = np.asarray(columns.tags, dtype=np.int64)
            built = []
            for index in range(n_shards):
                positions = np.flatnonzero(shard_ids == index)
                built.append(
                    TraceShard(
                        index=index,
                        count=n_shards,
                        positions=positions,
                        writes=writes[positions].tolist(),
                        set_indices=set_arr[positions].tolist(),
                        tags=tags_arr[positions].tolist(),
                        addrs=addrs[positions].tolist(),
                    )
                )
            shards = tuple(built)
            self._shard_cache[key] = shards
        return shards

    def shard_slice(
        self, geometry: "CacheGeometry", n_shards: int, index: int
    ) -> "TraceShard":
        """One shard of :meth:`shard` (bounds-checked convenience)."""
        shards = self.shard(geometry, n_shards)
        if not 0 <= index < len(shards):
            raise TraceError(
                f"shard index {index} out of range for {len(shards)} shards"
            )
        return shards[index]


def trace_from_arrays(
    name: str,
    addrs: Iterable[int],
    writes: Iterable[int],
    instructions_per_access: float,
) -> Trace:
    """Build a trace from any iterables (materializes lists)."""
    return Trace(name, list(addrs), bytearray(1 if w else 0 for w in writes),
                 instructions_per_access)


_HEADER = "# repro-trace-v1"

#: Version tag embedded in the binary (.npz) trace format.
NPZ_TRACE_VERSION = 1


def save_trace(trace: Trace, path: str) -> None:
    """Write a trace in the line-oriented text format."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(f"{_HEADER}\n")
        handle.write(f"name {trace.name}\n")
        handle.write(f"ipa {trace.instructions_per_access!r}\n")
        for addr, w in zip(trace.addrs, trace.writes):
            kind = "W" if w else "R"
            handle.write(f"{kind} {addr:x}\n")


def load_trace(path: str) -> Trace:
    """Read a trace produced by :func:`save_trace`."""
    addrs: List[int] = []
    writes = bytearray()
    name = "unnamed"
    ipa = 1.0
    with open(path, "r", encoding="ascii") as handle:
        first = handle.readline().rstrip("\n")
        if first != _HEADER:
            raise TraceError(f"{path}: not a repro trace (bad header {first!r})")
        for line_no, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "name":
                if len(parts) < 2:
                    raise TraceError(f"{path}:{line_no}: truncated name line")
                name = " ".join(parts[1:])
            elif parts[0] == "ipa":
                if len(parts) != 2:
                    raise TraceError(f"{path}:{line_no}: truncated ipa line")
                try:
                    ipa = float(parts[1])
                except ValueError:
                    raise TraceError(
                        f"{path}:{line_no}: bad ipa value {parts[1]!r}"
                    ) from None
            elif parts[0] in ("R", "W"):
                if len(parts) != 2:
                    raise TraceError(f"{path}:{line_no}: malformed record {line!r}")
                addrs.append(int(parts[1], 16))
                writes.append(1 if parts[0] == "W" else 0)
            else:
                raise TraceError(f"{path}:{line_no}: unknown record {parts[0]!r}")
    return Trace(name, addrs, writes, ipa)


def save_trace_npz(trace: Trace, path: str) -> None:
    """Write a trace in the binary ``.npz`` format.

    The archive holds ``addrs`` (int64), ``writes`` (uint8), plus the
    scalar ``name``/``ipa``/``version`` metadata. Addresses above
    2^63 - 1 are rejected (no real address space produces them).

    Members are stored *uncompressed* (``np.savez``): ``np.load`` does
    not memory-map npz members even with ``mmap_mode``, so the trace
    cache maps the ZIP_STORED column bytes directly
    (:func:`load_trace_npz` with ``mmap=True``) — only possible when
    the member data sits verbatim in the archive. Compressed legacy
    entries remain readable (the mmap path falls back to a normal
    load).
    """
    try:
        addrs = trace.numpy_addrs()
        if addrs.dtype != np.int64:
            addrs = addrs.astype(np.int64)
    except (OverflowError, ValueError) as exc:
        raise TraceError(f"trace {trace.name!r} not npz-serializable: {exc}") from exc
    writes = trace.numpy_writes()
    np.savez(
        path,
        version=np.int64(NPZ_TRACE_VERSION),
        name=np.array(trace.name),
        ipa=np.float64(trace.instructions_per_access),
        addrs=addrs,
        writes=writes,
    )


def _npz_member_memmap(path: str, member: str) -> Optional[np.ndarray]:
    """Memory-map one uncompressed member of an npz archive, or None.

    ``np.load(..., mmap_mode=...)`` silently ignores the request for
    npz archives and returns in-memory copies, so this maps the member
    by hand: locate the member's local file header via the zip central
    directory, skip the header to the raw ``.npy`` bytes, parse the npy
    header for dtype/shape, and ``np.memmap`` the data region.
    Returns None for compressed (legacy ``savez_compressed``) members,
    which callers load normally instead.
    """
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
        if info.compress_type != zipfile.ZIP_STORED:
            return None
        header_offset = info.header_offset
    with open(path, "rb") as handle:
        handle.seek(header_offset)
        local = handle.read(30)
        if len(local) < 30 or local[:4] != b"PK\x03\x04":
            raise TraceError(f"{path}: bad local header for {member!r}")
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(header_offset + 30 + name_len + extra_len)
        magic = np.lib.format.read_magic(handle)
        if magic == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif magic == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            raise TraceError(
                f"{path}: unsupported npy format {magic} for {member!r}"
            )
        data_offset = handle.tell()
    if len(shape) == 1 and shape[0] == 0:
        return np.empty(shape, dtype=dtype)  # mmap cannot map zero bytes
    return np.memmap(
        path, dtype=dtype, mode="r", shape=shape,
        order="F" if fortran else "C", offset=data_offset,
    )


def load_trace_npz(path: str, *, mmap: bool = False) -> Trace:
    """Read a trace produced by :func:`save_trace_npz`.

    Returns an array-backed :class:`Trace`: the scalar list forms are
    materialized lazily only if a scalar engine asks for them. With
    ``mmap=True`` the two column arrays are memory-mapped straight out
    of the archive (zero-copy across processes via the page cache);
    compressed legacy archives fall back to a normal in-memory load.

    A missing file raises ``FileNotFoundError`` (callers distinguish a
    cold cache from corruption); any malformed archive raises
    :class:`TraceError`.
    """
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["version"])
            if version != NPZ_TRACE_VERSION:
                raise TraceError(
                    f"{path}: unsupported npz trace version {version}"
                )
            name = str(data["name"][()])
            ipa = float(data["ipa"])
            addrs = writes = None
            if mmap:
                addrs = _npz_member_memmap(path, "addrs.npy")
                writes = _npz_member_memmap(path, "writes.npy")
            if addrs is None or writes is None:
                addrs = data["addrs"]
                writes = data["writes"]
            if addrs.ndim != 1 or writes.ndim != 1:
                raise TraceError(f"{path}: npz trace columns must be 1-D")
            trace = Trace(name, addrs, writes, ipa)
    except FileNotFoundError:
        raise
    except TraceError:
        raise
    except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
        raise TraceError(f"{path}: not a valid npz trace ({exc})") from exc
    return trace
