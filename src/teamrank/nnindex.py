"""Persistent per-member sorted-run index with exact block I/O accounting.

Each team member gets one run: the objects of the space keyed by the exact
post-exchange distance of swapping that member for them, computed by the
ranking layer's own distance kernel, and sorted ascending by (key, object
id). That is the order the exhaustive method ranks a member's swaps in, so a
run's first k entries are exactly that member's k best swaps. A run holds
only the first L of them, the run length: a query for k <= L entries reads
ceil(k / B) blocks and nothing else in the run is ever read. The key is not
a metric, so no metric-tree pruning is attempted. Every read goes through
``NnIndex.query_min_raw``: the first k entries of one member's run,
fetched in one positioned read and charged as that many block reads.

On-disk layout, one file per index named ``<fingerprint>.idx``:

    header (52 bytes, little endian):
        magic            8s   b"TRNNIDX1"
        version          u16  5
        dimension        u16
        member_count     u32  m
        record_count     u64  n
        run_length       u64  L, entries per run
        block_size       u32  B, entries per block
        fingerprint      16s  raw digest bytes

    data: m runs in member order, each ceil(L / B) blocks of B records,
    16 bytes each:
        key              f64  exact post-exchange distance
        ordinal          u64  row position in the space

A run is the L smallest keys in ``np.lexsort((ids, keys))`` order, with
each key's own bits, so a run of length L is the first L entries of the
full sorted run. It comes from the best-first pass over the space's leaf
partition (``ranking.pruned_tops``), built on the space's first build and
cached on the ``ObjectSpace``, which scores only the rows whose
(bound, id rank) can reach the member's L best and returns the same rows and key bits as
the exhaustive method's own per-member pass at k = L
(``ranking.member_tops``; the proof is in the ``ranking`` docstring). A
build with ``prune=False`` takes that full pass instead and builds no
leaves. The CLI builds so: a command answers one configuration, and on a
fresh space one build that built the leaves, with their row store, took
30-31 ms against the full pass's 15-16 ms at 1e5 rows (medians over 30
teams of 5), and 0.43 s against 0.13 s at 1.07e6 (medians over 6 teams
of 5; 11 dimensions, elite targets, unit weights, 2 vCPUs, each range
over seeds). Either way the file holds the same bytes;
``NnIndex.rows_scored`` gives the rows each
member's pass scored. L is whole blocks, or all n entries; only
a run of all n entries can end inside a block, and its final block is padded
with (+inf, 0xFF..F) sentinels so every block is the same size. The run
length is not part of the fingerprint: a query for min(k, n) > L entries
raises ``ShortIndex`` (a ``StaleIndex``), never a short list, and the caller
rebuilds with a longer run. Rebuilding from the same configuration is
byte-identical, on any number of threads: the full pass computes runs
one member per thread, the pruned pass on the calling thread, and both
yield them in member order. A build writes a
temporary file in the target directory and renames it into place, so an
interrupted build leaves no ``.idx`` file behind. A file whose header or
size does not match, a short read, or a read entry whose ordinal is not a
row of the space raises ``StaleIndex``; a file of an earlier version
(version 4 held all n entries per run, version 3 the paper's masked rate
key) raises its subclass ``OldIndex``.

Each handle keeps two ledgers (:class:`IoStats`): ``build_io`` counts the
blocks its build wrote, ``query_io`` the blocks its reads fetched and the
queries they served. One positioned read is one query, so a read adds its
blocks and one query in one lock-protected update, and concurrent readers
never lose a count.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np

from .core import ObjectSpace, TargetContext, TeamContext, weight_vector
from .errors import InvalidArgument, InvalidPartition, OldIndex, ShortIndex, StaleIndex
from .ranking import check_config, member_tops, pruned_tops

__all__ = [
    "IoStats",
    "NnIndex",
    "fingerprint",
    "build_index",
    "index_path",
]

MAGIC = b"TRNNIDX1"
VERSION = 5
HEADER = struct.Struct("<8sHHIQQI16s")
RECORD_DTYPE = np.dtype([("key", "<f8"), ("ordinal", "<u8")])
PAD_ORDINAL = np.uint64(0xFFFFFFFFFFFFFFFF)


class IoStats:
    """Block and query counts of one index handle, each update under one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self.blocks_read = 0
        self.blocks_written = 0
        self.queries_served = 0

    def add_read(self, blocks: int) -> None:
        """Charge one positioned read of ``blocks`` blocks, which serves one query."""
        with self._lock:
            self.blocks_read += blocks
            self.queries_served += 1

    def add_write(self, blocks: int) -> None:
        with self._lock:
            self.blocks_written += blocks


def index_path(directory, fp: str) -> Path:
    """Where the index with fingerprint ``fp`` lives inside ``directory``."""
    return Path(directory) / f"{fp}.idx"


def fingerprint(space: ObjectSpace, team: TeamContext, target: TargetContext, w, block_size: int) -> str:
    """32-hex-char digest of everything the index contents depend on."""
    if not 1 <= block_size <= 0xFFFFFFFF:
        raise InvalidArgument(f"block_size must be in [1, 2**32), got {block_size}")
    w = weight_vector(w)
    h = hashlib.sha256()
    h.update(b"teamrank-index-v1\x00")
    h.update(space.digest().encode())
    h.update(struct.pack("<I", int(block_size)))
    for rec in team.members:
        h.update(rec.id.encode() + b"\x00")
        h.update(struct.pack("<d", rec.lam))
        h.update(rec.attrs.tobytes())
    h.update(target.team_id.encode() + b"\x00")
    h.update(target.aggregate.tobytes())
    h.update(w.tobytes())
    return h.hexdigest()[:32]


class NnIndex:
    """Handle over one built index file plus its I/O counters.

    Made only by :meth:`open`, which :func:`build_index` also ends with, so
    a file just written passes the same header and size checks as any
    other. ``query_io`` counts reads and ``build_io`` writes; every reader
    of the handle shares them, and ``read_blocks(k)`` is the count that
    one read of k entries adds.
    """

    def __init__(self, fh, directory, fp: str, block_size: int, n: int, m: int, d: int, run_length: int):
        self.directory = Path(directory)
        # rows the build scored per member; empty on a handle that only opened its file
        self.rows_scored: tuple[int, ...] = ()
        self.fingerprint = fp
        self.block_size = int(block_size)
        self.n = int(n)
        self.m = int(m)
        self.d = int(d)
        self.run_length = int(run_length)
        self.build_io = IoStats()
        self.query_io = IoStats()
        self._file = fh

    @property
    def data_blocks(self) -> int:
        """Blocks per member run."""
        return -(-self.run_length // self.block_size)

    def read_blocks(self, k: int) -> int:
        """Blocks one ``query_min_raw(member, k)`` reads and is charged: ceil(min(k, n) / B)."""
        return -(-min(k, self.n) // self.block_size)

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "NnIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def check(self, space: ObjectSpace, team: TeamContext, target: TargetContext, w) -> None:
        """Raise ``StaleIndex`` unless this index was built for this configuration."""
        expected = fingerprint(space, team, target, w, self.block_size)
        if expected != self.fingerprint:
            raise StaleIndex(f"index fingerprint {self.fingerprint} does not match configuration {expected}")

    def query_min_raw(self, member_index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k smallest entries of a member's run as (ordinals, keys) arrays.

        One positioned read of exactly ceil(k / block_size) blocks while
        k <= n, charged to ``query_io`` as that many block reads and one
        query; asking for more than n entries returns all n. A run too short
        for min(k, n) entries raises ``ShortIndex`` before any read; a short
        read, or an ordinal that is not a row below n, raises ``StaleIndex``.
        """
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        if not 0 <= member_index < self.m:
            raise InvalidPartition(f"member index {member_index} outside [0, {self.m})")
        count = min(k, self.n)
        if count > self.run_length:
            raise ShortIndex(
                f"{index_path(self.directory, self.fingerprint)}: runs hold {self.run_length} "
                f"entries, a query for {k} needs {count}"
            )
        blocks = self.read_blocks(k)
        block_bytes = self.block_size * RECORD_DTYPE.itemsize
        size = blocks * block_bytes
        offset = HEADER.size + member_index * self.data_blocks * block_bytes
        # positioned read: no shared seek state, so concurrent readers are safe
        raw = os.pread(self._file.fileno(), size, offset)
        if len(raw) != size:
            raise StaleIndex(
                f"{index_path(self.directory, self.fingerprint)}: member {member_index} "
                f"read {len(raw)} of {size} bytes"
            )
        self.query_io.add_read(blocks)
        entries = np.frombuffer(raw, dtype=RECORD_DTYPE, count=count)
        # checked before the cast, which would turn 2**64 - 2 into -2
        if entries["ordinal"].max() >= self.n:
            raise StaleIndex(f"{index_path(self.directory, self.fingerprint)}: member {member_index} names a row >= n")
        return entries["ordinal"].astype(np.intp), entries["key"].copy()

    @classmethod
    def open(cls, directory, fp: str, space: ObjectSpace) -> "NnIndex":
        """Open an existing index, validating its header against ``space``."""
        path = index_path(directory, fp)
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            raise StaleIndex(f"no index file for fingerprint {fp} in {directory}") from None
        try:
            raw = fh.read(HEADER.size)
            if len(raw) != HEADER.size:
                raise StaleIndex(f"{path}: truncated header")
            magic, version, d, m, n, length, B, digest = HEADER.unpack(raw)
            if magic == MAGIC and version < VERSION:
                raise OldIndex(f"{path}: format version {version}, older than this build's {VERSION}")
            if magic != MAGIC or version != VERSION:
                raise StaleIndex(f"{path}: bad magic or version")
            if digest != bytes.fromhex(fp):
                raise StaleIndex(f"{path}: header fingerprint mismatch")
            if n != len(space) or d != space.dimension:
                raise StaleIndex(
                    f"index was built over {n} records x {d} dims, "
                    f"got a space of {len(space)} x {space.dimension}"
                )
            # a run is whole blocks of real entries, or all n entries
            if B < 1 or not 1 <= length <= n or (length % B and length != n):
                raise StaleIndex(f"{path}: run length {length} does not fit {n} records in blocks of {B}")
            size = os.fstat(fh.fileno()).st_size
            if size != HEADER.size + m * -(-length // B) * B * RECORD_DTYPE.itemsize:
                raise StaleIndex(f"{path}: file size {size} does not match its header")
        except BaseException:
            fh.close()
            raise
        return cls(fh, directory, fp, block_size=B, n=n, m=m, d=d, run_length=length)


def build_index(
    space: ObjectSpace,
    team: TeamContext,
    target: TargetContext,
    w,
    block_size: int,
    directory,
    *,
    run_length: int | None = None,
    prune: bool = True,
) -> NnIndex:
    """Write one sorted run per team member into one file and open it.

    Each run is the member's ``run_length`` best entries, keys and order
    included, from the best-first pass over the space's leaves
    (``ranking.pruned_tops``, on the calling thread),
    or, with ``prune=False``, from the exhaustive method's own pass
    (``ranking.member_tops``), which gives the same entries without
    building the leaves. Runs are written in member order, so the
    file holds the same bytes on any number of threads and on either pass;
    the handle's ``rows_scored`` is each member's count of rows scored.
    ``run_length`` defaults to ``block_size``, is rounded up to whole blocks
    and is capped at n. The file appears under its final name only once
    every run is written; build writes land in the build counter only. It
    refuses what ``ranking.brute_force_rank`` refuses, with ``run_length``
    as its k (``ranking.check_config``).
    """
    if run_length is None:
        run_length = block_size
    w, _ = check_config(team, target, space, w, run_length)
    fp = fingerprint(space, team, target, w, block_size)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    n = len(space)
    m = team.size
    blocks = -(-min(run_length, n) // block_size)
    length = min(blocks * block_size, n)
    header = HEADER.pack(MAGIC, VERSION, space.dimension, m, n, length, block_size, bytes.fromhex(fp))

    run = np.empty(blocks * block_size, dtype=RECORD_DTYPE)
    # only a run of all n entries can end inside a block
    run["key"][length:] = np.inf
    run["ordinal"][length:] = PAD_ORDINAL

    if prune:
        passes = pruned_tops(space, team, target, w, length)
    else:
        passes = ((rows, keys, n) for rows, keys in member_tops(space, team, target, w, length))
    scored = []
    # the temporary name does not end in .idx, so no reader mistakes it for an index
    fd, tmp = tempfile.mkstemp(prefix=f".{fp}.", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for rows, keys, count in passes:
                run["key"][:length] = keys
                run["ordinal"][:length] = rows
                fh.write(run.data)
                scored.append(count)
                # dropped before the next member is submitted
                del rows, keys
        os.replace(tmp, index_path(directory, fp))
    except BaseException:
        os.unlink(tmp)
        raise

    index = NnIndex.open(directory, fp, space)
    index.build_io.add_write(m * blocks)
    index.rows_scored = tuple(scored)
    return index
