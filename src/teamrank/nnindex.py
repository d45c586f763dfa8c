"""Persistent per-member sorted-run index with exact block I/O accounting.

Each team member gets one partition: every object of the space keyed by its
one-sided rate distance to that member's virtual object, sorted ascending.
The key is not a metric (the one-sided shortfall breaks symmetry and the
triangle inequality), so no metric-tree pruning is attempted; a globally
sorted run per partition realizes minimum and k-smallest retrieval with a
deterministic ceil(k / B) block reads.

On-disk layout, one file per partition named ``<fingerprint>.<member>.idx``:

    header (56 bytes, little endian):
        magic            8s   b"TRNNIDX1"
        version          u16  2
        dimension        u16
        member_count     u32
        record_count     u64
        block_size       u32  entries per block
        member_index     u32
        lambda_r         f64
        fingerprint      16s  raw digest bytes

    data: ceil(n / B) blocks of B records, 16 bytes each:
        key              f64  one-sided rate distance
        ordinal          u64  row position in the space

Entries are sorted by (key, object id); the final block is padded with
(+inf, 0xFF..F) sentinels so every block is the same size. Rebuilding from
the same configuration is byte-identical. A partition whose size does not
match its header, or a short block read, raises ``StaleIndex``. Build writes
and query reads are tallied in separate counters; counter updates are
lock-protected so concurrent readers never lose increments.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ObjectSpace, TargetContext, TeamContext, weight_vector
from .errors import (
    EmptySpace,
    InvalidArgument,
    InvalidPartition,
    StaleIndex,
)
from .ranking import odis_keys, virtual_object

__all__ = [
    "IoStats",
    "IoSnapshot",
    "IndexBlock",
    "NnIndex",
    "fingerprint",
    "build_index",
]

MAGIC = b"TRNNIDX1"
VERSION = 2
HEADER = struct.Struct("<8sHHIQIId16s")
RECORD_DTYPE = np.dtype([("key", "<f8"), ("ordinal", "<u8")])
PAD_ORDINAL = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclass(frozen=True)
class IoSnapshot:
    blocks_read: int
    blocks_written: int
    queries_served: int


class IoStats:
    """Monotone I/O counters; resettable only explicitly."""

    def __init__(self):
        self._lock = threading.Lock()
        self._blocks_read = 0
        self._blocks_written = 0
        self._queries_served = 0

    def add_read(self, blocks: int = 1) -> None:
        with self._lock:
            self._blocks_read += blocks

    def add_write(self, blocks: int = 1) -> None:
        with self._lock:
            self._blocks_written += blocks

    def add_query(self, count: int = 1) -> None:
        with self._lock:
            self._queries_served += count

    @property
    def blocks_read(self) -> int:
        return self._blocks_read

    @property
    def blocks_written(self) -> int:
        return self._blocks_written

    @property
    def queries_served(self) -> int:
        return self._queries_served

    def snapshot(self) -> IoSnapshot:
        with self._lock:
            return IoSnapshot(self._blocks_read, self._blocks_written, self._queries_served)

    def reset(self) -> None:
        with self._lock:
            self._blocks_read = 0
            self._blocks_written = 0
            self._queries_served = 0

    def __repr__(self) -> str:
        return (
            f"IoStats(blocks_read={self.blocks_read}, blocks_written={self.blocks_written}, "
            f"queries_served={self.queries_served})"
        )


@dataclass(frozen=True)
class IndexBlock:
    """One decoded data block; padding sentinels are already stripped."""

    member_index: int
    sequence: int
    keys: np.ndarray
    ordinals: np.ndarray


def fingerprint(space: ObjectSpace, team: TeamContext, target: TargetContext, w, block_size: int) -> str:
    """32-hex-char digest of everything the index contents depend on."""
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
    """Handle over one built index: m partition files plus I/O counters."""

    def __init__(self, directory, fp: str, block_size: int, n: int, m: int, d: int,
                 lambda_rs: list[float], ids: np.ndarray):
        self.directory = Path(directory)
        self.fingerprint = fp
        self.block_size = int(block_size)
        self.n = int(n)
        self.m = int(m)
        self.d = int(d)
        self.lambda_rs = list(lambda_rs)
        self.build_io = IoStats()
        self.query_io = IoStats()
        self._ids = ids
        self._files = [open(self._path(i), "rb") for i in range(self.m)]
        self._closed = False

    def _path(self, member_index: int) -> Path:
        return self.directory / f"{self.fingerprint}.{member_index}.idx"

    @property
    def data_blocks(self) -> int:
        """Blocks per partition, excluding the header region."""
        return -(-self.n // self.block_size)

    def close(self) -> None:
        if not self._closed:
            for fh in self._files:
                fh.close()
            self._closed = True

    def __enter__(self) -> "NnIndex":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def reset_query_io(self) -> None:
        self.query_io.reset()

    def read_block(self, member_index: int, sequence: int, *, count: bool = True) -> IndexBlock:
        if not 0 <= member_index < self.m:
            raise InvalidPartition(f"member index {member_index} outside [0, {self.m})")
        if not 0 <= sequence < self.data_blocks:
            raise InvalidArgument(f"block {sequence} outside [0, {self.data_blocks})")
        # positioned read: no shared seek state, so concurrent readers are safe
        size = self.block_size * RECORD_DTYPE.itemsize
        raw = os.pread(self._files[member_index].fileno(), size, HEADER.size + sequence * size)
        if len(raw) != size:
            raise StaleIndex(
                f"{self._path(member_index)}: block {sequence} is {len(raw)} of {size} bytes"
            )
        if count:
            self.query_io.add_read(1)
        entries = np.frombuffer(raw, dtype=RECORD_DTYPE)
        valid = min(self.block_size, self.n - sequence * self.block_size)
        return IndexBlock(
            member_index=member_index,
            sequence=sequence,
            keys=entries["key"][:valid].copy(),
            ordinals=entries["ordinal"][:valid].astype(np.intp),
        )

    def query_min_raw(self, member_index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k smallest entries of a partition as (ordinals, keys) arrays.

        Reads exactly ceil(k / block_size) blocks while k <= n; asking for
        more than n entries returns all n.
        """
        if k < 1:
            raise InvalidArgument(f"k must be >= 1, got {k}")
        if not 0 <= member_index < self.m:
            raise InvalidPartition(f"member index {member_index} outside [0, {self.m})")
        kk = min(k, self.n)
        needed = -(-kk // self.block_size)
        ordinals = np.empty(kk, dtype=np.intp)
        keys = np.empty(kk, dtype=np.float64)
        taken = 0
        for seq in range(needed):
            block = self.read_block(member_index, seq)
            take = min(block.keys.size, kk - taken)
            ordinals[taken : taken + take] = block.ordinals[:take]
            keys[taken : taken + take] = block.keys[:take]
            taken += take
        self.query_io.add_query(1)
        return ordinals, keys

    def query_min(self, member_index: int, k: int) -> list[tuple[str, float]]:
        """k smallest entries of a partition as (object id, key) pairs."""
        ordinals, keys = self.query_min_raw(member_index, k)
        return [(str(self._ids[o]), float(key)) for o, key in zip(ordinals, keys)]

    @classmethod
    def open(cls, directory, fp: str, space: ObjectSpace) -> "NnIndex":
        """Open an existing index, validating headers against the file set."""
        directory = Path(directory)
        first = directory / f"{fp}.0.idx"
        if not first.exists():
            raise StaleIndex(f"no index files for fingerprint {fp} in {directory}")
        header = cls._read_header(first, fp, expect_member=0)
        if header["n"] != len(space) or header["d"] != space.dimension:
            raise StaleIndex(
                f"index was built over {header['n']} records x {header['d']} dims, "
                f"got a space of {len(space)} x {space.dimension}"
            )
        lambda_rs = [header["lambda_r"]]
        for i in range(1, header["m"]):
            other = cls._read_header(directory / f"{fp}.{i}.idx", fp, expect_member=i, expect=header)
            lambda_rs.append(other["lambda_r"])
        return cls(
            directory,
            fp,
            block_size=header["B"],
            n=header["n"],
            m=header["m"],
            d=header["d"],
            lambda_rs=lambda_rs,
            ids=space.ids,
        )

    @staticmethod
    def _read_header(path: Path, fp: str, expect_member: int, expect: dict | None = None) -> dict:
        with open(path, "rb") as fh:
            raw = fh.read(HEADER.size)
            size = os.fstat(fh.fileno()).st_size
        if len(raw) != HEADER.size:
            raise StaleIndex(f"{path}: truncated header")
        magic, version, d, m, n, B, member_index, lambda_r, digest = HEADER.unpack(raw)
        if magic != MAGIC or version != VERSION:
            raise StaleIndex(f"{path}: bad magic or version")
        if digest != bytes.fromhex(fp):
            raise StaleIndex(f"{path}: header fingerprint mismatch")
        if member_index != expect_member:
            raise StaleIndex(f"{path}: header names member {member_index}, expected {expect_member}")
        header = {
            "d": d,
            "m": m,
            "n": n,
            "B": B,
            "member_index": member_index,
            "lambda_r": lambda_r,
        }
        if B < 1 or size != HEADER.size + -(-n // B) * B * RECORD_DTYPE.itemsize:
            raise StaleIndex(f"{path}: file size {size} does not match its header")
        if expect is not None:
            for field in ("d", "m", "n", "B"):
                if header[field] != expect[field]:
                    raise StaleIndex(f"{path}: header field {field} differs across partitions")
        return header


def build_index(
    space: ObjectSpace,
    team: TeamContext,
    target: TargetContext,
    w,
    block_size: int,
    directory,
) -> NnIndex:
    """Write one sorted-run partition per team member and open the result.

    Keys are produced by the same routine the ranking layer uses, so index
    keys and freshly computed keys agree bit for bit. Entries sort by
    (key, object id); build writes land in the build counter only.
    """
    if block_size < 1:
        raise InvalidArgument(f"block_size must be >= 1, got {block_size}")
    if len(space) < 1:
        raise EmptySpace("cannot index an empty object space")
    w = weight_vector(w)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    fp = fingerprint(space, team, target, w, block_size)
    rates = space.rates()
    n = len(space)
    m = team.size
    blocks = -(-n // block_size)
    pad = blocks * block_size - n

    written = 0
    for member_index, record in enumerate(team.members):
        v = virtual_object(team, target, record)
        keys = odis_keys(v.values, v.tv2, rates, w)
        order = np.lexsort((space.ids, keys))
        header = HEADER.pack(
            MAGIC,
            VERSION,
            space.dimension,
            m,
            n,
            block_size,
            member_index,
            record.lam,
            bytes.fromhex(fp),
        )
        payload = np.empty(blocks * block_size, dtype=RECORD_DTYPE)
        payload["key"][:n] = keys[order]
        payload["ordinal"][:n] = order.astype(np.uint64)
        if pad:
            payload["key"][n:] = np.inf
            payload["ordinal"][n:] = PAD_ORDINAL
        with open(directory / f"{fp}.{member_index}.idx", "wb") as fh:
            fh.write(header)
            fh.write(payload.tobytes())
        written += blocks

    index = NnIndex(
        directory,
        fp,
        block_size=block_size,
        n=n,
        m=m,
        d=space.dimension,
        lambda_rs=[r.lam for r in team.members],
        ids=space.ids,
    )
    index.build_io.add_write(written)
    return index

