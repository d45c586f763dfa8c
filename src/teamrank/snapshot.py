"""Content-addressed snapshots of a parsed object file.

``dataio.load_objects_and_rosters`` keeps the arrays of each successful
parse in the directory it is given, as ``<key>.space``, and a later call
over the same bytes loads them instead of parsing the text again. The key
(:func:`snapshot_key`) is the sha256 of the snapshot format version, the
parse settings (the manifest, the csv cell limit) and the file's bytes, so
an edited file, another manifest or another format version looks up
another name and never finds an old snapshot. Deleting a snapshot is always
safe: the next load parses the file and writes it again.

On-disk layout, one file per key, little endian:

    header (96 bytes):
        magic          8s   b"TRSPACE1"
        version        u16  1
        (padding)      6x
        record_count   u64  n
        dimension      u32  d
        team_count     u32  t
        id_chars       u32  characters per id (the numpy ``<U`` width)
        label_chars    u32  characters per label
        team_chars     u32  characters per team name
        crc            u32  zlib.crc32 of every byte after this field
        key            16s  the key's raw bytes
        digest         32s  the raw bytes of ``ObjectSpace.digest()``

    body, in this order:
        attrs          n * d  f8
        lambdas        n      f8
        id_order       n      i8   ``ObjectSpace.id_order()``
        members        n      i8   row positions grouped by team, file order within a team
        offsets        t + 1  i8   team j's rows are members[offsets[j]:offsets[j + 1]]
        ids            n      <U{id_chars}
        labels         n      <U{label_chars}
        teams          t      <U{team_chars}  team names in order of first appearance

The id order and the digest are pure functions of the arrays; storing them
spares a hit the sort and the hash. A snapshot is written to a temporary
file in the same directory, whose name does not end in ``.space``, and
renamed into place. :func:`load_snapshot` returns None for a snapshot that
is missing or that it cannot use (another magic, version, key or
dimension, a size that does not match the header, a CRC that does not
match, or arrays that do not make a valid space), and the caller parses the
file and writes the snapshot again.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .core import ObjectSpace
from .errors import TeamRankError

__all__ = ["snapshot_key", "snapshot_path", "load_snapshot", "save_snapshot"]

MAGIC = b"TRSPACE1"
VERSION = 1
HEADER = struct.Struct("<8sH6xQIIIIII16s32s")
CRC_END = 48  # the CRC covers the key, the digest and the body


def snapshot_key(raw, settings: str) -> str:
    """32-hex-char key of a file's bytes ``raw`` under the parse ``settings``."""
    h = hashlib.sha256()
    h.update(b"teamrank-space-snapshot\x00%d\x00" % VERSION)
    h.update(settings.encode() + b"\x00")
    h.update(raw)
    return h.hexdigest()[:32]


def snapshot_path(directory, key: str) -> Path:
    """Where the snapshot with ``key`` lives inside ``directory``."""
    return Path(directory) / f"{key}.space"


def _body(n, d, t, id_chars, label_chars, team_chars) -> list[tuple[np.dtype, tuple]]:
    """(dtype, shape) of each body array, in file order."""
    return [
        (np.dtype("<f8"), (n, d)),
        (np.dtype("<f8"), (n,)),
        (np.dtype("<i8"), (n,)),
        (np.dtype("<i8"), (n,)),
        (np.dtype("<i8"), (t + 1,)),
        (np.dtype(f"<U{id_chars}"), (n,)),
        (np.dtype(f"<U{label_chars}"), (n,)),
        (np.dtype(f"<U{team_chars}"), (t,)),
    ]


def load_snapshot(directory, key: str, attribute_names):
    """The space and the team grouping ``(teams, offsets, members)`` stored under ``key``, or None."""
    try:
        with open(snapshot_path(directory, key), "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    if len(raw) < HEADER.size:
        return None
    magic, version, n, d, t, id_chars, label_chars, team_chars, crc, stored_key, digest = HEADER.unpack_from(raw)
    if (magic, version, stored_key) != (MAGIC, VERSION, bytes.fromhex(key)):
        return None
    if d != len(attribute_names) or min(n, t, id_chars, label_chars, team_chars) < 1:
        return None
    layout = _body(n, d, t, id_chars, label_chars, team_chars)
    if len(raw) != HEADER.size + sum(dtype.itemsize * int(np.prod(shape)) for dtype, shape in layout):
        return None
    if zlib.crc32(memoryview(raw)[CRC_END:]) != crc:
        return None
    arrays, offset = [], HEADER.size
    for dtype, shape in layout:
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape))
        offset += dtype.itemsize * count
    attrs, lambdas, id_order, members, offsets, ids, labels, teams = arrays
    if offsets[0] != 0 or offsets[-1] != n or (np.diff(offsets) < 0).any():
        return None
    if members.min() < 0 or members.max() >= n:
        return None
    try:
        space = ObjectSpace(
            ids, lambdas, attrs, attribute_names, labels, id_order=id_order, digest=digest.hex()
        )
    except TeamRankError:
        return None
    return space, (teams, offsets, members)


def save_snapshot(directory, key: str, space: ObjectSpace, teams, offsets, members) -> None:
    """Store ``space`` and its team grouping under ``key``; a snapshot that cannot be written is skipped."""
    teams = np.asarray(teams, dtype=np.str_)
    widths = [a.dtype.itemsize // 4 for a in (space.ids, space.labels, teams)]
    layout = _body(len(space), space.dimension, len(teams), *widths)
    arrays = [space.attrs, space.lambdas, space.id_order(), members, offsets, space.ids, space.labels, teams]
    arrays = [np.ascontiguousarray(a, dtype=dtype) for a, (dtype, _) in zip(arrays, layout)]
    header = bytearray(HEADER.pack(
        MAGIC, VERSION, len(space), space.dimension, len(teams), *widths,
        0, bytes.fromhex(key), bytes.fromhex(space.digest()),
    ))
    crc = zlib.crc32(header[CRC_END:])
    for a in arrays:
        crc = zlib.crc32(a.reshape(-1).view(np.uint8), crc)
    struct.pack_into("<I", header, CRC_END - 4, crc)
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        # the temporary name does not end in .space, so no reader mistakes it for a snapshot
        fd, tmp = tempfile.mkstemp(prefix=f".{key}.", suffix=".tmp", dir=directory)
    except OSError:
        return
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for a in arrays:
                fh.write(a.data)
        os.replace(tmp, snapshot_path(directory, key))
    except OSError:
        os.unlink(tmp)
