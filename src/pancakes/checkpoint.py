"""Resumable search checkpoints.

File layout (all little-endian): magic ``PKLS``, format version u32, graph
kind u8 (0 = plain, 1 = burnt), n u8, completed_layer u32, layer count u32,
that many u64 layer counts, the visited bit array (ceil(size/64) u64 words,
bit b of word w addressing rank 64w+b), the frontier bit array in the same
layout, and a trailing CRC-32C over all preceding bytes.

Writes go through a temp file and ``os.replace`` so a crash never leaves a
half-written checkpoint in place; corruption is detected by length and
checksum on read. Both directions stream the pieces straight between the
file and the arrays, updating the checksum piece by piece, so no copy of the
whole payload is built.

The CRC-32C is the table CRC, vectorized with NumPy: a buffer is cut into
lanes of 256 bytes, and the table step runs over one 4-byte word column of
all lanes at once, each lane starting from a zero register (the first from
the running one). A word step XORs the little-endian word into the register
and advances it over those 4 bytes with two lookups in 2**16-entry tables,
one per register half, where the byte loop would take four single-byte
steps. The CRC is linear, so the lane registers are then folded pairwise
with precomputed "append 256 * 2**j zero bytes" operators, each stored as
four 256-entry tables, one per register byte. All these tables are built on
the first call that needs them. Bytes after the last whole lane go through
the plain byte loop, whose result the fast path reproduces exactly.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass

import numpy as np

from .graphs import GraphKind, PancakeGraph
from .perms import PermError

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "SearchCheckpoint",
    "crc32c",
    "read_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_MAGIC = b"PKLS"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIBBII")
_CRC = struct.Struct("<I")


def _make_crc32c_table() -> tuple[int, ...]:
    poly = 0x82F63B78  # Castagnoli polynomial, reflected
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_CRC32C_TABLE = _make_crc32c_table()

_LANE = 256  # bytes per lane of the vectorized CRC
_MAX_LANES = 4096  # lanes per block, so 1 MiB of input is transposed at a time


def _append_zeros(op: np.ndarray, regs: np.ndarray) -> np.ndarray:
    """Apply a zero-append operator, stored as its 4x256 byte tables."""
    return (
        op[0][regs & 0xFF]
        ^ op[1][(regs >> 8) & 0xFF]
        ^ op[2][(regs >> 16) & 0xFF]
        ^ op[3][regs >> 24]
    )


@functools.cache
def _crc_tables() -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The word-step tables of the low and high register halves, and for
    j = 0..log2(_MAX_LANES)-1 the operator that appends _LANE * 2**j zero
    bytes to a raw CRC register."""
    # advancing a register over b zero bytes is linear in it; by_bytes[b]
    # maps the register's low byte to its image after b + 1 of those steps
    by_bytes = [np.array(_CRC32C_TABLE, dtype=np.uint32)]
    for _ in range(3):
        by_bytes.append(by_bytes[0][by_bytes[-1] & 0xFF] ^ (by_bytes[-1] >> 8))
    # after 4 steps register byte i has gone through 4 - i of them, so entry
    # 256 * b1 + b0 of the low table is the image of b0 and b1, and likewise
    # for bytes 2 and 3 in the high table
    low = (by_bytes[2][:, None] ^ by_bytes[3]).ravel()
    high = (by_bytes[0][:, None] ^ by_bytes[1]).ravel()
    regs = np.arange(256, dtype=np.uint32) << np.array([[0], [8], [16], [24]], dtype=np.uint32)
    for _ in range(_LANE // 4):
        regs = low[regs & 0xFFFF] ^ high[regs >> 16]
    ops = [regs]
    while len(ops) < _MAX_LANES.bit_length() - 1:
        ops.append(_append_zeros(ops[-1], ops[-1]))
    return low, high, tuple(ops)


def _crc_scratch(nbytes: int) -> tuple[int, int]:
    """Upper estimates of the bytes :func:`crc32c` allocates for a buffer of
    ``nbytes``: its tables, which stay cached once built, and the scratch of
    one call."""
    lanes = min(_MAX_LANES, nbytes // _LANE)
    if not lanes:
        return 0, 0  # the byte loop alone; no table is built
    # the two word tables, the 4x256 tables of each zero-append operator, and
    # under 32 KiB of scratch while the operators are built
    tables = 2 * 4 * (1 << 16) + (_MAX_LANES.bit_length() - 1) * 4 * 4 * 256 + (32 << 10)
    # per lane of a block: its 256 bytes transposed to word columns, and 28
    # bytes of registers (the lane and a table image as uint32, two intp
    # table indices, and the uint32 buffer a ufunc casts the lane through);
    # the fold after the columns are freed holds less
    return tables, lanes * (_LANE + 28)


def crc32c(data: bytes | bytearray | memoryview | np.ndarray, crc: int = 0) -> int:
    """CRC-32C (Castagnoli) checksum; check value crc32c(b"123456789") = 0xE3069283.

    ``data`` is any C-contiguous buffer and is read in place. ``crc`` is the
    checksum of the bytes before it, so pieces can be checksummed in turn.
    """
    if not 0 <= crc <= 0xFFFFFFFF:
        raise ValueError(f"crc must be a 32-bit checksum, got {crc:#x}")
    buf = np.frombuffer(memoryview(data).cast("B"), dtype=np.uint8)
    crc ^= 0xFFFFFFFF
    lanes_total = buf.size // _LANE
    if lanes_total:
        low, high, zero_ops = _crc_tables()
        reg = np.uint32(crc)
        for start in range(0, lanes_total, _MAX_LANES):
            k = min(_MAX_LANES, lanes_total - start)
            block = buf[start * _LANE : (start + k) * _LANE].reshape(k, _LANE)
            # row j holds word j of every lane, in native byte order
            columns = np.ascontiguousarray(block.view("<u4").T, dtype=np.uint32)
            lanes = np.zeros(k, dtype=np.uint32)
            lanes[0] = reg
            # intp indices and a mode other than "raise" (every index is in
            # range) let np.take write its output without a cast or a buffer
            low_half = np.empty(k, dtype=np.intp)
            high_half = np.empty(k, dtype=np.intp)
            high_image = np.empty(k, dtype=np.uint32)
            for j in range(_LANE // 4):
                lanes ^= columns[j]
                np.bitwise_and(lanes, 0xFFFF, out=low_half)
                np.right_shift(lanes, 16, out=high_half)
                np.take(high, high_half, out=high_image, mode="clip")
                np.take(low, low_half, out=lanes, mode="clip")
                lanes ^= high_image
            del columns, low_half, high_half, high_image
            # The CRC is linear: the register after the block is the XOR over
            # i of lane i's register advanced over the k-1-i lanes after it
            # as if they were zeros. Level j of the fold advances the left of
            # each pair by 2**j lanes; zero lanes in front pad k to a power of
            # two and add nothing.
            width = 1 << (k - 1).bit_length()
            regs = np.zeros(width, dtype=np.uint32)
            regs[width - k :] = lanes
            for op in zero_ops[: width.bit_length() - 1]:
                regs = _append_zeros(op, regs[0::2]) ^ regs[1::2]
            reg = regs[0]
        crc = int(reg)
    table = _CRC32C_TABLE
    for b in buf[lanes_total * _LANE :].tobytes():
        crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


class CheckpointError(ValueError):
    """Checkpoint file is corrupt, truncated, or incompatible."""


@dataclass(frozen=True, slots=True)
class SearchCheckpoint:
    """Search state after ``completed_layer`` finished layers."""

    kind: GraphKind
    n: int
    completed_layer: int
    counts: tuple[int, ...]
    visited: np.ndarray  # uint64 words
    frontier: np.ndarray  # uint64 words

    @property
    def graph(self) -> PancakeGraph:
        return PancakeGraph(self.kind, self.n)

    @property
    def terminal(self) -> bool:
        """True when the frontier is empty, i.e. the search already finished."""
        return not self.frontier.any()


def _expected_words(kind: GraphKind, n: int) -> int:
    return (PancakeGraph(kind, n).size + 63) // 64


def write_checkpoint(path: str | os.PathLike, cp: SearchCheckpoint) -> None:
    words = _expected_words(cp.kind, cp.n)
    if cp.visited.shape != (words,) or cp.frontier.shape != (words,):
        raise CheckpointError(
            f"bit arrays must have {words} words for kind={cp.kind} n={cp.n}"
        )
    pieces = (
        _HEADER.pack(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            int(cp.kind),
            cp.n,
            cp.completed_layer,
            len(cp.counts),
        ),
        np.asarray(cp.counts, dtype="<u8"),
        np.ascontiguousarray(cp.visited, dtype="<u8"),
        np.ascontiguousarray(cp.frontier, dtype="<u8"),
    )
    tmp = os.fspath(path) + ".tmp"
    crc = 0
    with open(tmp, "wb") as fh:
        for piece in pieces:
            view = memoryview(piece).cast("B")
            fh.write(view)
            crc = crc32c(view, crc)
        fh.write(_CRC.pack(crc))
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True, slots=True)
class _Header:
    """A checkpoint's header, checked against the file size."""

    raw: bytes
    kind: GraphKind
    n: int
    completed_layer: int
    layer_count: int
    words: int


def _read_header(fh) -> _Header:
    """Read and validate the header; ``fh`` is left at the layer counts."""
    size = os.fstat(fh.fileno()).st_size
    if size < _HEADER.size + _CRC.size:
        raise CheckpointError("checkpoint file truncated")
    raw = fh.read(_HEADER.size)
    magic, version, kind_code, n, completed_layer, layer_count = _HEADER.unpack(raw)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    try:
        kind = GraphKind(kind_code)
    except ValueError:
        raise CheckpointError(f"unknown graph kind code {kind_code}") from None
    try:
        words = _expected_words(kind, n)
    except PermError as exc:
        raise CheckpointError(f"bad graph size in header: {exc}") from None
    expected_len = _HEADER.size + 8 * layer_count + 16 * words
    if size - _CRC.size != expected_len:
        raise CheckpointError(
            f"checkpoint length {size - _CRC.size} does not match kind={kind} n={n} "
            f"with {layer_count} layers (expected {expected_len})"
        )
    return _Header(raw, kind, n, completed_layer, layer_count, words)


_SCAN_BYTES = 1 << 16  # frontier bytes read at a time by _peek_checkpoint


def _peek_checkpoint(path: str | os.PathLike) -> tuple[_Header, bool]:
    """The validated header, and whether the stored frontier is empty.

    The frontier is read in blocks of ``_SCAN_BYTES``, so no bit array is
    allocated. Nothing is checksummed: :func:`read_checkpoint` must still
    verify the file before anything read here is relied on.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        fh.seek(8 * (header.layer_count + header.words), os.SEEK_CUR)  # to the frontier
        remaining = 8 * header.words
        while remaining:
            block = fh.read(min(_SCAN_BYTES, remaining))
            if not block:
                raise CheckpointError("checkpoint file truncated")
            if block.count(0) != len(block):
                return header, False
            remaining -= len(block)
    return header, True


def read_checkpoint(path: str | os.PathLike) -> SearchCheckpoint:
    """Read and verify a checkpoint.

    The header is checked against the file size before any bit array is
    allocated. The returned ``visited`` and ``frontier`` arrays are fresh and
    belong to the caller, who may update them in place.
    """
    with open(path, "rb") as fh:
        header = _read_header(fh)
        crc = crc32c(header.raw)
        counts = np.empty(header.layer_count, dtype="<u8")
        visited = np.empty(header.words, dtype="<u8")
        frontier = np.empty(header.words, dtype="<u8")
        for array in (counts, visited, frontier):
            view = memoryview(array).cast("B")
            if fh.readinto(view) != len(view):
                raise CheckpointError("checkpoint file truncated")
            crc = crc32c(view, crc)
        trailer = fh.read(_CRC.size)
    if len(trailer) != _CRC.size:
        raise CheckpointError("checkpoint file truncated")
    if crc != _CRC.unpack(trailer)[0]:
        raise CheckpointError("checkpoint checksum mismatch")
    if header.completed_layer != header.layer_count - 1:
        raise CheckpointError(
            f"completed_layer {header.completed_layer} inconsistent with "
            f"{header.layer_count} layer counts"
        )
    counts = tuple(counts.tolist())
    visited = visited.astype(np.uint64, copy=False)
    if int(np.bitwise_count(visited).sum()) != sum(counts):
        raise CheckpointError("visited popcount does not equal the sum of layer counts")
    return SearchCheckpoint(
        header.kind,
        header.n,
        header.completed_layer,
        counts,
        visited,
        frontier.astype(np.uint64, copy=False),
    )
