"""Checkpoint file format: checksum, roundtrip, and corruption detection."""

import hashlib
import struct

import numpy as np
import pytest

from oracles import crc32c_reference
from pancakes.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointError,
    SearchCheckpoint,
    crc32c,
    read_checkpoint,
    write_checkpoint,
)
from pancakes.graphs import GraphKind, PancakeGraph
from pancakes.search import layer_profile

LANE = 256  # bytes per lane of the vectorized CRC-32C


def make_checkpoint(kind=GraphKind.PLAIN, n=3):
    """A small self-consistent checkpoint: layers 0..1 done, 3 vertices seen."""
    words = (PancakeGraph(kind, n).size + 63) // 64
    visited = np.zeros(words, dtype=np.uint64)
    frontier = np.zeros(words, dtype=np.uint64)
    visited[0] = np.uint64(0b111)  # ranks 0, 1, 2
    frontier[0] = np.uint64(0b110)  # ranks 1, 2
    return SearchCheckpoint(kind, n, 1, (1, 2), visited, frontier)


def refix_crc(blob: bytes) -> bytes:
    """Recompute the trailing checksum after tampering with the body."""
    body = blob[:-4]
    return body + struct.pack("<I", crc32c(body))


class TestCrc32c:
    def test_check_value(self):
        # The standard check value for CRC-32C (Castagnoli).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty(self):
        assert crc32c(b"") == 0

    def test_incremental(self):
        whole = crc32c(b"pancake graphs")
        part = crc32c(b"pancake")
        assert crc32c(b" graphs", part) == whole

    def test_differs_from_zlib_crc32(self):
        import zlib

        assert crc32c(b"123456789") != zlib.crc32(b"123456789")

    @pytest.mark.parametrize("init", [0, 0xDEADBEEF])
    def test_matches_scalar_reference(self, init):
        # Lane boundaries, and 2**12 lanes: one whole block of the fold tree.
        lengths = [0, 1, LANE - 1, LANE, LANE + 1, 3 * LANE + 1]
        for j in (1, 2, 5, 12, 13):
            lengths += [2**j * LANE - 1, 2**j * LANE + 1]
        data = np.random.default_rng(7).integers(0, 256, max(lengths), dtype=np.uint8).tobytes()
        expected, done = init, 0
        for length in sorted(lengths):
            expected = crc32c_reference(data[done:length], expected)
            done = length
            assert crc32c(data[:length], init) == expected, length

    @pytest.mark.parametrize("offset", range(4))
    def test_word_steps_match_byte_loop_at_any_alignment(self, offset):
        # views starting 1-3 bytes into the buffer put every 4-byte word of
        # the lanes off its natural alignment
        lengths = [0, 1, LANE - 1, LANE, LANE + 1, (1 << 20) - 1, (1 << 20) + 513]
        raw = np.random.default_rng(11).integers(0, 256, offset + max(lengths), dtype=np.uint8)
        view = memoryview(raw.tobytes())[offset:]
        expected, done = 0x9E3779B9, 0
        for length in lengths:
            expected = crc32c_reference(view[done:length], expected)
            done = length
            assert crc32c(view[:length], 0x9E3779B9) == expected, length
        # the same bytes checksummed piece by piece, each piece from the end
        # of the one before
        crc = 0x9E3779B9
        for lo, hi in zip(lengths, lengths[1:]):
            crc = crc32c(view[lo:hi], crc)
        assert crc == expected

    def test_accepts_any_contiguous_buffer(self):
        words = np.random.default_rng(3).integers(0, 2**63, 1000, dtype=np.uint64)
        raw = words.tobytes()
        expected = crc32c_reference(raw, 0xDEADBEEF)
        for data in (raw, bytearray(raw), memoryview(raw), words):
            assert crc32c(data, 0xDEADBEEF) == expected, type(data)

    @pytest.mark.parametrize("length", [10, 300])
    def test_rejects_crc_wider_than_32_bits(self, length):
        with pytest.raises(ValueError, match="32-bit"):
            crc32c(b"x" * length, 2**33)

    def test_golden_values_of_byte_loop(self):
        # Values of the byte-at-a-time loop, over 4099 lanes: two blocks.
        data = bytes(range(256)) * 4099
        assert crc32c(data) == 0xCBFF5B50
        assert crc32c(data, 0x12345678) == 0xFEB17E2E


class TestFileBytes:
    """Files written by ``layer_profile`` stay byte-identical to format v1 as
    first released; any change to layout or checksum shows here."""

    @pytest.mark.parametrize(
        "kind, n, max_layer, size, digest",
        [
            (GraphKind.PLAIN, 7, 3, 1318,
             "30b50f1061f5a50f145d031c4bafa4b1de38ed4a0cf02d868d29a6226787fc71"),
            (GraphKind.BURNT, 5, 4, 1022,
             "c4c9d00e79b16540fd0deb67b3f86b1ea76cef6923d395505cec3cebc3e81293"),
        ],
    )
    def test_golden_file(self, tmp_path, kind, n, max_layer, size, digest):
        path = tmp_path / "golden.ckpt"
        layer_profile(PancakeGraph(kind, n), checkpoint_path=path, max_layer=max_layer)
        blob = path.read_bytes()
        assert CHECKPOINT_VERSION == 1
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == digest


class TestRoundtrip:
    def test_plain(self, tmp_path):
        cp = make_checkpoint()
        path = tmp_path / "plain.ckpt"
        write_checkpoint(path, cp)
        got = read_checkpoint(path)
        assert got.kind is GraphKind.PLAIN
        assert got.n == 3
        assert got.completed_layer == 1
        assert got.counts == (1, 2)
        assert np.array_equal(got.visited, cp.visited)
        assert np.array_equal(got.frontier, cp.frontier)
        assert not got.terminal

    def test_burnt_multiword(self, tmp_path):
        kind, n = GraphKind.BURNT, 3  # 48 vertices, still 1 word
        words = (PancakeGraph(kind, n).size + 63) // 64
        visited = np.zeros(words, dtype=np.uint64)
        frontier = np.zeros(words, dtype=np.uint64)
        visited[0] = np.uint64((1 << 4) - 1)
        frontier[0] = np.uint64(0b1000)
        cp = SearchCheckpoint(kind, n, 2, (1, 1, 2), visited, frontier)
        path = tmp_path / "burnt.ckpt"
        write_checkpoint(path, cp)
        got = read_checkpoint(path)
        assert (got.kind, got.n, got.counts) == (kind, 3, (1, 1, 2))

    def test_terminal_flag(self, tmp_path):
        words = (PancakeGraph(GraphKind.PLAIN, 3).size + 63) // 64
        visited = np.full(words, np.uint64(0x3F), dtype=np.uint64)  # all 6 ranks
        frontier = np.zeros(words, dtype=np.uint64)
        cp = SearchCheckpoint(GraphKind.PLAIN, 3, 3, (1, 2, 2, 1), visited, frontier)
        path = tmp_path / "done.ckpt"
        write_checkpoint(path, cp)
        assert read_checkpoint(path).terminal

    def test_graph_property(self):
        cp = make_checkpoint()
        assert cp.graph == PancakeGraph(GraphKind.PLAIN, 3)

    def test_no_stray_tmp_file(self, tmp_path):
        path = tmp_path / "clean.ckpt"
        write_checkpoint(path, make_checkpoint())
        assert [p.name for p in tmp_path.iterdir()] == ["clean.ckpt"]

    def test_wrong_word_count_rejected_on_write(self, tmp_path):
        cp = make_checkpoint()
        bad = SearchCheckpoint(
            cp.kind, cp.n, cp.completed_layer, cp.counts, cp.visited, cp.frontier[:0]
        )
        with pytest.raises(CheckpointError, match="words"):
            write_checkpoint(tmp_path / "bad.ckpt", bad)


class TestCorruptionDetection:
    @pytest.fixture
    def blob(self, tmp_path):
        path = tmp_path / "base.ckpt"
        write_checkpoint(path, make_checkpoint())
        return path.read_bytes()

    def write_blob(self, tmp_path, blob):
        path = tmp_path / "tampered.ckpt"
        path.write_bytes(blob)
        return path

    def test_flipped_byte_fails_checksum(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[len(tampered) // 2] ^= 0xFF
        path = self.write_blob(tmp_path, bytes(tampered))
        with pytest.raises(CheckpointError, match="checksum"):
            read_checkpoint(path)

    def test_truncated_file(self, tmp_path, blob):
        path = self.write_blob(tmp_path, blob[:10])
        with pytest.raises(CheckpointError, match="truncated"):
            read_checkpoint(path)

    def test_truncated_body_fails_checksum(self, tmp_path, blob):
        path = self.write_blob(tmp_path, blob[:-12])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_bad_magic(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[0:4] = b"NOPE"
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="magic"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path, blob):
        tampered = bytearray(blob)
        struct.pack_into("<I", tampered, 4, CHECKPOINT_VERSION + 1)
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="version"):
            read_checkpoint(path)

    def test_unknown_kind_code(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[8] = 7
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="kind"):
            read_checkpoint(path)

    def test_mismatched_n_changes_expected_length(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[9] = 6  # claims n=6 (720 vertices) but arrays are n=3 sized
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="length"):
            read_checkpoint(path)

    def test_header_claiming_huge_n_is_rejected_by_length(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[9] = 20  # plain n = 20: 2.4e18 vertices; must never be allocated
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="length"):
            read_checkpoint(path)

    def test_header_n_out_of_range(self, tmp_path, blob):
        tampered = bytearray(blob)
        tampered[9] = 0
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="graph size"):
            read_checkpoint(path)

    def test_inconsistent_completed_layer(self, tmp_path, blob):
        tampered = bytearray(blob)
        struct.pack_into("<I", tampered, 10, 9)
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="completed_layer"):
            read_checkpoint(path)

    def test_counts_must_match_visited_popcount(self, tmp_path, blob):
        tampered = bytearray(blob)
        header_size = struct.calcsize("<4sIBBII")
        struct.pack_into("<Q", tampered, header_size, 5)  # counts[0]: 1 -> 5
        path = self.write_blob(tmp_path, refix_crc(bytes(tampered)))
        with pytest.raises(CheckpointError, match="popcount"):
            read_checkpoint(path)

    def test_magic_constant(self, blob):
        assert blob[:4] == CHECKPOINT_MAGIC == b"PKLS"
