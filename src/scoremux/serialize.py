"""Little-endian binary framing shared by checkpoint, adapter, and module files.

Layout convention: magic bytes, u16 format version, payload, then a CRC32
trailer computed over every preceding byte (magic included). A `Reader` checks
the whole frame when it is built, before any field is read: the length, the
magic, the version, then the CRC32 over the whole image. A corrupt or cut-short
image therefore fails as BadMagicError, VersionMismatchError or ChecksumError
(a cut-short image's last 4 bytes are not its CRC) and never reaches a field
parser. TruncatedFileError is left for an image shorter than its magic,
version and trailer, and for a field that runs past the end of a
checksum-valid image (a writer bug).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import (
    BadMagicError,
    ChecksumError,
    FileFormatError,
    TruncatedFileError,
    VersionMismatchError,
)


class Writer:
    def __init__(self, magic: bytes, version: int):
        self._buf = bytearray(magic)
        self.u16(version)

    def u8(self, v: int) -> None:
        self._buf += struct.pack("<B", v)

    def u16(self, v: int) -> None:
        self._buf += struct.pack("<H", v)

    def u32(self, v: int) -> None:
        self._buf += struct.pack("<I", v)

    def u64(self, v: int) -> None:
        self._buf += struct.pack("<Q", v)

    def f64(self, v: float) -> None:
        self._buf += struct.pack("<d", v)

    def str16(self, s: str) -> None:
        raw = s.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValueError("string too long for u16 length prefix")
        self.u16(len(raw))
        self._buf += raw

    def array(self, arr: np.ndarray, dtype: str) -> None:
        """Raw row-major scalars; dtype is '<f4' or '<f8'."""
        self._buf += np.ascontiguousarray(arr, dtype=dtype).tobytes()

    def finish(self) -> bytes:
        crc = zlib.crc32(bytes(self._buf)) & 0xFFFFFFFF
        return bytes(self._buf) + struct.pack("<I", crc)


class Reader:
    def __init__(self, data: bytes, magic: bytes, version: int):
        """Check length, magic, version and the CRC32 over the whole image, in that order."""
        if len(data) < len(magic) + 2 + 4:
            raise TruncatedFileError(f"file too short ({len(data)} bytes)")
        if data[: len(magic)] != magic:
            raise BadMagicError(f"expected magic {magic!r}, found {data[:len(magic)]!r}")
        got = struct.unpack_from("<H", data, len(magic))[0]
        if got != version:
            raise VersionMismatchError(f"unsupported format version {got} (expected {version})")
        self._end = len(data) - 4  # CRC trailer excluded from payload reads
        stored = struct.unpack_from("<I", data, self._end)[0]
        actual = zlib.crc32(memoryview(data)[: self._end]) & 0xFFFFFFFF
        if stored != actual:
            raise ChecksumError(f"CRC mismatch: stored {stored:#010x}, computed {actual:#010x}")
        self._data = data
        self._pos = len(magic) + 2

    def _take(self, n: int) -> bytes:
        if self._pos + n > self._end:
            raise TruncatedFileError(
                f"need {n} bytes at offset {self._pos}, payload ends at {self._end}"
            )
        chunk = self._data[self._pos : self._pos + n]
        self._pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self._take(8))[0]

    def str16(self) -> str:
        n = self.u16()
        raw = self._take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise FileFormatError("invalid UTF-8 in string field")

    def array(self, count: int, dtype: str) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        return np.frombuffer(self._take(count * itemsize), dtype=dtype).copy()

    def finish(self) -> None:
        """Refuse payload bytes that no field read."""
        if self._pos != self._end:
            raise FileFormatError(f"{self._end - self._pos} unparsed payload bytes")
