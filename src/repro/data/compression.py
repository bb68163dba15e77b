"""Lightweight columnar compression for chunk storage.

The YET's columns are extremely compressible — the ``trial`` column is
sorted (delta-encodes to almost all zeros) and the ``seq`` column is a
sawtooth — and at paper scale (§II's 5×10¹⁰-row YELTs) the difference
between the YET's 12 bytes/row (three int32 columns) and ~3 bytes/row
decides whether the working set fits "large but not enormous" memory
(§III).  Two classic codecs:

- **delta + zigzag + varint** for integer columns of any width, decoded
  back to the stored dtype (sorted keys compress to ~1 byte/row);
- raw little-endian passthrough for floats (loss values are incompressible
  noise; honesty beats a wasted pass).

The codecs are self-describing and exact (lossless round-trip is
property-tested).

**Not on a read path.**  Nothing that prices reads through these
codecs: the chunk store keeps its chunks raw, and the codec exists for
the paper's compression experiment (E12).  It buys its ratio with
time — 1 M YET rows pack to 4.84 MB (2.5× below raw) but take ≈ 0.5 s
to pack and ≈ 1.5 s to unpack on a 2-vCPU x86 host, against ≈ 7 ms to
read them raw — so at 10⁹ occurrences decoding would take minutes
where the disk reads take seconds.  A sorted trial column compresses
exactly as run lengths (per-trial counts), which decode with one
``np.repeat``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.data.columnar import ColumnTable
from repro.data.schema import Schema
from repro.errors import StorageError

__all__ = ["encode_column", "decode_column", "pack_table_compressed",
           "unpack_table_compressed", "compression_ratio"]

_MAGIC = b"RPC1"  # repro packed compressed, version 1


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed deltas to unsigned (0,-1,1,-2 -> 0,1,2,3)."""
    return ((values << 1) ^ (values >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    return ((values >> 1).astype(np.int64)) ^ -(values & 1).astype(np.int64)


def _varint_encode(values: np.ndarray) -> bytes:
    """LEB128 encode an array of uint64."""
    out = bytearray()
    for v in values.tolist():
        while True:
            byte = v & 0x7F
            v >>= 7
            if v:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
    return bytes(out)


def _varint_decode(data: bytes, count: int) -> np.ndarray:
    out = np.empty(count, dtype=np.uint64)
    pos = 0
    for i in range(count):
        shift = 0
        acc = 0
        while True:
            if pos >= len(data):
                raise StorageError("truncated varint stream")
            byte = data[pos]
            pos += 1
            acc |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        out[i] = acc
    if pos != len(data):
        raise StorageError("trailing bytes in varint stream")
    return out


def encode_column(values: np.ndarray) -> tuple[str, bytes]:
    """Encode one column; returns ``(codec_name, payload)``."""
    if np.issubdtype(values.dtype, np.integer):
        as64 = values.astype(np.int64)
        deltas = np.diff(as64, prepend=as64[:1] if as64.size else np.int64(0))
        if as64.size:
            deltas[0] = as64[0]
        return "delta-varint", _varint_encode(_zigzag(deltas))
    return "raw", np.ascontiguousarray(values).tobytes()


def decode_column(codec: str, payload: bytes, dtype: np.dtype,
                  count: int) -> np.ndarray:
    """Inverse of :func:`encode_column`."""
    if codec == "delta-varint":
        deltas = _unzigzag(_varint_decode(payload, count))
        return np.cumsum(deltas).astype(dtype) if count else np.zeros(0, dtype)
    if codec == "raw":
        expected = count * dtype.itemsize
        if len(payload) != expected:
            raise StorageError(
                f"raw column payload is {len(payload)} B, expected {expected}"
            )
        return np.frombuffer(payload, dtype=dtype).copy()
    raise StorageError(f"unknown codec {codec!r}")


def pack_table_compressed(table: ColumnTable) -> bytes:
    """Serialise a table with per-column compression (self-describing)."""
    import json

    columns = []
    payloads = []
    for f in table.schema:
        codec, payload = encode_column(table[f.name])
        columns.append([f.name, f.dtype.str, codec, len(payload)])
        payloads.append(payload)
    header = {"columns": columns, "n_rows": table.n_rows}
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return (_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
            + b"".join(payloads))


def unpack_table_compressed(data: bytes) -> ColumnTable:
    """Inverse of :func:`pack_table_compressed`."""
    import json

    if len(data) < 8 or data[:4] != _MAGIC:
        raise StorageError("not a compressed packed table (bad magic)")
    (header_len,) = struct.unpack("<I", data[4:8])
    header_end = 8 + header_len
    try:
        header = json.loads(data[8:header_end].decode())
        n_rows = int(header["n_rows"])
        columns = header["columns"]
    except (ValueError, KeyError) as exc:
        raise StorageError(f"corrupt compressed header: {exc}") from exc
    fields = [(name, np.dtype(dt)) for name, dt, _, _ in columns]
    schema = Schema(fields)
    out = {}
    pos = header_end
    for name, dt, codec, length in columns:
        payload = data[pos:pos + length]
        if len(payload) != length:
            raise StorageError("truncated compressed column payload")
        out[name] = decode_column(codec, payload, np.dtype(dt), n_rows)
        pos += length
    if pos != len(data):
        raise StorageError("trailing bytes after compressed columns")
    return ColumnTable(schema, out)


def compression_ratio(table: ColumnTable) -> float:
    """Uncompressed payload bytes over compressed bytes."""
    compressed = len(pack_table_compressed(table))
    return table.nbytes / compressed if compressed else float("inf")
