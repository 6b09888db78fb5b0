"""Binary serialization of a built index, format version 7.

Layout (all integers little-endian):

  header   magic "FBFMIDX1", u16 version, u8 variant, u8 rrr block size
           (0 for plain backends), u64 n, u32 sigma, u64 block size
           (0 for ssa variants, which are one block of n symbols), u32
           block count
  sections each prefixed with its u32 byte length, in order: remap,
           c array, codebooks (every tree's code lengths), payload (every
           tree's bit count, then the trees' one bitvector as stored) and
           checksum, the zlib.crc32 of every byte before it: five
           sections, whatever the block count

This module owns the header, the framing, remap, c array and checksum; the
trees write and parse the codebooks and payload sections, each whole
(wavelet, bitrank). A file holds only what cannot be recomputed: codes,
rank directories, RRR samples and boundary rows are derived at load by
the code that derives them at build. Deserialization rejects every other
version (1, 2, 4, 5 and 6 are earlier layouts; 3 was never written),
checks the framing, remap, c array and checksum before it parses any
tree, then checks the c array's symbol counts against the trees' leaf
sizes, which the tree read sums (rank_l at n reads them, with no rank); a
loaded index answers queries identically to the index that was saved.
"""

import struct
import zlib

from .bitrank import RRR_BLOCK_SIZES
from .fmindex import BlockedFMIndex, IndexVariant
from .wavelet import read_trees

MAGIC = b"FBFMIDX1"
VERSION = 7

_HEADER = struct.Struct("<8sHBBQIQI")
_U32 = struct.Struct("<I")
_VARIANT_CODES = {v: i for i, v in enumerate(IndexVariant)}
_VARIANTS = list(IndexVariant)
_SECTIONS = ("remap", "c array", "codebooks", "payload", "checksum")


class UnsupportedFormatError(ValueError):
    pass


class CorruptIndexError(ValueError):
    pass


def _corrupt(check):
    raise CorruptIndexError(f"corrupt index: {check}")


def serialize(index, sink):
    """Write the index to a binary sink; returns the number of bytes written."""
    variant = index.variant
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _VARIANT_CODES[variant],
        index.rrr_block_size,
        index.n,
        index.sigma,
        index.block_size if variant.fixed else 0,
        len(index.blocks),
    )
    sections = [bytes(index.byte_for_code), struct.pack(f"<{index.sigma + 1}Q", *index.c), *index.blocks.sections()]
    chunks = [header]
    for body in sections:
        chunks += [struct.pack("<I", len(body)), body]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    chunks += [struct.pack("<I", 4), struct.pack("<I", crc)]
    written = 0
    try:
        for chunk in chunks:
            sink.write(chunk)
            written += len(chunk)
    except OSError as exc:
        raise OSError(f"index write failed after {written} bytes: {exc}") from exc
    return written


def _sections(data):
    """Every section body after the header, as a view of data, and where the checksum section starts.

    A section that is missing or truncated is named (_SECTIONS). Bytes
    after the checksum section are trailing data.
    """
    view, at, size = memoryview(data), _HEADER.size, len(data)
    bodies = []
    for name in _SECTIONS:
        start = at + 4
        if start > size:
            _corrupt(f"missing {name} section")
        at = start + _U32.unpack_from(data, start - 4)[0]
        if at > size:
            _corrupt(f"truncated {name} section")
        bodies.append(view[start:at])
    if at != size:
        _corrupt("trailing data")
    return bodies, start - 4


def deserialize(source):
    """Read an index back from bytes or a binary file object."""
    data = source.read() if hasattr(source, "read") else bytes(source)
    if len(data) < _HEADER.size:
        _corrupt("truncated header")
    magic, version, vcode, rrr_t, n, sigma, block_size, block_count = _HEADER.unpack_from(
        data, 0
    )
    if magic != MAGIC:
        raise UnsupportedFormatError("unsupported format: bad magic")
    if version != VERSION:
        raise UnsupportedFormatError(f"unsupported format: version {version}")
    if vcode >= len(_VARIANTS):
        _corrupt("variant")
    variant = _VARIANTS[vcode]
    if n < 1 or not 2 <= sigma <= 257:
        _corrupt("header ranges")
    if not (rrr_t in RRR_BLOCK_SIZES if variant.bitvector_backend == "rrr" else rrr_t == 0):
        _corrupt("rrr block size")
    if not variant.fixed:
        # an ssa index is one block of n symbols, stored as block size 0
        if block_size != 0:
            _corrupt("block count")
        block_size = n
    if block_size < 1 or block_count != (n + block_size - 1) // block_size:
        _corrupt("block count")

    (remap, c_body, codebooks, payload, crc_body), checked = _sections(data)

    if len(remap) != sigma - 1 or list(remap) != sorted(set(remap)):
        _corrupt("remap")
    if len(c_body) != 8 * (sigma + 1):
        _corrupt("c_array length")
    c = list(struct.unpack(f"<{sigma + 1}Q", c_body))
    if c[0] != 0 or c[sigma] != n or any(a > b for a, b in zip(c, c[1:])):
        _corrupt("c_array")
    if c[1] - c[0] != 1:
        _corrupt("sentinel count")
    if crc_body != struct.pack("<I", zlib.crc32(memoryview(data)[:checked])):
        _corrupt("checksum")

    try:
        blocks = read_trees(codebooks, payload, n, block_size, sigma, rrr_t)
    except (ValueError, EOFError) as exc:
        _corrupt(exc)

    index = BlockedFMIndex(variant, n, sigma, c, blocks, block_size, remap, rrr_t)
    # rank_l at n is each symbol's total of leaf sizes, which _read summed
    for code in range(sigma):
        if index.rank_l(code, n) != c[code + 1] - c[code]:
            _corrupt("symbol counts")
    return index


def save_index(index, path):
    with open(path, "wb") as fh:
        return serialize(index, fh)


def load_index(path):
    try:
        with open(path, "rb") as fh:
            return deserialize(fh)
    except OSError as exc:
        raise OSError(f"cannot read index file {path!r}: {exc}") from exc
