"""Binary serialization of a built index, format version 2.

Layout (all integers little-endian):

  header   magic "FBFMIDX1", u16 version, u8 variant, u8 rrr block size
           (0 for plain backends), u64 n, u32 sigma, u64 block size
           (0 for ssa variants, which are one block of n symbols), u32
           block count
  sections each prefixed with its u32 byte length, in order: remap,
           c array, then per block a codebook section and a node payload
           section, and last a checksum section holding the zlib.crc32 of
           every byte before it

A file holds only what cannot be recomputed. Rank directories, RRR samples
and boundary rows are derived at load by the same code that derives them at
build, so the file is smaller than the in-memory size report. Bitstreams
are LSB-first within bytes and sections are padded to whole bytes.
Deserialization rejects other versions, checks the framing, remap, c array
and checksum before it parses any tree, then checks the symbol counts; a
loaded index answers queries identically to the index that was saved.
"""

import math
import struct
import zlib

import numpy as np

from .bitio import BitReader, BitWriter, as_words, read_fields
from .bitrank import PlainBitVector, RrrBitVector, offset_widths
from .fmindex import BlockedFMIndex, IndexVariant
from .wavelet import WaveletTree

MAGIC = b"FBFMIDX1"
VERSION = 2

_HEADER = struct.Struct("<8sHBBQIQI")
_VARIANT_CODES = {v: i for i, v in enumerate(IndexVariant)}
_VARIANTS = list(IndexVariant)


class UnsupportedFormatError(ValueError):
    pass


class CorruptIndexError(ValueError):
    pass


def _corrupt(check):
    raise CorruptIndexError(f"corrupt index: {check}")


def _block_lengths(n, block_size, block_count):
    out = [block_size] * (block_count - 1)
    out.append(n - block_size * (block_count - 1))
    return out


def _codebook_section(wt):
    head = bytearray(struct.pack("<H", len(wt.codes)))
    bits = BitWriter()
    for sym in sorted(wt.codes):
        length, code = wt.codes[sym]
        head += struct.pack("<HB", sym, length)
        bits.write(code, length)
    return bytes(head) + bits.getvalue()


def _node_bits(bv):
    """A node's payload as a uint8 array of bits: the plain bits, or the RRR
    class fields followed by the offset fields."""
    if bv.backend == "plain":
        return bv.to_bits()
    wc = bv.class_field_width
    ks = np.asarray(bv.block_classes(), dtype=np.int64)
    classes = ((ks[:, None] >> np.arange(wc)) & 1).astype(np.uint8).ravel()
    buf, base, nbits = bv.offset_stream()
    first = base >> 3
    packed = np.frombuffer(buf, dtype=np.uint8)[first : (base + nbits + 7) >> 3]
    offsets = np.unpackbits(packed, bitorder="little")[base - 8 * first :][:nbits]
    return np.concatenate([classes, offsets])


def _payload_section(wt):
    if not wt.nodes:
        return b""
    bits = np.concatenate([_node_bits(bv) for bv in wt.nodes])
    return np.packbits(bits, bitorder="little").tobytes()


def serialize(index, sink):
    """Write the index to a binary sink; returns the number of bytes written."""
    variant = index.variant
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        _VARIANT_CODES[variant],
        index.rrr_block_size if variant.bitvector_backend == "rrr" else 0,
        index.n,
        index.sigma,
        index.block_size if variant.fixed else 0,
        len(index.blocks),
    )
    sections = [bytes(index.byte_for_code)]
    sections.append(struct.pack(f"<{index.sigma + 1}Q", *index.c))
    for wt in index.blocks:
        sections.append(_codebook_section(wt))
        sections.append(_payload_section(wt))
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


class _SectionCursor:
    def __init__(self, data):
        self.data = data
        self.at = _HEADER.size

    def next(self, name):
        if self.at + 4 > len(self.data):
            _corrupt(f"missing {name} section")
        (length,) = struct.unpack_from("<I", self.data, self.at)
        start = self.at + 4
        if start + length > len(self.data):
            _corrupt(f"truncated {name} section")
        self.at = start + length
        return self.data[start : start + length]

    def finish(self):
        if self.at != len(self.data):
            _corrupt("trailing data")


def _parse_codebook(body, sigma):
    if len(body) < 2:
        _corrupt("codebook header")
    (sigma_local,) = struct.unpack_from("<H", body, 0)
    if sigma_local < 1:
        _corrupt("codebook alphabet size")
    head_len = 2 + 3 * sigma_local
    if len(body) < head_len:
        _corrupt("codebook entries")
    entries = []
    prev = -1
    for i in range(sigma_local):
        sym, length = struct.unpack_from("<HB", body, 2 + 3 * i)
        if sym <= prev or sym >= sigma:
            _corrupt("codebook symbols")
        if (length == 0) != (sigma_local == 1) or length > 64:
            _corrupt("codebook code lengths")
        entries.append((sym, length))
        prev = sym
    reader = BitReader(body[head_len:])
    codes = {}
    try:
        for sym, length in entries:
            codes[sym] = (length, reader.read(length))
    except EOFError:
        _corrupt("codebook bits")
    if len(body) - head_len - (reader.pos + 7) // 8 > 0:
        _corrupt("codebook length")
    return codes


def _load_tree(body, codes, m, backend, rrr_t, offsets, bit_base):
    """Rebuild a tree from its payload, one node's bits unpacked at a time.

    For an RRR tree, appends (bit position of the first offset field,
    classes) per node to `offsets`, the position counted from `bit_base`.
    """
    packed = np.frombuffer(body, dtype=np.uint8)
    pos = 0

    def take(nbits):
        nonlocal pos
        start, shift = pos >> 3, pos & 7
        end = (pos + nbits + 7) >> 3
        if end > len(packed):
            raise EOFError
        pos += nbits
        return np.unpackbits(packed[start:end], bitorder="little")[shift : shift + nbits]

    if backend == "rrr":
        widths = np.array(offset_widths(rrr_t))
        wc = rrr_t.bit_length()
        field = np.int64(1) << np.arange(wc, dtype=np.int64)

    def node_reader(nbits):
        nonlocal pos
        if backend == "plain":
            return PlainBitVector(take(nbits))
        nblocks = (nbits + rrr_t - 1) // rrr_t
        classes = take(nblocks * wc).reshape(nblocks, wc) @ field
        if nblocks and int(classes.max()) > rrr_t:
            _corrupt("rrr class out of range")
        offbits = int(widths[classes].sum())
        if pos + offbits > 8 * len(body):
            _corrupt("rrr offsets truncated")
        if nblocks:
            offsets.append((bit_base + pos, classes))
        bv = RrrBitVector.from_parts(nbits, rrr_t, classes, body, pos, offbits)
        pos += offbits
        return bv

    try:
        wt = WaveletTree.from_codebook(codes, m, node_reader)
    except EOFError:
        _corrupt("payload truncated")
    except CorruptIndexError:
        raise
    except ValueError as exc:
        _corrupt(f"codebook ({exc})")
    if len(body) - (pos + 7) // 8 > 0:
        _corrupt("payload length")
    return wt


def _check_offsets(payloads, offsets, t):
    """Reject an RRR offset field that is not below comb(t, class).

    `offsets` holds (bit position, classes) per node, the node's fields
    packed from that position of the joined `payloads` on. Nodes are checked
    in groups of about 2^15 fields, which keeps the temporaries in cache.
    """
    words = as_words(b"".join(payloads))
    widths = np.array(offset_widths(t))
    masks = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
    limits = np.array([math.comb(t, k) for k in range(t + 1)], dtype=np.uint64)
    first = 0
    while first < len(offsets):
        end, size = first, 0
        while end < len(offsets) and size < 1 << 15:
            size += len(offsets[end][1])
            end += 1
        group = offsets[first:end]
        classes = np.concatenate([ks for _, ks in group])
        counts = [len(ks) for _, ks in group]
        width = widths[classes]
        starts = np.cumsum(width)
        starts -= width
        node_first = np.cumsum(counts) - counts
        starts += np.repeat(np.array([at for at, _ in group]) - starts[node_first], counts)
        value = read_fields(words, starts)
        value &= masks[classes]
        if np.any(value >= limits[classes]):
            _corrupt("rrr offset out of range")
        first = end


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
    backend = variant.bitvector_backend
    if backend == "rrr":
        if not 1 <= rrr_t <= 63:
            _corrupt("rrr block size")
    elif rrr_t != 0:
        _corrupt("rrr block size")
    if not variant.fixed:
        # an ssa index is one block of n symbols, stored as block size 0
        if block_size != 0:
            _corrupt("block count")
        block_size = n
    if block_size < 1 or block_count != (n + block_size - 1) // block_size:
        _corrupt("block count")

    cursor = _SectionCursor(data)
    remap = cursor.next("remap")
    c_body = cursor.next("c array")
    trees = [
        (cursor.next(f"codebook {i}"), cursor.next(f"payload {i}"))
        for i in range(block_count)
    ]
    checked = cursor.at
    crc_body = cursor.next("checksum")
    cursor.finish()

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

    blocks = []
    offsets = []
    bit_base = 0
    for m, (codebook, payload) in zip(_block_lengths(n, block_size, block_count), trees):
        codes = _parse_codebook(codebook, sigma)
        blocks.append(_load_tree(payload, codes, m, backend, rrr_t, offsets, bit_base))
        bit_base += 8 * len(payload)
    if offsets:
        _check_offsets([payload for _, payload in trees], offsets, rrr_t)
        # the rebuild took child lengths from class sums (bv.ones), which
        # equal the rank at a node's end only if its padding bits are zero
        for wt in blocks:
            for bv in wt.nodes:
                if bv.rank1(bv.m) != bv.ones:
                    _corrupt("rrr padding bits")

    index = BlockedFMIndex(
        variant,
        n,
        sigma,
        c,
        blocks,
        block_size,
        remap,
        rrr_t if backend == "rrr" else 15,
    )
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
