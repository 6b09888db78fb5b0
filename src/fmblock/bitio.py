"""The one bit-field layout of the rank structures and the index file.

Fields of 0..64 bits are packed LSB-first: bit i of a field at bit offset
p is bit (p + i) % 8 of byte (p + i) // 8, and a stream is zero-padded to
a whole byte. pack_fields writes consecutive fields and read_fields reads
fields at any offsets, from the stream as little-endian uint64 words with
a spare word after the last field's. A scalar RRR rank reads its one
offset inline (see bitrank).
"""

import numpy as np

_MASKS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)
_ONE = np.uint64(1)
_SIX_BITS = np.uint64(63)
# fields per bit matrix in pack_fields, which bounds its temporaries
_PACK_CHUNK = 1 << 16


def pack_fields(values, widths):
    """The fields values[i] of widths[i] bits, packed into bytes.

    Bits of a value above its width are dropped.
    """
    values = np.ascontiguousarray(values, dtype="<u8")
    widths = np.asarray(widths)
    bits = np.empty(int(widths.sum()), dtype=np.uint8)
    at = 0
    for lo in range(0, len(widths), _PACK_CHUNK):
        width = widths[lo : lo + _PACK_CHUNK]
        nbytes = (int(width.max()) + 7) >> 3
        # fields x 8*nbytes matrix of the low bytes' bits, LSB first
        raw = values[lo : lo + _PACK_CHUNK].view(np.uint8).reshape(-1, 8)[:, :nbytes]
        matrix = np.unpackbits(raw, axis=1, bitorder="little")
        chunk = matrix[np.arange(8 * nbytes) < width[:, None]]
        bits[at : at + len(chunk)] = chunk
        at += len(chunk)
    return np.packbits(bits, bitorder="little").tobytes()


def read_fields(words, starts, widths):
    """The fields at the bit offsets `starts` of a stream as little-endian uint64 words, as uint64.

    `widths` holds one width per field, or one width for all of them.
    `starts` (int64) is overwritten. The word after each field's first one
    is read too, so the words end in a spare one.
    """
    at = starts >> 6
    shift = starts.view(np.uint64)
    shift &= _SIX_BITS
    value = words[at]
    value >>= shift
    # bits from the next word move left by 64 - shift, done as 1 then
    # 63 - shift because a shift by 64 is undefined
    at += 1
    high = words[at]
    high <<= _ONE
    shift ^= _SIX_BITS
    high <<= shift
    value |= high
    value &= _MASKS[widths]
    return value
