"""LSB-first bit stream writer/reader used by the rank structures and the index file format."""

import numpy as np


class BitWriter:
    """Appends fixed-width unsigned fields to a byte buffer, LSB-first."""

    def __init__(self):
        self._buf = bytearray()
        self._acc = 0
        self._nacc = 0
        self.bit_length = 0

    def write(self, value, width):
        if width == 0:
            return
        self._acc |= (value & ((1 << width) - 1)) << self._nacc
        self._nacc += width
        self.bit_length += width
        while self._nacc >= 8:
            self._buf.append(self._acc & 0xFF)
            self._acc >>= 8
            self._nacc -= 8

    def getvalue(self):
        out = bytes(self._buf)
        if self._nacc:
            out += bytes([self._acc & 0xFF])
        return out


def read_bits(buf, pos, width):
    """Read a `width`-bit unsigned field at bit offset `pos` from an LSB-first buffer."""
    if width == 0:
        return 0
    byte = pos >> 3
    shift = pos & 7
    nbytes = (shift + width + 7) >> 3
    chunk = int.from_bytes(buf[byte:byte + nbytes], "little")
    return (chunk >> shift) & ((1 << width) - 1)


def as_words(buf):
    """An LSB-first buffer as little-endian uint64 words, plus one zero word for read_fields."""
    words = np.zeros(len(buf) // 8 + 2, dtype="<u8")
    words.view(np.uint8)[: len(buf)] = np.frombuffer(buf, dtype=np.uint8)
    return words


def read_fields(words, starts):
    """The 64 bits from each bit offset in `starts` of as_words output, as uint64.

    A field of w bits at offset s is the low w bits of the result for s.
    `starts` (int64) is overwritten.
    """
    at = starts >> 6
    shift = starts.view(np.uint64)
    shift &= np.uint64(63)
    value = words[at]
    value >>= shift
    # bits from the next word move left by 64 - shift, done as 1 then
    # 63 - shift because a shift by 64 is undefined
    at += 1
    high = words[at]
    high <<= np.uint64(1)
    shift ^= np.uint64(63)
    high <<= shift
    value |= high
    return value


class BitReader:
    """Sequential reader over an LSB-first buffer."""

    def __init__(self, buf, bit_length=None):
        self._buf = buf
        self.pos = 0
        self.bit_length = len(buf) * 8 if bit_length is None else bit_length

    def read(self, width):
        if self.pos + width > self.bit_length:
            raise EOFError("bit stream exhausted")
        v = read_bits(self._buf, self.pos, width)
        self.pos += width
        return v
