"""LSB-first bit stream writer/reader used by the rank structures and the index file format."""


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

    def write_bits_from(self, buf, start, nbits):
        """Copy `nbits` bits out of another LSB-first buffer, starting at bit `start`."""
        pos = start
        end = start + nbits
        while pos < end:
            w = min(48, end - pos)
            self.write(read_bits(buf, pos, w), w)
            pos += w

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
