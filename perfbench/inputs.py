"""Benchmark inputs: the two texts, the seeded pattern mixes and their oracle counts.

Everything here is made from the Python standard library, numpy and the
workload seed; nothing uses fmblock, so the oracle counts are independent of
the index under test.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass

import numpy as np

PATTERN_LENGTHS = (5, 20, 50)
ABSENT_SHARE = 0.10
MARKOV_TEXT_SEED = 7  # H0 = 2.74, H2 = 0.36 bits per symbol at one million symbols
LINE_BREAKS = b"\n\r"  # the CLI reads one pattern per line


def stdlib_slice(nbytes):
    """The first nbytes of the stdlib .py files, concatenated in sorted walk order.

    site-packages and every directory with "test" in its path are skipped.
    The result depends on the installed Python, which is why runs record its hash.
    """
    root = os.path.dirname(os.path.dirname(json.__file__))
    out = bytearray()
    for path, dirs, files in os.walk(root):
        dirs.sort()
        rel = os.path.relpath(path, root)
        if "site-packages" in rel or "test" in rel:
            continue
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(path, name), "rb") as fh:
                    out += fh.read()
                if len(out) >= nbytes:
                    return bytes(out[:nbytes])
    raise RuntimeError(f"the stdlib under {root} holds fewer than {nbytes} bytes of .py files")


def markov_text(nbytes, seed=MARKOV_TEXT_SEED, sigma=8, peak=0.95):
    """Order-2 chain where each context strongly prefers one successor, as bytes 1..sigma-1.

    Draws the same sequence as markov2_codes(seed, nbytes, sigma, peak) in
    tests/helpers.py.
    """
    rng = np.random.default_rng(seed)
    pref = rng.integers(1, sigma, size=(sigma - 1, sigma - 1)).tolist()
    keep = (rng.random(nbytes) < peak).tolist()
    alt = rng.integers(1, sigma, size=nbytes).tolist()
    out = bytearray(nbytes)
    a = b = 1
    for i in range(nbytes):
        c = pref[a - 1][b - 1] if keep[i] else alt[i]
        out[i] = c
        a, b = b, c
    return bytes(out)


class Oracle:
    """Overlapping occurrence counts by direct comparison of text windows.

    The 8-byte windows at every position are sorted once, so the positions
    that share a pattern's first bytes form one range; the rest of the
    pattern is then compared eight bytes at a time at those positions.
    """

    def __init__(self, raw):
        n = len(raw)
        padded = np.frombuffer(raw + bytes(7), dtype=np.uint8)
        self.words = np.zeros(n, dtype=np.uint64)  # words[i] = raw[i:i+8], big-endian
        for k in range(8):
            self.words |= padded[k : k + n].astype(np.uint64) << np.uint64(56 - 8 * k)
        self.order = np.argsort(self.words, kind="stable")
        self.sorted = self.words[self.order]

    def count(self, pattern):
        pattern = bytes(pattern)
        m, n = len(pattern), len(self.words)
        if m == 0 or m > n:
            return 0
        head = pattern[:8]
        shift = 8 * (8 - len(head))
        lo = int.from_bytes(head, "big") << shift
        hi = lo + (1 << shift)
        first = np.searchsorted(self.sorted, np.uint64(lo), side="left")
        last = len(self.sorted) if hi >> 64 else np.searchsorted(self.sorted, np.uint64(hi), side="left")
        at = self.order[first:last]
        at = at[at <= n - m]  # windows past the end are zero-padded
        for off in range(8, m, 8):
            piece = pattern[off : off + 8]
            shift = 8 * (8 - len(piece))
            words = self.words[at + off] >> np.uint64(shift)
            at = at[words == np.uint64(int.from_bytes(piece, "big"))]
        return int(at.size)


@dataclass
class Inputs:
    workload: str
    seed: int
    raw: bytes
    sha256: str
    patterns: list  # (kind, pattern bytes); kind is len5, len20, len50 or absent
    expected: list  # oracle count per pattern
    batch: list  # CLI batch patterns, free of line breaks
    batch_expected: list


def _window(raw, rng, length, forbid):
    while True:
        at = rng.randrange(len(raw) - length + 1)
        pattern = raw[at : at + length]
        if not any(byte in forbid for byte in pattern):
            return pattern


def _absent(raw, rng, length, oracle, alphabet, forbid):
    """A sampled window with one byte swapped for another alphabet byte, occurring nowhere."""
    choices = [byte for byte in alphabet if byte not in forbid]
    for _ in range(1000):
        pattern = bytearray(_window(raw, rng, length, forbid))
        at = rng.randrange(length)
        pattern[at] = rng.choice([byte for byte in choices if byte != pattern[at]])
        if oracle.count(pattern) == 0:
            return bytes(pattern)
    raise RuntimeError(f"no absent pattern of length {length} found in 1000 tries")


def pattern_mix(raw, rng, total, oracle, forbid=b""):
    """Equal shares of lengths 5, 20 and 50, about 10% of them absent, in shuffled order."""
    lengths = [n for n in PATTERN_LENGTHS if n <= len(raw)]
    absent = round(total * ABSENT_SHARE)
    alphabet = bytes(sorted(set(raw)))
    out = [(f"len{lengths[i % len(lengths)]}", _window(raw, rng, lengths[i % len(lengths)], forbid))
           for i in range(total - absent)]
    out += [("absent", _absent(raw, rng, lengths[i % len(lengths)], oracle, alphabet, forbid))
            for i in range(absent)]
    rng.shuffle(out)
    return out


def prepare(workload, seed, text_bytes, patterns, batch):
    """Build the inputs of one run; the same arguments give the same inputs."""
    raw = markov_text(text_bytes) if workload == "markov-boost" else stdlib_slice(text_bytes)
    rng = random.Random(f"{workload}/{seed}")
    oracle = Oracle(raw)
    mix = pattern_mix(raw, rng, patterns, oracle)
    cli_mix = pattern_mix(raw, rng, batch, oracle, forbid=LINE_BREAKS)
    return Inputs(
        workload=workload,
        seed=seed,
        raw=raw,
        sha256=hashlib.sha256(raw).hexdigest(),
        patterns=mix,
        expected=[oracle.count(p) for _, p in mix],
        batch=[p for _, p in cli_mix],
        batch_expected=[oracle.count(p) for _, p in cli_mix],
    )
