"""Span tracing from outside the program.

install() replaces public callables that the fmblock modules reach by
attribute lookup with wrappers that record a span per call: name, start,
end and parent. Nothing in the package changes; uninstall() puts the
originals back. Self time (a span's duration minus the time its child spans
cover) and call counts are summed per (span name, label) as spans close, so
they are exact however many calls there are. The spans themselves are kept
up to SPAN_CAP and written out at the end.
"""

import functools
import json
from time import perf_counter_ns

SPAN_CAP = 50_000

# (module, attribute path, span name); a name a later version drops is reported missing
TARGETS = (
    ("textcore", "build_text", "textcore.build_text"),
    ("textcore", "bwt", "textcore.bwt"),
    ("textcore", "suffix_array", "textcore.suffix_array"),
    ("entropy", "suffix_array", "textcore.suffix_array"),  # context_partition's own binding
    ("fmindex", "WaveletTree", "wavelet.build"),
    ("wavelet", "make_bitvector", "bitrank.build"),
    ("bitrank", "PlainBitVector.rank1", "bitrank.rank1.plain"),
    ("bitrank", "RrrBitVector.rank1", "bitrank.rank1.rrr"),
    ("wavelet", "WaveletTree.rank", "wavelet.rank"),
    ("fmindex", "BlockedFMIndex.rank_l", "fmindex.rank_l"),
    ("fmindex", "BlockedFMIndex.count", "fmindex.count"),
    ("storage", "serialize", "storage.serialize"),
    ("storage", "deserialize", "storage.deserialize"),
    ("entropy", "hk", "entropy.hk"),
    ("entropy", "context_partition", "entropy.context_partition"),
    ("entropy", "partition_entropy", "entropy.partition_entropy"),
    ("entropy", "verify_lemma3", "entropy.verify_lemma3"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.label = ("", "")  # (phase, variant) set by the benchmark around each call
        self.totals = {}  # (name, phase, variant) -> [calls, total ns, self ns]
        self.spans = []  # (id, parent id, name, phase, variant, start ns, end ns)
        self.dropped = 0
        self._stack = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self._installed = []
        self.missing = []

    def wrap(self, name, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter_ns()
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                key = (name, *self.label)
                acc = self.totals.get(key)
                if acc is None:
                    acc = self.totals[key] = [0, 0, 0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += duration - frame[1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], parent, name, *self.label, start, end))
                else:
                    self.dropped += 1
                if stack:
                    # the parent's self time excludes this wrapper's bookkeeping too
                    stack[-1][1] += perf_counter_ns() - enter

        return traced

    def install(self, modules):
        """Wrap every target found in modules (a dict of module name -> module)."""
        self.missing = []
        for module, path, name in TARGETS:
            owner = modules[module]
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module}.{path}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def get(self, name, phase=None, variant=None):
        """[calls, total ns, self ns] summed over the matching labels."""
        out = [0, 0, 0]
        for (n, p, v), acc in self.totals.items():
            if n == name and phase in (None, p) and variant in (None, v):
                out = [a + b for a, b in zip(out, acc)]
        return out

    def calls(self, name, phase, variant):
        acc = self.totals.get((name, phase, variant))
        return acc[0] if acc else 0

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "phase", "variant", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "dropped": self.dropped,
                    "missing": self.missing,
                },
                fh,
            )
