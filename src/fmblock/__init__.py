"""Compressed full-text count index with per-block alphabet compression."""

from .bitrank import PlainBitVector, RrrBitVector, build_plain, build_rrr
from .entropy import (
    Partition,
    concat_entropy_terms,
    context_partition,
    fixed_partition,
    h0,
    hk,
    partition_entropy,
    verify_lemma3,
)
from .fmindex import (
    BlockedFMIndex,
    IndexVariant,
    build_index,
    default_block_size,
)
from .storage import (
    CorruptIndexError,
    UnsupportedFormatError,
    deserialize,
    load_index,
    save_index,
    serialize,
)
from .textcore import (
    Bwt,
    Text,
    build_text,
    bwt,
    inverse_bwt,
    naive_count,
    naive_rank,
    suffix_array,
)
from .wavelet import WaveletTree, build_wt

__version__ = "0.1.0"

__all__ = [
    "BlockedFMIndex",
    "Bwt",
    "CorruptIndexError",
    "IndexVariant",
    "Partition",
    "PlainBitVector",
    "RrrBitVector",
    "Text",
    "UnsupportedFormatError",
    "WaveletTree",
    "build_index",
    "build_plain",
    "build_rrr",
    "build_text",
    "build_wt",
    "bwt",
    "concat_entropy_terms",
    "context_partition",
    "default_block_size",
    "deserialize",
    "fixed_partition",
    "h0",
    "hk",
    "inverse_bwt",
    "load_index",
    "naive_count",
    "naive_rank",
    "partition_entropy",
    "save_index",
    "serialize",
    "suffix_array",
    "verify_lemma3",
    "__version__",
]
