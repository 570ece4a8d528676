"""Exact stable argsort of integer keys by one composite-key sort.

``np.argsort(kind="stable")`` on int32/int64 keys runs timsort.  For
integer (or bool) keys there is a faster route to the same permutation:
pack each row as the 64-bit word ``(key - min) << bits | row`` and sort
those words with the default, unstable ``np.sort``.  The MWAY join of the
source paper sorts packed (key, payload) words the same way.

Why the result is exactly the stable order: ``row`` fills the low ``bits``
bits (``bits`` covers ``n - 1``), so two words compare first by key and,
for equal keys, by row index.  Every word is distinct, so any correct sort
of them yields one arrangement: keys ascending, ties in ascending row
order.  Masking the low bits back out gives the stable argsort.

The packing needs ``(max - min) << bits | (n - 1)`` to fit in a
non-negative int64, i.e. ``span < 2 ** (63 - bits)``.  Keys spread wider
than that, and non-integer keys, fall through to ``np.argsort`` with
``kind="stable"``.
"""

from __future__ import annotations

import numpy as np


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """The permutation ``np.argsort(keys, kind="stable")`` returns."""
    keys = np.asarray(keys)
    if keys.ndim != 1 or keys.dtype.kind not in "biu" or len(keys) < 2:
        return np.argsort(keys, kind="stable")
    n = len(keys)
    lo = int(keys.min())
    span = int(keys.max()) - lo
    bits = (n - 1).bit_length()
    if span >= 1 << (63 - bits):
        return np.argsort(keys, kind="stable")
    if keys.dtype == np.uint64:
        # The offsets fit in int64 (span < 2**63); int64 could not hold keys.
        packed = (keys - np.uint64(lo)).astype(np.int64)
    else:
        packed = keys.astype(np.int64)
        packed -= lo
    packed <<= bits
    packed |= np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << bits) - 1
    return packed
