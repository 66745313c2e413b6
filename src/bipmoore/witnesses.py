"""Embedded witness fixtures, shipped as spec strings so verification needs no files.

The degree-11 specs are the published record tuples at modulus 95; the
degree-4 and degree-5 witnesses realize the maximal modulus d*d - d - 1 for
their degrees and were frozen from exhaustive searches (cross-checked
against a no-pruning oracle in the test suite).
"""

from __future__ import annotations

KNOWN_DEGREE11_SPECS: tuple[str, ...] = (
    "phi 95: 4,7,16,27,38,52,62,81",
    "phi 95: 4,16,30,43,51,62,71,89",
    "phi 95: 11,15,21,28,37,40,45,63",
)

#: Expected shape of every degree-11 witness graph; at diameter 3 the two
#: fix the order at 190.
DEGREE11_DEGREE = 11
DEGREE11_DEFECT = 32

DEGREE4_WITNESS = "phi 11: 4"
DEGREE5_WITNESS = "phi 19: 5,8"
