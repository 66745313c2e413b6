"""Moore bound arithmetic and the modulus upper bound."""

from __future__ import annotations

import pytest

from bipmoore.bounds import defect, max_m_upper_bound, moore_bound


def test_moore_bound_values():
    assert moore_bound(2, 2) == 4
    assert moore_bound(7, 3) == 86
    assert moore_bound(11, 3) == 222
    assert moore_bound(4, 3) == 26
    assert moore_bound(3, 5) == 62


def test_moore_bound_rejects():
    with pytest.raises(ValueError):
        moore_bound(1, 3)
    with pytest.raises(ValueError):
        moore_bound(3, 1)


def test_moore_bound_monotone():
    for diam in range(2, 7):
        values = [moore_bound(d, diam) for d in range(2, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))
    for d in range(3, 20):
        values = [moore_bound(d, diam) for diam in range(2, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_defect_examples():
    assert defect(7, 3, 80).defect == 6
    assert defect(11, 3, 190).defect == 32
    assert defect(4, 3, 26).defect == 0
    with pytest.raises(ValueError):
        defect(4, 3, 27)
    for order in (0, -5):
        with pytest.raises(ValueError, match="order must be at least 1"):
            defect(7, 3, order)


def test_max_m_upper_bound_values():
    assert max_m_upper_bound(7) == 41
    assert max_m_upper_bound(11) == 109
    assert max_m_upper_bound(4) == 11
    assert (moore_bound(4, 3) - 4) // 2 == 11
    with pytest.raises(ValueError):
        max_m_upper_bound(3)


def test_max_m_identity():
    for d in range(4, 65):
        assert 2 * max_m_upper_bound(d) + 4 == moore_bound(d, 3)
