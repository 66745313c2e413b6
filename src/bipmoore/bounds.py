"""Bipartite Moore bound and defect arithmetic.

All arithmetic is exact (Python integers); range caps for command-line use
are enforced at the CLI layer, not here.
"""

from __future__ import annotations

from dataclasses import dataclass


def moore_bound(d: int, diam: int) -> int:
    """Maximum conceivable order of a bipartite graph of max degree d, diameter diam.

    Equals ``2 * (1 + (d-1) + ... + (d-1)**(diam-1))``.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    if diam < 2:
        raise ValueError("diameter must be at least 2")
    return 2 * sum((d - 1) ** k for k in range(diam))


@dataclass(frozen=True)
class DefectRecord:
    d: int
    diam: int
    order: int
    moore_bound: int
    defect: int


def defect(d: int, diam: int, order: int) -> DefectRecord:
    """How far ``order`` falls below the bipartite Moore bound for (d, diam)."""
    bound = moore_bound(d, diam)
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if order > bound:
        raise ValueError(f"order {order} exceeds the Moore bound {bound} for ({d}, {diam})")
    return DefectRecord(d=d, diam=diam, order=order, moore_bound=bound, defect=bound - order)


def max_m_upper_bound(d: int) -> int:
    """Upper bound d**2 - d - 1 on the modulus of a diameter-3 offset construction.

    Coincides with ``(moore_bound(d, 3) - 4) / 2``.
    """
    if d < 4:
        raise ValueError("degree must be at least 4 (need at least one offset slot)")
    value = d * d - d - 1
    assert 2 * value + 4 == moore_bound(d, 3)
    return value
