"""Reference answers for the search workloads, computed without ``bipmoore``.

A phi spec ``phi m: a_1,...,a_n`` has diameter at most 3 exactly when the
two-step residues ``0, +-1, +-2``, ``+-a``, ``+-(a+1)``, ``+-(a-1)`` (one
group per offset ``a``) and ``a - b`` (over ordered pairs of distinct
offsets) cover all of ``Z_m``. This module enumerates the offset tuples that
do so with an algorithm of its own:

* coverage is kept as a plain Python set;
* offsets are placed in ascending order, and a node is cut when the
  residues it covers, plus the largest possible gains of the ``r`` offsets
  still to place (each candidate's gain is counted exactly against the
  current set), plus ``r*(r-1)`` differences among those offsets, fall
  short of ``m``;
* there is no symmetry pruning during the search; every tuple found is
  replaced by the smaller of itself and its negation afterwards.

``brute_force`` checks every tuple and serves as the oracle for the
enumerator on small ``(d, m)``.

Run ``python3 bench/reference.py`` from the repository root to regenerate
``bench/reference.json``, which the benchmark reads to check its answers.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def cap(d: int) -> int:
    """The maximal modulus ``d*d - d - 1`` of the family."""
    return d * d - d - 1


def unit_residues(m: int, a: int) -> frozenset[int]:
    return frozenset(x % m for x in (a, -a, a + 1, -a - 1, a - 1, -a + 1))


def coverage(m: int, offsets) -> set[int]:
    covered = {x % m for x in (0, 1, -1, 2, -2)}
    for a in offsets:
        covered |= unit_residues(m, a)
        for b in offsets:
            if a != b:
                covered.add((a - b) % m)
    return covered


def covers(m: int, offsets) -> bool:
    return len(coverage(m, offsets)) == m


def canonical(m: int, offsets) -> tuple[int, ...]:
    """The smaller of a tuple and its negation mod m (both sorted)."""
    ordered = tuple(sorted(offsets))
    negated = tuple(sorted(m - a for a in ordered))
    return min(ordered, negated)


def brute_force(d: int, m: int) -> list[tuple[int, ...]]:
    """Every canonical full-coverage tuple, by checking all of them."""
    found = {
        canonical(m, t) for t in itertools.combinations(range(2, m - 1), d - 3) if covers(m, t)
    }
    return sorted(found)


def enumerate_full(d: int, m: int) -> list[tuple[int, ...]]:
    """Canonical full-coverage tuples of ``d - 3`` offsets at modulus ``m``, sorted."""
    n = d - 3
    units = {a: unit_residues(m, a) for a in range(2, m - 1)}
    found: set[tuple[int, ...]] = set()

    def added(a: int, chosen: list[int]) -> set[int]:
        new = set(units[a])
        for b in chosen:
            new.add((a - b) % m)
            new.add((b - a) % m)
        return new

    def dfs(chosen: list[int], covered: set[int]) -> None:
        r = n - len(chosen)
        if r == 0:
            if len(covered) == m:
                found.add(canonical(m, chosen))
            return
        rest = range(chosen[-1] + 1 if chosen else 2, m - 1)
        if len(rest) < r:
            return
        gains = sorted((len(added(a, chosen) - covered) for a in rest), reverse=True)
        if len(covered) + sum(gains[:r]) + r * (r - 1) < m:
            return
        for a in rest:
            chosen.append(a)
            dfs(chosen, covered | added(a, chosen[:-1]))
            chosen.pop()

    dfs([], coverage(m, ()))
    return sorted(found)


def build() -> dict:
    """Solution lists keyed ``"d,m"``: the caps for d = 5..10, d = 9 at
    m = 65..71, and d = 8 at m = 45."""
    points = [(d, cap(d)) for d in range(5, 11)] + [(9, m) for m in range(65, 71)] + [(8, 45)]
    out: dict[str, list[str]] = {}
    for d, m in points:
        tuples = enumerate_full(d, m)
        out[f"{d},{m}"] = [f"phi {m}: " + ",".join(map(str, t)) for t in tuples]
        print(f"d={d} m={m}: {len(tuples)} solutions", file=sys.stderr, flush=True)
    return out


if __name__ == "__main__":
    answers = build()
    REFERENCE_FILE.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_FILE}", file=sys.stderr)
