"""A fixed probe of the machine's speed, timed between operations.

The shared machine this benchmark was built on runs the same Python code at
speeds up to two times apart, switching within milliseconds and drifting
over minutes, as other tenants load it.  Raw timings of two sets of runs a
few minutes apart therefore differ by more than any change worth measuring.

The probe is a fixed piece of pure-Python exact arithmetic shaped like
abcat's inner loops (Gauss-Jordan elimination over ``Fraction`` and over a
frozen-dataclass residue type like ``GFElement``), so it slows down as
abcat's code does.  It belongs to the benchmark, so no change to abcat
changes its cost.  ``run.py`` times it before every measured operation
and scales each timing metric by ``REF_S`` over the run's mean probe time:
a timing then reads as it would at the probe speed ``REF_S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# About the probe's mean time between operations on the machine the
# benchmark was built on (Python 3.11, 2 vCPUs), so that scaled timings
# stay close to raw ones there.
REF_S = 0.0016

_P = 7919
_BASE = [[(i * 7 + j * 3 + i * j) % 11 - 5 for j in range(7)] for i in range(7)]


@dataclass(frozen=True)
class _Residue:
    value: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", self.value % _P)

    def __mul__(self, other: _Residue) -> _Residue:
        return _Residue(self.value * other.value)

    def __sub__(self, other: _Residue) -> _Residue:
        return _Residue(self.value - other.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def inverse(self) -> _Residue:
        return _Residue(pow(self.value, _P - 2, _P))


def _eliminate(rows: list[list], inverse) -> None:
    n = len(rows)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            continue
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = inverse(rows[k][k])
        rows[k] = [x * inv for x in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]


def probe() -> float:
    """Seconds one run of the fixed probe takes now."""
    t0 = perf_counter()
    _eliminate([[Fraction(x) for x in row] for row in _BASE], lambda x: 1 / x)
    _eliminate([[_Residue(x) for x in row] for row in _BASE], _Residue.inverse)
    return perf_counter() - t0
