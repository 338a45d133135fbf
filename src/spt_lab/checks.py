"""The verdict an experiment returns for each claim it checks, and the
numbered columns of its tables."""

from __future__ import annotations

from typing import NamedTuple


class Check(NamedTuple):
    """One verdict on a claim.  ``budget`` is the slack the verdict allows,
    in the units of the quantity it compares: 0.0 for exact comparisons,
    3 standard errors for Monte Carlo ones, the scheme's discretization
    budget for pathwise ones, and the largest of these where it compares
    several quantities."""

    label: str
    passed: bool
    detail: str
    budget: float


def numbered(prefix: str, matrix) -> dict:
    """One table column per stock (or gap): ``prefix1``, ``prefix2``, ..."""
    return {f"{prefix}{i + 1}": matrix[:, i] for i in range(matrix.shape[1])}
