"""The verdict an experiment returns for each claim it checks, the numbered
columns of its tables, the one estimator of a Monte Carlo mean and its
standard error, and the stock-index check a study makes before it draws."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidArgumentError


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


def compensated_mean_se(values: np.ndarray):
    """Mean over paths and its standard error, with compensated (exact)
    summation, so the result does not depend on how the paths were batched.
    A vector (N,) gives two floats; an (N, J) array gives two arrays (J,),
    one value per column."""
    if values.ndim == 2:
        return tuple(np.array(v) for v in zip(*map(compensated_mean_se, values.T)))
    n = values.shape[0]
    mean = math.fsum(values) / n
    if n < 2:
        return mean, float("inf")
    # Deviations are scaled by an exact power of two so that their squares
    # do not underflow for tiny values; the scaling leaves every rounding,
    # and hence the result on normal-range inputs, unchanged.
    _, e = math.frexp(float(np.max(np.abs(values))))
    var = math.fsum(np.ldexp(values - mean, -e) ** 2) / (n - 1)
    return mean, math.ldexp(math.sqrt(var / n), e)


def check_stock(model, index, name: str) -> None:
    """Reject a stock index outside 0..n-1 before anything is simulated."""
    if not (isinstance(index, (int, np.integer)) and 0 <= index < model.n):
        raise InvalidArgumentError(
            f"{name} {index!r} is not a stock of a {model.n}-stock market")
