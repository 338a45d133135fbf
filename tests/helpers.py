"""Small utilities shared across test modules."""

import numpy as np

from spt_lab import markets, paths


class ZeroFactors:
    """Factor source whose increments are identically zero.

    Lets the integrators run with the noise switched off so drift
    bookkeeping can be checked in isolation.
    """

    def __init__(self, grid, m, n_paths=1):
        self.grid = grid
        self.m = m
        self.n_paths = n_paths

    def block(self, lo, hi):
        return np.zeros((hi - lo, self.grid.n_steps, self.m))

    def path_increments(self, path_index):
        return np.zeros((self.grid.n_steps, self.m))


def random_simplex(rng, n_points, n, floor=1e-3):
    """Interior points of the weight simplex, every coordinate >= floor/n."""
    w = rng.dirichlet(np.ones(n), size=n_points)
    return (1.0 - floor) * w + floor / n


def random_covariance(rng, n, lo=0.2, hi=2.0):
    """Covariance matrix with eigenvalues drawn inside [lo, hi].

    Returns the matrix together with its exact spectrum so tests can use
    the true ellipticity constants instead of re-estimating them.
    """
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.sort(rng.uniform(lo, hi, size=n))
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T), lam


def kernel_cases():
    """One small batch per drift kernel, chosen so every branch is taken.

    The step caps are tight enough to bind on some paths, the patched
    trigger fires on some paths and not on others, and every early-lead
    path leaves the power-drift phase before the horizon.
    """
    grid = paths.make_grid(1.0, 100)
    patched_base = markets.diverse_market(np.eye(3) * 0.5, g=0.01, delta=0.1,
                                          x0=[1.0, 4.0, 1.0], step_cap=0.05)
    models = {
        "diverse": (markets.diverse_market(np.eye(3) * 0.5, g=0.01, delta=0.3,
                                           x0=[1.0, 2.0, 1.5], step_cap=0.02), grid),
        "ou_pair": (markets.ou_two_stock(alpha=0.5, switch_time=0.5), grid),
        "patched": (markets.patched_weakly_diverse(patched_base, eta=0.3, horizon=1.0),
                    grid),
        "dominance": (markets.instantaneous_dominance_market(alpha=0.25),
                      paths.geometric_grid(1.0, 100, 1e-8)),
    }
    return {kind: (model, paths.generate_factors(g, model.m, 4, master_seed=9))
            for kind, (model, g) in models.items()}
