"""The Gamma belief over per-chunk future reward (Eq. III.4).

§III-C models the uncertainty of the point estimate R̂_j = N1_j / n_j with

    R_j(n_j + 1) ~ Gamma(alpha = N1_j + alpha0, beta = n_j + beta0)

chosen so that the belief mean ``alpha/beta`` matches Eq. III.1 and the
belief variance ``alpha/beta²`` matches the variance bound of Eq. III.3
(Var[R̂] <= E[R̂]/n).  The pseudo-counts ``alpha0 = 0.1`` and ``beta0 = 1``
keep the distribution defined when N1 = 0 or n = 0 — the state at the
start of a query, when results are rare, and when a chunk is exhausted —
so Thompson sampling keeps producing non-zero draws and the sampler can
recover from early bad luck.

Sampling dispatches on the generator type: a
:class:`~repro.core.rng.DecisionRng` takes the bulk contract
(:meth:`DecisionRng.gamma_matrix` — numpy's ``standard_gamma`` on a
Philox keyed by one draw of the stream, so the matrix is a function of
seeds alone), while a ``numpy.random.Generator`` keeps the historical
``rng.gamma`` stream so existing experiment seeds reproduce unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import ChunkStatistics
from .rng import DecisionRng

__all__ = ["GammaBelief", "DEFAULT_ALPHA0", "DEFAULT_BETA0"]

DEFAULT_ALPHA0 = 0.1
DEFAULT_BETA0 = 1.0


@dataclass(frozen=True)
class GammaBelief:
    """The Gamma(N1 + alpha0, n + beta0) belief family of Eq. III.4.

    Stateless: all chunk state lives in :class:`ChunkStatistics`; this
    object only carries the prior pseudo-counts and turns statistics into
    distributions.  §III-C reports no strong sensitivity to the prior, a
    claim the prior-ablation bench re-checks.
    """

    alpha0: float = DEFAULT_ALPHA0
    beta0: float = DEFAULT_BETA0

    def __post_init__(self) -> None:
        if not (0 < self.alpha0 < math.inf and 0 < self.beta0 < math.inf):
            raise ValueError("alpha0 and beta0 must be positive (Gamma support)")

    # ------------------------------------------------------------ parameters

    def alphas(self, stats: ChunkStatistics):
        return np.frombuffer(stats.n1_buffer, dtype=np.float64) + self.alpha0

    def betas(self, stats: ChunkStatistics):
        return np.frombuffer(stats.n_buffer, dtype=np.int64) + self.beta0

    # ----------------------------------------------------------------- query

    def mean(self, stats: ChunkStatistics):
        """Belief means alpha/beta — the regularized Eq. III.1 estimate."""
        return self.alphas(stats) / self.betas(stats)

    def variance(self, stats: ChunkStatistics):
        """Belief variances alpha/beta² — matching the Eq. III.3 bound."""
        betas = self.betas(stats)
        return self.alphas(stats) / (betas * betas)

    def sample(self, stats: ChunkStatistics, rng, size: int = 1):
        """Thompson draws: a ``(size, M)`` matrix of independent samples.

        One row is one Thompson-sampling round (Alg. 1 line 4); ``size > 1``
        produces the draws for a batched round (§III-F).  With a
        :class:`DecisionRng` the draw follows the bulk contract; with a
        numpy ``Generator`` it is the historical vectorized ``rng.gamma``
        call, bit-compatible with pre-contract seeds.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if isinstance(rng, DecisionRng):
            return rng.gamma_matrix(self.alphas(stats), self.betas(stats), size)
        return rng.gamma(
            shape=self.alphas(stats),
            scale=1.0 / self.betas(stats),
            size=(size, stats.num_chunks),
        )

    def quantile(self, stats: ChunkStatistics, q: float):
        """Per-chunk belief quantiles, used by the Bayes-UCB policy."""
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        from scipy import stats as _scipy_stats

        return _scipy_stats.gamma.ppf(
            q, a=self.alphas(stats), scale=1.0 / self.betas(stats)
        )

    def density(self, n1: float, n: float, grid):
        """Belief pdf for a single (N1, n) pair on ``grid`` — the orange
        curve of Fig. 2."""
        from scipy import stats as _scipy_stats

        return _scipy_stats.gamma.pdf(
            grid, a=n1 + self.alpha0, scale=1.0 / (n + self.beta0)
        )
