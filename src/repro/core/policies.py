"""Chunk-selection policies.

ExSample's decision rule is Thompson sampling over the Gamma belief
(§III-C).  The paper also tried Bayes-UCB and "did not observe different
results"; the greedy point-estimate rule is the strawman §III-B warns
about (it gets stuck on early lucky chunks), and the uniform policy turns
the sampler into the random baseline.  All of these share one interface so
the ablation benches can swap them freely.

A policy picks *batch_size* chunk indices given the current statistics.
Exhausted chunks are masked out by the caller via ``available``.

:class:`ThompsonSampling` — the decision-path default — draws the whole
batch as one ``(batch, M)`` matrix and picks each row's first maximum
over the available chunks (:func:`masked_argmax_rows`, shared by every
policy here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .belief import DEFAULT_ALPHA0, DEFAULT_BETA0, GammaBelief
from .estimator import ChunkStatistics

__all__ = [
    "ChunkPolicy",
    "ThompsonSampling",
    "BayesUCB",
    "GreedyMean",
    "EpsilonGreedy",
    "UniformPolicy",
]


class ChunkPolicy(Protocol):
    """Maps (statistics, availability) to chunk choices."""

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):  # pragma: no cover - protocol
        """Return ``batch_size`` chunk indices (with repetition allowed)."""
        ...


def _validate(stats: ChunkStatistics, available, batch_size: int) -> None:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if len(available) != stats.num_chunks:
        raise ValueError("available mask must have one entry per chunk")
    if not any(available):
        raise ValueError("no chunks available to sample")


def masked_argmax_rows(draws, available):
    """Row-wise argmax of a ``(rows, M)`` score matrix restricted to the
    available chunks, taking the *first* maximum of each row.

    ``available`` may be any boolean mask; the sampler's own
    ``bytearray`` mask is wrapped zero-copy, for this call only.
    """
    if isinstance(available, bytearray):
        avail = np.frombuffer(available, dtype=np.bool_)
    else:
        avail = np.asarray(available, dtype=bool)
    masked = np.where(avail[None, :], draws, -np.inf)
    return np.argmax(masked, axis=1)


@dataclass(frozen=True)
class ThompsonSampling:
    """Algorithm 1's rule: draw R_j ~ Gamma belief, pick the argmax.

    For a batch, ``batch_size`` independent draws yield ``batch_size``
    arg-maxes (§III-F): the batch's chunk distribution follows the
    posterior probability of each chunk being best.
    """

    alpha0: float = DEFAULT_ALPHA0
    beta0: float = DEFAULT_BETA0

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):
        _validate(stats, available, batch_size)
        belief = GammaBelief(self.alpha0, self.beta0)
        draws = belief.sample(stats, rng, size=batch_size)
        return masked_argmax_rows(draws, available)

    def draw_request(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ) -> tuple:
        """The :func:`~repro.core.rng.gamma_matrices` request whose matrix
        :meth:`choose` would take the arg-maxes of — how a caller
        planning many samplers draws all their beliefs in one call."""
        _validate(stats, available, batch_size)
        belief = GammaBelief(self.alpha0, self.beta0)
        return (rng, belief.alphas(stats), belief.betas(stats), batch_size)


@dataclass(frozen=True)
class BayesUCB:
    """Bayes-UCB [Kaufmann 2018]: use an upper belief quantile as the score.

    The quantile level rises as 1 - 1/t with the round count t, shrinking
    the exploration bonus over time.  §III-C reports results
    indistinguishable from Thompson sampling; the policy ablation bench
    verifies that here.
    """

    alpha0: float = DEFAULT_ALPHA0
    beta0: float = DEFAULT_BETA0
    quantile_floor: float = 0.5

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):
        _validate(stats, available, batch_size)
        belief = GammaBelief(self.alpha0, self.beta0)
        t = stats.total_samples + 1
        q = max(self.quantile_floor, 1.0 - 1.0 / t)
        scores = belief.quantile(stats, q)
        # deterministic scores: break ties randomly so identical chunks
        # (e.g. at t=0) are not always resolved toward index zero.
        jitter = rng.uniform(0.0, 1e-12, size=(batch_size, stats.num_chunks))
        return masked_argmax_rows(scores[None, :] + jitter, available)


@dataclass(frozen=True)
class GreedyMean:
    """Pick the largest belief mean — the §III-B cautionary strawman.

    Without uncertainty it can lock onto a chunk with one early lucky
    result and starve better chunks; kept as an ablation baseline.
    """

    alpha0: float = DEFAULT_ALPHA0
    beta0: float = DEFAULT_BETA0

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):
        _validate(stats, available, batch_size)
        belief = GammaBelief(self.alpha0, self.beta0)
        scores = belief.mean(stats)
        jitter = rng.uniform(0.0, 1e-12, size=(batch_size, stats.num_chunks))
        return masked_argmax_rows(scores[None, :] + jitter, available)


@dataclass(frozen=True)
class EpsilonGreedy:
    """Classic epsilon-greedy: explore uniformly with probability epsilon.

    Not in the paper; included as a familiar bandit reference point for
    the policy ablation.
    """

    epsilon: float = 0.1
    alpha0: float = DEFAULT_ALPHA0
    beta0: float = DEFAULT_BETA0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):
        _validate(stats, available, batch_size)
        belief = GammaBelief(self.alpha0, self.beta0)
        scores = belief.mean(stats)
        jitter = rng.uniform(0.0, 1e-12, size=(batch_size, stats.num_chunks))
        greedy = masked_argmax_rows(scores[None, :] + jitter, available)
        explorable = np.flatnonzero(np.asarray(available, dtype=bool))
        random_pick = rng.choice(explorable, size=batch_size)
        explore = rng.random(batch_size) < self.epsilon
        return np.where(explore, random_pick, greedy)


@dataclass(frozen=True)
class UniformPolicy:
    """Ignore statistics: sample chunks uniformly (or by fixed weights).

    With ``weights`` proportional to chunk sizes this approximates the
    random baseline inside the ExSample machinery; the exact
    without-replacement uniform baseline lives in
    :mod:`repro.baselines.uniform`.  Fixed non-uniform ``weights`` turn the
    policy into the static optimal-allocation sampler of Eq. IV.1.
    """

    weights: tuple[float, ...] | None = None

    def choose(
        self,
        stats: ChunkStatistics,
        rng,
        available,
        batch_size: int = 1,
    ):
        _validate(stats, available, batch_size)
        avail = np.asarray(available, dtype=bool)
        if self.weights is None:
            w = avail.astype(np.float64)
        else:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != (stats.num_chunks,):
                raise ValueError("weights must have one entry per chunk")
            w = np.where(avail, np.maximum(w, 0.0), 0.0)
        total = w.sum()
        if total <= 0:
            raise ValueError("no positive-weight chunks available")
        return rng.choice(stats.num_chunks, size=batch_size, p=w / total)
