"""The decision-stream RNG contract.

Everything the serving and simulation stack *decides* — which chunk a
Thompson round picks, which frame a chunk order yields, what noise a
simulated detector adds — must be a pure function of seeds, never of
which code path happens to execute it.  The decision path therefore owns
its generator: :class:`DecisionRng`, a SplitMix64 stream with

* **scalar draws** (``random``, ``integers``, ``normal``, ``shuffle``,
  ``choice``, ...) implemented once in pure Python, and
* **one bulk operation**, :func:`gamma_matrices` — the Thompson draw
  over all arms, for one stream (:meth:`DecisionRng.gamma_matrix`, its
  one-request case) or for many at once.

How the bulk draw stays a function of seeds
-------------------------------------------

A request advances its stream exactly once, deriving an *op key*; the
whole ``(rows, M)`` matrix then comes from numpy's ``standard_gamma``
on a Philox bit generator keyed by that op key (counter 0, key
``(op_key, 0)``), divided by the rates.  So a matrix depends on the op
key and the parameters only: a multi-request call, which takes its op
keys in request order and re-keys one Philox per request, returns the
one-by-one calls' bits, and a snapshot of a stream is its one 64-bit
state.

The price is numpy's own: NEP 19 keeps Philox's bits stable across
releases but not the ``standard_gamma`` algorithm, and that algorithm
calls the platform's ``log``/``exp``, so its last bits may differ
between libm builds.  ``pyproject.toml`` bounds numpy's major version,
and ``tests/test_rng_contract.py`` pins a golden digest of one fixed
draw, so a numpy that changed the draw fails by name.  The scalar draws
keep their own ``_ln``/``_exp``, built only from exactly-rounded IEEE-754
steps, so they give the same bits everywhere.

Extending the sampler?  Read CONTRIBUTING.md ("The RNG contract") first.
"""

from __future__ import annotations

import math
import random as _stdlib_random

import numpy as np

__all__ = ["DecisionRng", "derive_key", "gamma_matrices"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_SEED_INIT = 0x243F6A8885A308D3  # pi's fraction bits, a nothing-up-my-sleeve start
_TO_UNIT = 2.0**-53  # (u64 >> 11) + 0.5 scaled into the open interval (0, 1)

# atanh series 1/3, 1/5, ... 1/19 (highest order first, Horner-ready) for
# ln(m) = 2s·(1 + s²·P(s²)), s = (m-1)/(m+1), m in [sqrt(1/2), sqrt(2))
_ATANH_C = (
    0.05263157894736842,  # 1/19
    0.058823529411764705,  # 1/17
    0.06666666666666667,  # 1/15
    0.07692307692307693,  # 1/13
    0.09090909090909091,  # 1/11
    0.1111111111111111,  # 1/9
    0.14285714285714285,  # 1/7
    0.2,  # 1/5
    0.3333333333333333,  # 1/3
)
# exp Taylor coefficients 1/15! ... 1/2!, 1, 1 (highest order first)
_EXP_C = (
    7.647163731819816e-13,
    1.1470745597729725e-11,
    1.6059043836821613e-10,
    2.08767569878681e-09,
    2.505210838544172e-08,
    2.755731922398589e-07,
    2.7557319223985893e-06,
    2.48015873015873e-05,
    0.0001984126984126984,
    0.001388888888888889,
    0.008333333333333333,
    0.041666666666666664,
    0.16666666666666666,
    0.5,
    1.0,
    1.0,
)
_SQRT_HALF = 0.7071067811865476
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.4426950408889634


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(parts) -> int:
    """Hash a seed (int or tuple of ints) into a 64-bit stream key.

    Tuple components are absorbed in order and the length is absorbed
    last, so ``(a, b)`` and ``(a, b, 0)`` key different streams.  This is
    the seeding rule every decision-path module uses, mirroring the
    ``default_rng((seed, salt))`` idiom the codebase used before the
    backend split.
    """
    if not isinstance(parts, (tuple, list)):
        parts = (parts,)
    acc = _SEED_INIT
    for part in parts:
        acc = _mix64(acc ^ _mix64(int(part) & _MASK64))
    return _mix64(acc ^ len(parts))


def _ln(x: float) -> float:
    """Exactly-reproducible natural log (same bits on every platform).

    frexp range reduction to [sqrt(1/2), sqrt(2)), then the atanh series;
    accurate to a few ulp, which is far more than the scalar draws need.
    """
    m, e = math.frexp(x)
    if m < _SQRT_HALF:
        m = m * 2.0
        e = e - 1
    s = (m - 1.0) / (m + 1.0)
    z = s * s
    p = _ATANH_C[0]
    for cst in _ATANH_C[1:]:
        p = p * z + cst
    lnm = 2.0 * s * (1.0 + z * p)
    ef = float(e)
    return ef * _LN2_HI + (ef * _LN2_LO + lnm)


def _exp(x: float) -> float:
    """Exactly-reproducible exponential (the counterpart of :func:`_ln`)."""
    kf = float(math.floor(x * _INV_LN2 + 0.5))
    r = x - kf * _LN2_HI
    r = r - kf * _LN2_LO
    p = _EXP_C[0]
    for cst in _EXP_C[1:]:
        p = p * r + cst
    return math.ldexp(p, int(kf))


class DecisionRng:
    """The seeded RNG for everything the system decides.

    Scalar methods mirror the slice of ``numpy.random.Generator``'s API
    the decision path uses, so chunk orders, schedulers, and detectors
    are written once and accept either generator; engine code dispatches
    on the type only where a bulk draw exists (``GammaBelief.sample``).
    """

    __slots__ = ("_state",)

    def __init__(self, seed=None):
        if seed is None:
            seed = _stdlib_random.getrandbits(64)
        self._state = derive_key(seed)

    # ------------------------------------------------------------ the stream

    def _next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    @property
    def state(self) -> int:
        """The raw 64-bit stream position (diagnostics and tests only)."""
        return self._state

    # --------------------------------------------------------- scalar draws

    def random(self) -> float:
        """One double in the open interval (0, 1)."""
        return ((self._next_u64() >> 11) + 0.5) * _TO_UNIT

    def integers(self, low: int, high: int | None = None, size: int | None = None):
        """Uniform ints in ``[low, high)`` (or ``[0, low)``), numpy-style.

        Unbiased via Lemire's multiply-shift with rejection.
        """
        if high is None:
            low, high = 0, low
        low = int(low)
        high = int(high)
        n = high - low
        if n <= 0:
            raise ValueError(f"empty integer range [{low}, {high})")
        if size is not None:
            return [self.integers(low, high) for _ in range(size)]
        m = self._next_u64() * n
        frac = m & _MASK64
        if frac < n:
            threshold = ((1 << 64) - n) % n
            while frac < threshold:
                m = self._next_u64() * n
                frac = m & _MASK64
        return low + (m >> 64)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * self.random()

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Marsaglia polar draw (no cached spare: each call is self-contained)."""
        while True:
            v1 = 2.0 * self.random() - 1.0
            v2 = 2.0 * self.random() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                return loc + scale * (v1 * math.sqrt(-2.0 * _ln(s) / s))

    def lognormal(self, mean: float = 0.0, sigma: float = 1.0) -> float:
        return _exp(self.normal(mean, sigma))

    def poisson(self, lam: float = 1.0) -> int:
        """Knuth's product method — fine at the event rates detectors use."""
        if lam < 0.0:
            raise ValueError("lam must be non-negative")
        if lam == 0.0:
            return 0
        limit = _exp(-lam)
        k = 0
        prod = self.random()
        while prod > limit:
            k += 1
            prod *= self.random()
        return k

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates over any mutable sequence."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.integers(0, i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def choice(self, a, size: int | None = None, replace: bool = True, p=None):
        """numpy-style choice over ``range(a)`` or a sequence.

        Returns a single element when ``size`` is ``None``, else a list.
        ``p`` carries (unnormalized) weights; ``replace=False`` draws via
        a partial Fisher-Yates.
        """
        population = list(range(a)) if isinstance(a, int) else list(a)
        n = len(population)
        if n == 0:
            raise ValueError("cannot choose from an empty population")
        if p is not None:
            if replace is not True:
                raise ValueError("weighted choice without replacement is unsupported")
            weights = [float(w) for w in p]
            if len(weights) != n:
                raise ValueError("p must align with the population")
            total = 0.0
            cumulative = []
            for w in weights:
                if w < 0.0:
                    raise ValueError("weights must be non-negative")
                total += w
                cumulative.append(total)
            if total <= 0.0:
                raise ValueError("weights must sum to a positive value")

            def pick_one():
                r = self.random() * total
                for idx, edge in enumerate(cumulative):
                    if r < edge:
                        return population[idx]
                return population[n - 1]

            if size is None:
                return pick_one()
            return [pick_one() for _ in range(size)]
        if size is None:
            return population[self.integers(0, n)]
        if replace:
            return [population[self.integers(0, n)] for _ in range(size)]
        if size > n:
            raise ValueError("cannot draw more unique items than the population holds")
        pool = population[:]
        out = []
        for i in range(size):
            j = i + self.integers(0, n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out

    # ------------------------------------------------------------ bulk draws

    def gamma_matrix(self, alphas, betas, rows: int):
        """The vectorized Thompson draw: a ``(rows, M)`` Gamma sample matrix.

        Entry ``(r, m)`` is a draw from Gamma(shape=alphas[m],
        scale=1/betas[m]) — one Thompson-sampling round per row.  The
        stream advances exactly once (the op key) regardless of shape;
        the elements come from a Philox keyed by that op key (module
        docstring).

        Shapes and rates must be positive and finite.  Returns an
        ``ndarray``.  The one-request case of :func:`gamma_matrices`.
        """
        return gamma_matrices([(self, alphas, betas, rows)])[0]


def gamma_matrices(requests) -> list:
    """Many Thompson draws in one call.

    ``requests`` is a sequence of ``(rng, alphas, betas, rows)`` tuples;
    entry ``i`` of the returned list is exactly the matrix
    ``rng.gamma_matrix(alphas, betas, rows)`` would have returned had
    the requests been made one by one in list order — the same bits,
    and every ``rng`` left at the same position.  Every request is
    validated before any op key is taken, so an invalid one raises with
    no stream advanced; op keys are then taken in request order, so an
    ``rng`` that appears twice equals two back-to-back calls.
    """
    requests = list(requests)
    if not requests:
        return []
    for _rng, _alphas, _betas, rows in requests:
        if rows <= 0:
            raise ValueError("rows must be positive")
    cols = []
    for _rng, alphas, betas, _rows in requests:
        a_cols = np.asarray(alphas, dtype=np.float64)
        b_cols = np.asarray(betas, dtype=np.float64)
        if a_cols.ndim != 1 or a_cols.shape != b_cols.shape:
            raise ValueError("alphas and betas must align")
        cols.append((a_cols, b_cols))
    a_all = np.concatenate([a for a, _ in cols])
    b_all = np.concatenate([b for _, b in cols])
    if not ((a_all > 0.0) & (a_all < math.inf)).all():
        raise ValueError("gamma shapes must be positive")
    if not ((b_all > 0.0) & (b_all < math.inf)).all():
        raise ValueError("gamma rates must be positive")
    # one Philox per call, re-keyed per request: assigning the state costs
    # a fraction of constructing a bit generator
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    state = bits.state  # counter 0, key (0, 0), buffer empty
    key = state["state"]["key"]
    out = []
    for (rng, _a, _b, rows), (a_cols, b_cols) in zip(requests, cols):
        key[0] = rng._next_u64()
        bits.state = state
        draw = gen.standard_gamma(a_cols, size=(rows, a_cols.size))
        draw /= b_cols
        out.append(draw)
    return out
