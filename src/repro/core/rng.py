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
  one-request case) or for many at once — with two executors: numpy
  vector rounds and pure-Python scalar rounds, which walk the *same*
  counter-based draw schedule with the same IEEE-754 operation
  sequence, so either may execute any round and the bits do not move.

How the bulk contract stays bit-identical
-----------------------------------------

``gamma_matrix`` advances the main stream exactly once, deriving an *op
key*.  All randomness inside the op comes from a counter-based substream
``u_j = mix64(op_key + (j+1)·GOLDEN)`` consumed in a fixed round-major
schedule: rejection rounds process the pending elements in ascending
element order, drawing one block of uniforms per round.  Both executors
walk the identical schedule, so draw ``j`` lands on the identical
element in both.

Because the schedule is fixed per *round*, not per call, either executor
may run any round.  A round over more than ``_SCALAR_ROUND_MAX`` pending
elements runs vectorised; a round at or below it runs through the scalar
round code (same cursor, same ``_ln``/``_exp``), because a numpy
dispatch on a handful of elements costs more than the arithmetic.  The
threshold is a module constant, never configuration: it chooses an
executor and cannot reach a result.  Raised past every draw's size, it
makes the scalar code execute whole draws — the in-process oracle the
contract tests compare the vector rounds against.

One call may serve many streams.  Each request takes its own op key
(in request order) and keeps its own substream, schedule and cursor;
the vector rounds lay the requests' elements out side by side and run
each round over all of them at once, every stream drawing its block at
its own cursor.  Streams never share a uniform, so the result is the
one-by-one calls' to the bit.  The handover applies per stream: once a
round has shrunk to the threshold in total, each stream still in it
finishes through the scalar code at its own cursor.

Floating-point equality then only needs every arithmetic step to be an
exactly-rounded IEEE-754 operation evaluated in the same order: ``+ - *
/ sqrt`` and ``frexp/ldexp`` already are (numpy's elementwise kernels do
not fuse), and the two transcendentals the gamma sampler needs — ``ln``
and ``exp`` — are provided here as fixed polynomial evaluations
(:func:`_ln`, :func:`_exp`) built only from those exact primitives,
mirrored operation for operation in the vector path.  ``math.log`` /
``np.log`` are deliberately *not* used: their results are
implementation-defined in the last ulp and may disagree.

Extending the sampler?  Read CONTRIBUTING.md ("The RNG contract") first:
the draw *schedule* is load-bearing, and any new consumption of
randomness must be added to both executors in the same order.
"""

from __future__ import annotations

import math
import random as _stdlib_random
from itertools import accumulate

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
    """Exactly-reproducible natural log (both executors, same bits).

    frexp range reduction to [sqrt(1/2), sqrt(2)), then the atanh series;
    accurate to a few ulp, which is far more than the samplers need —
    what matters is that :func:`_ln_vec` is the same operation sequence.
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
    """Exactly-reproducible exponential (mirrors :func:`_exp_vec`)."""
    kf = float(math.floor(x * _INV_LN2 + 0.5))
    r = x - kf * _LN2_HI
    r = r - kf * _LN2_LO
    p = _EXP_C[0]
    for cst in _EXP_C[1:]:
        p = p * r + cst
    return math.ldexp(p, int(kf))


def _ln_vec(x):
    """Vector twin of :func:`_ln` — identical operation sequence.

    Steps run in place on the function's own temporaries; ``+`` and
    ``*`` commute exactly, so ``p *= z`` is ``p * z`` and ``z * C0`` is
    the first Horner step.
    """
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    np.multiply(m, 2.0, out=m, where=low)
    e -= low
    s = m - 1.0
    m += 1.0
    s /= m
    z = s * s
    p = z * _ATANH_C[0]
    p += _ATANH_C[1]
    for cst in _ATANH_C[2:]:
        p *= z
        p += cst
    p *= z
    p += 1.0
    s *= 2.0
    p *= s
    ef = e.astype(np.float64)
    lo = ef * _LN2_LO
    lo += p
    ef *= _LN2_HI
    ef += lo
    return ef


def _exp_vec(x):
    """Vector twin of :func:`_exp` — identical operation sequence."""
    kf = x * _INV_LN2
    kf += 0.5
    np.floor(kf, out=kf)
    r = x - kf * _LN2_HI
    r -= kf * _LN2_LO
    p = r * _EXP_C[0]
    p += _EXP_C[1]
    for cst in _EXP_C[2:]:
        p *= r
        p += cst
    return np.ldexp(p, kf.astype(np.int32))


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
        main stream advances exactly once (the op key) regardless of
        shape; all element randomness comes from the op's counter-based
        substream, consumed on the fixed round-major schedule described
        in the module docstring, so the vector and scalar executors
        return bit-identical matrices.

        Shapes and rates must be positive and finite (a NaN shape would
        be rejected by every round forever).  Returns an ``ndarray``.
        The one-request case of :func:`gamma_matrices`.
        """
        return gamma_matrices([(self, alphas, betas, rows)])[0]


def gamma_matrices(requests) -> list:
    """Many Thompson draws in one kernel call.

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
    draws = [
        (rng._next_u64(), a_cols, b_cols, rows)
        for (rng, _a, _b, rows), (a_cols, b_cols) in zip(requests, cols)
    ]
    return _gamma_matrices_np(draws, a_all, b_all)


# ---------------------------------------------------------------------------
# The two gamma executors.  Marsaglia-Tsang with the shape<1 boost;
# per-round draw blocks come from the op substream in ascending element
# order.  Keep every arithmetic expression textually parallel between the
# two: that parallelism IS the bit-identity proof obligation.
#
# The schedule is per *round*, not per call, and both executors read one
# cursor, so either may execute any round.  The scalar round code below
# is written once: ``_gamma_matrix_py`` drives it over every element of
# a draw no bigger than ``_SCALAR_ROUND_MAX``, and ``_gamma_matrices_np``
# hands it each later round that has shrunk to that size in total — the
# tail rounds of a rejection loop, where a numpy dispatch costs more than
# the arithmetic — stream by stream, each at its own cursor.
# ---------------------------------------------------------------------------

# Rounds over at most this many elements run through the scalar code.
# A constant, never configuration: it selects who executes a round, and
# both executions return the same bits (tests/test_rng_contract.py runs
# the vector rounds at 0, at 32 and at 10**9, where the scalar code
# executes every draw whole and serves as the reference).
# Measured crossover (numpy 2.4, CPython 3.11, us per draw at threshold
# 0 / 8 / 16 / 24 / 32 / 48 / 64 / 96):
#   M=1000 batch 1:  729 / 566 / 550 / 504 / 507 / 530 / 548 / 543
#   M=30   batch 8:  517 / 347 / 318 / 327 / 331 / 353 / 383 / 389
# Flat within ~5% over 16..48; 32 also makes the served shape (M=30,
# batch 1: 154 us scalar against 215 us at 24) one scalar draw.  The
# threshold compares a round's total over all its streams; re-measured
# with many streams per call (best of 14, us per call, same columns):
#   M=1000 batch 1:            677 / 554 / 522 / 511 / 520 / 508 / 562 / 544
#   M=30   batch 8:            480 / 363 / 346 / 342 / 353 / 358 / 401 / 413
#   8 streams, M=30 batch 1:   678 / 459 / 445 / 460 / 466 / 460 / 500 / 505
#   32 streams, M=30 batch 1:  985 / 796 / 787 / 793 / 814 / 823 / 905 / 922
# Still flat within ~5% over 16..48 for one stream or many, so it stays.
_SCALAR_ROUND_MAX = 32


class _Substream:
    """One op's counter substream ``u_j = mix64(key + (j+1)·GOLDEN)``.

    Holds the cursor the scalar rounds advance; the vector rounds keep
    the same cursor in :class:`_Streams` and hand it back and forth,
    which is what lets a draw change executor between rounds without
    moving any uniform.
    """

    __slots__ = ("key", "cursor")

    def __init__(self, key: int):
        self.key = key
        self.cursor = 0

    def take(self, count: int) -> list:
        """The next ``count`` uniforms in (0, 1), as a list.

        :func:`_mix64` inlined over a running ``key + (j+1)·GOLDEN``: a
        call per uniform is ~7% of a whole scalar draw.
        """
        out = []
        z0 = (self.key + self.cursor * _GOLDEN) & _MASK64
        for _ in range(count):
            z0 = (z0 + _GOLDEN) & _MASK64
            z = ((z0 ^ (z0 >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            out.append((((z ^ (z >> 31)) >> 11) + 0.5) * _TO_UNIT)
        self.cursor += count
        return out


def _unit_vec(z):
    """:func:`_mix64` then the (0, 1) map, over an array of u64 words
    (mixed in place) — the vector twin of :meth:`_Substream.take`'s body."""
    u64 = np.uint64
    t = z >> u64(30)
    z ^= t
    z *= u64(0xBF58476D1CE4E5B9)
    np.right_shift(z, u64(27), out=t)
    z ^= t
    z *= u64(0x94D049BB133111EB)
    np.right_shift(z, u64(31), out=t)
    z ^= t
    z >>= u64(11)
    out = z.astype(np.float64)
    out += 0.5
    out *= _TO_UNIT
    return out


class _Streams:
    """The substreams of one :func:`gamma_matrices` call, side by side.

    Elements are laid out stream-major: stream ``s`` (one request, one
    op key) owns the contiguous index range ``[starts[s], starts[s+1])``
    and its own cursor.  A vector round draws, for the elements it is
    handed, each stream's block from that stream's substream at that
    stream's cursor — ``z = (j+1)·GOLDEN + base_s`` over the round's
    positions ``j``, where ``base_s = key_s + (cursor_s - offset_s)·GOLDEN``
    folds the stream's key, cursor and block offset into one word — so
    every stream sees exactly the uniforms a call of its own would.
    """

    __slots__ = ("keys", "cursors", "starts", "_steps", "_keys_u64")

    def __init__(self, keys: list, sizes: list):
        self.keys = keys
        self.starts = np.array(list(accumulate(sizes, initial=0)))
        # (j+1)·GOLDEN for every position a round of two blocks can use
        self._steps = np.arange(1, 2 * int(self.starts[-1]) + 1, dtype=np.uint64)
        self._steps *= np.uint64(_GOLDEN)
        if len(keys) == 1:
            # one stream: a Python-int cursor and no per-round bookkeeping
            # (the array bookkeeping costs a one-stream draw 5-12%)
            self.cursors = [0]
        else:
            self.cursors = np.zeros(len(keys), dtype=np.int64)
            self._keys_u64 = np.array(keys * 2, dtype=np.uint64)  # one per block

    def take_vec(self, idx, blocks: int = 1):
        """``blocks`` (1 or 2) blocks of uniforms for the elements
        ``idx`` (ascending): block ``b`` gives each stream its next
        ``k_s`` draws, ``k_s`` being its element count in ``idx`` — the
        polar round's u1 block then u2 block, or the accept round's one."""
        u64 = np.uint64
        k = idx.size
        if len(self.keys) == 1:
            base = (self.keys[0] + self.cursors[0] * _GOLDEN) & _MASK64
            self.cursors[0] += blocks * k
            return _unit_vec(self._steps[:blocks * k] + u64(base))
        at = idx.searchsorted(self.starts)  # where each stream begins in idx
        counts = at[1:] - at[:-1]
        shift = self.cursors - at[:-1]  # cursor_s - offset_s
        self.cursors += blocks * counts
        if blocks == 2:
            # the u2 block: each stream k_s draws on, at round positions k on
            shift = np.concatenate((shift, shift + (counts - k)))
            counts = np.concatenate((counts, counts))
        bases = shift.astype(u64)
        bases *= u64(_GOLDEN)
        bases += self._keys_u64[:bases.size]
        return _unit_vec(self._steps[:blocks * k] + np.repeat(bases, counts))

    def scalar_rounds(self, idx):
        """Hand the elements ``idx`` (ascending) to the scalar round code,
        stream by stream: yields ``(substream, lo, hi)`` — the stream's
        elements are ``idx[lo:hi]`` — with the substream at the stream's
        cursor, and takes the cursor back when the consumer moves on."""
        at = idx.searchsorted(self.starts).tolist()
        for s, (lo, hi) in enumerate(zip(at, at[1:])):
            if lo < hi:
                stream = _Substream(self.keys[s])
                stream.cursor = int(self.cursors[s])
                yield stream, lo, hi
                self.cursors[s] = stream.cursor


def _polar_normals(stream: _Substream, count: int) -> list:
    """Standard normals for ``count`` elements by Marsaglia's polar method.

    Polar rounds run until every element has one: each round draws a
    block of ``u1`` then a block of ``u2`` for the elements still
    waiting, in ascending order.
    """
    out = [0.0] * count
    need = range(count)
    while need:
        still = []
        k = len(need)
        for i, u1, u2 in zip(need, stream.take(k), stream.take(k)):
            v1 = 2.0 * u1 - 1.0
            v2 = 2.0 * u2 - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                out[i] = v1 * math.sqrt(-2.0 * _ln(s) / s)
            else:
                still.append(i)
        need = still
    return out


def _accept_round(stream: _Substream, pending, xs, ds, cs, vals) -> list:
    """One Marsaglia-Tsang accept round over ``pending`` (ascending).

    ``xs`` holds the round's normals aligned with ``pending``; ``ds`` /
    ``cs`` / ``vals`` are indexed by element.  The round draws one
    uniform per element whose ``t`` is positive, in ascending order, and
    returns the rejected elements — ascending again, since one ordered
    pass collects both the ``t <= 0`` and the failed-test cases.
    """
    ts = [1.0 + cs[e] * x for e, x in zip(pending, xs)]
    us = iter(stream.take(sum(t > 0.0 for t in ts)))
    rejected = []
    for e, x, t in zip(pending, xs, ts):
        if t > 0.0:
            u = next(us)
            v = t * t * t
            x2 = x * x
            d = ds[e]
            if u < 1.0 - 0.0331 * (x2 * x2) or _ln(u) < 0.5 * x2 + d * (
                1.0 - v + _ln(v)
            ):
                vals[e] = d * v
                continue
        rejected.append(e)
    return rejected


def _rejection_rounds(stream: _Substream, ds: list, cs: list) -> list:
    """Run accept rounds until every element holds its ``d·v`` value."""
    vals = [0.0] * len(ds)
    pending = range(len(ds))
    while pending:
        xs = _polar_normals(stream, len(pending))
        pending = _accept_round(stream, pending, xs, ds, cs, vals)
    return vals


def _gamma_matrix_py(op_key: int, a_cols: list, b_cols: list, rows: int):
    M = len(a_cols)
    stream = _Substream(op_key)
    boost_u = stream.take(rows * M)

    d_cols = []
    c_cols = []
    for a in a_cols:
        d = (a + 1.0 if a < 1.0 else a) - (1.0 / 3.0)
        d_cols.append(d)
        c_cols.append(1.0 / math.sqrt(9.0 * d))
    vals = _rejection_rounds(stream, d_cols * rows, c_cols * rows)

    out = []
    for r in range(rows):
        base = r * M
        row = []
        for m in range(M):
            v = vals[base + m]
            a = a_cols[m]
            if a < 1.0:
                v = v * _exp(_ln(boost_u[base + m]) / a)
            row.append(v / b_cols[m])
        out.append(row)
    return out


def _gamma_matrices_np(draws: list, a_all, b_all) -> list:
    """The numpy executor over ``(op_key, a_cols, b_cols, rows)`` draws;
    ``a_all`` / ``b_all`` are the draws' columns end to end."""
    out: list = [None] * len(draws)
    live = []  # (index, op key, shapes, rates, rows) of the draws with arms
    for i, (key, a_cols, b_cols, rows) in enumerate(draws):
        if a_cols.size:
            live.append((i, key, a_cols, b_cols, rows))
        else:
            out[i] = np.zeros((rows, 0), dtype=np.float64)
    sizes = [rows * a_cols.size for _i, _key, a_cols, _b, rows in live]
    n = sum(sizes)
    if n <= _SCALAR_ROUND_MAX:
        # the first round is already a tail round: every draw is scalar
        for i, key, a_cols, b_cols, rows in live:
            out[i] = np.array(
                _gamma_matrix_py(key, a_cols.tolist(), b_cols.tolist(), rows)
            )
        return out
    if len(live) == 1:
        # one stream: a (rows, M) layout, the columns broadcast over rows
        # and d, c computed per column: flat, one stream reads 1.04-1.10x
        # the (rows, M) draw at M=1000 batch 8
        _i, _key, a_cols, b_cols, rows = live[0]
    else:
        # many: one row holding every request's rows end to end
        rows = 1
        if all(r == 1 for *_, r in live):
            a_cols, b_cols = a_all, b_all
        else:
            a_cols = np.concatenate([np.tile(a, r) for _i, _k, a, _b, r in live])
            b_cols = np.concatenate([np.tile(b, r) for _i, _k, _a, b, r in live])
    streams = _Streams([key for _i, key, *_ in live], sizes)
    pending = np.arange(n)
    boost_u = streams.take_vec(pending)

    small_cols = a_cols < 1.0
    d_cols = np.where(small_cols, a_cols + 1.0, a_cols)
    d_cols -= 1.0 / 3.0
    c_cols = 1.0 / np.sqrt(9.0 * d_cols)
    d = np.tile(d_cols, rows) if rows > 1 else d_cols
    c = np.tile(c_cols, rows) if rows > 1 else c_cols

    x = np.empty(n, dtype=np.float64)
    val = np.empty(n, dtype=np.float64)
    while pending.size > _SCALAR_ROUND_MAX:
        need = pending
        while need.size > _SCALAR_ROUND_MAX:
            k = need.size
            v12 = 2.0 * streams.take_vec(need, blocks=2)  # the u1 block, then u2
            v12 -= 1.0
            v1, v2 = v12[:k], v12[k:]
            s = v1 * v1 + v2 * v2
            ok = (0.0 < s) & (s < 1.0)
            s_ok = s[ok]
            x[need[ok]] = v1[ok] * np.sqrt(-2.0 * _ln_vec(s_ok) / s_ok)
            need = need[~ok]
        normals = []
        for stream, lo, hi in streams.scalar_rounds(need):
            normals += _polar_normals(stream, hi - lo)
        x[need] = normals
        xs = x[pending]
        t = 1.0 + c[pending] * xs
        has_v = t > 0.0
        tpos = pending[has_v]
        tv = t[has_v]
        v = tv * tv * tv
        us = streams.take_vec(tpos)
        xe = xs[has_v]
        x2 = xe * xe
        accept = us < 1.0 - 0.0331 * (x2 * x2)
        log_test = np.flatnonzero(~accept)
        if log_test.size:
            vl = v[log_test]
            # ln(u) and ln(v) in one pass: elementwise, so the same bits
            lns = _ln_vec(np.concatenate((us[log_test], vl)))
            lhs = lns[:log_test.size]
            rhs = 0.5 * x2[log_test] + d[tpos[log_test]] * (1.0 - vl + lns[log_test.size:])
            accept[log_test] = lhs < rhs
        good = tpos[accept]
        val[good] = d[good] * v[accept]
        rejected = ~has_v
        rejected[has_v] = ~accept
        pending = pending[rejected]
    ds, cs, vals = d[pending].tolist(), c[pending].tolist(), []
    for stream, lo, hi in streams.scalar_rounds(pending):
        vals += _rejection_rounds(stream, ds[lo:hi], cs[lo:hi])
    val[pending] = vals

    # one stream's matrix is (rows, M); many streams' elements are one
    # flat row, indexed flat (a 2-D boolean index costs twice as much)
    grid, boost, pick = val, boost_u, small_cols
    if rows > 1:
        grid = val.reshape(rows, a_cols.size)
        boost = boost_u.reshape(rows, a_cols.size)
        pick = (slice(None), small_cols)
    if small_cols.any():
        grid[pick] *= _exp_vec(_ln_vec(boost[pick]) / a_cols[small_cols])
    grid /= b_cols
    for (i, _key, shapes, _b, r), lo, hi in zip(live, streams.starts, streams.starts[1:]):
        out[i] = val[lo:hi].reshape(r, shapes.size)
    return out
