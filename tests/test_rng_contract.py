"""The RNG contract: DecisionRng determinism and the one Thompson draw.

Every sampling decision in the system flows through
:class:`repro.core.rng.DecisionRng`, whose scalar draws are pure Python
and whose one bulk operation (``gamma_matrices``, the vectorized Thompson
draw) is numpy's ``standard_gamma`` on a Philox keyed by one op key per
request.  These tests are the contract's enforcement: the scalar stream
is deterministic, a multi-request call equals fresh per-request Philox
generators and the one-by-one calls, the draws follow the Gamma law, and
a golden digest of one fixed draw fails by name on a numpy whose Philox
or ``standard_gamma`` changed — before any decision-stream parity test
has to localize it.
"""

import hashlib
import math
import signal
import sys
import threading

import numpy as np
import pytest
from scipy import stats

from repro.core import rng as rng_module
from repro.core.belief import GammaBelief
from repro.core.rng import DecisionRng, derive_key


@pytest.fixture
def hard_timeout():
    """Turn a draw that never returns into a failure, not a hung suite."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def on_alarm(signum, frame):
        raise AssertionError("the draw did not return within 10 s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(10)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# ----------------------------------------------------------- scalar stream

def test_same_seed_same_stream():
    a = DecisionRng(12345)
    b = DecisionRng(12345)
    assert [a.random() for _ in range(64)] == [b.random() for _ in range(64)]
    assert a.state == b.state


def test_different_seeds_diverge():
    a = DecisionRng(1)
    b = DecisionRng(2)
    assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]


def test_tuple_seeds_are_first_class():
    assert DecisionRng((7, 0x51A1)).random() == DecisionRng((7, 0x51A1)).random()
    assert DecisionRng((7, 0)).random() != DecisionRng(7).random()
    assert DecisionRng((1, 2)).random() != DecisionRng((2, 1)).random()


def test_derive_key_is_deterministic_and_order_sensitive():
    assert derive_key((3, 5, 9)) == derive_key((3, 5, 9))
    assert derive_key((3, 5)) != derive_key((5, 3))
    # length is absorbed: a prefix must not collide with its extension
    assert derive_key((3,)) != derive_key((3, 0))


def test_random_is_in_open_unit_interval():
    rng = DecisionRng(0)
    draws = [rng.random() for _ in range(1000)]
    assert all(0.0 < u < 1.0 for u in draws)


def test_integers_bounds_and_determinism():
    rng = DecisionRng(99)
    draws = rng.integers(5, 17, size=500)
    assert all(5 <= v < 17 for v in draws)
    assert set(draws) == set(range(5, 17))  # every value reachable
    assert rng.integers(3) in (0, 1, 2)
    with pytest.raises(ValueError):
        rng.integers(4, 4)


def test_shuffle_is_a_permutation():
    rng = DecisionRng(4)
    seq = list(range(40))
    rng.shuffle(seq)
    assert sorted(seq) == list(range(40))
    assert seq != list(range(40))  # astronomically unlikely to be identity


def test_choice_without_replacement_is_unique():
    rng = DecisionRng(8)
    picked = rng.choice(30, size=30, replace=False)
    assert sorted(picked) == list(range(30))
    with pytest.raises(ValueError):
        rng.choice(3, size=4, replace=False)


def test_weighted_choice_respects_zero_weights():
    rng = DecisionRng(2)
    draws = rng.choice(["a", "b", "c"], size=200, p=[1.0, 0.0, 3.0])
    assert "b" not in draws
    assert draws.count("c") > draws.count("a")


def test_scalar_moments_sane():
    rng = DecisionRng(11)
    normals = [rng.normal() for _ in range(4000)]
    mean = sum(normals) / len(normals)
    var = sum((x - mean) ** 2 for x in normals) / len(normals)
    assert abs(mean) < 0.1
    assert abs(var - 1.0) < 0.15
    lam = 3.0
    pois = [rng.poisson(lam) for _ in range(4000)]
    assert abs(sum(pois) / len(pois) - lam) < 0.2


# -------------------------------------------------------------- gamma bulk

def _alphas_betas():
    base = DecisionRng(777)
    alphas = [0.1 + 5.0 * base.random() for _ in range(37)]
    betas = [0.05 + 3.0 * base.random() for _ in range(37)]
    return alphas, betas


def test_gamma_matrix_shape_and_positivity():
    alphas, betas = _alphas_betas()
    got = DecisionRng(5).gamma_matrix(alphas, betas, rows=4)
    assert got.shape == (4, len(alphas))
    assert (got > 0.0).all()


def test_gamma_matrix_moments():
    # mean of Gamma(a, rate b) is a/b; average many rows per arm
    alphas = [0.5, 1.0, 4.0]
    betas = [1.0, 2.0, 0.5]
    got = DecisionRng(13).gamma_matrix(alphas, betas, rows=6000)
    rows = [list(r) for r in got]
    for m, (a, b) in enumerate(zip(alphas, betas)):
        mean = sum(r[m] for r in rows) / len(rows)
        expected = a / b
        assert abs(mean - expected) < 0.12 * max(expected, 1.0)


def test_gamma_matrix_validates_inputs(hard_timeout):
    nan, inf = float("nan"), float("inf")
    rng = DecisionRng(0)
    with pytest.raises(ValueError):
        rng.gamma_matrix([1.0], [1.0], rows=0)
    with pytest.raises(ValueError):
        rng.gamma_matrix([0.0], [1.0], rows=1)
    with pytest.raises(ValueError):
        rng.gamma_matrix([1.0], [-1.0], rows=1)
    with pytest.raises(ValueError):
        rng.gamma_matrix([1.0, 2.0], [1.0], rows=1)
    # non-finite parameters would come back as NaN or 0 draws
    for bad in (nan, inf, -inf):
        with pytest.raises(ValueError, match="shapes"):
            rng.gamma_matrix([1.0, bad], [1.0, 1.0], rows=1)
        with pytest.raises(ValueError, match="rates"):
            rng.gamma_matrix([1.0, 1.0], [bad, 1.0], rows=1)
    # a rejected call consumes nothing
    assert rng.state == DecisionRng(0).state


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1.0])
def test_gamma_belief_rejects_non_finite_priors(bad):
    with pytest.raises(ValueError):
        GammaBelief(bad, 1.0)
    with pytest.raises(ValueError):
        GammaBelief(0.1, bad)


def test_gamma_matrix_empty_arms():
    got = DecisionRng(1).gamma_matrix([], [], rows=3)
    assert [list(r) for r in got] == [[], [], []]


def test_gamma_matrix_advances_stream_once_regardless_of_shape():
    a = DecisionRng(21)
    b = DecisionRng(21)
    a.gamma_matrix([1.0], [1.0], rows=1)
    b.gamma_matrix([0.2] * 50, [0.7] * 50, rows=9)
    assert a.state == b.state
    assert a.random() == b.random()


# the (shape, rate) grid; shapes below 1 take standard_gamma's boost branch
KS_SHAPES = [0.1, 0.5, 0.95, 1.0, 2.5, 40.0]
KS_RATES = [0.3, 1.0, 7.0]


@pytest.mark.parametrize("shape", KS_SHAPES)
def test_gamma_draws_follow_the_gamma_law(shape):
    """10**5 draws per (shape, rate) cell, Kolmogorov-Smirnov against
    ``scipy.stats.gamma``."""
    got = DecisionRng((0x6B5, KS_SHAPES.index(shape))).gamma_matrix(
        [shape] * len(KS_RATES), KS_RATES, rows=100_000
    )
    for m, rate in enumerate(KS_RATES):
        result = stats.kstest(got[:, m], stats.gamma(shape, scale=1.0 / rate).cdf)
        assert result.pvalue > 1e-3, (shape, rate, result)


# sha256 of DecisionRng(2024).gamma_matrix(GOLDEN_ALPHAS, GOLDEN_BETAS, 16)
# as little-endian doubles
GOLDEN_ALPHAS = [0.1, 0.5, 1.0, 3.7, 40.0]
GOLDEN_BETAS = [1.0, 2.0, 0.5, 1.0, 10.0]
GOLDEN_DIGEST = "e9b71b395898c3587dfa7ebccada55c72d950d99e47644eeb090f868bba88789"


def test_golden_draw_pins_numpy_philox_and_standard_gamma():
    """Every Thompson decision rides on numpy's Philox bits and its
    ``standard_gamma`` algorithm; NEP 19 keeps the first stable across
    releases, not the second.  A numpy that changed either replays every
    recorded session to different frames, and this test says so first."""
    got = DecisionRng(2024).gamma_matrix(GOLDEN_ALPHAS, GOLDEN_BETAS, rows=16)
    digest = hashlib.sha256(got.astype("<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_DIGEST, (
        f"numpy {np.__version__} draws a different Thompson matrix: its Philox "
        "or standard_gamma changed, so every decision stream moved"
    )


def test_availability_mask_grows_and_keeps_its_types():
    """The sampler's flat availability buffer: ``extend()`` mid-run grows
    it (no view may pin it), and ``chunk_availability`` stays a bool
    ndarray."""
    from repro.core.chunking import fixed_size_chunks
    from repro.core.sampler import ExSample
    from repro.detection.detector import OracleDetector
    from repro.tracking.discriminator import OracleDiscriminator
    from repro.video.repository import single_clip_repository

    rng = DecisionRng(4)
    chunks = fixed_size_chunks(48, 4, rng)
    repo = single_clip_repository(48, [])
    engine = ExSample(
        chunks[:8], OracleDetector(repo), OracleDiscriminator(), rng=rng, batch_size=3
    )

    def check(expected_len):
        mask = engine.chunk_availability
        assert len(mask) == expected_len
        assert isinstance(mask, np.ndarray) and mask.dtype == bool
        return [bool(b) for b in mask]

    held = engine.chunk_availability  # a caller may keep one across extend()
    for _ in range(6):
        engine.commit(engine.plan())
    check(8)
    engine.extend(chunks[8:])
    assert check(12)[8:] == [True] * 4
    assert len(held) == 8
    while not engine.exhausted:
        engine.commit(engine.plan())
    assert check(12) == [False] * 12
    assert engine.frames_processed == 48


# ------------------------------------------- the scalar transcendentals

def test_scalar_ln_exp_track_the_math_module():
    # the scalar draws' own ln/exp are built from exactly-rounded steps
    # (the same bits everywhere) and stay within an ulp of the math module
    from repro.core.rng import _exp, _ln

    ln_pts = [1e-9, 0.1, 0.5, 1.0, 2.0, 10.0, 1e6]
    exp_pts = [-20.0, -1.0, 0.0, 1.0, 2.5, 20.0]
    assert all(
        math.isclose(_ln(x), math.log(x), rel_tol=1e-15) for x in ln_pts
    )
    assert all(
        math.isclose(_exp(x), math.exp(x), rel_tol=1e-15) for x in exp_pts
    )


# ------------------------------------------------- many streams, one call

def _shapes(n, regime):
    """``n`` (shape, rate) pairs below 1, above 1, or straddling it."""
    base = DecisionRng((n, len(regime)))
    lo, hi = {"small": (0.05, 0.95), "large": (1.0, 30.0), "mixed": (0.05, 4.0)}[regime]
    alphas = [lo + (hi - lo) * base.random() for _ in range(n)]
    betas = [0.05 + 20.0 * base.random() for _ in range(n)]
    return alphas, betas


def _mixes(count):
    """``count`` seeded request mixes: 1, 2, 8 or 40 streams, 0 to 1000
    arms, rows 1-8, every shape regime, and now and then one rng asked
    twice in the same call."""
    sizes = (0, 1, 7, 30, 33, 1000)
    for mix in range(count):
        base = DecisionRng((0x6A77, mix))
        streams = (1, 2, 8, 40)[mix % 4]
        requests = []
        for s in range(streams):
            arms = sizes[base.integers(len(sizes))]
            if arms == 1000 and streams > 8:
                arms = 1 + base.integers(60)  # keep a 40-stream mix quick
            alphas, betas = _shapes(arms, ("small", "large", "mixed")[base.integers(3)])
            seed = (mix, s)
            if s and base.random() < 0.15:
                seed = requests[-1][0]  # the same rng again, inside one call
            requests.append((seed, alphas, betas, 1 + base.integers(8)))
        yield requests


def _one_by_one(requests):
    rngs = {}
    got = [
        rngs.setdefault(seed, DecisionRng(seed)).gamma_matrix(alphas, betas, rows)
        for seed, alphas, betas, rows in requests
    ]
    return got, rngs


def _in_one_call(requests):
    rngs = {}
    got = rng_module.gamma_matrices([
        (rngs.setdefault(seed, DecisionRng(seed)), alphas, betas, rows)
        for seed, alphas, betas, rows in requests
    ])
    return got, rngs


def _bits(result):
    """Element bits, then every stream's position and its next draw."""
    matrices, rngs = result
    return (
        [m.tolist() for m in matrices],
        {seed: (rng.state, rng.random()) for seed, rng in rngs.items()},
    )


def test_gamma_matrices_equal_one_by_one_calls():
    """A multi-request call returns each request exactly the matrix its
    own ``gamma_matrix`` call would, and leaves every stream — an rng
    asked twice included — where the calls one by one leave it."""
    mixes = list(_mixes(200))
    assert any(len({r[0] for r in m}) < len(m) for m in mixes)  # repeats occur
    for requests in mixes:
        assert _bits(_in_one_call(requests)) == _bits(_one_by_one(requests))


def test_every_request_equals_a_fresh_philox():
    """The one re-keyed Philox of a call gives each request exactly what
    ``Generator(Philox(key=op_key))`` gives: no request sees another's
    counter or buffered bits."""
    for requests in _mixes(40):
        got, _rngs = _in_one_call(requests)
        streams = {}
        for (seed, alphas, betas, rows), matrix in zip(requests, got):
            op_key = streams.setdefault(seed, DecisionRng(seed))._next_u64()
            fresh = np.random.Generator(np.random.Philox(key=op_key))
            want = fresh.standard_gamma(alphas, size=(rows, len(alphas)))
            assert matrix.tolist() == (want / np.asarray(betas)).tolist()


def _fresh_philox(requests):
    """Each request's matrix from its own ``Generator(Philox(key=op_key))``."""
    streams, out = {}, []
    for seed, alphas, betas, rows in requests:
        op_key = streams.setdefault(seed, DecisionRng(seed))._next_u64()
        fresh = np.random.Generator(np.random.Philox(key=op_key))
        want = fresh.standard_gamma(alphas, size=(rows, len(alphas)))
        out.append((want / np.asarray(betas)).tolist())
    return out


def test_threads_drawing_at_once_each_equal_a_fresh_philox():
    """No draw shares a bit generator across threads: two threads
    drawing at the same time (thread switches forced every microsecond)
    still get exactly what a fresh Philox per request gives — the guard
    for any Philox that outlives one call."""
    mixes = list(_mixes(24))
    start = threading.Barrier(2)
    got = {}

    def draw(name, mine):
        start.wait()
        got[name] = [
            [m.tolist() for m in _in_one_call(requests)[0]]
            for _ in range(3) for requests in mine
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=draw, args=(name, mixes[name::2]))
            for name in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    for name in (0, 1):
        want = [_fresh_philox(requests) for _ in range(3) for requests in mixes[name::2]]
        assert got[name] == want


def test_gamma_matrices_validate_every_request_first():
    """An invalid request anywhere in the call raises before any stream
    takes its op key — the valid requests before it included."""
    alphas, betas = _shapes(12, "mixed")
    for bad in (
        ([1.0], [1.0], 0),
        ([0.0], [1.0], 1),
        ([1.0], [float("nan")], 1),
        ([1.0, 2.0], [1.0], 1),
    ):
        first, second = DecisionRng(1), DecisionRng(2)
        with pytest.raises(ValueError):
            rng_module.gamma_matrices(
                [(first, alphas, betas, 2), (second, *bad)]
            )
        assert (first.state, second.state) == (DecisionRng(1).state, DecisionRng(2).state)
    assert rng_module.gamma_matrices([]) == []
