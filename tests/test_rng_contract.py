"""The RNG contract: DecisionRng determinism and executor bit-identity.

Every sampling decision in the system flows through
:class:`repro.core.rng.DecisionRng`, whose scalar draws are pure Python
and whose one bulk operation (``gamma_matrix``, the vectorized Thompson
draw) has two executors — numpy vector rounds and pure-Python scalar
rounds — that must return **bit-identical** matrices and leave the
stream in the same position.  The ``executor`` fixture can make the
scalar rounds run every draw whole, which is the reference each
comparison here holds the shipped handover to.  These tests are the
contract's enforcement: if either half drifts — a different
transcendental, a reordered draw schedule, an executor-dependent
rounding — the suite fails before any decision-stream parity test has
to localize it.
"""

import math
import signal

import numpy as np
import pytest

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


def test_gamma_matrix_shape_and_positivity(executor):
    alphas, betas = _alphas_betas()
    for forced in (False, True):
        executor("scalar" if forced else "shipped")
        got = DecisionRng(5).gamma_matrix(alphas, betas, rows=4)
        rows = [list(r) for r in got]
        assert len(rows) == 4 and all(len(r) == len(alphas) for r in rows)
        assert all(v > 0.0 for r in rows for v in r)


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


@pytest.mark.parametrize("rows", [1, 2, 8])
@pytest.mark.parametrize("seed", [0, 1, 42, (9, 0xBEEF)])
def test_gamma_matrix_twins_bit_identical(executor, seed, rows):
    """The heart of the contract: the shipped executor and the scalar
    rounds alone must produce the exact same floats AND leave the stream
    in the exact same position."""
    alphas, betas = _alphas_betas()

    fast_rng = DecisionRng(seed)
    fast = fast_rng.gamma_matrix(alphas, betas, rows=rows)
    fast_next = fast_rng.random()

    executor("scalar")
    slow_rng = DecisionRng(seed)
    slow = slow_rng.gamma_matrix(alphas, betas, rows=rows)
    slow_next = slow_rng.random()

    assert fast.tolist() == slow.tolist()  # element-wise exact, not approximate
    assert fast_next == slow_next  # the op consumed one main-stream step


def test_gamma_matrix_twins_across_shape_regimes(executor):
    """Shapes below and above 1 exercise both Marsaglia-Tsang branches."""
    alphas = [0.05, 0.3, 0.9, 1.0, 1.1, 7.5, 40.0]
    betas = [1.0] * len(alphas)
    fast = DecisionRng(3).gamma_matrix(alphas, betas, rows=16)
    executor("scalar")
    slow = DecisionRng(3).gamma_matrix(alphas, betas, rows=16)
    assert fast.tolist() == slow.tolist()


def test_gamma_matrix_validates_inputs(executor, hard_timeout):
    nan, inf = float("nan"), float("inf")
    for forced in (False, True):
        executor("scalar" if forced else "shipped")
        rng = DecisionRng(0)
        with pytest.raises(ValueError):
            rng.gamma_matrix([1.0], [1.0], rows=0)
        with pytest.raises(ValueError):
            rng.gamma_matrix([0.0], [1.0], rows=1)
        with pytest.raises(ValueError):
            rng.gamma_matrix([1.0], [-1.0], rows=1)
        with pytest.raises(ValueError):
            rng.gamma_matrix([1.0, 2.0], [1.0], rows=1)
        # non-finite parameters: a NaN shape used to spin forever (every
        # round rejects it), a NaN or infinite rate returned NaN / 0 draws
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


def test_gamma_matrix_empty_arms(executor):
    for forced in (False, True):
        executor("scalar" if forced else "shipped")
        got = DecisionRng(1).gamma_matrix([], [], rows=3)
        assert [list(r) for r in got] == [[], [], []]


def test_gamma_matrix_advances_stream_once_regardless_of_shape():
    a = DecisionRng(21)
    b = DecisionRng(21)
    a.gamma_matrix([1.0], [1.0], rows=1)
    b.gamma_matrix([0.2] * 50, [0.7] * 50, rows=9)
    assert a.state == b.state
    assert a.random() == b.random()


# ------------------------------------------------- the per-round handover

T = rng_module._SCALAR_ROUND_MAX


def _shapes(n, regime):
    """``n`` (shape, rate) pairs below 1, above 1, or straddling it."""
    base = DecisionRng((n, len(regime)))
    lo, hi = {"small": (0.05, 0.95), "large": (1.0, 30.0), "mixed": (0.05, 4.0)}[regime]
    alphas = [lo + (hi - lo) * base.random() for _ in range(n)]
    betas = [0.05 + 20.0 * base.random() for _ in range(n)]
    return alphas, betas


def _draw(alphas, betas, rows, seed=5):
    """(matrix as float rows, next main-stream draw) on the executor the
    module's threshold currently picks."""
    rng = DecisionRng(seed)
    got = rng.gamma_matrix(alphas, betas, rows)
    return got.tolist(), rng.random()


@pytest.mark.parametrize("regime", ["small", "large", "mixed"])
@pytest.mark.parametrize(
    "arms, rows",
    [(1, 1), (T - 1, 1), (T, 1), (T + 1, 1), (2 * T, 1), (1000, 1), (1000, 8)],
)
def test_handover_twins_bit_identical(executor, arms, rows, regime):
    """Either side of the round-size threshold, and straddling it mid-draw,
    the shipped executor returns the scalar rounds' bits and stream
    position."""
    alphas, betas = _shapes(arms, regime)
    shipped = _draw(alphas, betas, rows)
    executor("scalar")
    assert shipped == _draw(alphas, betas, rows)


@pytest.mark.parametrize("threshold", [0, 10**9])
@pytest.mark.parametrize("arms, rows", [(T // 2, 1), (37, 4), (1000, 1)])
def test_threshold_cannot_reach_a_decision(
    executor, monkeypatch, threshold, arms, rows
):
    """All rounds vectorised (0) and all rounds scalar (10**9) are the
    same draw: the threshold picks an executor, never a result."""
    alphas, betas = _shapes(arms, "mixed")
    executor("scalar")
    reference = _draw(alphas, betas, rows)
    monkeypatch.setattr(rng_module, "_SCALAR_ROUND_MAX", threshold)
    assert _draw(alphas, betas, rows) == reference


def test_numpy_draw_makes_few_scalar_log_calls(executor, monkeypatch):
    """Only tail rounds reach the scalar code: a 1000-arm draw makes
    O(T) scalar ``_ln`` calls where the scalar executor alone makes
    O(M)."""
    calls = [0]
    scalar_ln = rng_module._ln

    def counting_ln(x):
        calls[0] += 1
        return scalar_ln(x)

    monkeypatch.setattr(rng_module, "_ln", counting_ln)
    alphas, betas = _shapes(1000, "mixed")
    draws = 20
    rng = DecisionRng(3)
    for _ in range(draws):
        rng.gamma_matrix(alphas, betas, 1)
    fast_calls = calls[0] / draws
    calls[0] = 0
    executor("scalar")
    DecisionRng(3).gamma_matrix(alphas, betas, 1)
    # each scalar round of k <= T elements makes at most 2k calls, and
    # round sizes shrink geometrically
    assert 0 < fast_calls <= 6 * T
    assert calls[0] >= 1000


@pytest.mark.parametrize("forced", [False, True])
def test_availability_mask_grows_and_keeps_its_types(executor, forced):
    """The sampler's flat availability buffer: ``extend()`` mid-run grows
    it (no view may pin it), and ``chunk_availability`` stays a bool
    ndarray whichever executor draws."""
    from repro.core.chunking import fixed_size_chunks
    from repro.core.sampler import ExSample
    from repro.detection.detector import OracleDetector
    from repro.tracking.discriminator import OracleDiscriminator
    from repro.video.repository import single_clip_repository

    executor("scalar" if forced else "vector")
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


# -------------------------------------------------- transcendental twins

def test_ln_exp_scalar_and_vector_twins_agree():
    # the transcendental twins are the bit-identity foundation: the
    # scalar (pure) and vectorized (numpy) forms must agree exactly,
    # even where they differ from math.exp in the last ulp
    from repro.core.rng import _exp, _exp_vec, _ln, _ln_vec

    ln_pts = [1e-9, 0.1, 0.5, 1.0, 2.0, 10.0, 1e6]
    exp_pts = [-20.0, -1.0, 0.0, 1.0, 2.5, 20.0]
    assert [_ln(x) for x in ln_pts] == list(_ln_vec(np.asarray(ln_pts)))
    assert [_exp(x) for x in exp_pts] == list(_exp_vec(np.asarray(exp_pts)))
    # and they stay within an ulp of the math module (sanity, not identity)
    assert all(
        math.isclose(_ln(x), math.log(x), rel_tol=1e-15) for x in ln_pts
    )
    assert all(
        math.isclose(_exp(x), math.exp(x), rel_tol=1e-15) for x in exp_pts
    )


# ------------------------------------------------- many streams, one call

def _mixes(count):
    """``count`` seeded request mixes: 1, 2, 8 or 40 streams, arm counts
    around the round threshold and far from it, rows 1-8, every shape
    regime, and now and then one rng asked twice in the same call."""
    sizes = (0, 1, T - 1, T, T + 1, 30, 1000)
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


@pytest.mark.parametrize("forced", [False, True])
def test_gamma_matrices_equal_one_by_one_calls(executor, forced):
    """The multi-stream kernel returns each request exactly the matrix
    its own ``gamma_matrix`` call would, and leaves every stream — an
    rng asked twice included — where the calls one by one leave it."""
    executor("scalar" if forced else "shipped")
    # the scalar executor is a loop of one-stream draws: fewer mixes pin it
    mixes = list(_mixes(64 if forced else 200))
    assert any(len({r[0] for r in m}) < len(m) for m in mixes)  # repeats occur
    for requests in mixes:
        assert _bits(_in_one_call(requests)) == _bits(_one_by_one(requests))


@pytest.mark.parametrize("threshold", [0, T, 10**9])
def test_gamma_matrices_threshold_cannot_reach_a_decision(
    executor, monkeypatch, threshold
):
    """Rounds handed over by *total* size, stream by stream: every
    executor choice is the scalar executor's one-by-one draw."""
    mixes = list(_mixes(40))
    executor("scalar")
    reference = [_bits(_one_by_one(requests)) for requests in mixes]
    monkeypatch.setattr(rng_module, "_SCALAR_ROUND_MAX", threshold)
    assert [_bits(_in_one_call(requests)) for requests in mixes] == reference


@pytest.mark.parametrize("forced", [False, True])
def test_gamma_matrices_validate_every_request_first(executor, forced):
    """An invalid request anywhere in the call raises before any stream
    takes its op key — the valid requests before it included."""
    executor("scalar" if forced else "shipped")
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
