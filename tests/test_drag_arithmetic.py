"""``ball``'s fixed-order expm1, exp and log: fdlibm's bytes on every branch
and branch edge, within 1 ulp of libm, under 1 ulp of the exact value, the
same bytes in float and ufunc mode, and quiet on every lane of a steep chain."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_fdlibm
from ttrally.ball import (_EXP_TINY, _EXP_UNDERFLOW, _EXPM1_FLOOR, _FLOAT_LANES, _HALF_LN2,
                          _LOG_HALF_SQRT2, _LOG_HIGH, _LOG_LOW, _LOG_NEAR_ONE, _LOG_PAST_ONE,
                          RAISE_ON_NONFINITE, Chains, _exp, _expm1, _high_word, _log)


def _ordered(x: float) -> int:
    """x's bits as an integer that orders like the floats, one step per ulp."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFFFFFFFFFFFFFF)


def _ulps(a: float, b: float) -> int:
    return abs(_ordered(a) - _ordered(b))


def _around(*edges: float) -> list[float]:
    """Each edge and its two neighbouring floats."""
    return [y for x in edges
            for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


# fdlibm's own k = -1 branch ends here, 1.5 ln 2; the port's one reduction spans it.
FDLIBM_1_5_LN2 = _high_word(0x3FF0A2B2)
# Each domain as its branches: ranges plus every branch edge and its neighbours.
EXPM1_ARGS = st.one_of(
    st.floats(-_HALF_LN2, 0.0),  # primary
    st.floats(-2.0 ** -54, 0.0),  # returned as x
    st.floats(-1.1, -0.3),  # k = -1
    st.floats(-40.0, -1.0),  # k <= -2
    st.floats(-800.0, -38.0),  # rounds to -1
    st.sampled_from(_around(-_HALF_LN2, -FDLIBM_1_5_LN2, -_EXPM1_FLOOR, -2.0 ** -54,
                            -5e-324, -0.0, 0.0)),
)
EXP_ARGS = st.one_of(
    st.floats(-_HALF_LN2, 0.0),
    st.floats(-_EXP_TINY, 0.0),  # 1 + x
    st.floats(-1.1, -0.3),
    st.floats(-708.0, -1.0),
    st.floats(-745.2, -708.0),  # subnormal results
    st.floats(-1000.0, -745.0),  # underflow to 0
    st.sampled_from(_around(-_HALF_LN2, -_EXP_TINY, -FDLIBM_1_5_LN2, _EXP_UNDERFLOW,
                            -708.3964185322641, -5e-324, -0.0, 0.0)),
)
LOG_ARGS = st.one_of(
    st.floats(_LOG_LOW, _LOG_NEAR_ONE, exclude_max=True),  # primary
    st.floats(_LOG_NEAR_ONE, 1.0),  # |f| < 2**-20
    st.floats(_LOG_HALF_SQRT2, _LOG_LOW),  # fdlibm's long form, y below sqrt(2)/2 + 0.004
    st.floats(_LOG_HIGH / 2, _LOG_HALF_SQRT2, exclude_max=True),  # y doubled: long form
    st.floats(1e-300, 0.7),
    st.floats(5e-324, 2.0 ** -1022),  # subnormal
    st.sampled_from(_around(_LOG_LOW, _LOG_NEAR_ONE, _LOG_HALF_SQRT2, _LOG_HIGH / 2,
                            _LOG_PAST_ONE / 2, 0.5, 2.0 ** -1022)[:-1] + [1.0, 5e-324]),
)
PORTS = [(_expm1, math.expm1, EXPM1_ARGS), (_exp, math.exp, EXP_ARGS), (_log, math.log, LOG_ARGS)]


@pytest.mark.parametrize("port, oracle, args", [
    (_expm1, scalar_fdlibm.expm1, EXPM1_ARGS), (_exp, scalar_fdlibm.exp, EXP_ARGS),
    (_log, scalar_fdlibm.log, LOG_ARGS)], ids=["expm1", "exp", "log"])
def test_port_is_fdlibm_bit_for_bit(port, oracle, args):
    @settings(max_examples=1000)
    @given(args)
    def check(x):
        assert struct.pack("<d", port(x)) == struct.pack("<d", oracle(x))

    check()


@pytest.mark.parametrize("port, libm, args", PORTS, ids=["expm1", "exp", "log"])
def test_port_within_one_ulp_of_libm(port, libm, args):
    @settings(max_examples=600)
    @given(args)
    def check(x):
        assert _ulps(port(x), libm(x)) <= 1

    check()


# ---------------------------------------------------------------------------
# the error bound, against exact rational arithmetic
# ---------------------------------------------------------------------------

ONE = 1 << 400  # fixed point: values as integers times 2**-400, exact to far below an ulp


def _fixed(x: Fraction) -> int:
    return round(x * ONE)


def _exact_expm1(x: float) -> Fraction:
    term, total, n = _fixed(Fraction(x)), 0, 1
    while term:
        total += term
        n += 1
        term = term * _fixed(Fraction(x)) // ONE // n
    return Fraction(total, ONE)


def _atanh2(s: Fraction) -> int:
    """2 atanh(s) for |s| <= 1/3, in fixed point."""
    if s < 0:
        return -_atanh2(-s)
    s2 = _fixed(s * s)
    total, power, n = 0, _fixed(s), 1
    while power:
        total += power // n
        power = power * s2 // ONE
        n += 2
    return 2 * total


def _exact_log(x: float) -> Fraction:
    y, k = math.frexp(x)  # log x = k ln 2 + log y, y in [0.5, 1)
    ln2 = _atanh2(Fraction(1, 3))
    return Fraction(k * ln2 + _atanh2((Fraction(y) - 1) / (Fraction(y) + 1)), ONE)


def _error_ulps(got: float, exact: Fraction) -> float:
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


def test_port_error_under_one_ulp_against_exact_arithmetic():
    rng = np.random.default_rng(28)
    worst = {}
    for name, port, exact, xs in (
        ("expm1", _expm1, _exact_expm1,
         np.concatenate([-rng.uniform(0, 0.35, 300), -rng.uniform(0.35, 40, 100),
                         -(2.0 ** -rng.uniform(10, 200, 50))])),
        ("exp", _exp, lambda x: 1 + _exact_expm1(x),
         np.concatenate([-rng.uniform(0, 0.35, 300), -rng.uniform(0.35, 40, 100)])),
        ("log", _log, _exact_log,
         np.concatenate([rng.uniform(0.97, 1.0, 300), rng.uniform(0, 1, 100),
                         2.0 ** -rng.uniform(0, 1000, 50)])),
    ):
        worst[name] = max(_error_ulps(port(x), exact(x)) for x in xs.tolist())
    assert all(w < 1.0 for w in worst.values()), worst


# ---------------------------------------------------------------------------
# two evaluation modes, one operation sequence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("port, args", [(p, a) for p, _, a in PORTS], ids=["expm1", "exp", "log"])
def test_float_and_ufunc_modes_agree_bitwise(port, args):
    @settings(max_examples=60)
    @given(st.lists(args, min_size=1, max_size=4 * _FLOAT_LANES))
    def check(xs):
        got = port(np.array(xs).reshape(len(xs), 1))
        assert got.shape == (len(xs), 1)
        assert got.ravel().tobytes() == np.array([port(x) for x in xs]).tobytes()

    check()


def test_steep_chain_raises_no_floating_point_error():
    # k T = 50 on the first piece: its span and velocity take the reduced
    # branches, exp(-k t) comes within 2e-22 of 0, and no lane trips
    # RAISE_ON_NONFINITE. Long enough to run as ufuncs, short as floats.
    anchors = np.array([[[0.0, 0.0, 1.0], [2.0, 0.4, 0.8], [2.5, 0.5, 0.7]]])
    chains = Chains.through(np.zeros(1), anchors, np.array([[10.0, 0.3]]), np.array([[5.0, 0.2]]))
    for n in (_FLOAT_LANES, 4 * _FLOAT_LANES):
        t = np.linspace(-1.0, 11.0, n)
        with np.errstate(**RAISE_ON_NONFINITE):
            positions, velocities = chains.positions(t), chains.velocities(t)
        assert np.isfinite(positions).all() and np.isfinite(velocities).all()
    at = chains.positions([0.0, 10.0, 10.3])[0]
    assert np.array_equal(at, anchors[0])
