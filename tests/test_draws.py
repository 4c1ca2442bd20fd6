"""The generators' draws against numpy's method forms.

``src/`` maps each ``random()`` or ``standard_normal()`` draw in numpy's own
order: ``uniform(low, high)`` is ``low + (high - low) * random()`` and
``normal(loc, scale)`` is ``loc + scale * standard_normal()``. The rally
and camera generators call them one scalar at a time, and each ensemble
member draws its normals from a stream of its own; the exchanges replay them
from one block of the stream's 64-bit words, and numpy draws only the
normals whose word leaves the ziggurat's fast path
(``synth._draw_exchanges``). The references below draw with the method
forms (``rng.uniform``, ``rng.normal``) in the same order; every value must
match bit for bit, and the stream must end in the same state. The exchange
seeds are held to reach every slow path of the normal, and the replay's
tables to what numpy's ``standard_normal()`` reads off them.
"""

from collections import Counter

import numpy as np
import pytest

from ttrally import synth
from ttrally.anticipate import physics_baseline_ensemble
from ttrally.camera import project
from ttrally.core import Vec3
from ttrally.errors import AssumptionViolation
from ttrally.synth import (
    DRAG_K_RANGE,
    IMAGE_HEIGHT,
    IMAGE_WIDTH,
    LEG_VERTICALITY_TOL_PX,
    RALLY_SPEED_CLIP,
    RALLY_SPEED_MEAN,
    RALLY_SPEED_SD,
    SERVE_SPEED_RANGE,
    SHOT_AIM_SD,
    SHOT_SPEED_MEAN,
    SHOT_SPEED_SD,
    TABLE,
    _draw_exchanges,
    generate_exchanges,
    generate_rally,
    leg_verticality,
    sample_camera,
    tilt_camera,
)


def _reference_exchange(rng):
    return (
        rng.random(), rng.normal(0.0, 0.12),
        rng.random(), rng.normal(0.0, 0.05), rng.uniform(0.95, 1.2),
        rng.uniform(-0.35, 0.35), rng.uniform(0.95, 1.15),
        rng.uniform(0.45, 1.0), rng.normal(10.0, 1.5),
        rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3),
        rng.normal(0.0, SHOT_AIM_SD), rng.uniform(0.92, 1.18),
        rng.random(), rng.normal(SHOT_SPEED_MEAN, SHOT_SPEED_SD),
        rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3),
    )


def _reference_camera(rng):
    for _ in range(100):
        y_c = float(rng.uniform(-9.0, -6.5))
        z_c = float(rng.uniform(1.6, 3.0))
        tilt = float(rng.uniform(0.0, 1.2e-3))
        focal = float(rng.uniform(850.0, 1100.0))
        cx = IMAGE_WIDTH / 2.0 + float(rng.uniform(-20, 20))
        cam = tilt_camera(focal, cx, 0.0, y_c, z_c, tilt)
        v_center = project(cam, Vec3(0.0, 0.0, TABLE.height_z)).v
        cy = IMAGE_HEIGHT / 2.0 - v_center + float(rng.uniform(-15, 15))
        cam = tilt_camera(focal, cx, cy, y_c, z_c, tilt)
        if leg_verticality(cam) <= LEG_VERTICALITY_TOL_PX:
            return cam
    raise AssumptionViolation("could not sample a valid camera")


def _reference_rally(rng, fps, n_hits):
    """generate_rally's anchors, hit frames and drags: (hits, bounces, pieces)
    with pieces as (start, end, b0, bT, k)."""
    hl, h = TABLE.half_length, TABLE.height_z
    sides = [(-1 if i % 2 == 0 else 1) for i in range(n_hits)]
    hit_pos = [Vec3(s * (hl + 0.15 + 0.2 * rng.random()), float(rng.uniform(-0.55, 0.55)),
                    float(rng.uniform(0.9, 1.25))) for s in sides]
    hit_frames, bounces, pieces = [0], [], []
    for i in range(n_hits - 1):
        a, b = hit_pos[i], hit_pos[i + 1]
        bounce_xs = [sides[i] * (0.35 + 0.4 * rng.random())] if i == 0 else []
        bounce_xs.append(sides[i + 1] * (0.35 + 0.4 * rng.random()))
        anchors = [a]
        for xb in bounce_xs:
            u = (a.x - xb) / (a.x - b.x)
            anchors.append(Vec3(xb, a.y + u * (b.y - a.y) + float(rng.uniform(-0.08, 0.08)), h))
        anchors.append(b)
        chords = [(q - p).norm() for p, q in zip(anchors, anchors[1:])]
        if i == 0:
            speed = float(rng.uniform(*SERVE_SPEED_RANGE))
        else:
            speed = float(np.clip(rng.normal(RALLY_SPEED_MEAN, RALLY_SPEED_SD), *RALLY_SPEED_CLIP))
        total_t = sum(chords) / speed
        min_frames = 6 if len(chords) == 3 else 9
        f = hit_frames[-1]
        for (p, q), c in zip(zip(anchors, anchors[1:]), chords):
            n_f = max(min_frames, round(total_t * fps * c / sum(chords)))
            pieces.append((f, f + n_f, p, q, float(rng.uniform(*DRAG_K_RANGE))))
            if q is not b:
                bounces.append((f + n_f, q))
            f += n_f
        hit_frames.append(f)
    hits = [(hit_frames[i], i % 2, hit_pos[i]) for i in range(n_hits)]
    return hits, bounces, pieces


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


EXCHANGE_SEEDS = range(20)
PCG_MULT_INV = pow(synth._PCG_MULT, -1, 1 << 128)


@pytest.mark.parametrize("seed", EXCHANGE_SEEDS)
def test_exchange_draws_equal_the_method_forms(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _draw_exchanges(rng, 5000)
    want = [_reference_exchange(ref) for _ in range(5000)]
    assert _bits(got) == _bits(want)
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 2])
def test_short_exchange_draws_equal_the_method_forms(n):
    for seed in EXCHANGE_SEEDS:
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _draw_exchanges(rng, n)
        assert got.shape == (n, 17)
        assert _bits(got) == _bits([_reference_exchange(ref) for _ in range(n)])
        assert rng.bit_generator.state == ref.bit_generator.state


def _words_read(rng, draw) -> int:
    """How many 64-bit words ``draw()`` takes from ``rng``'s PCG64 stream."""
    state = rng.bit_generator.state["state"]
    draw()
    at, inc, words = state["state"], state["inc"], 0
    after = rng.bit_generator.state["state"]["state"]
    while at != after:
        at, words = (at * synth._PCG_MULT + inc) % (1 << 128), words + 1
    return words


def _slow_normals(seed, n):
    """(exchange, layer, words read) of every normal among n exchanges of
    ``seed``'s stream whose word leaves the ziggurat's fast path, by the
    tables; numpy draws each of those to count its words."""
    words = np.random.default_rng(seed).bit_generator.random_raw(18 * n + 64)
    fast, normal = synth._fast(words).tolist(), synth._NORMAL.tolist()
    rng, at, found = np.random.default_rng(seed), 0, []
    start = rng.bit_generator.state
    for exchange in range(n):
        for is_normal in normal:
            if is_normal and not fast[at]:
                rng.bit_generator.state = start
                rng.bit_generator.advance(at)
                read = _words_read(rng, rng.standard_normal)
                found.append((exchange, int(words[at]) & 0xFF, read))
                at += read
            else:
                at += 1
    return found


def test_the_exchange_seeds_reach_every_slow_normal_path():
    slow = [(seed, *s) for seed in EXCHANGE_SEEDS for s in _slow_normals(seed, 5000)]
    assert any(layer == 0 for _, _, layer, _ in slow)  # the tail beyond the base layer
    assert any(layer == 1 for _, _, layer, _ in slow)  # ki = 0: every word is slow
    assert any(layer > 0 and read > 2 for _, _, layer, read in slow)  # a wedge rejection
    assert max(Counter((seed, exchange) for seed, exchange, _, _ in slow).values()) >= 2
    assert {0, 4999} <= {exchange for _, exchange, _, _ in slow}


def _stream_before(word, ahead=0):
    """A PCG64 Generator whose output after ``ahead`` others is ``word``. A
    state of high half 0 outputs its low half; each step back undoes s * M + 1."""
    state = word
    for _ in range(ahead + 1):
        state = (state - 1) * PCG_MULT_INV % (1 << 128)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": 1}}
    return rng


def _probe_reads_one_word(layer, rabs) -> bool:
    """Whether numpy's standard_normal() of the word (rabs, sign 0, layer)
    returns without a second word."""
    rng = _stream_before(rabs << 9 | layer)
    return _words_read(rng, rng.standard_normal) == 1


def test_the_probed_ziggurat_tables_are_pinned():
    assert synth._KI[0] == 0x000EF33D8025EF6A
    assert synth._KI[1] == 0
    assert synth._KI[2] == 0x000C08BE98FBC6A8
    assert synth._WI.shape == synth._KI.shape == (256,)


def test_every_ki_is_the_first_rabs_that_reads_a_second_word():
    for layer, ki in enumerate(synth._KI.tolist()):
        if ki > 0:
            assert _probe_reads_one_word(layer, ki - 1), layer
            assert not _probe_reads_one_word(layer, ki), layer


def test_exchange_draws_equal_the_method_forms_at_every_layer_edge():
    # The first normal (slot 1) reads rabs ki - 1, the last fast word, or ki,
    # the first slow one, in either sign.
    for layer, ki in enumerate(synth._KI.tolist()):
        for rabs in (ki - 1, ki) if ki > 0 else (0,):
            for sign in (0, 1):
                word = (rabs << 1 | sign) << 8 | layer
                rng, ref = _stream_before(word, ahead=1), _stream_before(word, ahead=1)
                assert _bits(_draw_exchanges(rng, 2)) == _bits(
                    [_reference_exchange(ref) for _ in range(2)]), (layer, rabs, sign)
                assert rng.bit_generator.state == ref.bit_generator.state


def test_the_import_check_catches_a_wi_one_ulp_off(monkeypatch):
    seed, _ = synth._REPLAY_CHECK
    layer = int(np.random.default_rng(seed).bit_generator.random_raw(2)[1]) & 0xFF  # slot 1
    wi = synth._WI.copy()
    wi[layer] = np.nextafter(wi[layer], np.inf)
    monkeypatch.setattr(synth, "_WI", wi)
    with pytest.raises(RuntimeError, match="do not replay"):
        synth._check_replay()


def test_camera_draws_equal_the_method_forms():
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = sample_camera(rng), _reference_camera(ref)
        assert got.intrinsics == want.intrinsics
        assert got.extrinsics.r.tobytes() == want.extrinsics.r.tobytes()
        assert got.extrinsics.t.tobytes() == want.extrinsics.t.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n_hits", range(2, 9))
def test_rally_draws_equal_the_method_forms(n_hits):
    for seed in range(10):
        rng, ref = np.random.default_rng([seed, n_hits]), np.random.default_rng([seed, n_hits])
        rally = generate_rally(rng, 60.0, n_hits)
        hits, bounces, pieces = _reference_rally(ref, 60.0, n_hits)
        assert rally.hits == hits
        assert rally.bounces == bounces
        assert [(s, e, seg.b0, seg.bT, seg.k) for s, e, seg in rally.pieces] == pieces
        assert rng.bit_generator.state == ref.bit_generator.state


def test_member_draws_equal_the_method_forms():
    for seed in range(20):
        table = physics_baseline_ensemble(seed, 50)
        assert table.shape == (50, 5)
        for index, row in enumerate(table):
            ref = np.random.default_rng([seed, index])
            want = [ref.normal(0.0, s) for s in (0.10, 0.6, 0.15, 0.05, 0.04)]
            assert _bits(row.tolist()) == _bits(want)


def test_generate_exchanges_rejects_a_negative_count():
    with pytest.raises(ValueError, match=r"\bn\b.*-1"):
        generate_exchanges(1, -1)
