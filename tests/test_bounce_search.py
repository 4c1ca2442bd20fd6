"""The merged bounce search against the search it replaced.

The bounce oracle is ``scalar_bounces``: every window of every candidate
tuple fitted with ``fit_parabola``. The reconstruction oracle below selects
with it, two bounces for the serve pair and one for each rally pair, then
runs the earlier +/-1-frame refinement, which refits every drag piece per
combo (``_bounce_combos``, ``_fit_pair``, kept as they were apart from the
``tried`` record).

The screen's totals differ from the oracle's by rounding alone, so totals
are held to it within ``B`` times 1 + the oracle's total, and the frames of
every scene below are the oracle's exactly.
"""

import itertools
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import scalar_bounces
from scalar_bounces import B, fit_parabola, split_totals
from scalar_flight import stokes_position
from ttrally import ball, pipeline
from ttrally.ball import (
    BallTrack2D,
    BounceEvent,
    ReconstructedPiece,
    StokesSegment,
    TrajectoryReconstruction,
    bounce_candidates,
    fit_drag,
    fit_drags,
    select_bounces,
)
from ttrally.camera import plane_points
from ttrally.core import Vec3
from ttrally.errors import NoBounceFound, SegmentRejected
from ttrally.synth import generate_scene


def _bounce_combos(bounce_frames, h1, h2, pix):
    options = []
    for bf in bounce_frames:
        opts = [f for f in (bf, bf - 1, bf + 1) if h1 + 2 <= f <= h2 - 2 and f in pix]
        options.append(opts or [bf])
    combos = [[]]
    for opts in options:
        combos = [c + [f] for c in combos for f in opts]
    return [c for c in combos if all(a < b for a, b in zip(c, c[1:]))]


def _fit_pair(track, camera, table_z, fps, h1, p1, h2, p2, bounce_frames, pix,
              total_mse, tried):
    anchors = [(h1, p1)]
    bounces = []
    for bf in bounce_frames:
        if bf not in pix:
            raise NoBounceFound(f"no ball sample at bounce frame {bf}")
        world = Vec3(*plane_points(camera, [pix[bf]], table_z)[0].tolist())
        anchors.append((bf, world))
        bounces.append(BounceEvent(frame=bf, position=world))
    anchors.append((h2, p2))
    pieces = []
    reproj_total = 0.0
    for (f0, a0), (f1, a1) in zip(anchors, anchors[1:]):
        tried.add((f0, f1))
        frames, pixels = track.window(f0, f1)
        times = (frames - f0) / fps
        drag = fit_drag(a0, a1, (f1 - f0) / fps, times, pixels, camera)
        seg = StokesSegment(b0=a0, bT=a1, T=(f1 - f0) / fps, k=drag.k)
        reproj_total += drag.reproj_error
        pieces.append(ReconstructedPiece(f0, f1, seg, drag, parabola_mse=total_mse))
    return pieces, bounces, reproj_total


def _oracle_reconstruct(tried):
    """reconstruct_trajectory on the exhaustive search; adds each fitted
    (f0, f1) to ``tried``."""

    def reconstruct(track, hits, camera, table, fps, mse_threshold=None):
        pix = {int(f): p for f, p in zip(track.frames, track.pixels)}
        recon = TrajectoryReconstruction()
        for pair_index, (hit1, hit2) in enumerate(zip(hits, hits[1:])):
            h1, h2 = hit1.frame, hit2.frame
            bounce_frames, total = scalar_bounces.select_bounces(
                track, h1, h2, bounce_candidates(track, h1, h2), 2 if pair_index == 0 else 1)
            best: Optional[tuple] = None
            for combo in _bounce_combos(bounce_frames, h1, h2, pix):
                try:
                    pieces, bounces, reproj = _fit_pair(
                        track, camera, table.height_z, fps, h1, hit1.hand_world, h2,
                        hit2.hand_world, combo, pix, total, tried,
                    )
                except NoBounceFound:
                    continue
                if best is None or reproj < best[0]:
                    best = (reproj, pieces, bounces)
            if best is None:
                raise NoBounceFound("no viable bounce placement between hits")
            recon.pieces.extend(best[1])
            recon.bounces.extend(best[2])
        return recon

    return reconstruct


def test_select_bounces_ties_go_to_the_earliest_tuple():
    # v = 0 fits every window exactly: all totals are 0.0.
    frames = np.arange(30)
    track = BallTrack2D(frames, np.column_stack([frames * 5.0, np.zeros(30)]))
    candidates = [20, 9, 4, 15, 9]
    assert select_bounces(track, 0, 29, candidates, 1) == ((4,), 0.0)
    assert select_bounces(track, 0, 29, candidates, 2) == ((4, 9), 0.0)


@st.composite
def searches(draw):
    """A track, a hit pair, candidates and n. Frame gaps of up to 4 leave
    some windows with fewer than 3 samples; candidates repeat and stray
    outside (h1, h2). Constant and mirror-symmetric tracks, searched over
    their whole span, tie exactly."""
    shape = draw(st.sampled_from(["random", "vee", "constant", "mirror"]))
    gaps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 3, 4]), min_size=4, max_size=14))
    if shape == "mirror":
        gaps = gaps + gaps[::-1]
    frames = draw(st.integers(-50, 50)) + np.cumsum([0] + gaps)
    n = draw(st.sampled_from([1, 2]))
    if shape in ("constant", "mirror"):
        center = (frames[0] + frames[-1]) / 2.0
        v = np.full(len(frames), draw(st.floats(-500.0, 500.0)))
        if shape == "mirror":
            v = v + np.abs((frames - center) ** 2 - draw(st.floats(0.0, 100.0)))
        inner = frames[1:-1].tolist()
        return BallTrack2D(frames, np.column_stack([frames, v])), frames[0], frames[-1], inner, n
    if shape == "vee":
        apex = draw(st.integers(int(frames[0]), int(frames[-1])))
        noise = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(frames), max_size=len(frames)))
        v = 300.0 - 4.0 * np.abs(frames - apex) + np.array(noise)
    else:
        pixels = st.lists(st.floats(0.0, 1080.0), min_size=len(frames), max_size=len(frames))
        v = np.array(draw(pixels))
    h1 = draw(st.integers(int(frames[0]) - 3, int(frames[len(frames) // 3])))
    h2 = draw(st.integers(int(frames[2 * len(frames) // 3]), int(frames[-1]) + 3))
    candidates = draw(st.lists(st.integers(h1 - 3, h2 + 3), min_size=1, max_size=12))
    return BallTrack2D(frames, np.column_stack([frames, v])), h1, h2, candidates, n


@settings(max_examples=400)
@given(searches())
def test_select_bounces_matches_the_exhaustive_oracle(search):
    track, h1, h2, candidates, n = search
    totals = split_totals(track, h1, h2, candidates, n)
    if not totals:
        with pytest.raises(NoBounceFound):
            select_bounces(track, h1, h2, candidates, n)
        return
    bounces, total = select_bounces(track, h1, h2, candidates, n)
    first = min(totals, key=totals.get)
    least = totals[first]
    assert abs(total - totals[bounces]) <= B * (1 + totals[bounces])
    assert totals[bounces] - least <= 2 * B * (1 + least)
    if all(e - least > 2 * B * (1 + least) for t, e in totals.items() if t != first):
        assert bounces == first


@settings(max_examples=200)
@given(searches())
def test_screen_drops_the_tuples_the_oracle_drops(search):
    # A window of fewer than 3 samples makes its tuple unusable in both.
    track, h1, h2, candidates, n = search
    knots = np.array([h1, *sorted(set(c for c in candidates if h1 < c < h2)), h2])
    picks = list(itertools.combinations(range(1, len(knots) - 1), n))
    usable = []
    if picks:
        rows = np.array([(0, *p, len(knots) - 1) for p in picks])
        finite = np.isfinite(ball._screen(track, knots, rows))
        usable = [tuple(knots[list(p)].tolist()) for p, f in zip(picks, finite) if f]
    assert usable == list(split_totals(track, h1, h2, candidates, n))


@settings(max_examples=300)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=40), st.integers(-500, 500),
       st.data())
def test_window_sse_matches_fit_parabola(gaps, first, data):
    # One window at a time, against fit_parabola's mean squared error times
    # the sample count, as the oracle's tuple totals sum it.
    frames = first + np.cumsum([0] + gaps)
    scale = data.draw(st.sampled_from([1e-3, 1.0, 1080.0]))
    v = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(frames),
                                            max_size=len(frames))))
    track = BallTrack2D(frames, np.column_stack([frames, v]))
    (got,) = ball._window_sse(track, frames[:1], frames[-1:], np.array([0]), np.array([len(v)]))
    want = fit_parabola(frames.astype(float), v)[1] * len(v)
    assert abs(got - want) <= B * (1 + want)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 4), max_size=20), st.integers(-30, 60), st.integers(-30, 60))
def test_window_takes_the_samples_in_lo_hi(gaps, lo, hi):
    frames = np.cumsum([0] + gaps)
    track = BallTrack2D(frames, np.column_stack([frames, -frames]).astype(float))
    got_frames, got_pixels = track.window(lo, hi)
    mask = (frames >= lo) & (frames <= hi)
    assert got_frames.tolist() == frames[mask].tolist()
    assert got_pixels.tolist() == track.pixels[mask].tolist()


def test_screen_passes_do_not_change_its_totals(monkeypatch):
    # Every 7th sample of a 120-fps point as knots, two bounces: screened in
    # one pass, then in passes of about 50 samples.
    track, _, _ = generate_scene(np.random.default_rng([5, 1]), fps=120.0, n_hits=3, noise_px=2.0)
    seen = ~np.isnan(track.ball).any(axis=1)
    ball_track = BallTrack2D(track.frames[seen], track.ball[seen])
    knots = ball_track.frames[::7]
    last = len(knots) - 1
    rows = np.array([(0, *c, last) for c in itertools.combinations(range(1, last), 2)])
    whole = ball._screen(ball_track, knots, rows)
    monkeypatch.setattr(ball, "SCREEN_CHUNK", 50)
    assert ball._screen(ball_track, knots, rows).tobytes() == whole.tobytes()


def test_a_non_finite_pixel_leaves_no_usable_split():
    # Every split of (h1, h2) covers every sample between them.
    frames = np.arange(21)
    v = np.abs(frames - 8) * 4.0
    v[15] = np.nan
    with pytest.raises(NoBounceFound):
        select_bounces(BallTrack2D(frames, np.column_stack([frames, v])), 0, 20, list(range(2, 19)), 1)


def test_threshold_sees_the_reported_total():
    # The threshold is compared with the total select_bounces returns; a
    # threshold one ulp below the largest pair total rejects the point.
    track, _, _ = generate_scene(np.random.default_rng(9), noise_px=2.0, n_hits=4)
    _, point = pipeline.reconstruct_point(track)
    total = max(piece.parabola_mse for piece in point.pieces)
    _, kept = pipeline.reconstruct_point(track, mse_threshold=total)
    assert kept.pieces == point.pieces
    with pytest.raises(SegmentRejected):
        pipeline.reconstruct_point(track, mse_threshold=np.nextafter(total, 0))


# 20 points: 60 and 120 fps, 3-6 hits, 0-2 px of pixel noise.
SCENES = [(60.0 if i % 2 == 0 else 120.0, 3 + (i // 2) % 4, (i % 5) / 2) for i in range(20)]


@pytest.fixture(scope="module")
def runs():
    """Per scene: (new point, pieces per fit_drags call, oracle point, distinct
    pieces tried)."""
    out = []
    for i, (fps, n_hits, noise) in enumerate(SCENES):
        track, _, _ = generate_scene(
            np.random.default_rng([5, i]), fps=fps, n_hits=n_hits, noise_px=noise
        )
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                ball, "fit_drags", lambda pieces, cam: calls.append(len(pieces)) or fit_drags(pieces, cam)
            )
            _, point = pipeline.reconstruct_point(track)
        tried: set = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "reconstruct_trajectory", _oracle_reconstruct(tried))
            _, oracle = pipeline.reconstruct_point(track)
        out.append((point, calls, oracle, len(tried)))
    return out


def test_search_matches_the_exhaustive_oracle(runs):
    for point, _, oracle, _ in runs:
        assert [replace(p, parabola_mse=0.0) for p in point.pieces] == [
            replace(p, parabola_mse=0.0) for p in oracle.pieces]
        for piece, want in zip(point.pieces, oracle.pieces):
            assert abs(piece.parabola_mse - want.parabola_mse) <= B * (1 + want.parabola_mse)
        assert point.bounces == oracle.bounces
        assert [h.frame for h in point.hits] == [h.frame for h in oracle.hits]


def _oracle_ball_at_frame(pieces, frame, fps):
    """The earlier per-frame sampling: the first piece spanning the frame, at
    the local time clamped to T; None outside every piece."""
    for piece in pieces:
        if piece.start_frame <= frame <= piece.end_frame:
            t = (frame - piece.start_frame) / fps
            return stokes_position(piece.segment, min(t, piece.segment.T))
    return None


def test_per_piece_sampling_matches_the_per_frame_loop(runs):
    knots = 0
    for (fps, _, _), (point, _, _, _) in zip(SCENES, runs):
        recon = TrajectoryReconstruction(pieces=point.pieces, bounces=point.bounces)
        frames, balls = recon.ball_by_frame(fps)
        got = {f: Vec3(*b) for f, b in zip(frames.tolist(), balls.tolist())}
        lo, hi = point.pieces[0].start_frame, point.pieces[-1].end_frame
        want = {f: _oracle_ball_at_frame(point.pieces, f, fps) for f in range(lo - 3, hi + 4)}
        assert got == {f: b for f, b in want.items() if b is not None}
        assert [f.ball for f in point.frames] == [got[f.frame_index] for f in point.frames]
        knots += len(point.pieces) - 1  # frames two pieces share
    assert knots > 0


def test_each_drag_piece_fitted_once(runs):
    # One batched fit per point, handed every distinct piece once.
    calls = [n for _, n, _, _ in runs]
    distinct = [[n] for _, _, _, n in runs]
    assert calls == distinct
