"""The merged bounce search against the searches it replaced.

The oracles below are the earlier searches. ``_exhaustive`` fits every
window of every candidate tuple with ``fit_parabola``, selecting samples by
a boolean mask. The two-selector search is kept verbatim apart from the
``tried`` record: ``select_bounce`` for rally pairs and a separate serve
selector, both refitting every parabola window per candidate tuple, then a
+/-1-frame refinement that refits every drag piece per combo.
"""

import itertools
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    fit_parabola,
    select_bounces,
)
from ttrally.camera import Plane, plane_points
from ttrally.core import Vec3
from ttrally.errors import FitFailed, NoBounceFound, SegmentRejected
from ttrally.synth import generate_scene


def _side_sse(track, lo, hi):
    frames, pixels = track.window(lo, hi)
    if len(frames) < 3:
        raise FitFailed(f"only {len(frames)} samples in [{lo}, {hi}]")
    _, mse = fit_parabola(frames.astype(float), pixels[:, 1])
    return mse * len(frames)


def _oracle_select_bounce(track, h1, h2, candidates):
    best = None
    for b in sorted(candidates):
        if not (h1 < b < h2):
            continue
        try:
            total = _side_sse(track, h1, b) + _side_sse(track, b, h2)
        except FitFailed:
            continue
        if best is None or total < best[0]:
            best = (total, b)
    if best is None:
        raise NoBounceFound("no usable bounce candidate")
    return best[1], best[0]


def _oracle_select_serve_bounces(track, h1, h2, candidates):
    cands = sorted(set(c for c in candidates if h1 < c < h2))
    if len(cands) < 2:
        raise NoBounceFound("need at least two bounce candidates for a serve")
    best = None
    for i, ba in enumerate(cands):
        for bb in cands[i + 1 :]:
            try:
                total = (
                    _side_sse(track, h1, ba)
                    + _side_sse(track, ba, bb)
                    + _side_sse(track, bb, h2)
                )
            except FitFailed:
                continue
            if best is None or total < best[0]:
                best = (total, (ba, bb))
    if best is None:
        raise NoBounceFound("no usable bounce pair for the serve")
    return best[1], best[0]


def _exhaustive(track, h1, h2, candidates, n):
    """Every n-tuple of the sorted distinct candidates inside (h1, h2), each
    window fitted on its own; the first least left-to-right total wins."""
    best = None
    for bounces in itertools.combinations(sorted(set(c for c in candidates if h1 < c < h2)), n):
        knots = (h1, *bounces, h2)
        total = 0.0
        for lo, hi in zip(knots, knots[1:]):
            mask = (track.frames >= lo) & (track.frames <= hi)
            if mask.sum() < 3:
                break
            _, mse = fit_parabola(track.frames[mask].astype(float), track.pixels[mask, 1])
            total += mse * mask.sum()
        else:
            if best is None or total < best[1]:
                best = (bounces, total)
    if best is None:
        raise NoBounceFound("no usable split")
    return best


def _bounce_combos(bounce_frames, h1, h2, pix):
    options = []
    for bf in bounce_frames:
        opts = [f for f in (bf, bf - 1, bf + 1) if h1 + 2 <= f <= h2 - 2 and f in pix]
        options.append(opts or [bf])
    combos = [[]]
    for opts in options:
        combos = [c + [f] for c in combos for f in opts]
    return [c for c in combos if all(a < b for a, b in zip(c, c[1:]))]


def _fit_pair(track, camera, table_plane, fps, h1, p1, h2, p2, bounce_frames, pix,
              total_mse, tried):
    anchors = [(h1, p1)]
    bounces = []
    for bf in bounce_frames:
        if bf not in pix:
            raise NoBounceFound(f"no ball sample at bounce frame {bf}")
        world = Vec3(*plane_points(camera, [pix[bf]], table_plane)[0].tolist())
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
    """The earlier reconstruct_trajectory; adds each fitted (f0, f1) to ``tried``."""

    def reconstruct(track, hits, camera, table, fps, mse_threshold=None):
        table_plane = Plane("z", table.height_z)
        pix = {int(f): p for f, p in zip(track.frames, track.pixels)}
        recon = TrajectoryReconstruction()
        for pair_index, (hit1, hit2) in enumerate(zip(hits, hits[1:])):
            h1, h2 = hit1.frame, hit2.frame
            candidates = bounce_candidates(track, h1, h2)
            if pair_index == 0:
                (ba, bb), total = _oracle_select_serve_bounces(track, h1, h2, candidates)
                bounce_frames = [ba, bb]
            else:
                b, total = _oracle_select_bounce(track, h1, h2, candidates)
                bounce_frames = [b]
            best: Optional[tuple] = None
            for combo in _bounce_combos(bounce_frames, h1, h2, pix):
                try:
                    pieces, bounces, reproj = _fit_pair(
                        track, camera, table_plane, fps, h1, hit1.hand_world, h2,
                        hit2.hand_world, combo, pix, total, tried,
                    )
                except (NoBounceFound, FitFailed):
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
    try:
        want = _exhaustive(track, h1, h2, candidates, n)
    except NoBounceFound:
        with pytest.raises(NoBounceFound):
            select_bounces(track, h1, h2, candidates, n)
        return
    assert select_bounces(track, h1, h2, candidates, n) == want


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
    seen = [f for f in track.frames if f.ball_px is not None]
    ball_track = BallTrack2D([f.frame_index for f in seen], [f.ball_px for f in seen])
    knots = ball_track.frames[::7]
    last = len(knots) - 1
    rows = np.array([(0, *c, last) for c in itertools.combinations(range(1, last), 2)])
    whole = ball._screen(ball_track, knots, rows)
    monkeypatch.setattr(ball, "SCREEN_CHUNK", 50)
    assert ball._screen(ball_track, knots, rows).tobytes() == whole.tobytes()


def test_a_window_fit_parabola_rejects_makes_its_tuple_unusable(monkeypatch):
    # The screen's winner (8,) has a window fit_parabola turns down: the
    # search moves on to the best tuple without it.
    frames = np.arange(21)
    track = BallTrack2D(frames, np.column_stack([frames, np.abs(frames - 8) * 4.0]))
    fit = ball.fit_parabola

    def reject_from_8(ts, vs):
        if ts[0] == 8.0:
            raise FitFailed("rejected")
        return fit(ts, vs)

    want = _exhaustive(track, 0, 20, [c for c in range(2, 19) if c != 8], 1)
    monkeypatch.setattr(ball, "fit_parabola", reject_from_8)
    assert select_bounces(track, 0, 20, list(range(2, 19)), 1) == want


def test_a_non_finite_pixel_leaves_no_usable_split():
    # Every split of (h1, h2) covers every sample between them.
    frames = np.arange(21)
    v = np.abs(frames - 8) * 4.0
    v[15] = np.nan
    with pytest.raises(NoBounceFound):
        select_bounces(BallTrack2D(frames, np.column_stack([frames, v])), 0, 20, list(range(2, 19)), 1)


def test_threshold_sees_the_exact_total():
    # The threshold is compared with the total select_bounces returns; a
    # threshold one ulp below the largest pair total rejects the point.
    track, _, _ = generate_scene(np.random.default_rng(9), noise_px=2.0, n_hits=4)
    _, point = pipeline.reconstruct_point(track)
    total = max(piece.parabola_mse for piece in point.pieces)
    _, kept = pipeline.reconstruct_point(track, mse_threshold=total)
    assert kept.pieces == point.pieces
    with pytest.raises(SegmentRejected):
        pipeline.reconstruct_point(track, mse_threshold=np.nextafter(total, 0))


def test_only_near_ties_are_fitted_exactly(monkeypatch):
    # Per search, fit_parabola runs once per window of each near-tie tuple.
    screens, fits, searched = [], [], []
    screen, fit, search = ball._screen, ball.fit_parabola, ball.select_bounces

    def counted_search(track, h1, h2, candidates, n):
        screens.clear()
        fits.clear()
        out = search(track, h1, h2, candidates, n)
        (screened,) = screens
        least = screened.min()
        near = np.count_nonzero(screened <= least + ball.NEAR_TIE_RTOL * (1 + least))
        searched.append((len(screened), near))
        assert len(fits) <= (n + 1) * near
        return out

    monkeypatch.setattr(ball, "_screen", lambda *a: screens.append(screen(*a)) or screens[-1])
    monkeypatch.setattr(ball, "fit_parabola", lambda *a: fits.append(1) or fit(*a))
    monkeypatch.setattr(ball, "select_bounces", counted_search)
    for i, fps in enumerate((60.0, 120.0)):
        track, _, _ = generate_scene(np.random.default_rng([5, i]), fps=fps, n_hits=5, noise_px=1.0)
        pipeline.reconstruct_point(track)
    assert len(searched) == 8
    assert sum(tuples for tuples, _ in searched) > 10 * sum(near for _, near in searched)


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


def test_search_matches_two_selector_oracle(runs):
    for point, _, oracle, _ in runs:
        assert point.pieces == oracle.pieces
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
        got = recon.ball_by_frame(fps)
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
