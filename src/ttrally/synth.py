"""Synthetic rally, camera, and exchange generators.

Everything here produces ground truth paired with observations so the
reconstruction and anticipation stages can be scored against a known answer.
The generated world follows the same drag-trajectory model the reconstruction
fits, with hit and bounce anchors snapped to frame boundaries. Exchanges come
as one ``Exchanges`` batch of arrays; ``ExchangeSample`` is the row view for a
reader that wants one exchange. The rally and camera draw numpy's scalars one
call at a time; the exchanges replay the same scalars from one block of the
stream's 64-bit words, read through the ziggurat tables that the installed
numpy's ``standard_normal()`` gives at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from .ball import (GRAVITY, RAISE_ON_NONFINITE, Chains, StokesSegment, _expm1, _log,
                   stokes_positions)
from .camera import Camera, Extrinsics, Intrinsics, project, project_many
from .core import RACKET_HAND_JOINT, Frame3D, TableGeometry, Vec3
from .errors import AssumptionViolation
from .pipeline import TrackFile, TrackHeader

LEG_VERTICALITY_TOL_PX = 0.1
SCENE_TRIES = 60  # (rally, camera) draws before generate_scene gives up

# Rally model: hit-to-hit ball speed ~ N(mean, sd) m/s, clipped to
# RALLY_SPEED_CLIP; serves are uniform on SERVE_SPEED_RANGE; each piece's
# drag k is uniform on DRAG_K_RANGE (1/s).
RALLY_SPEED_MEAN = 11.25
RALLY_SPEED_SD = 3.0
RALLY_SPEED_CLIP = (5.4, 18.3)
SERVE_SPEED_RANGE = (4.5, 6.5)
DRAG_K_RANGE = (0.05, 0.5)

# Exchange model. The opponent sets up on +y or -y with equal odds and aims
# the return's ego-plane crossing at SHOT_AIM_GAIN times its root y, plus
# N(0, SHOT_AIM_SD) m, clipped to +-SHOT_Y_LIMIT; the return's speed is
# N(SHOT_SPEED_MEAN, SHOT_SPEED_SD) m/s clipped to SHOT_SPEED_CLIP.
# anticipate's ensemble members replay the same aim, limit, mean and clip.
SHOT_AIM_GAIN = 0.9
SHOT_AIM_SD = 0.15
SHOT_Y_LIMIT = 1.05
SHOT_SPEED_MEAN = 12.0
SHOT_SPEED_SD = 0.6
SHOT_SPEED_CLIP = (7.5, 16.5)
SHOT_OVERRUN = 1.0  # m past the ego plane where a return's last piece ends
BOUNCE_CLEARANCE = 1e-3  # m a return's bounce keeps from the ego plane
# The context: CONTEXT_S of frames every CONTEXT_DT s before the opponent's hit.
CONTEXT_S = 0.6
CONTEXT_DT = 0.02
CONTEXT_TIMES = -CONTEXT_DT * np.arange(int(round(CONTEXT_S / CONTEXT_DT)), 0, -1)
CONTEXT_TIMES.flags.writeable = False  # every exchange shares this one array
# The forecast needs two context frames, so the last one it may use is one
# frame step after the context starts.
MAX_LEAD_TIME = CONTEXT_S - CONTEXT_DT
TABLE = TableGeometry()  # the one table every rally and exchange is played on
# Every generated track's image, in px; each clean pixel keeps IMAGE_MARGIN_PX inside it.
IMAGE_WIDTH, IMAGE_HEIGHT = 960, 540
IMAGE_MARGIN_PX = 2.0


# ---------------------------------------------------------------------------
# rally generation
# ---------------------------------------------------------------------------


def _eased(u: np.ndarray) -> np.ndarray:
    """Cosine easing from 0 to 1 over u in [0, 1], flat outside; numpy's
    float64 cos is libm's."""
    return 0.5 - 0.5 * np.cos(math.pi * np.clip(u, 0.0, 1.0))


@dataclass
class RallyTruth:
    fps: float
    frames: np.ndarray  # absolute frame indices, first hit .. last hit
    ball: np.ndarray  # (n, 3)
    hits: list[tuple[int, int, Vec3]]  # (frame, player, position)
    bounces: list[tuple[int, Vec3]]
    pieces: list[tuple[int, int, StokesSegment]]  # (start frame, end frame, seg)
    joints: np.ndarray  # (n, 2, 4, 3): frame, player, [hip, racket hand, ankle_l, ankle_r]


def generate_rally(rng: np.random.Generator, fps: float = 60.0, n_hits: int = 4) -> RallyTruth:
    """Ground-truth rally on TABLE: drag pieces between frame-snapped
    hit/bounce anchors.

    Player 0 (on -x) serves; the first hit pair is the serve and carries two
    bounces (one per half).
    """
    if n_hits < 2:
        raise ValueError("need at least two hits")
    hl, h = TABLE.half_length, TABLE.height_z
    (serve_lo, serve_hi), (k_lo, k_hi) = SERVE_SPEED_RANGE, DRAG_K_RANGE

    sides = [(-1 if i % 2 == 0 else 1) for i in range(n_hits)]
    hit_pos = [Vec3(s * (hl + 0.15 + 0.2 * rng.random()), -0.55 + (0.55 - -0.55) * rng.random(),
                    0.9 + (1.25 - 0.9) * rng.random()) for s in sides]

    hit_frames = [0]
    pieces: list[tuple[int, int, StokesSegment]] = []
    bounces: list[tuple[int, Vec3]] = []

    for i in range(n_hits - 1):
        a, b = hit_pos[i], hit_pos[i + 1]
        bounce_xs = []
        if i == 0:
            bounce_xs.append(sides[i] * (0.35 + 0.4 * rng.random()))
        bounce_xs.append(sides[i + 1] * (0.35 + 0.4 * rng.random()))
        anchors = [a]
        for xb in bounce_xs:
            u = (a.x - xb) / (a.x - b.x)
            yb = a.y + u * (b.y - a.y) + (-0.08 + (0.08 - -0.08) * rng.random())
            anchors.append(Vec3(xb, yb, h))
        anchors.append(b)

        chords = [
            (q - p).norm() for p, q in zip(anchors, anchors[1:])
        ]
        if i == 0:
            # Serves are slow enough for a visible arc between the two bounces.
            speed = serve_lo + (serve_hi - serve_lo) * rng.random()
        else:
            speed = float(np.clip(RALLY_SPEED_MEAN + RALLY_SPEED_SD * rng.standard_normal(),
                                  *RALLY_SPEED_CLIP))
        total_t = sum(chords) / speed
        # Snap sub-piece boundaries to frames. Minimum piece lengths keep
        # consecutive hits at least 18 frames apart (hit detection suppresses
        # minima closer than 15 frames, and real inter-hit times are longer).
        min_frames = 6 if len(chords) == 3 else 9
        frame_counts = [
            max(min_frames, round(total_t * fps * c / sum(chords)))
            for c in chords
        ]
        f = hit_frames[-1]
        for (p, q), n_f in zip(zip(anchors, anchors[1:]), frame_counts):
            k = k_lo + (k_hi - k_lo) * rng.random()
            seg = StokesSegment(b0=p, bT=q, T=n_f / fps, k=k)
            pieces.append((f, f + n_f, seg))
            if q.z == h and q is not anchors[-1]:
                bounces.append((f + n_f, q))
            f += n_f
        hit_frames.append(f)

    frames = np.arange(hit_frames[0], hit_frames[-1] + 1)
    ball = np.zeros((len(frames), 3))
    for start, end, seg in pieces:  # a piece's start overwrites the frame the last one ends on
        local = np.minimum(np.arange(end - start + 1) / fps, seg.T)
        ball[start - frames[0]:end - frames[0] + 1] = stokes_positions(seg, local)

    # Racket hands: cosine easing between each player's own hit positions,
    # from rest before the first frame to rest after the last. A frame on a
    # control frame takes the span that ends there.
    joints = np.empty((len(frames), 2, 4, 3))
    for player, side in ((0, -1), (1, 1)):
        rest = [side * (hl + 0.5), 0.0, 1.0]
        at = np.array([frames[0] - 1, *hit_frames[player::2], frames[-1] + 1])
        controls = np.array([rest, *(p.as_array() for p in hit_pos[player::2]), rest])
        span = np.searchsorted(at, frames) - 1
        u = _eased((frames - at[span]) / np.maximum(at[span + 1] - at[span], 1))
        p0 = controls[span]
        hand = p0 + u[:, None] * (controls[span + 1] - p0)
        root_x = side * (hl + 0.55)
        joints[:, player, :, 0] = root_x, 0.0, root_x - 0.08, root_x + 0.08
        joints[:, player, :, 1] = 0.8 * hand[:, 1:2]  # the root's y
        joints[:, player, :, 2] = 0.95, 0.0, 0.0, 0.0
        joints[:, player, RACKET_HAND_JOINT] = hand

    return RallyTruth(
        fps=fps,
        frames=frames,
        ball=ball,
        hits=[(hit_frames[i], i % 2, hit_pos[i]) for i in range(n_hits)],
        bounces=bounces,
        pieces=pieces,
        joints=joints,
    )


# ---------------------------------------------------------------------------
# camera sampling and track emission
# ---------------------------------------------------------------------------


def tilt_camera(
    focal: float, cx: float, cy: float, y_c: float, z_c: float, tilt: float
) -> Camera:
    """Side-view camera translated along y/z only, rotated about x only."""
    st, ct = math.sin(tilt), math.cos(tilt)
    r = np.array([[1.0, 0.0, 0.0], [0.0, -st, -ct], [0.0, ct, -st]])
    center = np.array([0.0, y_c, z_c])
    return Camera(
        Intrinsics(fx=focal, fy=focal, cx=cx, cy=cy),
        Extrinsics(r=r, t=-r @ center),
    )


def leg_verticality(camera: Camera) -> float:
    """Worst-case |du| between leg top and bottom over TABLE's four corners."""
    tops = np.array([corner.as_array() for corner in TABLE.surface_keypoints()[:4]])
    feet = np.column_stack([tops[:, :2], np.zeros(4)])
    u = project_many(camera, np.concatenate([tops, feet]))[:, 0]
    return float(np.abs(u[:4] - u[4:]).max())


def check_camera_assumptions(camera: Camera) -> None:
    """Raise AssumptionViolation unless the fixed-view assumptions hold for TABLE."""
    center = camera.extrinsics.center()
    if abs(center[0]) > 1e-9:
        raise AssumptionViolation("camera translated along x")
    r = camera.extrinsics.r
    if max(abs(r[0, 1]), abs(r[0, 2]), abs(r[1, 0]), abs(r[2, 0])) > 1e-9:
        raise AssumptionViolation("camera rotation is not about the x axis")
    if leg_verticality(camera) > LEG_VERTICALITY_TOL_PX:
        raise AssumptionViolation("table legs not vertical in the image")


def sample_camera(rng: np.random.Generator) -> Camera:
    """Random valid side-view camera with TABLE centered in the image."""
    for _ in range(100):
        y_c = -9.0 + (-6.5 - -9.0) * rng.random()
        z_c = 1.6 + (3.0 - 1.6) * rng.random()
        tilt = 0.0 + (1.2e-3 - 0.0) * rng.random()
        focal = 850.0 + (1100.0 - 850.0) * rng.random()
        cx = IMAGE_WIDTH / 2.0 + (-20.0 + (20.0 - -20.0) * rng.random())
        cam = tilt_camera(focal, cx, 0.0, y_c, z_c, tilt)
        v_center = project(cam, Vec3(0.0, 0.0, TABLE.height_z)).v
        cy = IMAGE_HEIGHT / 2.0 - v_center + (-15.0 + (15.0 - -15.0) * rng.random())
        cam = tilt_camera(focal, cx, cy, y_c, z_c, tilt)
        if leg_verticality(cam) <= LEG_VERTICALITY_TOL_PX:
            return cam
    raise AssumptionViolation("could not sample a valid camera")


def emit_synthetic_track(
    rally: RallyTruth,
    camera: Camera,
    noise_px: float,
    rng: np.random.Generator,
    video_id: str = "",
    seed: Optional[int] = None,
) -> TrackFile:
    """Project a ground-truth rally into a track file with pixel noise.

    Pixel observations (ball, keypoints, racket centroids, ankles, base
    height) receive isotropic Gaussian noise of scale ``noise_px``, drawn as
    one block in frame order; the camera-frame joints are passed through
    exactly, as an upstream 3D pose estimator would emit them. A scene whose
    clean pixels leave the image raises AssumptionViolation after drawing the
    noise of the frames before the first one outside.
    """
    check_camera_assumptions(camera)
    n = len(rally.frames)
    keypoints = np.array([p.as_array() for p in TABLE.surface_keypoints()])
    base_h = project_many(camera, np.array([[0.0, -TABLE.half_width, 0.0]]))[0, 1]
    # Per frame, 13 observed points: ball, 6 keypoints, 2 racket hands, 4 ankles.
    world = np.concatenate([rally.ball[:, None], np.broadcast_to(keypoints, (n, 6, 3)),
                            rally.joints[:, :, RACKET_HAND_JOINT],
                            rally.joints[:, :, 2:].reshape(n, 4, 3)], axis=1)
    pixels = project_many(camera, world.reshape(-1, 3)).reshape(n, 13, 2)
    inside = ((pixels >= IMAGE_MARGIN_PX)
              & (pixels <= [IMAGE_WIDTH - IMAGE_MARGIN_PX, IMAGE_HEIGHT - IMAGE_MARGIN_PX]))
    outside = np.flatnonzero(~inside.all(axis=(1, 2)))
    # Each frame's 28 draws: its 26 pixel values, then two for the base
    # height, which takes the second.
    rows = outside[0] if len(outside) else n
    noise = rng.normal(0.0, noise_px, size=(rows, 28)) if noise_px > 0 else np.zeros((rows, 28))
    if rows < n:
        raise AssumptionViolation("scene projects outside the image")
    pixels = pixels + noise[:, :26].reshape(n, 13, 2)
    return TrackFile(
        header=TrackHeader(
            fps=rally.fps,
            width=IMAGE_WIDTH,
            height=IMAGE_HEIGHT,
            video_id=video_id,
            seed=seed,
            noise_px=noise_px,
        ),
        frames=rally.frames.copy(),
        ball=pixels[:, 0],
        keypoints=pixels[:, 1:7],
        base_h=base_h + noise[:, 27],
        rackets=pixels[:, 7:9],
        ankles=pixels[:, 9:13].reshape(n, 2, 2, 2),
        joints=(rally.joints.reshape(-1, 3) @ camera.extrinsics.r.T
                + camera.extrinsics.t).reshape(n, 2, 4, 3),
    )


def generate_scene(
    rng: np.random.Generator,
    fps: float = 60.0,
    n_hits: int = 4,
    noise_px: float = 0.0,
    video_id: str = "",
    seed: Optional[int] = None,
) -> tuple[TrackFile, RallyTruth, Camera]:
    """Sample (rally, camera) pairs until the scene fits in the image."""
    last_error: Optional[Exception] = None
    for _ in range(SCENE_TRIES):
        rally = generate_rally(rng, fps, n_hits)
        cam = sample_camera(rng)
        try:
            track = emit_synthetic_track(rally, cam, noise_px, rng, video_id, seed)
            return track, rally, cam
        except AssumptionViolation as exc:
            last_error = exc
    raise AssumptionViolation(f"no valid scene after {SCENE_TRIES} tries: {last_error}")


# ---------------------------------------------------------------------------
# exchange generation (anticipation / control oracle)
# ---------------------------------------------------------------------------


def context_mask(lead_time: float) -> np.ndarray:
    """Which CONTEXT_TIMES frames a forecast issued ``lead_time`` before the
    hit may read: those with time <= -lead_time, to within 1e-9 s."""
    return CONTEXT_TIMES <= -lead_time + 1e-9


@dataclass
class Exchanges:
    """n synthetic exchanges as arrays, row i being exchange ``ids[i]``.

    Time zero of a row is the opponent's hit. A row's context is its incoming
    ball at the shared CONTEXT_TIMES (negative), sampled when read. A slice
    is the batch of those rows, on views of these arrays; an integer index,
    or iteration, gives ExchangeSample row views.
    """

    ids: np.ndarray  # (n,)
    incoming: Chains  # the ball up to the opponent's hit, its last end anchor
    outgoing: Chains  # the opponent's return from the hit on
    crossing_time: np.ndarray  # (n,): when the return crosses the ego hitting plane
    crossing_pos: np.ndarray  # (n, 3)
    crossing_vel: np.ndarray  # (n, 3)
    opp_root_y: np.ndarray  # (n,)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows):
        if not isinstance(rows, (int, np.integer)):
            return Exchanges(*(getattr(self, f.name)[rows] for f in fields(self)))
        row = range(len(self))[rows]
        return ExchangeSample(self, row, int(self.ids[row]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class ExchangeSample:
    """Row ``row`` of an Exchanges batch, for a reader that wants one
    exchange: its id, context frames and truth."""

    batch: Exchanges
    row: int
    exchange_id: int
    context_times = CONTEXT_TIMES

    @property
    def context(self) -> list[Frame3D]:
        """Every context frame, built on each read: the incoming ball, and
        the opponent standing at its root y with the racket hand easing from
        rest to the hit."""
        hl, y = TABLE.half_length, float(self.batch.opp_root_y[self.row])
        root_x = hl + 0.55
        hip = Vec3(root_x, y, 0.95)
        ankles = (Vec3(root_x - 0.08, y, 0.0), Vec3(root_x + 0.08, y, 0.0))
        incoming = self._chains[0]
        balls = incoming.positions(CONTEXT_TIMES)[0].tolist()
        rest = np.array([hl + 0.6, y, 1.0])
        approach = _eased(1.0 + CONTEXT_TIMES / CONTEXT_S)[:, None]
        hands = (rest + (incoming.bT[0, -1] - rest) * approach).tolist()
        return [Frame3D(j, Vec3(*ball), [hip, Vec3(*hand), *ankles])
                for j, (ball, hand) in enumerate(zip(balls, hands))]

    @cached_property
    def _chains(self) -> tuple[Chains, Chains]:
        """This row's incoming and outgoing chain, as one-row views."""
        rows = slice(self.row, self.row + 1)
        return self.batch.incoming[rows], self.batch.outgoing[rows]

    def truth_at(self, t: float) -> Vec3:
        """The ball at one time, as ``balls_at`` takes it, in one Chains.positions call."""
        incoming, outgoing = self._chains
        return Vec3.from_array((outgoing if t >= 0 else incoming).positions([t])[0, 0])


def balls_at(exchanges: Exchanges, times) -> np.ndarray:
    """(n, m, 3) ball positions of n exchanges at ``times`` (m,): the
    incoming ball before the opponent's hit, the return from t = 0 on. Each
    side of the hit that ``times`` reach takes one Chains.positions call."""
    t = np.asarray(times, dtype=float)
    out = np.empty((len(exchanges), len(t), 3))
    after = t >= 0
    for chains, at in ((exchanges.outgoing, after), (exchanges.incoming, ~after)):
        if at.any():
            out[:, at] = chains.positions(t[at])
    return out


def _chords(points: np.ndarray) -> np.ndarray:
    """(n, P) lengths between consecutive points (n, P + 1, 3), summed as Vec3.norm sums."""
    d = points[:, 1:] - points[:, :-1]
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


def return_shots(
    hit: np.ndarray, x_bounce, y_cross, z_cross, speed, k1, k2
) -> tuple[Chains, np.ndarray]:
    """n opponent returns on TABLE that cross the ego hitting plane, and
    their (n,) crossing times.

    ``hit`` is (n, 3) and every other argument (n,). A shot travels hit ->
    bounce at ``x_bounce`` (on the ego half) -> a virtual end anchor
    SHOT_OVERRUN meters beyond the plane, constructed so the flight passes
    through (-half_length, y_cross, z_cross). Keeping the supported piece
    well past the plane means post-crossing queries follow the drag curve
    instead of a linear tail. Raises ValueError unless -half_length +
    BOUNCE_CLEARANCE <= x_bounce < hit x: a bounce outside that span leaves
    the plane crossing off (y_cross, z_cross), and one nearer the plane must
    climb to z_cross in almost no time, which the solve for the end height
    cannot resolve.
    """
    hx, hy = hit[:, 0], hit[:, 1]
    height, x_plane = TABLE.height_z, -TABLE.half_length
    x_end = x_plane - SHOT_OVERRUN
    ok = (x_plane + BOUNCE_CLEARANCE <= x_bounce) & (x_bounce < hx)
    if not np.all(ok):
        i = int(np.argmin(ok))
        raise ValueError(
            f"x_bounce={x_bounce[i]} not between the plane x={x_plane} "
            f"(plus {BOUNCE_CLEARANCE} m) and the hit x={hx[i]}"
        )

    # Anchors hit -> bounce -> end; the end sits at z_cross until its height is solved.
    n = len(hit)
    anchors = np.empty((n, 3, 3))
    anchors[:, 0] = hit
    with np.errstate(**RAISE_ON_NONFINITE):
        u_plane = (hx - x_plane) / (hx - x_end)
        y_end = hy + (y_cross - hy) / u_plane
        u_b = (hx - x_bounce) / (hx - x_end)
        y_b = hy + u_b * (y_end - hy)
        anchors[:, 1, 0], anchors[:, 1, 1], anchors[:, 1, 2] = x_bounce, y_b, height
        anchors[:, 2, 0], anchors[:, 2, 1], anchors[:, 2, 2] = x_end, y_end, z_cross
        l1, l2 = _chords(anchors).T
        total_t = (l1 + l2) / speed
        t1 = total_t * l1 / (l1 + l2)
        t2 = total_t - t1
        durations, k = np.empty((n, 2)), np.empty((n, 2))
        durations[:, 0], durations[:, 1], k[:, 0], k[:, 1] = t1, t2, k1, k2
        chains = Chains.through(np.zeros(n), anchors, durations, k)

        # Solve the virtual end height so the plane crossing sits at z_cross;
        # the spans, the chains' own, do not depend on it.
        denom = chains._span[:, 1]
        frac_needed = (x_plane - x_bounce) / (x_end - x_bounce)
        tc_local = -_log(1.0 - frac_needed * denom) / k2
        frac_c = -_expm1(-k2 * tc_local) / denom
        gk = GRAVITY / k2
        chains.bT[:, 1, 2] = height - gk * t2 + (z_cross - height + gk * tc_local) / frac_c
    return chains, t1 + tc_local


# One exchange's 17 draws in stream order, as (low, scale, normal): a uniform
# maps numpy's random() u as ``uniform`` does, low + (high - low) * u (a bare u
# as 0.0 + 1.0 * u, which is u), and a normal maps standard_normal() z as
# ``normal`` does, loc + scale * z.
_EXCHANGE_DRAWS = (
    (0.0, 1.0, False), (0.0, 0.12, True),  # opponent side, root y noise
    (0.0, 1.0, False), (0.0, 0.05, True), (0.95, 1.2 - 0.95, False),  # opponent hit
    (-0.35, 0.35 - -0.35, False), (0.95, 1.15 - 0.95, False),  # previous ego hit y, z
    (0.45, 1.0 - 0.45, False), (10.0, 1.5, True),  # incoming bounce x, speed
    (0.1, 0.3 - 0.1, False), (0.1, 0.3 - 0.1, False),  # incoming drags
    (0.0, SHOT_AIM_SD, True), (0.92, 1.18 - 0.92, False),  # aim noise, crossing z
    (0.0, 1.0, False), (SHOT_SPEED_MEAN, SHOT_SPEED_SD, True),  # return bounce x, speed
    (0.1, 0.3 - 0.1, False), (0.1, 0.3 - 0.1, False),  # return drags
)
_LOW, _SCALE, _NORMAL = (np.array(column) for column in zip(*_EXCHANGE_DRAWS))

# numpy's PCG64 steps its 128-bit LCG state as s -> s * _PCG_MULT + inc and
# outputs the new state's XSL-RR: rotate (high ^ low) right by its top 6 bits.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MASK = (1 << 128) - 1
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)
_PCG_STEPS = 1 << 12  # words one standard_normal() may take before _replay gives up
# numpy's ziggurat normal reads one word w: layer w & 0xff, sign bit 8 and
# rabs the 52 bits above it. When rabs < ki[layer] it returns +-rabs * wi[layer]
# and reads no other word; otherwise it reads more words (the tail or wedge).
_RABS_MASK = (1 << 52) - 1


def _probe(gen: np.random.Generator, word: int) -> tuple[float, bool]:
    """numpy's standard_normal() on a stream whose next word is ``word``, and
    whether it read that word alone.

    With inc 1, the state (word - 1) / _PCG_MULT steps to ``word``, whose
    high half is 0, so XSL-RR outputs its low half: the word.
    """
    state = (word - 1) * _PCG_MULT_INV & _PCG_MASK
    bitgen = gen.bit_generator
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 1},
                    "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(), bitgen.state["state"]["state"] == word


def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """The installed numpy's ziggurat (wi, ki), read off standard_normal().

    wi[i] is the draw of layer i's word with rabs 1 and sign +. ki[i] is the
    smallest rabs whose draw reads a second word: binary-searched in layers
    0-2, and for i >= 3 floor(wi[i - 1] / wi[i] * 2**52) or one more, which
    one probe decides.
    """
    gen = np.random.Generator(np.random.PCG64(0))

    def first_slow(layer: int, lo: int, hi: int) -> int:
        while lo < hi:
            mid = (lo + hi) // 2
            if _probe(gen, mid << 9 | layer)[1]:
                lo = mid + 1
            else:
                hi = mid
        return lo

    wi = [_probe(gen, 1 << 9 | layer)[0] for layer in range(256)]
    ki = [first_slow(layer, 0, 1 << 52) for layer in range(3)]
    for layer in range(3, 256):
        guess = int(wi[layer - 1] / wi[layer] * 2.0**52)
        ki.append(first_slow(layer, guess, guess + 1))
    return np.array(wi), np.array(ki, dtype=np.uint64)


_WI, _KI = _ziggurat_tables()


def _fast(words: np.ndarray) -> np.ndarray:
    """Which words a standard_normal() returns from alone."""
    return (words >> 9 & _RABS_MASK) < _KI[words & 0xFF]


def _steps(state: int, inc: int, end: int) -> int:
    """How many PCG64 steps take ``state`` to ``end``."""
    for steps in range(_PCG_STEPS):
        if state == end:
            return steps
        state = (state * _PCG_MULT + inc) & _PCG_MASK
    raise RuntimeError(f"a standard_normal() read over {_PCG_STEPS} words")


def _replay(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 17): n exchanges' random() and standard_normal() draws, equal to
    calling them one at a time, and ``rng`` left where those calls leave it.

    ``rng`` must be a PCG64 Generator. Its words are taken in one block and
    mapped as numpy maps them. A normal whose word leaves the ziggurat's fast
    path is drawn by numpy itself, from a copy of the stream advanced to that
    word; the words it reads past its own belong to no slot, and push every
    later slot one word on.
    """
    size = 17 * n
    helper = np.random.Generator(np.random.PCG64(0))
    helper.bit_generator.state = rng.bit_generator.state
    words = block = rng.bit_generator.random_raw(size)
    slots, values, skipped = [], [], []  # each fallback's slot and draw; the words past theirs
    taken = 0  # words the helper has passed
    while len(block):  # then the words that the skipped ones pushed past the end
        for p in (len(words) - len(block) + np.flatnonzero(~_fast(block))).tolist():
            slot = p - len(skipped)
            if p < taken or not _NORMAL[slot % 17]:
                continue  # read by the last fallback, or a uniform's word
            helper.bit_generator.advance(p - taken)
            before = helper.bit_generator.state["state"]
            values.append(helper.standard_normal())
            taken = p + _steps(before["state"], before["inc"],
                               helper.bit_generator.state["state"]["state"])
            slots.append(slot)
            skipped.extend(range(p + 1, taken))
        block = rng.bit_generator.random_raw(size + len(skipped) - len(words))
        if len(block):
            words = np.concatenate([words, block])
    if skipped:
        words = np.delete(words, skipped)
    words = words.reshape(n, 17)
    draws = np.empty((n, 17))
    draws[:, ~_NORMAL] = (words[:, ~_NORMAL] >> 11) * 2.0**-53
    z = words[:, _NORMAL]
    x = (z >> 9 & _RABS_MASK).astype(np.float64) * _WI[z & 0xFF]
    draws[:, _NORMAL] = np.negative(x, out=x, where=(z >> 8 & 1).astype(bool))
    draws.reshape(-1)[slots] = values
    return draws


# Seed 98's first 24 exchanges hold five slow normals: a layer-0 tail, a layer-1
# word, wedge rejections and an exchange with two.
_REPLAY_CHECK = (98, 24)


def _check_replay() -> None:
    """Raise unless _replay equals numpy's one-at-a-time draws, and leaves the
    stream where they do, on _REPLAY_CHECK's exchanges."""
    seed, n = _REPLAY_CHECK
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [ref.standard_normal() if normal else ref.random()
            for _ in range(n) for normal in _NORMAL]
    if (_replay(rng, n).tobytes() != np.array(want).tobytes()
            or rng.bit_generator.state != ref.bit_generator.state):
        raise RuntimeError(f"numpy {np.__version__}'s random() and standard_normal() do not "
                           "replay from their words; generate_exchanges cannot run")


_check_replay()


def _draw_exchanges(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 17): n exchanges' draws in the order that fixes every seed's
    exchanges, each mapped by its _EXCHANGE_DRAWS row."""
    return _LOW + _SCALE * _replay(rng, n)


def generate_exchanges(seed: int, n: int, id_offset: int = 0) -> Exchanges:
    """n exchanges with intent-correlated opponent returns, ids from ``id_offset``.

    Each exchange takes its 17 draws from one seeded stream in a fixed order,
    all n replayed at once (``_draw_exchanges``): every value, and the state
    the stream ends in, equal drawing them one scalar call at a time. The
    flights of all n are then built, solved and sampled as arrays.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    rng = np.random.default_rng(seed)
    (side, root_noise, hit_x, hit_y, hit_z, ego_y, ego_z, xb_in, speed_in, k_in1, k_in2,
     aim_noise, z_cross, xb_out, speed, k1, k2) = _draw_exchanges(rng, n).T
    hl, h = TABLE.half_length, TABLE.height_z

    opp_root_y = np.clip(np.where(side < 0.5, 1.0, -1.0) * 0.5 + root_noise, -0.8, 0.8)
    hit = np.column_stack([hl + 0.25 + 0.15 * hit_x, opp_root_y + hit_y, hit_z])

    # Incoming ball: previous ego hit, bounce on the opponent half, contact.
    ego_x = -hl - 0.3
    u = (ego_x - xb_in) / (ego_x - hit[:, 0])
    bounce_in = np.column_stack([xb_in, ego_y + u * (hit[:, 1] - ego_y), np.full(n, h)])
    anchors = np.stack([np.column_stack([np.full(n, ego_x), ego_y, ego_z]), bounce_in, hit],
                       axis=1)
    l1, l2 = _chords(anchors).T
    t_total = (l1 + l2) / np.clip(speed_in, 7.0, 14.0)
    t1 = t_total * l1 / (l1 + l2)
    incoming = Chains.through(-t_total, anchors, np.column_stack([t1, t_total - t1]),
                              np.column_stack([k_in1, k_in2]))

    y_cross = np.clip(SHOT_AIM_GAIN * opp_root_y + aim_noise, -SHOT_Y_LIMIT, SHOT_Y_LIMIT)
    x_bounce = -(0.45 + 0.45 * xb_out)
    outgoing, t_cross = return_shots(hit, x_bounce, y_cross, z_cross,
                                     np.clip(speed, *SHOT_SPEED_CLIP), k1, k2)

    return Exchanges(
        ids=np.arange(id_offset, id_offset + n),
        incoming=incoming,
        outgoing=outgoing,
        crossing_time=t_cross,
        crossing_pos=outgoing.positions(t_cross[:, None])[:, 0],
        crossing_vel=outgoing.velocities(t_cross[:, None])[:, 0],
        opp_root_y=opp_root_y,
    )
