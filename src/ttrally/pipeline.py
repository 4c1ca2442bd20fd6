"""Track-file ingestion, full-point reconstruction, filtering, and the one
record codec that writes and reads every ttrally file format.

Every format is line-delimited text: a header line (version tag, then
``key=value`` fields), then one record per line (an optional tag word, then
``key=value`` fields or positional values). ``-`` marks an absent value. The
specs below define all five formats: track ``v1``, ``recon-v1``,
``conformal-v1``, and the write-only ``results-v1`` and ``camera-v1``. A spec
maps field names to value kinds; each kind is one encoder and one decoder of
a list of values (``format_record`` and ``parse_record`` take one value).
Readers raise ParseError (with the line number) for any malformed record,
SchemaError for a bad header field or missing block, VersionError for a wrong
version tag. Track and recon frame records, most of a file, are array columns
in memory (NaN for absent), written by ``format_columns`` and read by
``decode_frames``, one pass down each column; a body that fails the read's
pass is read record by record, to name the first defect.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np

from .ball import (
    BallTrack2D,
    BounceEvent,
    DragFit,
    HitEvent,
    ReconstructedPiece,
    StokesSegment,
    detect_hits,
    reconstruct_trajectory,
)
from .camera import (
    Camera,
    Extrinsics,
    ImagePoint,
    Intrinsics,
    calibrate,
    ground_projections,
    ground_roots,
    place_joints,
)
from .core import AXES, RACKET_HAND_JOINT, Frame3D, TableGeometry, Vec3
from .errors import (
    NotEnoughHits,
    ParseError,
    SchemaError,
    VersionError,
)


@dataclass
class TrackHeader:
    fps: float
    width: int
    height: int
    video_id: str = ""
    seed: Optional[int] = None
    noise_px: float = 0.0


@dataclass
class TrackFile:
    """A track's frames as columns, row i being frame ``frames[i]``: pixels
    (u right, v up) and camera-frame joints, as a pose estimator emits them.
    NaN marks an absent value, and pads a joint list shorter than J."""

    header: TrackHeader
    frames: np.ndarray  # (n,) int, increasing
    ball: np.ndarray  # (n, 2)
    keypoints: np.ndarray  # (n, 6, 2): the six table keypoints, in surface_keypoints order
    base_h: np.ndarray  # (n,): the table-leg base line's v
    rackets: np.ndarray  # (n, 2, 2): each player's racket centroid
    ankles: np.ndarray  # (n, 2, 2, 2): each player's two ankle pixels
    joints: np.ndarray  # (n, 2, J, 3): each player's joints, camera frame


@dataclass(frozen=True)
class PointFrame:
    """Row view of one frame of a ReconstructedPoint: its index and ball."""

    frame_index: int
    ball: Vec3


@dataclass
class ReconstructedPoint:
    """A reconstructed point; its frames are columns, row i being frame
    ``frame_index[i]``, with NaN padding a joint list shorter than J."""

    point_id: int
    frame_index: np.ndarray  # (m,) int, increasing
    ball: np.ndarray  # (m, 3)
    roots: np.ndarray  # (m, 2, 3): each player's root, on the ground
    joints: np.ndarray  # (m, 2, J, 3): each player's world joints
    hits: list[HitEvent]
    bounces: list[BounceEvent]
    pieces: list[ReconstructedPiece]
    partition: str = ""
    entity_complete: bool = True
    complete: bool = True  # False when the last segment could not be recovered

    @property
    def frames(self) -> list[PointFrame]:
        """Every frame as a row view, built on each read."""
        return [PointFrame(i, Vec3(*ball))
                for i, ball in zip(self.frame_index.tolist(), self.ball.tolist())]

    def frame3d_for_ego(self, ego: int) -> list[Frame3D]:
        """Exchange view: ball and opponent joints."""
        columns = self.frame_index, self.ball, self.joints[:, 1 - ego]
        return [Frame3D(i, Vec3(*b), [Vec3(*j) for j in js if not math.isnan(j[0])])
                for i, b, js in zip(*(column.tolist() for column in columns))]


@dataclass
class Reconstruction:
    fps: float
    camera: Camera
    camera_rms: float
    table: TableGeometry
    points: list[ReconstructedPoint]
    seed: Optional[int] = None


# ---------------------------------------------------------------------------
# record codec
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    """How one field's values are written and read back, a list at a time."""

    encode: Callable[[list], list[str]]
    # Decodes a list of values; raises ValueError, whose message names the
    # defect when the list holds one value. None: write-only.
    column: Optional[Callable[[list[str]], list]]
    omittable: bool = False  # the field may be left out; it then reads as None


@dataclass(frozen=True, eq=False)
class Spec:
    """One line layout: an optional leading tag, then named fields in order."""

    tag: str
    fields: dict[str, Kind]
    keyed: bool = True  # key=value fields; False: positional values
    sep: Optional[str] = None  # None: any whitespace, written as one space


def _scalar(parse: Callable, ok: Callable = lambda v: True, what: str = "") -> Kind:
    def column(texts: list[str]) -> list:
        values = list(map(parse, texts))
        if not all(map(ok, values)):
            raise ValueError(f"must be {what}")
        return values

    return Kind(lambda values: list(map(str, map(parse, values))), column)  # str(float) is repr(float)


def _coords(n: int) -> Kind:
    """``n`` comma-separated finite floats; a value is a sequence of n numbers."""

    def column(texts: list[str]) -> list:
        values = list(map(float, ",".join(texts).split(",")))  # float() before arity
        if (set(map(str.count, texts, repeat(","))) - {n - 1}
                or not all(map(math.isfinite, values))):
            raise ValueError(f"must be {n} comma-separated finite numbers")
        return list(zip(*[iter(values)] * n))

    def encode(values: list) -> list[str]:
        floats = map(float, chain.from_iterable(values))
        return list(map(template.__mod__, zip(*[floats] * n)))

    template = ",".join(["%r"] * n)
    return Kind(encode, column)


def _list(kind: Kind, at_least: int, at_most: Optional[int] = None) -> Kind:
    """A ``;``-separated list of ``kind`` values."""

    def column(texts: list[str]) -> list:
        sizes = [count + 1 for count in map(str.count, texts, repeat(";"))]
        low, high = min(sizes), max(sizes)
        if low < at_least or (at_most and high > at_most):
            raise ValueError(f"has {low if low < at_least else high} entries")
        items = ";".join(texts).split(";")
        try:
            values = kind.column(items)
        except ValueError:
            for item in items:  # the first bad item's own message
                kind.column([item])
            raise
        return [values[end - size:end] for size, end in zip(sizes, accumulate(sizes))]

    def encode(values: list) -> list[str]:
        sizes = list(map(len, values))
        texts = kind.encode(list(chain.from_iterable(values)))
        return [";".join(texts[end - size:end]) for size, end in zip(sizes, accumulate(sizes))]

    return Kind(encode, column)


def _or_dash(kind: Kind) -> Kind:
    """``-`` for an absent (None) value; a present value written as ``-``
    would read back absent, so it is refused."""

    def encode(values: list) -> list[str]:
        present = [value for value in values if value is not None]
        texts = kind.encode(present)
        if "-" in texts:
            value = present[texts.index("-")]
            raise ValueError(f"{value!r} would be written as '-', which reads as absent")
        written = iter(texts)
        return ["-" if value is None else next(written) for value in values]

    def column(texts: list[str]) -> list:
        present = [text for text in texts if text != "-"]
        if len(present) == len(texts):
            return kind.column(texts)
        values = iter(kind.column(present) if present else [])
        return [None if text == "-" else next(values) for text in texts]

    return Kind(encode, column)


def _omittable(kind: Kind) -> Kind:
    return kind._replace(omittable=True)


def _word(value) -> str:
    """``value`` as text that splits to itself, so its reader takes it back whole."""
    text = str(value)
    if text.split() != [text]:
        raise ValueError(f"{text!r} is not one word without whitespace")
    return text


def _row(tag: str, n: int) -> Spec:
    """``tag`` followed by ``n`` positional finite floats."""
    return Spec(tag, {f"{tag}{i}": FLOAT for i in range(n)}, keyed=False)


INT = _scalar(int)
SIZE = _scalar(int, lambda n: n > 0, "positive")
COUNT = _scalar(int, lambda n: n >= 0, "non-negative")
BIT = _scalar(int, (0, 1).__contains__, "0 or 1")
FLAG = Kind(BIT.encode, lambda texts: list(map(bool, BIT.column(texts))))
FLOAT = _scalar(float, math.isfinite, "finite")
POSITIVE = _scalar(float, lambda x: 0 < x < math.inf, "positive and finite")
PROBABILITY = _scalar(float, lambda x: 0 < x < 1, "in (0, 1)")
QUANTILE = _scalar(float, lambda x: x >= 0, "non-negative (inf allowed)")
WORD = Kind(lambda values: list(map(_word, values)), _scalar(str, bool, "non-empty").column)
AXIS = _scalar(str, AXES.__contains__, "x, y or z")
PX = _coords(2)
XYZ = _coords(3)
CENTRAL = Kind(lambda values: [f"({text})" for text in XYZ.encode(values)], None)
# Two ankle pixels; joints need the racket hand (index 1) and two ankles.
ANKLES = _list(PX, 2, 2)
JOINTS = _list(XYZ, 3)


def format_record(spec: Spec, *values) -> str:
    """One line of ``spec`` holding ``values`` in field order."""
    out = [spec.tag] if spec.tag else []
    for (name, kind), value in zip(spec.fields.items(), values, strict=True):
        if value is None and kind.omittable:
            continue
        text = kind.encode([value])[0]
        out.append(f"{name}={text}" if spec.keyed else text)
    return (spec.sep or " ").join(out)


def format_columns(spec: Spec, columns: Sequence[np.ndarray]) -> list[str]:
    """The records, in the layout ``format_record`` writes, of a keyed
    ``spec`` with no omittable field, holding ``columns``: one array per
    field, in spec order, each encoded down its ``_values`` in one pass."""
    texts = [list(map(f"{name}=".__add__, kind.encode(_values(column))))
             for (name, kind), column in zip(spec.fields.items(), columns, strict=True)]
    if spec.tag:
        texts.insert(0, [spec.tag] * len(columns[0]))
    return list(map((spec.sep or " ").join, zip(*texts)))


def parse_record(
    spec: Spec, line: str, lineno: int, error: type[ParseError] = ParseError
) -> dict[str, Any]:
    """Field name -> decoded value; every defect raises ``error``."""
    tokens = line.split(spec.sep)
    if spec.tag:
        if tokens[:1] != [spec.tag]:
            raise error(lineno, f"expected a {spec.tag!r} record")
        tokens = tokens[1:]
    if not spec.keyed:
        if len(tokens) != len(spec.fields):
            raise error(lineno, f"expected {len(spec.fields)} values, got {len(tokens)}")
        raw = dict(zip(spec.fields, tokens))
    else:
        raw = {}
        for token in tokens:
            key, eq, value = token.partition("=")
            if not eq or key not in spec.fields or key in raw:
                what = "duplicate" if key in raw else "unexpected"
                raise error(lineno, f"{what} field {token!r}")
            raw[key] = value
    out = {}
    for name, kind in spec.fields.items():
        if name not in raw:
            if not kind.omittable:
                raise error(lineno, f"missing field {name!r}")
            out[name] = None
            continue
        try:
            out[name] = kind.column([raw[name]])[0]
        except ValueError as exc:
            raise error(lineno, f"bad {name} {raw[name]!r}: {exc}") from None
    return out


def decode_columns(spec: Spec, lines: list[str]) -> Optional[list[list]]:
    """The fields of ``lines``, records of a keyed ``spec``, each decoded down
    its column in one pass: one list per field, in spec order.

    None unless there are lines and every one holds the tag and then every
    field as ``key=value`` in spec order, and every value passes its kind's
    checks. ``parse_record`` on each line then names the first defect.
    """
    rows = [line.split(spec.sep) for line in lines]
    width = len(spec.fields) + bool(spec.tag)
    if not rows or set(map(len, rows)) != {width}:
        return None
    columns = list(zip(*rows))
    if spec.tag and columns.pop(0).count(spec.tag) != len(rows):
        return None
    out = []
    for (name, kind), tokens in zip(spec.fields.items(), columns):
        key = f"{name}="
        if not all(map(str.startswith, tokens, repeat(key))):
            return None
        texts = [token[len(key):] for token in tokens]
        try:
            out.append(kind.column(texts))
        except ValueError:
            return None
    return out


def decode_frames(spec: Spec, body: list[tuple[int, str]]) -> list[list]:
    """The field values of ``body``'s (line number, line) pairs, frame
    records of ``spec`` whose first field, the frame index, must increase:
    one list per field, in spec order.

    One column pass decodes them all; a body that fails it is decoded record
    by record, which raises ParseError at the first defect.
    """
    columns = decode_columns(spec, [line for _, line in body])
    if columns is not None and all(map(operator.lt, columns[0], columns[0][1:])):
        return columns
    records: list[tuple] = []
    for lineno, line in body:
        record = tuple(parse_record(spec, line, lineno).values())
        if records and record[0] <= records[-1][0]:
            raise ParseError(lineno, "frame indices must be increasing")
        records.append(record)
    return [[record[i] for record in records] for i in range(len(spec.fields))]


def _array(shape: tuple, *columns: list) -> np.ndarray:
    """(n, len(columns), *shape) floats of columns of n decoded values: NaN
    for an absent (None) value and past the end of a list shorter than
    shape[0], which None makes the longest list's length."""
    values = list(chain.from_iterable(zip(*columns)))
    if shape[0] is None:
        shape = (max(map(len, filter(None, values)), default=0), *shape[1:])
    if None not in values and set(map(len, values)) <= {shape[0]}:
        return np.array(values, dtype=float).reshape(len(columns[0]), len(columns), *shape)
    out = np.full((len(values), *shape), np.nan)
    for i, value in enumerate(values):
        if value is not None:
            out[i, :len(value)] = value
    return out.reshape(len(columns[0]), len(columns), *shape)


def _values(column: np.ndarray) -> list:
    """The values of an array column (n, ...) as ``_array`` reads them back:
    nested lists, None for a NaN row, a list cut where its NaN padding starts."""
    values = column.tolist()
    if column.ndim == 1 or (column.size and not np.isnan(column).any()):
        return values
    if column.ndim == 2:  # one point per row
        return [None if math.isnan(value[0]) else value for value in values]
    sizes = (~np.isnan(column[..., 0])).sum(axis=1).tolist()
    return [value[:size] or None for value, size in zip(values, sizes)]


def read_lines(path: str) -> list[str]:
    """The lines of a UTF-8 text file; other bytes raise ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None


def read_header(lines: list[str], spec: Spec) -> dict[str, Any]:
    """Check line 1's version tag and decode its fields."""
    tag = lines[0].split(maxsplit=1)[0] if lines and lines[0].strip() else ""
    if tag != spec.tag:
        raise VersionError(1, f"expected a {spec.tag!r} header, found {tag!r}")
    return parse_record(spec, lines[0], 1, SchemaError)


def body_lines(lines: list[str]):
    """(line number, line) of every non-blank line after the header."""
    return ((n, line) for n, line in enumerate(lines[1:], start=2) if line.strip())


def write_lines(path: str, lines: Sequence[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

_PX = _or_dash(PX)
TRACK_HEADER = Spec("v1", {"fps": POSITIVE, "w": SIZE, "h": SIZE, "id": _omittable(WORD),
                           "seed": _omittable(INT), "noise_px": _omittable(FLOAT)})
TRACK_FRAME = Spec("", {
    "frame": INT, "ball": _PX, **{f"kp{i}": _PX for i in range(1, 7)}, "base_h": FLOAT,
    "rk0": _PX, "rk1": _PX, "joints0": _or_dash(JOINTS), "joints1": _or_dash(JOINTS),
    "ankles0": _or_dash(ANKLES), "ankles1": _or_dash(ANKLES),
})

RECON_HEADER = Spec("recon-v1", {"fps": POSITIVE, "seed": _omittable(INT)})
RECON_CAMERA = Spec("camera", {"fx": FLOAT, "fy": FLOAT, "cx": FLOAT, "cy": FLOAT,
                               "rms": FLOAT})
RECON_ROT = _row("rot", 9)
TRANS = _row("trans", 3)
RECON_TABLE = Spec("table", {"length": FLOAT, "width": FLOAT, "height": FLOAT})
RECON_POINT = Spec("point", {"id": INT, "partition": _or_dash(WORD),
                             "entity_complete": FLAG, "complete": FLAG})
RECON_HIT = Spec("hit", {"frame": INT, "player": BIT, "pos": XYZ})
RECON_BOUNCE = Spec("bounce", {"frame": INT, "pos": XYZ})
RECON_PIECE = Spec("piece", {"start": INT, "end": INT, "T": FLOAT, "k": FLOAT,
                             "reproj": FLOAT, "warn": FLAG, "mse": FLOAT,
                             "b0": XYZ, "bT": XYZ})
RECON_FRAME = Spec("frame", {"idx": INT, "ball": XYZ, "root0": XYZ, "root1": XYZ,
                             "joints0": JOINTS, "joints1": JOINTS})
RECON_ENDPOINT = Spec("endpoint", {})
# The camera block's records appear once each, outside point blocks.
_RECON_CAMERA_BLOCK = (RECON_CAMERA, RECON_ROT, TRANS, RECON_TABLE)
_RECON_RECORDS = {spec.tag: spec for spec in _RECON_CAMERA_BLOCK + (
    RECON_POINT, RECON_HIT, RECON_BOUNCE, RECON_PIECE, RECON_FRAME, RECON_ENDPOINT)}

CONFORMAL_HEADER = Spec("conformal-v1", {"alpha": PROBABILITY, "seed": _omittable(INT)})
CONFORMAL_ROW = Spec("", {"axis": AXIS, "horizon": FLOAT, "q": QUANTILE, "n": COUNT},
                     keyed=False, sep="\t")

RESULTS_HEADER = Spec("results-v1", {"seed": INT})
RESULTS_ROW = Spec("", {
    "strategy": WORD, "lambda": FLOAT, "lead_time": FLOAT, "central": CENTRAL,
    "n": COUNT, "return_rate": FLOAT, "mean_deviation": FLOAT, "mean_pos_err": FLOAT,
    "mean_ang_err_deg": FLOAT, "n_fallback": COUNT,
}, keyed=False, sep="\t")
RESULTS_COLUMNS = "\t".join(RESULTS_ROW.fields)

CAMERA_HEADER = Spec("camera-v1", {"seed": _omittable(INT)})
CAMERA_INTRINSICS = Spec("", {"fx": FLOAT, "fy": FLOAT, "cx": FLOAT, "cy": FLOAT})
CAMERA_ROT = _row("rot", 3)
CAMERA_RMS = Spec("", {"rms_px": FLOAT})


# ---------------------------------------------------------------------------
# track file serialization
# ---------------------------------------------------------------------------


def write_track(track: TrackFile, path: str) -> None:
    h = track.header
    write_lines(path, [
        format_record(TRACK_HEADER, h.fps, h.width, h.height, h.video_id or None, h.seed,
                      h.noise_px),
        *format_columns(TRACK_FRAME, [
            track.frames, track.ball, *track.keypoints.swapaxes(0, 1), track.base_h,
            *track.rackets.swapaxes(0, 1), *track.joints.swapaxes(0, 1),
            *track.ankles.swapaxes(0, 1),
        ]),
    ])


def load_track(path: str) -> TrackFile:
    """Parse and validate a track file."""
    lines = read_lines(path)
    meta = read_header(lines, TRACK_HEADER)
    header = TrackHeader(meta["fps"], meta["w"], meta["h"], meta["id"] or "", meta["seed"],
                         0.0 if meta["noise_px"] is None else meta["noise_px"])
    frame, ball, *kps, base_h, rk0, rk1, j0, j1, a0, a1 = decode_frames(
        TRACK_FRAME, list(body_lines(lines)))
    return TrackFile(
        header=header,
        frames=np.array(frame, dtype=int),
        ball=_array((2,), ball)[:, 0],
        keypoints=_array((2,), *kps),
        base_h=np.array(base_h, dtype=float),
        rackets=_array((2,), rk0, rk1),
        ankles=_array((2, 2), a0, a1),
        joints=_array((None, 3), j0, j1),
    )


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def calibrate_from_track(
    track: TrackFile, table: TableGeometry
) -> tuple[Camera, float]:
    """Calibrate once per point from median keypoints over its frames.

    The camera is static, so per-coordinate medians resist detector jitter
    better than any single frame.
    """
    all_six = ~np.isnan(track.keypoints).any(axis=(1, 2))
    if not all_six.any():
        raise SchemaError(None, "no frames with all six keypoints")
    with np.errstate(over="ignore"):  # huge keypoints: calibrate refuses the overflow
        med = np.median(track.keypoints[all_six], axis=0)
        base_h = float(np.median(track.base_h))
    keypoints = [ImagePoint(u, v) for u, v in med]
    grounds = ground_projections(keypoints, base_h)
    world = table.surface_keypoints() + table.corner_ground_points()
    pixels = keypoints + grounds
    return calibrate(list(zip(world, pixels)))


def reconstruct_point(
    track: TrackFile,
    table: TableGeometry = TableGeometry(),
    point_id: int = 0,
    mse_threshold: Optional[float] = None,
) -> tuple[Reconstruction, ReconstructedPoint]:
    """Full reconstruction of one point from a validated track file.

    Raises SegmentRejected when a hit pair's bounce-fit error (summed
    squared pixel error, px^2) exceeds ``mse_threshold`` (None keeps every
    pair).
    """
    camera, rms = calibrate_from_track(track, table)
    fps = track.header.fps

    seen = ~np.isnan(track.ball).any(axis=1)
    if seen.sum() < 6:
        raise NotEnoughHits("too few ball detections")
    track2d = BallTrack2D(track.frames[seen], track.ball[seen])

    hits = detect_hits(track2d, track.rackets[seen])
    if len(hits) < 2:
        raise NotEnoughHits(f"detected {len(hits)} hits")

    # Position both players in every frame that carries both; frame f is row[f].
    posed = ~np.isnan(track.joints).all(axis=(2, 3)) & ~np.isnan(track.ankles).any(axis=(2, 3))
    usable = posed.all(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # huge pixels or joints: refused inside
        roots, joints = _position_rows(camera, track.ankles[usable], track.joints[usable])
    row = {frame: i for i, frame in enumerate(track.frames[usable].tolist())}

    for hit in hits:
        # Prefer the hit frame itself; tolerate a short tracking dropout by
        # borrowing the hand from the nearest positioned neighbor frame.
        for offset in (0, -1, 1, -2, 2, -3, 3):
            frame = hit.frame + offset
            if frame in row:
                hit.hand_world = Vec3(*joints[row[frame], hit.player, RACKET_HAND_JOINT].tolist())
                break
    if any(h.hand_world is None for h in hits):
        raise NotEnoughHits("hit frame lacks positioned player joints")

    recon_traj = reconstruct_trajectory(
        track2d, hits, camera, table, fps, mse_threshold=mse_threshold
    )

    ball_frames, balls = recon_traj.ball_by_frame(fps)
    kept, rows, at = np.intersect1d(track.frames[usable], ball_frames, assume_unique=True,
                                    return_indices=True)
    joints = joints[rows]  # cut to the widest kept joint list, as a read gives it back
    point = ReconstructedPoint(
        point_id=point_id,
        frame_index=kept,
        ball=balls[at],
        roots=roots[rows],
        joints=joints[:, :, :(~np.isnan(joints[..., 0])).sum(axis=2).max(initial=0)],
        hits=list(hits),
        bounces=recon_traj.bounces,
        pieces=recon_traj.pieces,
        entity_complete=bool(posed.all()) and not any(
            np.isnan(a).any() for a in (track.ball, track.keypoints, track.rackets)),
    )
    return Reconstruction(fps=fps, camera=camera, camera_rms=rms, table=table, points=[point],
                          seed=track.header.seed), point


def _position_rows(
    camera: Camera, ankles: np.ndarray, joints: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """World roots (u, 2, 3) and joints (u, 2, J, 3) of both players in u
    frames, given their ankle pixels (u, 2, 2, 2) and camera-frame joints
    (u, 2, J, 3), NaN past a shorter joint list. All roots come from one
    ``ground_roots`` call, frame by frame and player 0 first, so a ray that
    misses the ground raises for the first such player; the joints are
    placed with one ``place_joints`` call per joint count."""
    roots = ground_roots(camera, ankles).reshape(-1, 2, 3)
    counts = (~np.isnan(joints[..., 0])).sum(axis=2)
    world = np.full(joints.shape, np.nan)
    for count in np.unique(counts).tolist():
        rows = counts == count
        world[rows, :count] = place_joints(camera, roots[rows], joints[rows, :count])
    return roots, world


# ---------------------------------------------------------------------------
# reconstruction and camera file serialization
# ---------------------------------------------------------------------------


def write_reconstruction(recon: Reconstruction, path: str) -> None:
    k = recon.camera.intrinsics
    t = recon.table
    lines = [
        format_record(RECON_HEADER, recon.fps, recon.seed),
        format_record(RECON_CAMERA, k.fx, k.fy, k.cx, k.cy, recon.camera_rms),
        format_record(RECON_ROT, *recon.camera.extrinsics.r.ravel()),
        format_record(TRANS, *recon.camera.extrinsics.t),
        format_record(RECON_TABLE, t.length_x, t.width_y, t.height_z),
    ]
    for point in recon.points:
        lines.append(format_record(
            RECON_POINT, point.point_id, point.partition or None,
            point.entity_complete, point.complete,
        ))
        for hit in point.hits:
            lines.append(format_record(RECON_HIT, hit.frame, hit.player, hit.hand_world))
        for bounce in point.bounces:
            lines.append(format_record(RECON_BOUNCE, bounce.frame, bounce.position))
        for piece in point.pieces:
            seg = piece.segment
            lines.append(format_record(
                RECON_PIECE, piece.start_frame, piece.end_frame, seg.T, seg.k,
                piece.drag.reproj_error, piece.drag.boundary_warning,
                piece.parabola_mse, seg.b0, seg.bT,
            ))
        lines += format_columns(RECON_FRAME, [point.frame_index, point.ball,
                                              *point.roots.swapaxes(0, 1),
                                              *point.joints.swapaxes(0, 1)])
        lines.append(format_record(RECON_ENDPOINT))
    write_lines(path, lines)


def read_reconstruction(path: str) -> Reconstruction:
    lines = read_lines(path)
    meta = read_header(lines, RECON_HEADER)
    points, once = _recon_blocks(lines)
    missing = [spec.tag for spec in _RECON_CAMERA_BLOCK if spec not in once]
    if missing:
        raise SchemaError(None, f"missing {', '.join(missing)} record")
    cam, rot, trans, table = (once[spec] for spec in _RECON_CAMERA_BLOCK)
    try:
        camera = Camera(
            Intrinsics(fx=cam["fx"], fy=cam["fy"], cx=cam["cx"], cy=cam["cy"]),
            Extrinsics(r=np.reshape(list(rot.values()), (3, 3)), t=list(trans.values())),
        )
        geometry = TableGeometry(table["length"], table["width"], table["height"])
    except ValueError as exc:
        raise SchemaError(None, str(exc)) from None
    return Reconstruction(fps=meta["fps"], camera=camera, camera_rms=cam["rms"],
                          table=geometry, points=points, seed=meta["seed"])


def _recon_blocks(
    lines: list[str],
) -> tuple[list[ReconstructedPoint], dict[Spec, dict[str, Any]]]:
    """The points and camera-block records of a recon-v1 body.

    A point block's frame records, most of a file, are set aside while the
    other records are read, then decoded by ``decode_frames``. The read stops
    at its first defect; the frame records before it are decoded first, so a
    defect among them is the one raised.
    """
    once: dict[Spec, dict[str, Any]] = {}
    points: list[ReconstructedPoint] = []
    point: Optional[ReconstructedPoint] = None
    frames: list[list[tuple[int, str]]] = []  # each point's frame records
    defect: Optional[ParseError] = None
    try:
        for lineno, line in body_lines(lines):
            tag = line.split(maxsplit=1)[0]
            if tag not in _RECON_RECORDS:
                raise ParseError(lineno, f"unknown record tag {tag!r}")
            spec = _RECON_RECORDS[tag]
            deferred = spec is RECON_FRAME and point is not None
            r = None if deferred else parse_record(spec, line, lineno)
            # point and camera-block records come between point blocks, all others inside.
            if (point is None) != (spec is RECON_POINT or spec in _RECON_CAMERA_BLOCK):
                where = "outside" if point is None else "inside"
                raise ParseError(lineno, f"{tag} record {where} a point block")
            try:
                if deferred:
                    frames[-1].append((lineno, line))
                elif spec is RECON_POINT:
                    point = ReconstructedPoint(  # frame columns set once decoded
                        r["id"], None, None, None, None, hits=[], bounces=[], pieces=[],
                        partition=r["partition"] or "",
                        entity_complete=r["entity_complete"], complete=r["complete"],
                    )
                    points.append(point)
                    frames.append([])
                elif spec is RECON_HIT:
                    point.hits.append(HitEvent(r["frame"], r["player"], Vec3(*r["pos"])))
                elif spec is RECON_BOUNCE:
                    point.bounces.append(BounceEvent(r["frame"], Vec3(*r["pos"])))
                elif spec is RECON_PIECE:
                    point.pieces.append(ReconstructedPiece(
                        start_frame=r["start"],
                        end_frame=r["end"],
                        segment=StokesSegment(Vec3(*r["b0"]), Vec3(*r["bT"]), r["T"], r["k"]),
                        drag=DragFit(r["k"], r["reproj"], boundary_warning=r["warn"]),
                        parabola_mse=r["mse"],
                    ))
                elif spec is RECON_ENDPOINT:
                    point = None
                elif spec in once:
                    raise ParseError(lineno, f"duplicate {tag} record")
                else:
                    once[spec] = r
            except ValueError as exc:  # a constructor's own check, e.g. k > 0
                raise ParseError(lineno, str(exc)) from None
        if point is not None:
            raise ParseError(len(lines), "the last point block has no endpoint record")
    except ParseError as exc:
        defect = exc
    for owner, body in zip(points, frames):
        index, ball, root0, root1, joints0, joints1 = decode_frames(RECON_FRAME, body)
        owner.frame_index = np.array(index, dtype=int)
        owner.ball = _array((3,), ball)[:, 0]
        owner.roots = _array((3,), root0, root1)
        owner.joints = _array((None, 3), joints0, joints1)
    if defect is not None:
        raise defect
    return points, once


def camera_lines(camera: Camera, rms: float, seed: Optional[int]) -> list[str]:
    """The camera-v1 report of a calibration."""
    k = camera.intrinsics
    return [
        format_record(CAMERA_HEADER, seed),
        format_record(CAMERA_INTRINSICS, k.fx, k.fy, k.cx, k.cy),
        *(format_record(CAMERA_ROT, *row) for row in camera.extrinsics.r),
        format_record(TRANS, *camera.extrinsics.t),
        format_record(CAMERA_RMS, rms),
    ]
