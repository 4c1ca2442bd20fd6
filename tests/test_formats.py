"""The record codec shared by all five file formats.

The files in tests/data were written by the hand-written writers that the
codec replaced, so re-writing what the readers load must reproduce them byte
for byte: a format drift shared by writer and reader still shows here.
READER_ERRORS, at the end, is the table of fixed malformed-file cases; the
mutation fuzz tests draw damaged files beside it.
"""

import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from track_columns import comparable
from ttrally import pipeline
from ttrally.anticipate import read_calibration, write_calibration
from ttrally.camera import Camera, Extrinsics, Intrinsics
from ttrally.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from ttrally.control import ExperimentRow, write_results
from ttrally.core import TableGeometry, Vec3
from ttrally.errors import ParseError, SchemaError, VersionError
from ttrally.pipeline import (
    RECON_FRAME,
    TRACK_FRAME,
    ReconstructedPoint,
    TrackFile,
    TrackHeader,
    body_lines,
    calibrate_from_track,
    decode_columns,
    load_track,
    read_lines,
    read_reconstruction,
    write_reconstruction,
    write_track,
)

DATA = Path(__file__).parent / "data"
TRACK = DATA / "dashes.track"  # '-' detections, no seed
RECON = DATA / "two_points.recon"  # partitions '-' and 'train'
CONFORMAL = DATA / "inf_quantile.conformal"  # finite and +inf quantiles
READERS = {TRACK: load_track, RECON: read_reconstruction, CONFORMAL: read_calibration}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


def _assert_usage_error(argv):
    rc, err = _run(argv)
    assert rc == EXIT_USAGE
    assert len(err) == 1 and err[0].startswith("error:"), err


# ---------------------------------------------------------------------------
# same bytes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "path, read, write",
    [
        (TRACK, load_track, write_track),
        (RECON, read_reconstruction, write_reconstruction),
        (CONFORMAL, read_calibration, lambda c, p: write_calibration(p, c, seed=5)),
    ],
    ids=["track", "recon", "conformal"],
)
def test_golden_file_round_trips_byte_for_byte(path, read, write, tmp_path):
    out = tmp_path / path.name
    write(read(str(path)), str(out))
    assert out.read_bytes() == path.read_bytes()


def test_golden_files_hold_what_they_claim():
    track = load_track(str(TRACK))
    assert track.header.seed is None and np.isnan(track.ball[1]).all()
    recon = read_reconstruction(str(RECON))
    assert [p.partition for p in recon.points] == ["", "train"]
    assert math.inf in read_calibration(str(CONFORMAL)).quantiles.values()


def test_camera_report_exact_text():
    camera = Camera(
        Intrinsics(fx=1000.0, fy=990.5, cx=480.0, cy=270.25),
        Extrinsics(r=[[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]], t=[0.0, 1.5, 7.25]),
    )
    assert pipeline.camera_lines(camera, 0.125, seed=21) == [
        "camera-v1 seed=21",
        "fx=1000.0 fy=990.5 cx=480.0 cy=270.25",
        "rot 1.0 0.0 0.0",
        "rot 0.0 0.0 -1.0",
        "rot 0.0 1.0 0.0",
        "trans 0.0 1.5 7.25",
        "rms_px=0.125",
    ]
    # A seedless track leaves the seed out rather than writing seed=None.
    assert pipeline.camera_lines(camera, 0.125, seed=None)[0] == "camera-v1"


def test_results_exact_text(tmp_path):
    central = Vec3(-1.5, 0.0, 1.05)
    rows = [
        ExperimentRow("anticipatory", 0.1, 0.2, central, 8, 0.875, 0.025, 0.0625, 1.5, 1),
        ExperimentRow("oracle", 0.1, 0.2, central, 8, 0.0, math.nan, 0.0, 0.0, 0),
    ]
    path = tmp_path / "results.tsv"
    write_results(str(path), rows, seed=3)
    assert path.read_text() == (
        "results-v1 seed=3\n"
        "strategy\tlambda\tlead_time\tcentral\tn\treturn_rate\tmean_deviation"
        "\tmean_pos_err\tmean_ang_err_deg\tn_fallback\n"
        "anticipatory\t0.1\t0.2\t(-1.5,0.0,1.05)\t8\t0.875\t0.025\t0.0625\t1.5\t1\n"
        "oracle\t0.1\t0.2\t(-1.5,0.0,1.05)\t8\t0.0\tnan\t0.0\t0.0\t0\n"
    )


@settings(max_examples=200)
@example(video_id="my clip")
@example(video_id="clip=1,2;-")
@given(video_id=st.text())
def test_written_track_ids_read_back_or_are_refused(video_id, fuzz_dir):
    # A writer must never emit a header its reader rejects.
    track = load_track(str(TRACK))
    track.header = dataclasses.replace(track.header, video_id=video_id)
    path = fuzz_dir / "id.track"
    try:
        write_track(track, str(path))
    except ValueError:
        assert video_id.split() != [video_id]
        return
    assert load_track(str(path)).header.video_id == video_id


@settings(max_examples=200)
@example(partition="-")
@example(partition="")
@example(partition="train")
@example(partition="a b")
@given(partition=st.text())
def test_written_recon_partitions_read_back_or_are_refused(partition, fuzz_dir):
    # '-' marks a point without a partition, so a partition that is the text
    # '-' must be refused rather than written to read back as none.
    recon = read_reconstruction(str(RECON))
    recon.points[1] = dataclasses.replace(recon.points[1], partition=partition)
    path = fuzz_dir / "partition.recon"
    try:
        write_reconstruction(recon, str(path))
    except ValueError:
        assert partition == "-" or partition.split() != [partition]
        return
    assert read_reconstruction(str(path)).points[1].partition == partition


def _complete(track, i) -> bool:
    """Whether frame row i of a track carries every value."""
    return not (any(np.isnan(column[i]).any()
                    for column in (track.ball, track.keypoints, track.rackets, track.ankles))
                or np.isnan(track.joints[i, :, 0]).any())


def test_absent_keypoint_keeps_its_position(tmp_path):
    lines = TRACK.read_text().splitlines()
    lines[5] = re.sub(r"kp3=\S+", "kp3=-", lines[5])
    path = tmp_path / "kp.track"
    path.write_text("\n".join(lines) + "\n")
    track = load_track(str(path))
    kps = track.keypoints[4]
    assert np.isnan(kps[2]).all() and not np.isnan(kps[3:]).any()
    assert not _complete(track, 4) and _complete(track, 0)
    again = tmp_path / "again.track"
    write_track(track, str(again))
    assert again.read_bytes() == path.read_bytes()
    _, rms = calibrate_from_track(track, TableGeometry())
    assert rms < 5.0


# ---------------------------------------------------------------------------
# the two decode paths and the CLI commands that read each format
# ---------------------------------------------------------------------------


def _outcome(read, path):
    """What a reader makes of a file: (its error's class, line and message,
    None), or (None, a comparable result)."""
    try:
        result = read(str(path))
    except ParseError as exc:
        return (type(exc), exc.line_number, str(exc)), None
    if isinstance(result, pipeline.Reconstruction):  # its camera holds arrays
        ext = result.camera.extrinsics
        return None, (result.fps, result.seed, result.camera_rms, result.table,
                      [comparable(point) for point in result.points],
                      result.camera.intrinsics, ext.r.tolist(), ext.t.tolist())
    return None, comparable(result)


def _both_outcomes(read, path):
    """The reader's outcome, then the record-by-record reader's."""
    got = _outcome(read, path)
    with mock.patch.object(pipeline, "decode_columns", lambda spec, lines: None):
        return got, _outcome(read, path)


def _track_commands(path, directory):
    return [["calibrate", "--track", str(path)],
            ["reconstruct", "--track", str(path), "--out", str(directory / "out.recon")]]


def _recon_commands(path, directory):
    return [["stats", "--recon", str(path)]]


# Every CLI command that reads each format; no command reads a conformal file.
COMMANDS = {TRACK: _track_commands, RECON: _recon_commands, CONFORMAL: lambda path, d: []}


def _assert_cli_outcome(source, path, directory, error):
    """Each command exits 2 with one ``error:`` line, the reader's message,
    or, for a file that loads (``error`` None), processes it to exit 0 or 3."""
    for argv in COMMANDS[source](path, directory):
        if error is None:
            assert _run(argv)[0] in (EXIT_OK, EXIT_FAILURE)
        else:
            assert _run(argv) == (EXIT_USAGE, [f"error: {error[2]}"])


@pytest.mark.parametrize("commands", [_track_commands, _recon_commands])
def test_directory_or_binary_input_exits_2(commands, tmp_path):
    binary = tmp_path / "binary"
    binary.write_bytes(b"v1 fps=60.0 w=960 h=540\n\xff\xfe\x00\x80\n")
    with pytest.raises(ParseError) as err:
        load_track(str(binary))
    assert err.value.line_number == 2
    for path in (tmp_path, binary):
        for argv in commands(path, tmp_path):
            _assert_usage_error(argv)


@pytest.mark.parametrize(
    "old, new, error, line",
    [("alpha=0.1", "alpha=abc", SchemaError, 1), ("\tinf\t", "\tnan\t", ParseError, 3)],
)
def test_read_calibration_rejects_invalid_values(old, new, error, line, tmp_path):
    path = tmp_path / "bad.conformal"
    path.write_text(CONFORMAL.read_text().replace(old, new, 1))
    with pytest.raises(ParseError) as err:
        read_calibration(str(path))
    assert type(err.value) is error and err.value.line_number == line


# ---------------------------------------------------------------------------
# mutation fuzzing: both decode paths agree, and a damaged file loads or exits 2
# ---------------------------------------------------------------------------

EDITS = ("truncate", "drop", "duplicate", "garble", "nan", "drop_header_field")
JUNK = st.text(alphabet="0123456789.,;-=+eExnaif \té", max_size=8)
# A number in a value: preceded by '=', a separator, or whitespace.
NUMBER = re.compile(r"(?<=[=,;\s])-?\d+(\.\d+)?(e[-+]?\d+)?")


def _mutate(lines, edit, i, j, junk):
    lines = list(lines)
    if edit == "move_hit":  # move a hit record above its point record
        hits = [n for n, s in enumerate(lines) if s.startswith("hit ")]
        n = hits[i % len(hits)]
        lines.insert(max(m for m in range(n) if lines[m].startswith("point ")), lines.pop(n))
        return lines
    if edit == "drop_header_field":
        tokens = lines[0].split()
        del tokens[1 + j % (len(tokens) - 1)]  # keep the version tag
        lines[0] = " ".join(tokens)
        return lines
    body = [n for n, s in enumerate(lines) if n and (edit != "nan" or NUMBER.search(s))]
    n = body[i % len(body)]
    line = lines[n]
    if edit == "truncate":
        lines[n] = line[: j % len(line)]
    elif edit == "nan":
        numbers = list(NUMBER.finditer(line))
        m = numbers[j % len(numbers)]
        lines[n] = line[: m.start()] + "nan" + line[m.end():]
    else:
        sep = "\t" if "\t" in line else " "
        tokens = line.split(sep)
        k = j % len(tokens)
        if edit == "drop":
            del tokens[k]
        elif edit == "duplicate":
            tokens.insert(k, tokens[k])
        else:  # garble the value, keeping its key
            key, eq, _ = tokens[k].rpartition("=")
            tokens[k] = key + eq + junk
        lines[n] = sep.join(tokens)
    return lines


FUZZ = {"track": (TRACK, EDITS), "recon": (RECON, EDITS + ("move_hit",)),
        "conformal": (CONFORMAL, EDITS)}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _mutated(fmt, edit, i, j, junk, directory):
    """``fmt``'s source file with one ``edit``, written to ``directory``."""
    source = FUZZ[fmt][0]
    path = directory / source.name
    path.write_text("\n".join(_mutate(source.read_text().splitlines(), edit, i, j, junk)) + "\n")
    return path


@pytest.mark.parametrize(
    "fmt, edit", [(fmt, edit) for fmt, (_, edits) in FUZZ.items() for edit in edits]
)
@settings(max_examples=30)
@given(i=st.integers(0, 10**6), j=st.integers(0, 10**6), junk=JUNK)
def test_mutated_file_loads_or_exits_2(fmt, edit, i, j, junk, fuzz_dir):
    source = FUZZ[fmt][0]
    path = _mutated(fmt, edit, i, j, junk, fuzz_dir)
    error, _ = _outcome(READERS[source], path)
    if error is None:
        # Only these edits can leave a valid file; dropped or duplicated fields,
        # nan values and misplaced records must be rejected.
        assert edit in ("truncate", "garble", "drop_header_field")
    # On an error every command exits 2 with the reader's message; a file that
    # loads may still fail processing, but never with a traceback.
    _assert_cli_outcome(source, path, fuzz_dir, error)


@pytest.mark.parametrize("fmt, edit", [(fmt, edit) for fmt in ("track", "recon")
                                       for edit in FUZZ[fmt][1]])
@settings(max_examples=30)
@given(i=st.integers(0, 10**6), j=st.integers(0, 10**6), junk=JUNK)
def test_column_reader_matches_the_record_reader(fmt, edit, i, j, junk, fuzz_dir):
    # Either both decode paths return equal results, or both raise the same
    # error class, line and message.
    got, want = _both_outcomes(READERS[FUZZ[fmt][0]], _mutated(fmt, edit, i, j, junk, fuzz_dir))
    assert got == want


# ---------------------------------------------------------------------------
# the column pass
# ---------------------------------------------------------------------------


def _columns(path, spec):
    return decode_columns(spec, [line for _, line in body_lines(read_lines(str(path)))
                                 if not spec.tag or line.startswith(spec.tag + " ")])


def test_column_pass_reads_the_golden_files():
    assert _columns(TRACK, TRACK_FRAME) is not None
    assert _columns(RECON, RECON_FRAME) is not None
    for path, read in ((TRACK, load_track), (RECON, read_reconstruction)):
        got, want = _both_outcomes(read, path)
        assert got == want


def _set_fields(source, tmp_path, edits):
    """``source`` with ``field=value`` set in the given body lines (0 is the header)."""
    lines = source.read_text().splitlines()
    for n, field, value in edits:
        lines[n] = " ".join(f"{field}={value}" if token.startswith(f"{field}=") else token
                            for token in lines[n].split(" "))
        assert f"{field}={value}" in lines[n].split(" ")
    path = tmp_path / source.name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_column_pass_keeps_the_frame_order_check(tmp_path):
    path = _set_fields(TRACK, tmp_path, [(3, "frame", "1")])
    got, want = _both_outcomes(load_track, path)
    assert got == want == ((ParseError, 4, "line 4: frame indices must be increasing"), None)


def test_column_pass_reads_mixed_joint_counts(tmp_path):
    path = _set_fields(TRACK, tmp_path, [(1, "joints0", "1,2,3;4,5,6;7,8,9"),
                                         (2, "joints1", "1,2,3;4,5,6;7,8,9;1,2,3;4,5,6")])
    assert _columns(path, TRACK_FRAME) is not None
    got, want = _both_outcomes(load_track, path)
    assert got == want
    track = load_track(str(path))
    counts = (~np.isnan(track.joints[..., 0])).sum(axis=2)
    assert counts[:2].tolist() == [[3, 4], [4, 5]]
    _assert_round_trips(track, tmp_path)


def test_column_pass_reads_dashes_in_every_omittable_column(tmp_path):
    dashed = [name for name in TRACK_FRAME.fields if name not in ("frame", "base_h")]
    path = _set_fields(TRACK, tmp_path, [(2, name, "-") for name in dashed]
                       + [(4, name, "-") for name in dashed[::2]])
    assert _columns(path, TRACK_FRAME) is not None
    got, want = _both_outcomes(load_track, path)
    assert got == want
    track = load_track(str(path))
    assert np.isnan(track.joints[1]).all() and np.isnan(track.ball[1]).all()
    again = tmp_path / "again.track"
    write_track(track, str(again))
    assert again.read_bytes() == path.read_bytes()



# ---------------------------------------------------------------------------
# generated columns: write -> read -> write gives the same bytes and columns
# ---------------------------------------------------------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)
JOINT_COUNTS = st.sampled_from([0, 3, 4, 5, 6])  # 0: the player's joints are absent


def _frame_indices(draw, n):
    """n increasing frame indices with gaps."""
    return draw(st.integers(-5, 5)) + np.cumsum(
        draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), dtype=int)


def _padded_joints(draw, counts):
    """(n, 2, J, 3) finite joints, NaN past each (frame, player)'s count, J
    the largest count."""
    joints = draw(arrays(np.float64, (*counts.shape, int(counts.max(initial=0)), 3),
                         elements=FINITE))
    joints[np.arange(joints.shape[2]) >= counts[..., None]] = np.nan
    return joints


def _dashed(draw, values, axes=1):
    """``values`` with a drawn set of the entries along its first ``axes``
    axes absent (NaN)."""
    absent = draw(arrays(bool, values.shape[:axes]))
    values[absent] = np.nan
    return values


@st.composite
def generated_tracks(draw):
    n = draw(st.integers(0, 6))
    counts = draw(arrays(np.int64, (n, 2), elements=JOINT_COUNTS))
    return TrackFile(
        header=TrackHeader(fps=60.0, width=960, height=540),
        frames=_frame_indices(draw, n),
        ball=_dashed(draw, draw(arrays(np.float64, (n, 2), elements=FINITE))),
        keypoints=_dashed(draw, draw(arrays(np.float64, (n, 6, 2), elements=FINITE)), 2),
        base_h=draw(arrays(np.float64, (n,), elements=FINITE)),
        rackets=_dashed(draw, draw(arrays(np.float64, (n, 2, 2), elements=FINITE)), 2),
        ankles=_dashed(draw, draw(arrays(np.float64, (n, 2, 2, 2), elements=FINITE)), 2),
        joints=_padded_joints(draw, counts),
    )


def _assert_round_trips(track, directory):
    """write -> load -> write: the same bytes, and the same columns."""
    first, second = directory / "first.track", directory / "second.track"
    write_track(track, str(first))
    loaded = load_track(str(first))
    write_track(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert comparable(loaded) == comparable(track)


@given(track=generated_tracks())
def test_generated_tracks_round_trip(track, fuzz_dir):
    _assert_round_trips(track, fuzz_dir)


@st.composite
def generated_points(draw):
    m = draw(st.integers(0, 6))
    counts = draw(arrays(np.int64, (m, 2), elements=st.integers(3, 6)))
    return ReconstructedPoint(
        point_id=draw(st.integers(0, 10**6)),
        frame_index=_frame_indices(draw, m),
        ball=draw(arrays(np.float64, (m, 3), elements=FINITE)),
        roots=draw(arrays(np.float64, (m, 2, 3), elements=FINITE)),
        joints=_padded_joints(draw, counts),
        hits=[], bounces=[], pieces=[],
    )


@given(point=generated_points())
def test_generated_points_round_trip(point, fuzz_dir):
    recon = read_reconstruction(str(RECON))
    recon.points = [point]
    first, second = fuzz_dir / "first.recon", fuzz_dir / "second.recon"
    write_reconstruction(recon, str(first))
    loaded = read_reconstruction(str(first))
    write_reconstruction(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert [comparable(p) for p in loaded.points] == [comparable(point)]


# ---------------------------------------------------------------------------
# the reader error table: what the readers and the CLI make of fixed edits
# ---------------------------------------------------------------------------


def _on(n, pattern, repl):
    """Substitute ``pattern`` once on line ``n`` (1-based)."""

    def edit(lines):
        lines[n - 1], count = re.subn(pattern, repl, lines[n - 1], count=1)
        assert count == 1, (n, pattern)

    return edit


def _cut(n, length):
    def edit(lines):
        lines[n - 1] = lines[n - 1][:length]

    return edit


def _move(n, to):
    """Move line ``n`` so that it becomes line ``to``."""
    return lambda lines: lines.insert(to - 1, lines.pop(n - 1))


def _copy(n):
    """Repeat line ``n`` right after itself."""
    return lambda lines: lines.insert(n, lines[n - 1])


def _edited(source, edits, directory):
    """``source`` with ``edits`` applied to its lines in order, written to ``directory``."""
    lines = source.read_text().splitlines()
    for edit in edits:
        edit(lines)
    path = directory / source.name
    path.write_text("\n".join(lines) + "\n")
    return path


ORDER = "frame indices must be increasing"
COORDS = "comma-separated finite numbers"
NOT_FLOAT = "could not convert string to float: "
# The one table of fixed malformed-file cases. Case -> (source, edits applied
# in order, outcome): None when the file loads, else the error's class, line
# number and message, the same on both decode paths. Every CLI command that
# reads a track or recon file exits 2 with that message, or 0 or 3 on a file
# that loads. Recon lines: 6 and 21 open the two point blocks, 7-9 and 22 are
# hits, 13-17 and 24 pieces, 18-19 and 25-26 frames, 20 and 27 endpoints.
POSITIVE = "must be positive and finite"
READER_ERRORS = {
    "track-version": (TRACK, [_on(1, r"^v1 ", "v9 ")], (
        VersionError, 1, "line 1: expected a 'v1' header, found 'v9'")),
    "track-no-fps": (TRACK, [_on(1, r" fps=\S+", "")], (
        SchemaError, 1, "line 1: missing field 'fps'")),
    "track-fps-abc": (TRACK, [_on(1, r"fps=\S+", "fps=abc")], (
        SchemaError, 1, f"line 1: bad fps 'abc': {NOT_FLOAT}'abc'")),
    "track-fps-nan": (TRACK, [_on(1, r"fps=\S+", "fps=nan")], (
        SchemaError, 1, f"line 1: bad fps 'nan': {POSITIVE}")),
    "track-fps-inf": (TRACK, [_on(1, r"fps=\S+", "fps=inf")], (
        SchemaError, 1, f"line 1: bad fps 'inf': {POSITIVE}")),
    "track-fps-zero": (TRACK, [_on(1, r"fps=\S+", "fps=0.0")], (
        SchemaError, 1, f"line 1: bad fps '0.0': {POSITIVE}")),
    "track-fps-negative": (TRACK, [_on(1, r"fps=\S+", "fps=-60.0")], (
        SchemaError, 1, f"line 1: bad fps '-60.0': {POSITIVE}")),
    "track-w-abc": (TRACK, [_on(1, r" w=\S+", " w=abc")], (
        SchemaError, 1, "line 1: bad w 'abc': invalid literal for int() with base 10: 'abc'")),
    "track-w-zero": (TRACK, [_on(1, r" w=\S+", " w=0")], (
        SchemaError, 1, "line 1: bad w '0': must be positive")),
    "track-h-negative": (TRACK, [_on(1, r" h=\S+", " h=-540")], (
        SchemaError, 1, "line 1: bad h '-540': must be positive")),
    "track-truncate": (TRACK, [_cut(4, 60)], (
        ParseError, 4, f"line 4: bad kp1 '276.5493': must be 2 {COORDS}")),
    "track-garble": (TRACK, [_on(3, r"ball=\S+", "ball=oops")], (
        ParseError, 3, f"line 3: bad ball 'oops': {NOT_FLOAT}'oops'")),
    "track-nan": (TRACK, [_on(5, r"kp2=[^,]+", "kp2=nan")], (
        ParseError, 5, f"line 5: bad kp2 'nan,267.04057643362825': must be 2 {COORDS}")),
    "track-three-coordinates": (TRACK, [_on(2, r"ball=\S+", "ball=1,2,3")], (
        ParseError, 2, f"line 2: bad ball '1,2,3': must be 2 {COORDS}")),
    "track-bad-number-and-arity": (TRACK, [_on(2, r"ball=\S+", "ball=1,x,3")], (
        ParseError, 2, f"line 2: bad ball '1,x,3': {NOT_FLOAT}'x'")),
    "track-fractional-frame": (TRACK, [_on(6, r"frame=4", "frame=4.5")], (
        ParseError, 6, "line 6: bad frame '4.5': invalid literal for int() with base 10: '4.5'")),
    "track-drop-field": (TRACK, [_on(2, r" kp6=\S+", "")], (
        ParseError, 2, "line 2: missing field 'kp6'")),
    "track-duplicate-field": (TRACK, [_on(4, r"( rk0=\S+)", r"\1\1")], (
        ParseError, 4, "line 4: duplicate field 'rk0=-'")),
    "track-fields-out-of-order": (TRACK, [_on(3, r"(ball=\S+) (kp1=\S+)", r"\2 \1")], None),
    "track-one-ankle": (TRACK, [_on(5, r"ankles0=([^;\s]+);\S+", r"ankles0=\1")], (
        ParseError, 5,
        "line 5: bad ankles0 '215.0920521366701,184.42053962325477': has 1 entries")),
    "track-list-arity-then-bad-number": (TRACK, [_on(6, r"ankles1=\S+", "ankles1=1,2,3;x,4")], (
        ParseError, 6, f"line 6: bad ankles1 '1,2,3;x,4': must be 2 {COORDS}")),
    "track-frame-order": (TRACK, [_on(4, r"frame=2", "frame=1")], (
        ParseError, 4, f"line 4: {ORDER}")),
    "track-duplicate-frame": (TRACK, [_copy(3)], (ParseError, 4, f"line 4: {ORDER}")),
    "track-frame-order-then-bad-value": (
        TRACK, [_on(3, r"frame=1", "frame=0"), _on(5, r"ball=\S+", "ball=oops")],
        (ParseError, 3, f"line 3: {ORDER}")),
    "track-bad-value-then-frame-order": (
        TRACK, [_on(3, r"ball=\S+", "ball=oops"), _on(5, r"frame=3", "frame=1")],
        (ParseError, 3, f"line 3: bad ball 'oops': {NOT_FLOAT}'oops'")),
    # Each column holds the right number of values in total, split wrongly
    # between two records, so only the record-by-record pass can place them.
    "track-misplaced-pixels": (
        TRACK, [_on(2, r"ball=\S+", "ball=1,2,3"), _on(4, r"ball=\S+", "ball=4")],
        (ParseError, 2, f"line 2: bad ball '1,2,3': must be 2 {COORDS}")),
    "track-misplaced-ankles": (
        TRACK, [_on(2, r"ankles0=\S+", "ankles0=1,2"),
                _on(3, r"ankles0=\S+", "ankles0=1,2;3,4;5,6")],
        (ParseError, 2, "line 2: bad ankles0 '1,2': has 1 entries")),
    "track-misplaced-joint-coordinates": (
        TRACK, [_on(2, r"joints1=\S+", "joints1=1,2,3,4;5,6;7,8,9"),
                _on(3, r"joints1=\S+", "joints1=1,2,3;4,5,6;7,8,9")],
        (ParseError, 2, f"line 2: bad joints1 '1,2,3,4;5,6;7,8,9': must be 3 {COORDS}")),
    "recon-missing-rms": (RECON, [_on(2, r" rms=\S+", "")], (
        ParseError, 2, "line 2: missing field 'rms'")),
    "recon-rot-xx": (RECON, [_on(3, r"^(rot \S+) \S+", r"\1 xx")], (
        ParseError, 3, f"line 3: bad rot1 'xx': {NOT_FLOAT}'xx'")),
    "recon-eight-rot": (RECON, [_on(3, r" \S+$", "")], (
        ParseError, 3, "line 3: expected 9 values, got 8")),
    "recon-missing-id": (RECON, [_on(6, r" id=\S+", "")], (
        ParseError, 6, "line 6: missing field 'id'")),
    "recon-truncate-frame": (RECON, [_cut(19, 100)], (
        ParseError, 19, f"line 19: bad root0 '-1.919936149249319': must be 3 {COORDS}")),
    "recon-garble-frame": (RECON, [_on(18, r"ball=\S+", "ball=oops")], (
        ParseError, 18, f"line 18: bad ball 'oops': {NOT_FLOAT}'oops'")),
    "recon-nan-frame": (RECON, [_on(25, r"root1=[^,]+", "root1=nan")], (
        ParseError, 25,
        f"line 25: bad root1 'nan,0.00012806945541399273,0.0': must be 3 {COORDS}")),
    "recon-drop-frame-field": (RECON, [_on(26, r" root1=\S+", "")], (
        ParseError, 26, "line 26: missing field 'root1'")),
    "recon-duplicate-piece-field": (RECON, [_on(13, r"( k=\S+)", r"\1\1")], (
        ParseError, 13, "line 13: duplicate field 'k=0.4334890545318703'")),
    "recon-fields-out-of-order": (
        RECON, [_on(19, r"(root0=\S+) (root1=\S+)", r"\2 \1")], None),
    "recon-negative-k": (RECON, [_on(14, r" k=\S+", " k=-1.0")], (
        ParseError, 14, "line 14: k must be positive")),
    "recon-hit-before-point": (RECON, [_move(7, 6)], (
        ParseError, 6, "line 6: hit record outside a point block")),
    "recon-unknown-tag": (RECON, [_on(7, r"^hit ", "hits ")], (
        ParseError, 7, "line 7: unknown record tag 'hits'")),
    "recon-no-table": (RECON, [_cut(5, 0)], (SchemaError, None, "missing table record")),
    "recon-bad-frame-then-unknown-tag": (
        RECON, [_on(18, r"ball=\S+", "ball=oops"), _on(20, r"^endpoint$", "endpoints")],
        (ParseError, 18, f"line 18: bad ball 'oops': {NOT_FLOAT}'oops'")),
    "recon-unknown-tag-then-bad-frame": (
        RECON, [_on(10, r"^bounce ", "bounces "), _on(19, r"ball=\S+", "ball=oops")],
        (ParseError, 10, "line 10: unknown record tag 'bounces'")),
    "recon-bad-frame-then-bad-hit": (
        RECON, [_on(19, r"ball=\S+", "ball=oops"), _on(22, r"pos=\S+", "pos=oops")],
        (ParseError, 19, f"line 19: bad ball 'oops': {NOT_FLOAT}'oops'")),
    "recon-bad-frame-then-no-endpoint": (
        RECON, [_on(25, r"ball=\S+", "ball=oops"), _cut(27, 0)],
        (ParseError, 25, f"line 25: bad ball 'oops': {NOT_FLOAT}'oops'")),
    "recon-bad-frame-outside-a-point": (
        RECON, [_on(26, r"ball=\S+", "ball=oops"), _move(26, 27)],
        (ParseError, 27, f"line 27: bad ball 'oops': {NOT_FLOAT}'oops'")),
    # Recon frame indices must increase inside a point, as track ones do.
    "recon-duplicate-frame": (RECON, [_copy(18)], (ParseError, 19, f"line 19: {ORDER}")),
    "recon-frame-order-then-bad-value": (
        RECON, [_on(19, r"idx=1", "idx=0"), _on(25, r"ball=\S+", "ball=oops")],
        (ParseError, 19, f"line 19: {ORDER}")),
    "recon-misplaced-coordinates": (
        RECON, [_on(18, r"ball=\S+", "ball=1,2,3,4"), _on(25, r"ball=\S+", "ball=5,6")],
        (ParseError, 18, f"line 18: bad ball '1,2,3,4': must be 3 {COORDS}")),
    "recon-misplaced-joints": (
        RECON, [_on(19, r"joints0=\S+", "joints0=1,2,3;4,5,6"),
                _on(26, r"joints0=\S+", "joints0=1,2,3;4,5,6;7,8,9;1,2,3")],
        (ParseError, 19, "line 19: bad joints0 '1,2,3;4,5,6': has 2 entries")),
    "recon-no-endpoint": (RECON, [_cut(27, 0)], (
        ParseError, 27, "line 27: the last point block has no endpoint record")),
    "conformal-foreign-header": (CONFORMAL, [_on(1, r"^.*$", "other-header")], (
        VersionError, 1, "line 1: expected a 'conformal-v1' header, found 'other-header'")),
    "conformal-version": (CONFORMAL, [_on(1, r"^conformal-v1 ", "conformal-v12 ")], (
        VersionError, 1, "line 1: expected a 'conformal-v1' header, found 'conformal-v12'")),
    "conformal-no-alpha": (CONFORMAL, [_on(1, r" alpha=\S+", "")], (
        SchemaError, 1, "line 1: missing field 'alpha'")),
    "conformal-alpha-above-one": (CONFORMAL, [_on(1, r"alpha=\S+", "alpha=2.0")], (
        SchemaError, 1, "line 1: bad alpha '2.0': must be in (0, 1)")),
    "conformal-truncate": (CONFORMAL, [_cut(3, 5)], (
        ParseError, 3, "line 3: expected 4 values, got 2")),
    "conformal-nan": (CONFORMAL, [_on(2, r"\t1\.96\d*\t", "\tnan\t")], (
        ParseError, 2, "line 2: bad q 'nan': must be non-negative (inf allowed)")),
    "conformal-bad-q": (CONFORMAL, [_on(2, r"\t1\.96\d*\t", "\toops\t")], (
        ParseError, 2, f"line 2: bad q 'oops': {NOT_FLOAT}'oops'")),
    "conformal-bad-axis": (CONFORMAL, [_on(4, r"^y\t", "w\t")], (
        ParseError, 4, "line 4: bad axis 'w': must be x, y or z")),
    "conformal-drop-value": (CONFORMAL, [_on(7, r"\t8$", "")], (
        ParseError, 7, "line 7: expected 4 values, got 3")),
    "conformal-duplicate-row": (CONFORMAL, [_copy(2)], (
        ParseError, 3, "line 3: duplicate row for ('x', 0.1)")),
    "conformal-header": (CONFORMAL, [_on(1, r"alpha=\S+", "alpha=abc")], (
        SchemaError, 1, f"line 1: bad alpha 'abc': {NOT_FLOAT}'abc'")),
}


@pytest.mark.parametrize("case", READER_ERRORS)
def test_reader_error_table(case, tmp_path):
    source, edits, error = READER_ERRORS[case]
    got, want = _both_outcomes(READERS[source], _edited(source, edits, tmp_path))
    assert got == want  # the column pass, then record by record
    assert got[0] == error


@pytest.mark.parametrize("case", [case for case, (source, _, _) in READER_ERRORS.items()
                                  if source is not CONFORMAL])
def test_malformed_file_exits_2(case, tmp_path):
    source, edits, error = READER_ERRORS[case]
    _assert_cli_outcome(source, _edited(source, edits, tmp_path), tmp_path, error)
