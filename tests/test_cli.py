import re
from pathlib import Path

import numpy as np
import pytest

from ttrally.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from ttrally.pipeline import load_track, write_track
from ttrally.synth import generate_scene


@pytest.fixture(scope="module")
def track_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "scene.track"
    rc = main(["synth", "--seed", "21", "--out", str(path), "--hits", "4"])
    assert rc == EXIT_OK
    return path


def test_synth_is_byte_reproducible(track_path, tmp_path):
    again = tmp_path / "again.track"
    assert main(["synth", "--seed", "21", "--out", str(again), "--hits", "4"]) == EXIT_OK
    assert track_path.read_bytes() == again.read_bytes()
    other = tmp_path / "other.track"
    assert main(["synth", "--seed", "22", "--out", str(other), "--hits", "4"]) == EXIT_OK
    assert track_path.read_bytes() != other.read_bytes()


def test_calibrate_emits_camera_with_seed(track_path, tmp_path, capsys):
    out = tmp_path / "camera.txt"
    assert main(["calibrate", "--track", str(track_path), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "camera-v1 seed=21"
    assert lines[1].startswith("fx=")
    rms = float(lines[-1].split("=")[1])
    assert rms < 1e-3
    # Without --out the report goes to stdout.
    assert main(["calibrate", "--track", str(track_path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "camera-v1 seed=21"


def test_reconstruct_then_stats(track_path, tmp_path, capsys):
    recon = tmp_path / "scene.recon"
    assert main(["reconstruct", "--track", str(track_path), "--out", str(recon)]) == EXIT_OK
    stats = tmp_path / "stats.txt"
    assert main(["stats", "--recon", str(recon), "--out", str(stats)]) == EXIT_OK
    lines = stats.read_text().splitlines()
    assert lines[0] == "stats-v1 seed=21"
    values = dict(line.split("=") for line in lines[1:])
    assert 2.0 < float(values["mean_speed"]) < 30.0
    assert float(values["speed_p10"]) <= float(values["speed_p90"])
    assert float(values["mean_inter_hit_time"]) > 0.0


def test_seedless_track_reports_omit_seed(tmp_path, capsys):
    track, _, _ = generate_scene(np.random.default_rng(21), n_hits=4)
    track_path, recon = tmp_path / "seedless.track", tmp_path / "seedless.recon"
    write_track(track, str(track_path))
    assert main(["reconstruct", "--track", str(track_path), "--out", str(recon)]) == EXIT_OK
    assert capsys.readouterr().out == f"wrote {recon}\n"
    assert main(["stats", "--recon", str(recon)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "stats-v1"


def test_reconstruct_is_byte_reproducible(track_path, tmp_path):
    a, b = tmp_path / "a.recon", tmp_path / "b.recon"
    assert main(["reconstruct", "--track", str(track_path), "--out", str(a)]) == EXIT_OK
    assert main(["reconstruct", "--track", str(track_path), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_conformal_small_run(tmp_path, capsys):
    out = tmp_path / "calib.conformal"
    rc = main([
        "conformal", "--seed", "5", "--alpha", "0.2",
        "--n-cal", "60", "--n-test", "40", "--out", str(out),
    ])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0].startswith("conformal-study seed=5")
    assert any(line.startswith("horizon=") for line in stdout)
    assert out.read_text().splitlines()[0].startswith("conformal-v1")
    assert "seed=5" in out.read_text().splitlines()[0]


def test_simulate_tiny_run(tmp_path, capsys):
    out = tmp_path / "results.tsv"
    rc = main(["simulate", "--seed", "3", "--episodes", "8", "--out", str(out)])
    assert rc == EXIT_OK
    stdout = capsys.readouterr().out
    for strategy in ("baseline", "anticipatory", "oracle"):
        assert strategy in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "results-v1 seed=3"
    assert len(lines) > 3  # header rows plus sweep rows
    # Each stdout row names its rest pose as the results-v1 row writes it.
    assert ([line.split()[3] for line in stdout.splitlines()]
            == ["central=" + line.split("\t")[3] for line in lines[2:]])


def test_exit_code_usage_on_bad_input(tmp_path, capsys):
    missing = tmp_path / "nope.track"
    assert main(["calibrate", "--track", str(missing)]) == EXIT_USAGE
    bad = tmp_path / "bad.track"
    bad.write_text("v9 fps=60.0\n")
    assert main(["calibrate", "--track", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_exit_code_failure_on_unprocessable_track(tmp_path, capsys):
    # A structurally valid track with no detectable hits fails processing.
    path = tmp_path / "empty.track"
    assert main(["synth", "--seed", "7", "--out", str(path), "--hits", "3"]) == EXIT_OK
    text = path.read_text().splitlines()
    # Rewrite racket centroids so no racket ever comes near the ball.
    doctored = [text[0]] + [
        re.sub(r"rk0=\S+ rk1=\S+", "rk0=9.0,9.0 rk1=29.0,29.0", line)
        for line in text[1:]
    ]
    path.write_text("\n".join(doctored) + "\n")
    rc = main(["reconstruct", "--track", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


# Exit codes of calibrate and reconstruct for a field set to a huge but
# finite value on every frame.
HUGE_EXITS = {
    "base_h": (EXIT_FAILURE, EXIT_FAILURE),
    "kp1": (EXIT_FAILURE, EXIT_FAILURE),
    "ball": (EXIT_OK, EXIT_FAILURE),
    "rk1": (EXIT_OK, EXIT_OK),
    "ankles0": (EXIT_OK, EXIT_FAILURE),
    "joints1": (EXIT_OK, EXIT_FAILURE),
}


@pytest.mark.filterwarnings("error")  # an overflow warning would print beside the error
@pytest.mark.parametrize("command", ["calibrate", "reconstruct"])
@pytest.mark.parametrize("field, value", [
    ("base_h", "1e308"), ("kp1", "1e308,5"), ("ball", "1e308,5"), ("rk1", "1e308,5"),
    ("ankles0", "1e308,5;1e308,5"), ("joints1", ";".join(["1e308,5,5"] * 4)),
])
def test_huge_keypoints_fail_with_one_error_line(command, field, value, track_path,
                                                 tmp_path, capsys):
    # Finite in the file, but sums and projections of them overflow to inf.
    path = tmp_path / "huge.track"
    path.write_text(re.sub(rf"{field}=\S+", f"{field}={value}", track_path.read_text()))
    argv = [command, "--track", str(path)]
    if command == "reconstruct":
        argv += ["--out", str(tmp_path / "o")]
    code = HUGE_EXITS[field][command == "reconstruct"]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    if code == EXIT_OK:
        assert err == []
    else:
        assert len(err) == 1 and err[0].startswith("error:"), err


def test_stats_on_points_without_frames_fails_cleanly(tmp_path, capsys):
    source = Path(__file__).parent / "data" / "two_points.recon"
    recon = tmp_path / "frameless.recon"
    recon.write_text("".join(line for line in source.read_text().splitlines(keepends=True)
                             if not line.startswith("frame ")))
    assert main(["stats", "--recon", str(recon)]) == EXIT_FAILURE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["conformal", "--alpha", "1.5"],
    ["conformal", "--alpha", "nan"],
    ["conformal", "--alpha", "0"],
    ["conformal", "--n-cal", "0"],
    ["conformal", "--n-test", "-1"],
    ["simulate", "--alpha", "1.5"],
    ["simulate", "--episodes", "0"],
    ["synth", "--hits", "1"],
    ["synth", "--fps", "0"],
    ["synth", "--fps", "nan"],
    ["synth", "--fps", "inf"],
    ["synth", "--fps", "1e300"],
    ["synth", "--fps", "1000.5"],
    ["synth", "--noise-px", "nan"],
    ["synth", "--noise-px", "-0.5"],
    ["synth", "--seed", "-1"],
    ["conformal", "--seed", "-4"],
    ["simulate", "--lam", "nan", "--episodes", "1"],
    ["simulate", "--lam", "3", "--episodes", "1"],
    ["simulate", "--lam", "-0.1", "--episodes", "1"],
    ["simulate", "--lead-time", "-1", "--episodes", "1"],
    ["simulate", "--lead-time", "nan", "--episodes", "1"],
    ["simulate", "--lead-time", "0.59", "--episodes", "1"],
    ["reconstruct", "--mse-threshold", "nan"],
    ["reconstruct", "--mse-threshold", "-1"],
    ["reconstruct", "--mse-threshold", "inf"],
], ids=" ".join)
def test_bad_argument_exits_with_usage(argv, tmp_path, capsys):
    out = tmp_path / "out"
    seed = [] if "--seed" in argv else ["--seed", "1"]
    with pytest.raises(SystemExit) as err:
        main(argv + seed + ["--out", str(out)])
    assert err.value.code == EXIT_USAGE
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: ttrally")
    assert f"error: argument {argv[1]}: " in stderr
    assert "Traceback" not in stderr
    assert not out.exists()


def test_synth_runs_at_the_top_frame_rate(tmp_path):
    out = tmp_path / "top.track"
    assert main(["synth", "--seed", "1", "--out", str(out), "--fps", "1000"]) == EXIT_OK
    track = load_track(str(out))
    assert track.header.fps == 1000.0 and len(track.frames) > 1000
