"""Golden bytes: CLI outputs whose sha256 must not drift.

The pinned digests were computed from the forecast path that evaluated each
exchange and member with scalar ``Trajectory.position`` calls; the batched
forecast must reproduce those bytes exactly. A change that alters them on
purpose names the change and why, and re-pins here.
"""

import hashlib

import pytest

from ttrally.cli import EXIT_OK, main

GOLDEN = {
    "conformal": (
        ["conformal", "--seed", "5", "--n-cal", "60", "--n-test", "40"],
        "2bb725dbb17ebaa4f879856c5f62366b5c5a29f24290f77a6934d5f9cb2b76a4",  # --out file
        "81b24a2ac5f26847899ff390f9a73476535f693c73752e6a00a565c896cd7cb6",  # stdout
    ),
    "simulate": (
        ["simulate", "--seed", "3", "--episodes", "8"],
        "fd9c216dab4e915365dc3b27d0f03aae5bf2335c23e57ccdae6ff82af56596ac",
        "6b55254a7ff0710330cecb18c832e88b264a3a11e09964b2f2d0a28ef694c5b6",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_matches_golden_hashes(command, tmp_path, capsys):
    argv, file_digest, stdout_digest = GOLDEN[command]
    out = tmp_path / f"{command}.out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert _sha256(capsys.readouterr().out.encode()) == stdout_digest
    assert _sha256(out.read_bytes()) == file_digest
