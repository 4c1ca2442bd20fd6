"""Golden bytes: every sha256 in ``tests/golden.py``'s ``DIGESTS`` must not
drift. That module says what each digest pins and how it was re-pinned."""

import pytest

import golden


@pytest.mark.parametrize("name", golden.DIGESTS)
def test_digest_matches_golden(name):
    assert golden.digest(name) == golden.DIGESTS[name]
