"""The deterministic tensor archive: round trip, stable bytes, and every
truncation reported as an ArchiveError that names the file."""

import json

import numpy as np
import pytest

from recexplain.archive import MAGIC, ArchiveError, load_tensors, save_tensors

TENSORS = {
    "f64": np.array([[1.5, -2.0, np.pi], [0.0, 1e-300, -0.0]]),
    "i64": np.array([3, -7, 2**40], dtype=np.int64),
    "flags": np.array([True, False, True]),
    "scalar": np.array(2.25),
    "empty": np.zeros((0, 4)),
}
META = {"epoch": 3, "config_hash": "abc", "best": {"val_bleu4": 0.5}}


@pytest.fixture
def archive(tmp_path):
    path = tmp_path / "t.ntar"
    save_tensors(path, TENSORS, META)
    return path


def test_round_trip(archive):
    tensors, meta = load_tensors(archive)
    assert meta == META
    assert list(tensors) == list(TENSORS)
    for name, want in TENSORS.items():
        got = tensors[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_two_saves_identical_bytes(archive, tmp_path):
    again = tmp_path / "again.ntar"
    save_tensors(again, dict(TENSORS), dict(META))
    assert again.read_bytes() == archive.read_bytes()


def test_bad_magic(archive, tmp_path):
    bad = tmp_path / "bad.ntar"
    bad.write_bytes(b"NTAR2\n" + archive.read_bytes()[len(MAGIC):])
    with pytest.raises(ArchiveError, match="not a tensor archive"):
        load_tensors(bad)


def test_every_truncation_is_an_archive_error(archive, tmp_path):
    raw = archive.read_bytes()
    cut_path = tmp_path / "cut.ntar"
    for cut in range(len(raw)):
        cut_path.write_bytes(raw[:cut])
        with pytest.raises(ArchiveError, match="cut.ntar"):
            load_tensors(cut_path)


@pytest.mark.parametrize(
    "header",
    [b"\xff\xfe{}", b"{not json", json.dumps([1, 2]).encode(), json.dumps({"tensors": []}).encode()],
)
def test_malformed_header(tmp_path, header):
    path = tmp_path / "h.ntar"
    path.write_bytes(MAGIC + len(header).to_bytes(8, "little") + header)
    with pytest.raises(ArchiveError, match="h.ntar: header"):
        load_tensors(path)
