"""The deterministic tensor archive: round trip, stable bytes, atomic
replacement, and every truncation reported as an ArchiveError that names
the file."""

import builtins
import hashlib
import json

import numpy as np
import pytest

from recexplain import archive as archive_module
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


def test_format_is_pinned(tmp_path):
    # the sha256 of these bytes as the buffer-copying writer wrote them,
    # before save_tensors streamed each array's own buffer: a 2-D float, an
    # int, a bool, a 0-d and a 0-element tensor
    tensors = {
        "f64": np.array([[1.5, -2.0, np.pi], [0.0, 1e-300, -0.0]]),
        "i64": np.array([3, -7, 2**40], dtype=np.int64),
        "flags": np.array([True, False, True]),
        "scalar": np.array(2.25),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "pinned.ntar"
    save_tensors(path, tensors, {"epoch": 3, "config_hash": "abc"})
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "cb9ee4babacc8c472e81635f1bf0c5426544af492447e46d677a0aff8b38a409"


def test_non_contiguous_and_big_endian_tensors_round_trip(tmp_path):
    path = tmp_path / "t.ntar"
    grid = np.arange(12.0).reshape(3, 4)
    save_tensors(path, {"columns": grid[:, ::2], "big": grid.astype(">f8")})
    tensors, _ = load_tensors(path)
    assert tensors["columns"].tobytes() == np.ascontiguousarray(grid[:, ::2]).tobytes()
    assert tensors["big"].dtype == np.dtype("<f8") and tensors["big"].tobytes() == grid.tobytes()


def test_two_saves_identical_bytes(archive, tmp_path):
    again = tmp_path / "again.ntar"
    save_tensors(again, dict(TENSORS), dict(META))
    assert again.read_bytes() == archive.read_bytes()


def test_write_that_raises_mid_file_leaves_the_previous_archive(archive, tmp_path, monkeypatch):
    before = archive.read_bytes()

    class Failing:
        """A file that takes the magic line, then fails."""

        def __init__(self, path, mode):
            self.fh = builtins.open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.fh.tell() >= len(MAGIC):
                raise OSError("disk full")
            self.fh.write(data)

    monkeypatch.setattr(archive_module, "open", Failing, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_tensors(archive, {"other": np.ones(3)}, {"epoch": 4})
    assert archive.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [archive.name]


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


def test_header_length_past_the_end_of_the_file(tmp_path):
    # rejected before reading, so the length is never allocated
    path = tmp_path / "h.ntar"
    path.write_bytes(MAGIC + (2**62).to_bytes(8, "little") + b"{}")
    with pytest.raises(ArchiveError, match="h.ntar: truncated header"):
        load_tensors(path)


def test_bytes_after_the_last_buffer(archive, tmp_path):
    path = tmp_path / "long.ntar"
    path.write_bytes(archive.read_bytes() + b"\x00" * 5)
    with pytest.raises(ArchiveError, match="long.ntar: 5 bytes after the last tensor buffer"):
        load_tensors(path)


def rewritten(archive, path, edit):
    """A copy of `archive` at `path` whose header went through `edit`."""
    raw = archive.read_bytes()
    start = len(MAGIC) + 8
    end = start + int.from_bytes(raw[len(MAGIC):start], "little")
    header = json.loads(raw[start:end])
    edit(header["tensors"])
    blob = json.dumps(header).encode()
    path.write_bytes(MAGIC + len(blob).to_bytes(8, "little") + blob + raw[end:])
    return path


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda entries: entries[0].pop("name"), "tensor entry 0 has no 'name' string"),
        (lambda entries: entries[0].update(name=5), "tensor entry 0 has no 'name' string"),
        (lambda entries: entries.insert(0, ["f64"]), "tensor entry 0 has no 'name' string"),
        (lambda entries: entries[0].pop("dtype"), "tensor 'f64': 'dtype' None is not"),
        (lambda entries: entries[0].update(dtype=8), "tensor 'f64': 'dtype' 8 is not"),
        (lambda entries: entries[0].update(dtype="<x9"), "tensor 'f64': 'dtype' '<x9' is not"),
        (lambda entries: entries[0].update(dtype="f8,(2"), "tensor 'f64': 'dtype' 'f8,(2' is not"),
        (lambda entries: entries[0].update(dtype="|O"), "tensor 'f64': 'dtype' '|O' is not"),
        (lambda entries: entries[0].update(dtype="<U4"), "tensor 'f64': 'dtype' '<U4' is not"),
        (lambda entries: entries[0].update(dtype="|V8"), "tensor 'f64': 'dtype' '|V8' is not"),
        (lambda entries: entries[0].update(dtype="<M8[s]"), "tensor 'f64': 'dtype' '<M8[s]' is not"),
        (lambda entries: entries[0].pop("shape"), "tensor 'f64': 'shape' is not a list"),
        (lambda entries: entries[0].update(shape="23"), "tensor 'f64': 'shape' is not a list"),
        (lambda entries: entries[0].update(shape=[2, -3]), "tensor 'f64': 'shape' is not a list"),
        (lambda entries: entries[0].update(shape=[2, True]), "tensor 'f64': 'shape' is not a list"),
        (lambda entries: entries[0].update(shape=[3, 3]), "tensor 'f64': 'nbytes' 48 is not 9 elements of 8 bytes"),
        (lambda entries: entries[0].update(dtype="<f4"), "tensor 'f64': 'nbytes' 48 is not 6 elements of 4 bytes"),
        (lambda entries: entries[0].pop("nbytes"), "tensor 'f64': 'nbytes' is not a non-negative integer"),
        (lambda entries: entries[0].update(nbytes=48.0), "tensor 'f64': 'nbytes' is not a non-negative integer"),
        (lambda entries: entries[0].update(nbytes=-8), "tensor 'f64': 'nbytes' is not a non-negative integer"),
        # consistent but past the end of the file: rejected before reading
        (lambda entries: entries[0].update(shape=[10**12], nbytes=8 * 10**12), "truncated buffer for 'f64'"),
        # the second entry takes the first one's name; its own layout is whole
        (lambda entries: entries[1].update(name="f64"), "tensor 'f64' is named twice in the header"),
    ],
)
def test_bad_entry_names_the_tensor(archive, tmp_path, edit, message):
    path = rewritten(archive, tmp_path / "e.ntar", edit)
    with pytest.raises(ArchiveError) as err:
        load_tensors(path)
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


@pytest.mark.parametrize("prefixes", [("f", "s"), ("",), ("nothing.",)], ids=["some", "all", "none"])
def test_selective_load_reads_only_the_named_tensors(archive, monkeypatch, prefixes):
    read = []

    class Counting:
        """The file, counting the bytes each read hands back."""

        def __init__(self, path, mode):
            self.fh = builtins.open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def read(self, size):
            data = self.fh.read(size)
            read.append(len(data))
            return data

        def readinto(self, buffer):
            read.append(self.fh.readinto(buffer))
            return read[-1]

    monkeypatch.setattr(archive_module, "open", Counting, raising=False)
    tensors, meta = load_tensors(archive, prefixes)
    monkeypatch.undo()
    wanted = [name for name in TENSORS if name.startswith(prefixes)]
    assert list(tensors) == wanted and meta == META
    for name in wanted:
        assert tensors[name].tobytes() == TENSORS[name].tobytes(), name
    raw = archive.read_bytes()
    header_end = len(MAGIC) + 8 + int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 8], "little")
    assert sum(read) == header_end + sum(TENSORS[name].nbytes for name in wanted)


def test_skipped_tensors_are_checked(archive, tmp_path):
    # loading only "scalar" still checks the other entries and extents
    raw = archive.read_bytes()
    cut = tmp_path / "cut.ntar"
    cut.write_bytes(raw[:-1])  # "scalar" is the last tensor with bytes
    with pytest.raises(ArchiveError, match="cut.ntar: truncated buffer for 'scalar'"):
        load_tensors(cut, ("f64",))
    path = rewritten(archive, tmp_path / "e.ntar", lambda entries: entries[1].update(shape=[4]))
    with pytest.raises(ArchiveError, match="tensor 'i64': 'nbytes' 24 is not 4 elements of 8 bytes"):
        load_tensors(path, ("scalar",))
    path = rewritten(archive, tmp_path / "past.ntar", lambda entries: entries[0].update(shape=[10**12], nbytes=8 * 10**12))
    with pytest.raises(ArchiveError, match="past.ntar: truncated buffer for 'f64'"):
        load_tensors(path, ("scalar",))
    long = tmp_path / "long.ntar"
    long.write_bytes(raw + b"\x00" * 3)
    with pytest.raises(ArchiveError, match="long.ntar: 3 bytes after the last tensor buffer"):
        load_tensors(long, ("f64",))
