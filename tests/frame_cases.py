"""The corruption table of the file frame that checkpoints and datasets share.

Each test here takes a ``kind`` fixture, a ``FileKind``: a good file of one
format, its reader and a CLI command that reads a file of it first.
``test_checkpoint.py`` and ``test_dataset.py`` each define ``kind`` and
import these tests, so every row runs on both kinds of file.  The helpers
take a file's bytes apart and put them back together for hand-made files.
"""
import json
import struct
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thzgen._frame import FileFormat
from thzgen.cli import main

HEAD = struct.Struct("<4sII")  # magic, version, JSON length


class FileKind(NamedTuple):
    format: FileFormat
    raw: bytes  # a good file
    read: Callable  # path -> what the file holds
    argv: Callable  # path -> a CLI command that reads the file at path first


def parts(raw: bytes) -> tuple[dict, bytes]:
    """A file's metadata object and its payload bytes."""
    _, _, blob_len = HEAD.unpack_from(raw)
    return json.loads(raw[HEAD.size:HEAD.size + blob_len]), raw[HEAD.size + blob_len:]


def pack(raw: bytes, doc, payload: bytes | None = None, version: int | None = None) -> bytes:
    """``raw`` with its metadata set to ``doc`` (an object, or the JSON's own
    bytes), and its payload or version replaced where given."""
    magic, old_version, blob_len = HEAD.unpack_from(raw)
    blob = doc if isinstance(doc, bytes) else json.dumps(doc, sort_keys=True).encode()
    payload = raw[HEAD.size + blob_len:] if payload is None else payload
    version = old_version if version is None else version
    return HEAD.pack(magic, version, len(blob)) + blob + payload


def rewrite_section(raw: bytes, name: str, drop=(), **changes) -> bytes:
    """``raw`` with keys of one metadata section set, and those in ``drop`` removed."""
    doc, _ = parts(raw)
    section = {k: v for k, v in {**doc[name], **changes}.items() if k not in drop}
    return pack(raw, {**doc, name: section})


def payload_at(raw: bytes) -> int:
    return HEAD.size + HEAD.unpack_from(raw)[2]


# Each cut: the damaged bytes, and the size the reader says the layout needs
# (the trailing byte's row names where the layout ends).
CUTS = {
    "short_header": lambda raw: (raw[:6], HEAD.size),  # inside the head
    "truncated_metadata": lambda raw: (raw[:payload_at(raw) - 7], payload_at(raw)),
    "truncated_body": lambda raw: (raw[:payload_at(raw)], len(raw)),  # no payload at all
    "truncated_record": lambda raw: (raw[:-2], len(raw)),  # inside the last element
    "trailing_bytes": lambda raw: (raw + b"\0", len(raw)),
}


def cut_message(kind: FileKind, path, case: str) -> str:
    data, needed = CUTS[case](kind.raw)
    where = f"{kind.format.kind} {path}"
    if case == "trailing_bytes":
        return f"{where} has {len(data)} bytes, but its layout ends at {needed}: 1 trailing bytes"
    return (f"{where} is truncated: its layout needs at least {needed} bytes, "
            f"the file has {len(data)}")


def test_rejects_bad_magic(tmp_path, kind):
    path = tmp_path / "junk"
    path.write_bytes(b"XXXX" + kind.raw[4:])
    with pytest.raises(ValueError) as info:
        kind.read(path)
    assert str(info.value) == f"{path} is not a {kind.format.kind} file: bad magic b'XXXX'"


def test_rejects_unknown_version(tmp_path, kind):
    path = tmp_path / "future"
    path.write_bytes(pack(kind.raw, parts(kind.raw)[0], version=99))
    with pytest.raises(ValueError) as info:
        kind.read(path)
    assert str(info.value) == f"{kind.format.kind} {path} has unsupported version 99"


@pytest.mark.parametrize("case", CUTS)
def test_rejects_wrong_length(tmp_path, kind, case):
    path = tmp_path / case
    path.write_bytes(CUTS[case](kind.raw)[0])
    with pytest.raises(ValueError) as info:
        kind.read(path)
    assert str(info.value) == cut_message(kind, path, case)


@pytest.mark.parametrize("case", CUTS)
def test_cli_reports_wrong_length(tmp_path, kind, case, capsys):
    path = tmp_path / case
    path.write_bytes(CUTS[case](kind.raw)[0])
    assert main(kind.argv(path)) == 1
    assert capsys.readouterr().err == f"error: {cut_message(kind, path, case)}\n"


@settings(max_examples=100)
@given(data=st.data())
def test_truncation_or_extension_is_a_value_error(tmp_path_factory, kind, data):
    raw = kind.raw
    if data.draw(st.booleans(), label="cut"):
        damaged = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        damaged = raw + data.draw(st.binary(min_size=1, max_size=64), label="tail")
    path = tmp_path_factory.mktemp("damaged") / "file"
    path.write_bytes(damaged)
    with pytest.raises(ValueError) as info:
        kind.read(path)
    assert str(path) in str(info.value)
