"""Golden CLI transcript: stdout and exit code of every subcommand and
output format, byte for byte, with the timing columns masked.

Each block of ``cli_transcript.txt`` is ``$ latpoly ARGS``, the expected
stdout, and ``[exit N]``.  The weights files the blocks name are written
into a temporary working directory first.
"""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest

from latpoly.cli import main

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

WEIGHTS_FILES = {
    "w.json": {"b": 0, "lambda": 1, "L": 2,
               "down_decorations": {"1": "kappa-1",
                                    "2": {"sym": "omega", "shift": -1}}},
    "w1.json": {"b": "1/2", "lambda": 1, "L": 1,
                "across_decorations": {"0": "beta"},
                "down_decorations": {"1": "kappa-1"}},
}


def mask_micros(text: str) -> str:
    """Replace the timings of crosscheck JSON and bench CSV by '#'."""
    text = re.sub(r'"micros": \{[^}]*\}',
                  lambda m: re.sub(r"\d+", "#", m.group()), text)
    return re.sub(r"^([^,\n]+,[^,\n]+,)\d+(?=,\d+$)", r"\1#", text, flags=re.M)


def _blocks():
    text = TRANSCRIPT.read_text()
    for chunk in text.split("$ latpoly ")[1:]:
        command, _, rest = chunk.partition("\n")
        out, code = re.fullmatch(r"(.*)\[exit (\d+)\]\n*", rest, re.S).groups()
        yield pytest.param(shlex.split(command), out, int(code), id=command)


@pytest.mark.parametrize("argv, expected_out, expected_code", list(_blocks()))
def test_cli_transcript(argv, expected_out, expected_code, tmp_path,
                        monkeypatch, capsys):
    for name, doc in WEIGHTS_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr().out
    assert (mask_micros(out), code) == (expected_out, expected_code)
