"""Byte-for-byte CLI transcript checked against tests/data/golden_cli.txt.

Each command's stdout is recorded under a "$ lensknots ..." header and
followed by its exit code.  When an output change is deliberate, rewrite
the file with

    PYTHONPATH=src python tests/test_golden_cli.py

and record the change in CHANGES.md.
"""

import contextlib
import io
import json
import shlex
import tempfile
from pathlib import Path

from lensknots.cli import run
from lensknots.surgery import chain3, link_to_obj, unknot, whitehead

GOLDEN = Path(__file__).parent / "data" / "golden_cli.txt"

LINKS = {
    "whitehead.json": whitehead("-3", "-5/2"),
    "unknot.json": unknot("0"),
    "unfilled.json": whitehead("-3", None),
    "chain3.json": chain3("2", "3", "3"),
    "whitehead-0-1.json": whitehead("0", "1"),
    "whitehead-inf.json": whitehead("inf", "-5/2"),
    "whitehead-big.json": whitehead("100000000000000000006/7",
                                    "-99999999999999999994/11"),
}

WORDS = ("", "x y", "x^2 y", "x^3 y", "x y x y x y", "x^3 y^-1",
         "x^100 y^-7 x^2")


def commands():
    cmds = [["verify", "--families", "all", "--k-range", "-50..50"],
            ["verify", "--families", "all", "--k-range", "-30..30", "--jobs", "2"],
            ["verify", "--families", "II,IV", "--k-range", "-7..0", "--jobs", "2"],
            ["verify", "--families", "all",
             "--k-range", "999999999999990..1000000000000010"]]
    cmds += [["family", "--id", fam, "--k", str(k)]
             for fam in ("I", "II", "III", "IV", "V") for k in (1, -1, 7)]
    cmds += [
        ["family", "--id", "VI", "--r", "7", "--q", "2"],
        ["family", "--id", "VI", "--r", "0", "--q", "1"],
        ["family", "--id", "IV", "--k", "1", "--json"],
        ["family", "--id", "VI", "--r", "0", "--q", "1", "--json"],
        ["enum-graphs", "--t", "2", "--max-parallel", "4", "--require-max"],
        ["enum-graphs", "--t", "4", "--max-parallel", "3"],
    ]
    cmds += [["mcg", "--word", w] for w in WORDS]
    cmds += [["homology", "--link", name] for name in LINKS]
    # witnesses (families I and III at k = 7 among them), two failures,
    # one refused in O(log r) steps with db near r, and a bad q
    cmds += [["grid", "--r", r, "--q", q, "--da", da, "--db", db]
             for r, q, da, db in (("5", "1", "2", "3"), ("41", "13", "2", "3"),
                                  ("60", "19", "3", "3"), ("7", "1", "2", "4"),
                                  ("50000017", "21428579", "2", "50000010"),
                                  ("6", "3", "2", "3"))]
    return cmds


def transcript(directory: Path) -> str:
    """Run every command in-process; link files are written to directory."""
    for name, link in LINKS.items():
        (directory / name).write_text(
            json.dumps(link_to_obj(link), indent=2, sort_keys=True))
    parts = []
    for argv in commands():
        real = argv[:-1] + [str(directory / argv[-1])] if argv[0] == "homology" else argv
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(real)
        parts.append(f"$ lensknots {shlex.join(argv)}\n{buf.getvalue()}exit {code}\n")
    return "".join(parts)


def test_cli_transcript_matches_golden(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text(transcript(Path(tmp)))
