"""Each verification report, details included, checked line by line against
tests/data/verify_reports.jsonl.

The CLI transcript prints no FAIL line, so this file is what pins the
detail text of every check: the atlas members below pass, and the
hand-made corruptions fail in every branch a check has.  When a detail
change is deliberate, rewrite the file with

    PYTHONPATH=src python tests/test_verify_reports.py

and record the change in CHANGES.md.

An exception detail ends with the function, file and line that raised it.
The comparison reads every line number there as N, so editing a module
moves no golden line; `test_exception_details_name_a_raise_line` checks
instead that each line is a `raise` in the named function.
"""

import dataclasses
import importlib
import inspect
import json
import re
from pathlib import Path

from lensknots import surgery
from lensknots.families import instantiate, verify
from lensknots.lenspaces import LensSpace
from lensknots.mcg import MappingWord

GOLDEN = Path(__file__).parent / "data" / "verify_reports.jsonl"


def instances():
    insts = [instantiate(fam, k) for fam in ("I", "II", "III", "IV", "V")
             for k in (-7, -2, -1, 1, 2, 10**15)]
    insts += [instantiate("VI", rq=rq) for rq in ((0, 1), (-12, 5))]
    good = instantiate("I", 1)  # L(5,1), W(-1, -5) with core 2
    insts += [dataclasses.replace(good, **change) for change in (
        {"order_s": 4},
        {"space": LensSpace(7, 1)},
        {"monodromy": MappingWord.parse("x^2 y")},
        {"torus_type": (2, 4)},
        {"grid_index": 3},
        {"torus_type": (2, 5)},
        {"space": LensSpace(5, 2)},
        {"space": LensSpace(1, 1)},
        {"surgery": surgery.chain3("-1", "-5", "1")},
        {"surgery": surgery.whitehead("-1", "0")},
        {"surgery": surgery.whitehead("-1", "-7")},
    )]
    return insts


def report_lines():
    return [json.dumps(verify(inst).to_dict(), sort_keys=True) for inst in instances()]


# "in <function> (<module>.py:<line>)" at the end of an exception detail
WHERE = re.compile(r"in (\w+) \((\w+)\.py:(\d+)\)")


def mask_lines(text):
    return WHERE.sub(lambda m: f"in {m[1]} ({m[2]}.py:N)", text)


def test_reports_match_golden():
    want = [mask_lines(line) for line in GOLDEN.read_text().splitlines()]
    got = [mask_lines(line) for line in report_lines()]
    assert len(got) == len(want)
    for i, (line, golden) in enumerate(zip(got, want)):
        assert line == golden, i


def test_exception_details_name_a_raise_line():
    places = {m.groups() for inst in instances() for check in verify(inst).checks
              for m in WHERE.finditer(check.detail)}
    assert places  # the hand-made LensSpace(1, 1) has one
    for function, module, line in places:
        source = getattr(importlib.import_module(f"lensknots.{module}"), function)
        lines, start = inspect.getsourcelines(source)
        assert start <= int(line) < start + len(lines), (function, line)
        assert lines[int(line) - start].lstrip().startswith("raise "), (function, line)


if __name__ == "__main__":
    GOLDEN.write_text("".join(line + "\n" for line in report_lines()))
