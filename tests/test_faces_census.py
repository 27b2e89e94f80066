"""Every face report and Scharlemann cycle of a small census, checked by
value against tests/data/faces_census.jsonl.

The census is every configuration of `enumerate_configs(t, 8)` for t in
2, 4 and 6 (so every configuration of `enumerate_configs(t, M)` with
M <= 8), at every offset.  A line holds the configuration's fields,
`dataclasses.astuple` of its `faces` and of each of its
`scharlemann_cycles`, as JSON.  A frozenset is written as a sorted list:
its iteration order, and so its repr, may change while its value stays
equal.  When a change to the reports is deliberate, rewrite the file with

    PYTHONPATH=src python tests/test_faces_census.py

and record the change in CHANGES.md.
"""

import dataclasses
import json
from pathlib import Path

from lensknots.fatgraph import enumerate_configs, faces, scharlemann_cycles

GOLDEN = Path(__file__).parent / "data" / "faces_census.jsonl"


def census():
    """Each census configuration at each of its offsets."""
    for t in (2, 4, 6):
        for base in enumerate_configs(t, 8):
            for offset in range(t):
                yield dataclasses.replace(base, offset=offset)


def plain(value):
    """value with tuples as lists and frozensets as sorted lists."""
    if isinstance(value, frozenset):
        return sorted(plain(v) for v in value)
    if isinstance(value, tuple):
        return [plain(v) for v in value]
    return value


def row(cfg):
    return plain((dataclasses.astuple(cfg), dataclasses.astuple(faces(cfg)),
                  tuple(dataclasses.astuple(c) for c in scharlemann_cycles(cfg))))


def test_census_matches_golden():
    want = GOLDEN.read_text().splitlines()
    got = [row(cfg) for cfg in census()]
    assert len(got) == len(want)
    for i, (value, line) in enumerate(zip(got, want)):
        assert value == json.loads(line), i


if __name__ == "__main__":
    GOLDEN.write_text("".join(json.dumps(row(cfg), separators=(",", ":")) + "\n"
                              for cfg in census()))
