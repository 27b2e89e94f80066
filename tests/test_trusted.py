"""Values built without a second __post_init__ check are valid.

The producers that build their results with a `lenspaces._trusted_builder`
builder, skipping the generated `__init__` and the dataclass check, are
listed once, in the `lenspaces` docstring, and found here in the syntax
tree to check that list.  `dataclasses.replace(v)`
re-runs `__init__` and `__post_init__`, so it raises on an invalid value
and equals a valid one.
"""

import ast
import collections
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lensknots
from lensknots import cli, fatgraph, lenspaces
from lensknots.families import (CheckResult, FamilyInstance, VerificationReport,
                                 instantiate, verify)
from lensknots.fatgraph import (ArcSystemConfig, enumerate_configs, faces,
                                scharlemann_cycles)
from lensknots.lenspaces import INFINITY, LensSpace, Slope, normalize
from lensknots.mcg import MappingWord
from lensknots.surgery import (AbelianGroup, FramedLink, chain3, h1, h1_presentation,
                               unknot, whitehead)

CHECKED = (Slope, LensSpace, FramedLink, AbelianGroup, MappingWord)
# value classes with no check: instantiate builds its FamilyInstance
# trusted, and verify builds its reports by their constructors
UNCHECKED = (FamilyInstance, CheckResult, VerificationReport)


def assert_valid(value):
    assert dataclasses.replace(value) == value


def _ks():
    rng = random.Random(18)
    small = [k for k in range(-60, 61) if k]
    return small + [rng.choice((-1, 1)) * rng.randint(61, 10**15) for _ in range(200)]


@pytest.mark.parametrize("family", ["I", "II", "III", "IV", "V"])
def test_instances_are_valid(family):
    for k in _ks():
        inst = instantiate(family, k)
        values = [inst.space, inst.surgery, *inst.surgery.coefficients,
                  h1(inst.surgery)]
        if inst.monodromy is not None:
            values.append(inst.monodromy)
        report = verify(inst)
        values += [inst, report, *report.checks]
        for value in values:
            assert_valid(value)


def test_slope_make_and_normalize_are_valid():
    rng = random.Random(1801)
    for _ in range(2000):
        bound = rng.choice((3, 100, 10**15))
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (p, q) != (0, 0):
            slope = Slope.make(p, q)
            assert_valid(slope)
            assert slope.p * q == slope.q * p
        if gcd(p, q) == 1:
            assert_valid(normalize(p, q))
    for p, q in [(0, 1), (1, 5), (-1, 7), (2, -1), (7, 2), (-12, 5)]:
        assert_valid(normalize(p, q))
    assert Slope.make(-5, 0) is INFINITY


def test_from_presentation_is_valid():
    rng = random.Random(1802)
    for _ in range(1000):
        ngens = rng.randint(1, 5)  # three or more columns take the elimination path
        bound = rng.choice((2, 20, 10**12))
        rows = [[rng.randint(-bound, bound) for _ in range(ngens)]
                for _ in range(rng.randint(0, 5))]
        assert_valid(AbelianGroup.from_presentation(rows, ngens))
    with pytest.raises(ValueError):
        AbelianGroup.from_presentation([], -1)  # no row to fix the rank's sign


@st.composite
def open_links(draw):
    """Links of 1-4 components with linking numbers in -3..3, each
    component filled or left unfilled (q = 0 gives the infinite slope)."""
    n = draw(st.integers(1, 4))
    linking = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            linking[i][j] = linking[j][i] = draw(st.integers(-3, 3))
    slopes = st.tuples(st.integers(-8, 8), st.integers(0, 5)).filter(
        lambda pq: pq != (0, 0)).map(lambda pq: Slope.make(*pq))
    return FramedLink.make(linking, [draw(st.none() | slopes) for _ in range(n)])


@settings(max_examples=300)
@given(open_links())
@example(chain3())
@example(chain3("-1", None, "5/2"))
@example(chain3("2", "3", "-4"))
@example(FramedLink.make(((0, 3, 0, -2), (3, 0, 1, 0), (0, 1, 0, 2), (-2, 0, 2, 0)),
                         ("4", None, "-7/3", None)))
def test_h1_is_the_checked_cokernel(link):
    """h1 reads the Smith diagonal of the rows it builds without the row
    check of AbelianGroup.from_presentation, and gives the same group."""
    group = h1(link)
    assert group == AbelianGroup.from_presentation(h1_presentation(link),
                                                   link.num_components)
    assert_valid(group)


def test_whitehead_coerces_its_coefficients():
    for a, b in [("-3", "5/2"), (2, None), (Fraction(-14, 6), "inf"), (Slope(1, 0), -7),
                 ("1/2", Fraction(3, -9)), (None, -4)]:
        assert_valid(whitehead(a, b))
    with pytest.raises(ValueError):
        whitehead(True, "-3")
    with pytest.raises(ValueError):
        whitehead("-3", "1/0/2")


def test_unknot_coerces_its_coefficient():
    for coeff in ["0", "-7/2", None, Fraction(6, -4), Slope(1, 0)]:
        assert_valid(unknot(coeff))
    for r in range(2, 30):
        for q in (1, -1, 3, -5):
            if gcd(r, q) == 1:
                assert_valid(instantiate("VI", rq=(r, q)).surgery)
    with pytest.raises(ValueError):
        unknot(True)


def count_post_inits(monkeypatch):
    """The names of the classes whose __post_init__ runs from here on."""
    calls = []
    for cls in CHECKED:
        def counted(self, check=cls.__post_init__):
            calls.append(type(self).__name__)
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return calls


def count_inits(monkeypatch):
    """The names of the UNCHECKED classes whose __init__ runs from here on."""
    calls = []
    for cls in UNCHECKED:
        def counted(self, *args, init=cls.__init__, **kwargs):
            calls.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_warm_verify_runs_no_post_init(monkeypatch, capsys):
    """After a warm-up, verify builds every value on the unchecked path:
    no __post_init__ of a CHECKED class and no generated __init__ of an
    UNCHECKED one (its instances, check results and reports) runs."""
    argv = ["verify", "--families", "all", "--k-range", "-20..20"]
    assert cli.run(argv) == 0
    post_inits = count_post_inits(monkeypatch)
    inits = count_inits(monkeypatch)
    assert cli.run(argv) == 0
    assert post_inits == [] and inits == []
    assert capsys.readouterr().out.endswith("checked 200 instances: all ok\n")
    CheckResult("grid", True, "")  # the count sees a direct construction
    assert inits == ["CheckResult"]


def test_warm_vi_instances_run_no_post_init(monkeypatch):
    """The unknot surgeries of family VI come off the unchecked path too."""
    instantiate("VI", rq=(7, 1))
    calls = count_post_inits(monkeypatch)
    for r in range(2, 102):
        instantiate("VI", rq=(r, 1))
    assert calls == []


def fatgraph_values():
    """Every configuration of enumerate_configs(t, 8) for t = 2, 4, 6, and
    at each of its offsets its report, circles, regions and cycles."""
    for t in (2, 4, 6):
        for base in enumerate_configs(t, 8):
            yield base
            for offset in range(t):
                cfg = dataclasses.replace(base, offset=offset)
                report = faces(cfg)
                yield report
                yield from report.circles
                yield from report.regions
                yield from scharlemann_cycles(cfg)


def test_fatgraph_values_are_valid():
    kinds = collections.Counter()
    for value in fatgraph_values():
        assert_valid(value)
        kinds[type(value).__name__] += 1
    assert set(kinds) == {"ArcSystemConfig", "FaceReport", "Circle", "Region",
                          "ScharlemannCycle"}


def fatgraph_samples():
    """A configuration, report, circle, region and cycle off the builders."""
    cfg = enumerate_configs(2, 4)[-1]
    report = faces(cfg)
    return [cfg, report, report.circles[0], report.regions[0],
            scharlemann_cycles(cfg)[0]]


def checked_samples():
    """A value of each CHECKED class from each producer that builds it."""
    return [normalize(7, 2), Slope.make(-4, 6), Slope.make(3, 0),
            AbelianGroup.from_presentation([[2, 4], [6, 8]], 2),
            unknot("-7/2"), whitehead("-3", "5/2"), instantiate("I", 5).monodromy]


def unchecked_samples():
    """A value of each UNCHECKED class, off instantiate and verify."""
    report = verify(instantiate("VI", rq=(7, 2)))
    return [instantiate("IV", 1), report, report.checks[0]]


def assert_frozen_slotted(value):
    assert not hasattr(value, "__dict__"), type(value).__name__
    for field in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field.name, None)


def test_fatgraph_values_stay_frozen():
    for value in fatgraph_samples():
        assert_frozen_slotted(value)


def test_unchecked_values_are_slotted_and_stay_frozen():
    values = unchecked_samples()
    assert {type(v) for v in values} == set(UNCHECKED)
    for value in values:
        assert_frozen_slotted(value)


def test_checked_values_are_slotted_and_stay_frozen():
    values = checked_samples()
    assert {type(v) for v in values} == set(CHECKED)
    for value in values:
        assert_frozen_slotted(value)


def test_every_dataclass_is_frozen_and_slotted():
    """Every dataclass a lensknots module defines, value class or not; the
    package's __main__ is skipped, since importing it runs the CLI."""
    defined = [obj for info in pkgutil.iter_modules(lensknots.__path__)
               if not info.name.startswith("_")
               for module in [importlib.import_module(f"lensknots.{info.name}")]
               for obj in vars(module).values()
               if isinstance(obj, type) and dataclasses.is_dataclass(obj)
               and obj.__module__ == module.__name__]
    assert {cls.__name__ for cls in CHECKED} < {cls.__name__ for cls in defined}
    loose = [cls.__name__ for cls in defined
             if not cls.__dataclass_params__.frozen or "__slots__" not in vars(cls)]
    assert loose == []


def test_values_survive_pickle_and_deepcopy():
    values = [*checked_samples(), *fatgraph_samples(), *unchecked_samples()]
    assert len({type(v) for v in values}) == 13
    for value in values:
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value


def test_enumerate_configs_builds_only_what_it_returns(monkeypatch):
    """The parity rule is in the loop's steps, so no configuration is
    built, checked or not, only to be thrown away."""
    built = collections.Counter()
    build = fatgraph._config

    def counted_build(*fields):
        built["trusted"] += 1
        return build(*fields)

    def counted_check(self, check=ArcSystemConfig.__post_init__):
        built["checked"] += 1
        check(self)

    monkeypatch.setattr(fatgraph, "_config", counted_build)
    monkeypatch.setattr(ArcSystemConfig, "__post_init__", counted_check)
    for t in (2, 4, 6):
        for m in range(1, 13):
            for require_max in (False, True):
                built.clear()
                configs = enumerate_configs(t, m, require_max)
                assert (built["trusted"], built["checked"]) == (len(configs), 0), \
                    (t, m, require_max)


def builder_users():
    """The functions of each module that call a `_trusted_builder` builder,
    as (public, helpers): "module.name" and "module.Class.name" strings.

    A builder is a name a module binds to `_trusted_builder(...)`, or
    imports from a module that does.  A function uses one when any `Name`
    in its body reads it, as a call or an argument to `map`.  A private
    module-level helper that uses one, directly or through another such
    helper, counts for every function of its module that reads its name.
    """
    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(lensknots.__file__).parent.glob("*.py")}
    builders = {}
    for name, tree in trees.items():
        builders[name] = {target.id for node in tree.body if isinstance(node, ast.Assign)
                          and isinstance(node.value, ast.Call)
                          and getattr(node.value.func, "id", None) == "_trusted_builder"
                          for target in node.targets}
    public, helpers = set(), set()
    for name, tree in trees.items():
        known = set(builders[name])
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                known |= {a.asname or a.name for a in node.names
                          if a.name in builders.get(node.module, ())}
        reads = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for qualname, fn in defs:
                reads[qualname] = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        private = {q for q in reads if q.startswith("_") and not q.startswith("__")}
        users = {q for q, names in reads.items() if names & known}
        while True:
            more = {q for q, names in reads.items() if names & (users & private)}
            if more <= users:
                break
            users |= more
        public |= {f"{name}.{q}" for q in users - private}
        helpers |= {f"{name}.{q}" for q in users & private}
    return public, helpers


def listed_producers():
    """The producers the `lenspaces` docstring lists, in its one bulleted
    list: the names in backticks before each bullet's colon."""
    doc = lenspaces.__doc__
    start = doc.index("\n- ")
    bullets = doc[start:doc.index("\n\n", start)].split("\n- ")[1:]
    return {name for bullet in bullets
            for name in re.findall(r"`([\w.]+)`", bullet.split(":", 1)[0])}


def test_docstring_lists_every_builder_user():
    public, helpers = builder_users()
    assert public == listed_producers()
    assert {"surgery._cokernel", "fatgraph._outer_circle",
            "fatgraph._disk_cycles"} <= helpers
