"""The exact-int rule of README on the whole public surface.

CASES holds one valid call of every public callable of src/lensknots:
each public top-level function and class, and each public method and
property of a public class, as `test_imports_used.public_defs` finds
them.  A call is (callable, *args); a method or property is called on
its object as the first argument.  The valid call must return, and every
copy of it with one int argument swapped for one of BAD_INTS, or one
bool argument for one of BAD_BOOLS, must raise exactly ValueError.  Ints
and bools are found at any depth of the tuples and lists among the
arguments, but not inside library values, which are not checked again.
A slope argument is written as a string, since a string is a slope too.

A result type, which the library builds and a caller only reads, maps to
None: its constructor checks nothing.  A new public callable fails
`test_every_public_callable_has_a_case` until it has a case here.

PROBES are further inputs of the wrong type that once raised another
error or gave a value.
"""

import importlib
import inspect
import sys

import pytest

from lensknots import cli, families, fatgraph, gridknots, lenspaces, mcg, snf, surgery
from lensknots.families import (FamilyId, FamilyInstance, VerificationReport,
                                instantiate, verify)
from lensknots.fatgraph import ArcSystemConfig, Circle, FaceReport, Region, faces
from lensknots.lenspaces import LensSpace, Slope
from lensknots.mcg import MappingWord
from lensknots.surgery import AbelianGroup, FramedLink, chain3, whitehead
from test_imports_used import MODULES, parse, public_defs

BAD_INTS = (True, 2.0, "2", None)
BAD_BOOLS = (1, 1.0, "no", None)

LINK = whitehead("-3", "-5/2")
CONFIG = ArcSystemConfig(2, 2, 2, 0, 0)
REPORT = faces(CONFIG)
INSTANCE = instantiate("II", -1)
WORD = MappingWord.parse("x^4 y")
ANOSOV = ((2, 1), (1, 1))
IDENTITY = ((1, 0), (0, 1))
LINK_JSON = ('{"schema_version": 1, "linking": [[0, 0], [0, 0]], '
             '"coefficients": ["-3", "-5/2"]}')


def exit_code(argv):
    """What cli.main exits with when the command line is argv."""
    saved, sys.argv = sys.argv, ["lensknots", *argv]
    try:
        cli.main()
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = saved


CASES = {
    "cli.run": (cli.run, ["mcg", "--word", "x^4 y"]),
    "cli.main": (exit_code, ["mcg", "--word", "x^4 y"]),
    "families.FamilyId": (FamilyId, "IV"),
    "families.FamilyInstance": None,
    "families.FamilyInstance.fibered": (FamilyInstance.fibered.fget, INSTANCE),
    "families.FamilyInstance.to_dict": (FamilyInstance.to_dict, INSTANCE),
    "families.instantiate": (instantiate, "VI", None, (7, 2)),
    "families.CheckResult": None,
    "families.VerificationReport": None,
    "families.VerificationReport.ok": (VerificationReport.ok.fget, verify(INSTANCE)),
    "families.VerificationReport.to_dict": (VerificationReport.to_dict,
                                            verify(INSTANCE)),
    "families.verify": (verify, INSTANCE),
    "families.FillingTableRow": None,
    "families.filling_table": (families.filling_table,),
    "families.torus_knot_types": (families.torus_knot_types,),
    "families.family_space": (families.family_space, "III", 2),
    "families.coincidence_scan": (families.coincidence_scan, 3),
    "families.gof_filling": (families.gof_filling, "V"),
    "fatgraph.ArcSystemConfig": (ArcSystemConfig, 2, 4, 2, 1, 1, 3),
    "fatgraph.ArcSystemConfig.counts": (ArcSystemConfig.counts.fget, CONFIG),
    "fatgraph.ArcSystemConfig.num_edges": (ArcSystemConfig.num_edges.fget, CONFIG),
    "fatgraph.ArcSystemConfig.num_slots": (ArcSystemConfig.num_slots.fget, CONFIG),
    "fatgraph.ArcSystemConfig.slot_info": (ArcSystemConfig.slot_info, CONFIG, 3),
    "fatgraph.ArcSystemConfig.partner": (ArcSystemConfig.partner, CONFIG, 3),
    "fatgraph.ArcSystemConfig.corner_side": (ArcSystemConfig.corner_side, CONFIG, 3),
    "fatgraph.ArcSystemConfig.corner_color": (ArcSystemConfig.corner_color, CONFIG, 3),
    "fatgraph.Circle": None,
    "fatgraph.Circle.length": (Circle.length.fget, REPORT.circles[0]),
    "fatgraph.Circle.is_essential": (Circle.is_essential.fget, REPORT.circles[0]),
    "fatgraph.Region": None,
    "fatgraph.Region.length": (Region.length.fget, REPORT.disks[0]),
    "fatgraph.FaceReport": None,
    "fatgraph.FaceReport.disks": (FaceReport.disks.fget, REPORT),
    "fatgraph.FaceReport.annuli": (FaceReport.annuli.fget, REPORT),
    "fatgraph.FaceReport.polygon_census": (FaceReport.polygon_census, REPORT),
    "fatgraph.ScharlemannCycle": None,
    "fatgraph.faces": (faces, CONFIG),
    "fatgraph.scharlemann_cycles": (fatgraph.scharlemann_cycles, CONFIG),
    "fatgraph.iter_configs": (fatgraph.iter_configs, 2, 3, False),
    "fatgraph.enumerate_configs": (fatgraph.enumerate_configs, 6, 4, True),
    "gridknots.grid1_order": (gridknots.grid1_order, 4, 10),
    "gridknots.torus_knot_sequence": (gridknots.torus_knot_sequence, 5, 1, 2, 3),
    "gridknots.torus_grid_slope": (gridknots.torus_grid_slope, 5, 1, 2, 3),
    "gridknots.find_torus_grid_witness": (gridknots.find_torus_grid_witness,
                                          5, 1, 2, 3),
    "lenspaces.LensSpace": (LensSpace, 7, 2),
    "lenspaces.LensSpace.order": (LensSpace.order.fget, LensSpace(7, 2)),
    "lenspaces.normalize": (lenspaces.normalize, -12, 7),
    "lenspaces.is_homeomorphic": (lenspaces.is_homeomorphic, LensSpace(7, 2),
                                  LensSpace(7, 3)),
    "lenspaces.Slope": (Slope, -5, 2),
    "lenspaces.Slope.make": (Slope.make, 6, -4),
    "lenspaces.Slope.from_rational": (Slope.from_rational, -4),
    "lenspaces.Slope.parse": (Slope.parse, "-5/2"),
    "mcg.mat_mul": (mcg.mat_mul, ANOSOV, ((1, 1), (0, 1))),
    "mcg.MappingWord": (MappingWord, (("x", 4), ("y", -1))),
    "mcg.MappingWord.parse": (MappingWord.parse, "x^4 y x"),
    "mcg.MappingWord.normalize": (MappingWord.normalize, WORD),
    "mcg.MappingWord.matrix": (MappingWord.matrix, WORD),
    "mcg.evaluate": (mcg.evaluate, ANOSOV),
    "mcg.NTClass": (mcg.NTClass, "reducible"),
    "mcg.TorusMapClass": None,
    "mcg.classify": (mcg.classify, ANOSOV),
    "mcg.bundle_h1": (mcg.bundle_h1, ANOSOV),
    "mcg.lens_filling_word": (mcg.lens_filling_word, 3, -2),
    "mcg.conjugacy_invariant": (mcg.conjugacy_invariant, ANOSOV),
    "snf.smith_normal_form": (snf.smith_normal_form, [[2, 4, 4], [-6, 6, 12]]),
    "surgery.AbelianGroup": (AbelianGroup, 1, (2, 4)),
    "surgery.AbelianGroup.order": (AbelianGroup.order, AbelianGroup(0, (2, 4))),
    "surgery.AbelianGroup.is_cyclic": (AbelianGroup.is_cyclic.fget,
                                       AbelianGroup(0, (2, 4))),
    "surgery.AbelianGroup.from_presentation": (AbelianGroup.from_presentation,
                                               [[2, 0], [0, 3]], 2),
    "surgery.FramedLink": (FramedLink, ((0, 1), (1, 0)), (Slope(1, 1), None)),
    "surgery.FramedLink.make": (FramedLink.make, [[0, 2], [2, 0]], ["1", "-2/3"]),
    "surgery.FramedLink.num_components": (FramedLink.num_components.fget, LINK),
    "surgery.unknot": (surgery.unknot, "-7/2"),
    "surgery.whitehead": (whitehead, "-3", "inf"),
    "surgery.chain3": (chain3, "-2", "5/2", None),
    "surgery.h1": (surgery.h1, LINK),
    "surgery.core_order": (surgery.core_order, LINK, 1),
    "surgery.blow_down": (surgery.blow_down, chain3("-2", "-3", "1"), 2),
    "surgery.link_to_obj": (surgery.link_to_obj, LINK),
    "surgery.link_from_json": (surgery.link_from_json, LINK_JSON),
}

PROBES = {
    "from_presentation-bool-entry": (AbelianGroup.from_presentation, [[True, 2]], 2),
    "from_presentation-float-entry": (AbelianGroup.from_presentation, [[1.5, 2]], 2),
    "snf-float-entry": (snf.smith_normal_form, [[1.5, 2, 3]]),
    "snf-short-row": (snf.smith_normal_form, [[1, 2, 3], [4]]),
    "snf-short-two-column-row": (snf.smith_normal_form, [[1, 2], [3]]),
    "Slope.parse-int": (Slope.parse, 5),
    "MappingWord.parse-None": (MappingWord.parse, None),
    "link_from_json-int": (surgery.link_from_json, 5),
    "FramedLink.make-int-linking": (FramedLink.make, 5, [None]),
    "FramedLink.make-int-coefficients": (FramedLink.make, [[0]], 5),
    "mat_mul-float": (mcg.mat_mul, ((1.5, 0), (0, 1)), IDENTITY),
    "enumerate_configs-str-require_max": (fatgraph.enumerate_configs, 2, 3, "no"),
    "iter_configs-int-require_max": (fatgraph.iter_configs, 2, 3, 1),
}


def public_callables():
    """The qualified name of every public callable of src/lensknots: what
    public_defs finds, less the constants."""
    out = set()
    for path in MODULES:
        names = public_defs(parse(path))
        if not names:  # __main__ defines none, and importing it runs the CLI
            continue
        module = importlib.import_module(f"lensknots.{path.stem}")
        out.update(f"{path.stem}.{name}" for name in names
                   if "." in name or callable(getattr(module, name)))
    return out


def call(func, *args):
    """func(*args), with a generator run to its end."""
    result = func(*args)
    return list(result) if inspect.isgenerator(result) else result


def variants(value):
    """Copies of value, one per int or bool in it and bad value for it,
    with that one swapped; tuples and lists are entered, nothing else."""
    if type(value) is int:
        yield from BAD_INTS
    elif type(value) is bool:
        yield from BAD_BOOLS
    elif type(value) in (tuple, list):
        for i, item in enumerate(value):
            for bad in variants(item):
                yield type(value)([*value[:i], bad, *value[i + 1:]])


def test_every_public_callable_has_a_case():
    assert set(CASES) == public_callables()


def test_variants_reach_every_int_and_bool():
    got = list(variants((1, [False, "a"], (None, (2,)), LINK)))
    assert len(got) == 3 * 4
    assert got[0] == (True, [False, "a"], (None, (2,)), LINK)
    assert got[4] == (1, [1, "a"], (None, (2,)), LINK)
    assert got[11] == (1, [False, "a"], (None, (None,)), LINK)


CHECKED = {name: case for name, case in CASES.items() if case is not None}


@pytest.mark.parametrize("case", CHECKED.values(), ids=CHECKED.keys())
def test_bad_int_raises_value_error(capsys, case):
    func, *args = case
    call(func, *args)
    for bad_args in variants(args):
        with pytest.raises(ValueError) as caught:
            call(func, *bad_args)
        assert caught.type is ValueError, (bad_args, caught.value)


@pytest.mark.parametrize("case", PROBES.values(), ids=PROBES.keys())
def test_wrong_type_probe_raises_value_error(case):
    func, *args = case
    with pytest.raises(ValueError) as caught:
        call(func, *args)
    assert caught.type is ValueError, caught.value
