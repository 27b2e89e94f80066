"""Command line front end.

Subcommands:
  family       render one atlas member from its closed forms
  verify       recompute a parameter range of the atlas and report
  homology     first homology of a surgery description in a JSON file
  mcg          classify a mapping class word and its bundle homology
  grid         search for a torus knot witness on the r/q grid
  enum-graphs  enumerate essential arc configurations

Exit codes: 0 success, 1 verification or search failure, 2 usage errors,
141 (128 + SIGPIPE, as a shell reports) when the reader closes stdout early.
Results go to stdout, diagnostics to stderr.  Every command is pure: the
only effects are the output stream and the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor

from .families import FamilyId, _exception_detail, instantiate, verify
from .fatgraph import enumerate_configs
from .gridknots import find_torus_grid_witness
from .mcg import MappingWord, bundle_h1, classify, conjugacy_invariant, trace
from .surgery import INFINITE, core_order, h1, link_from_json


def _order_str(o):
    return "infinite" if o == INFINITE else str(o)


def _render_instance(inst):
    lines = [f"family: {inst.family.value}"]
    if inst.k is not None:
        lines.append(f"k: {inst.k}")
    else:
        lines.append(f"rq: ({inst.rq[0]}, {inst.rq[1]})")
    lines.append(f"space: {inst.space}")
    coeffs = ", ".join("-" if c is None else str(c)
                       for c in inst.surgery.coefficients)
    lines.append(f"surgery: {inst.surgery.name}({coeffs}),"
                 f" core component {inst.core_index}")
    lines.append(f"s={_order_str(inst.order_s)}")
    if inst.fibered:
        lines.append(f"fibered: yes, monodromy {inst.monodromy}"
                     f" [{classify(inst.monodromy)}]")
    else:
        lines.append("fibered: no")
    lines.append(f"grid index: {inst.grid_index}")
    tt = inst.torus_type
    lines.append("torus type: " + (f"({tt[0]},{tt[1]})" if tt else "none"))
    return "\n".join(lines)


def _cmd_family(args):
    if args.id == "VI":
        if args.r is None or args.q is None or args.k is not None:
            raise ValueError("family VI takes --r and --q instead of --k")
        inst = instantiate("VI", rq=(args.r, args.q))
    else:
        if args.k is None or args.r is not None or args.q is not None:
            raise ValueError(f"family {args.id} takes --k")
        inst = instantiate(args.id, k=args.k)
    if args.json:
        print(json.dumps(inst.to_dict(), indent=2, sort_keys=True))
    else:
        print(_render_instance(inst))
    return 0


def _parse_families(text):
    knotted = [f.value for f in FamilyId if f is not FamilyId.VI]
    if text == "all":
        return knotted
    fams = [f.strip() for f in text.split(",")]
    for i, f in enumerate(fams):
        if f not in knotted:
            raise ValueError(f"unknown family {f!r} (ranges cover I..V)")
        if f in fams[:i]:
            raise ValueError(f"family {f!r} is named twice")
    return fams


def _parse_krange(text):
    """The bounds (lo, hi) of an inclusive k-range; k = 0 is skipped later."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError("k-range must look like -20..20")
    lo, hi = int(lo), int(hi)
    if lo > hi or lo == hi == 0:
        raise ValueError(f"empty k-range {text!r}")
    return lo, hi


# The most instances one task checks: a wide range then streams in spans
# whose results stay small, while a narrow one is split among the workers.
_SPAN_CAP = 256


def _verify_one(fam, k):
    """One (family, k) verification, rendered."""
    try:
        inst = instantiate(fam, k)
        report = verify(inst)
    except Exception as exc:
        return False, f"FAIL {fam} k={k}: {_exception_detail(exc)}"
    if report.ok:
        return True, f"ok {report.label}: {inst.space}"
    bad = "; ".join(f"{c.name}: {c.detail}" for c in report.checks if not c.passed)
    return False, f"FAIL {report.label}: {bad}"


def _verify_span(fam, a, b):
    """The rendered verifications of one family for k in a..b, skipping 0;
    top level so workers can run it."""
    return [_verify_one(fam, k) for k in range(a, b + 1) if k != 0]


def _usable_cpus():
    """The CPUs this process may run on, by its affinity mask where the
    platform has one: `taskset` leaves os.cpu_count() unchanged."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_order(pool, spans, window):
    """Each span's results, in span order, with at most `window` spans
    submitted to the pool and not yet returned.  Spans come back in task
    order, so the report is byte-identical to the sequential one."""
    pending = deque()
    for span in spans:
        pending.append(pool.submit(_verify_span, *span))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _print_batches(batches):
    """Print each (ok, line) pair as its batch arrives; the failure count."""
    failures = 0
    for batch in batches:
        for ok, line in batch:
            print(line)
            failures += not ok
    return failures


def _cmd_verify(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    fams = _parse_families(args.families)
    lo, hi = _parse_krange(args.k_range)
    n = len(fams) * (hi - lo + 1 - (lo <= 0 <= hi))
    # the pool forks every worker at its first task, so start no more
    # workers than there are instances or usable CPUs
    workers = min(args.jobs, n, _usable_cpus())
    # about two spans per worker: few messages, and the workers still
    # finish close together
    size = min(_SPAN_CAP, -(-n // (2 * workers)))
    spans = ((f, a, min(a + size - 1, hi))
             for f in fams for a in range(lo, hi + 1, size))
    if workers == 1:
        failures = _print_batches(_verify_span(*span) for span in spans)
    else:
        # a failing print (say to a closed pipe) unwinds through the with
        # block, which shuts the pool down
        with ProcessPoolExecutor(max_workers=workers) as pool:
            failures = _print_batches(_in_order(pool, spans, 2 * workers))
    verdict = "all ok" if failures == 0 else f"{failures} failed"
    print(f"checked {n} instances: {verdict}")
    return 0 if failures == 0 else 1


def _cmd_homology(args):
    with open(args.link) as fh:
        link = link_from_json(fh.read())
    print(f"H1 = {h1(link)}")
    unfilled = [i for i, c in enumerate(link.coefficients) if c is None]
    if unfilled:
        names = ", ".join(str(i) for i in unfilled)
        print(f"core orders: undefined, components {names} are unfilled")
    else:
        for i in range(link.num_components):
            print(f"core order of component {i}: {_order_str(core_order(link, i))}")
    return 0


def _cmd_mcg(args):
    word = MappingWord.parse(args.word)
    m = word.matrix()
    # every line is rendered before any is printed: an entry past the
    # int-to-str digit limit then leaves stdout empty
    print(f"word: {word if word.syllables else '(identity)'}\n"
          f"matrix: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]\n"
          f"trace: {trace(m)}\n"
          f"class: {classify(m)}\n"
          f"bundle H1: {bundle_h1(m)}\n"
          f"conjugacy invariant: {conjugacy_invariant(m)}")
    return 0


def _cmd_grid(args):
    found = find_torus_grid_witness(args.r, args.q, args.da, args.db)
    if found is None:
        print("FAILURE")
        return 1
    qdot, seq = found
    print(f"witness qdot={qdot}")
    print("sequence: " + " ".join(str(v) for v in seq))
    return 0


def _cmd_enum_graphs(args):
    configs = enumerate_configs(args.t, args.max_parallel,
                                require_max=args.require_max)
    for c in configs:
        print(f"s={c.s} t={c.t} arcs=({c.n_a},{c.n_b},{c.n_c})")
    print(f"count: {len(configs)}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lensknots",
        description="once-punctured-torus knots in lens spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="render one atlas member")
    p.add_argument("--id", required=True, choices=[f.value for f in FamilyId])
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int, help="family VI only")
    p.add_argument("--q", type=int, help="family VI only")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("verify", help="recompute a parameter range")
    p.add_argument("--families", default="all",
                   help='"all" or a comma list like I,III')
    p.add_argument("--k-range", required=True, help="inclusive, like -20..20")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("homology", help="H1 of a link file")
    p.add_argument("--link", required=True, help="JSON surgery description")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("mcg", help="classify a mapping class word")
    p.add_argument("--word", required=True, help='like "x^4 y"; "" = identity')
    p.set_defaults(func=_cmd_mcg)

    p = sub.add_parser("grid", help="torus knot witness on the r/q grid")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--da", type=int, required=True)
    p.add_argument("--db", type=int, required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("enum-graphs", help="enumerate arc configurations")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-parallel", type=int, required=True)
    p.add_argument("--require-max", action="store_true")
    p.set_defaults(func=_cmd_enum_graphs)
    return parser


def _glue_range_values(argv):
    """Join "--k-range -20..20" into one token.

    argparse would otherwise read the value as an option string, since a
    range starting with a negative number begins with a dash.
    """
    out = []
    tokens = iter(argv)
    for tok in tokens:
        if tok == "--k-range":
            val = next(tokens, None)
            out.append(tok if val is None else f"{tok}={val}")
        else:
            out.append(tok)
    return out


# what a shell reports for a writer killed by SIGPIPE: 128 + 13
_BROKEN_PIPE = 141


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(_glue_range_values(argv))
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return exc.code or 0
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader stopped early: not a usage error
        return _BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = _BROKEN_PIPE
    if code == _BROKEN_PIPE:
        # the interpreter flushes stdout once more on exit; with the pipe
        # gone that would print "Exception ignored ... BrokenPipeError"
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
