"""Command line front end.

Subcommands:
  family       render one atlas member
  verify       recompute a parameter range
  homology     H1 of a link file
  mcg          classify a mapping class word
  grid         torus knot witness on the r/q grid
  enum-graphs  enumerate arc configurations

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

from .families import FamilyId, _verify_line, family_space, instantiate
from .fatgraph import iter_configs
from .gridknots import find_torus_grid_witness
from .mcg import MappingWord, bundle_h1, classify, conjugacy_invariant
from .surgery import INFINITE, core_order, h1, link_from_json, link_to_obj


def _order_str(o):
    return "infinite" if o == INFINITE else str(o)


def _render_instance(inst):
    lines = [f"family: {inst.family.value}"]
    if inst.k is not None:
        lines.append(f"k: {inst.k}")
    else:
        lines.append(f"rq: ({inst.rq[0]}, {inst.rq[1]})")
    lines.append(f"space: {inst.space}")
    coeffs = ", ".join(link_to_obj(inst.surgery)["coefficients"])
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
    rq = None if args.r is None and args.q is None else (args.r, args.q)
    inst = instantiate(args.id, k=args.k, rq=rq)
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

# The fewest instances a forked worker must get to pay for its fork, so a
# worker gets at least one full span.  The latest sweeps on two vCPUs (see
# README) have `--jobs 2` break even with one process at 1,000-1,250
# instances and win from 1,250, so the smallest range that forks, 1,000
# instances, runs at about break-even.
_WORKER_MIN = 500

def _verify_span(fam, a, b):
    """The rendered verifications of one family for k in a..b, skipping 0;
    top level so workers can run it.  The family is resolved once here,
    not once per instance."""
    family = FamilyId(fam)
    return [_verify_line(family, k) for k in range(a, b + 1) if k != 0]


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
    """Print each (ok, line) pair as its batch arrives, with one write per
    batch; the failure count."""
    failures = 0
    write = sys.stdout.write
    for batch in batches:
        if batch:  # a span of k = 0 alone has no line
            oks, lines = zip(*batch)
            write("\n".join(lines) + "\n")
            failures += oks.count(False)
    return failures


def _cmd_verify(args):
    if args.jobs < 1:
        raise ValueError("--jobs must be at least 1")
    fams = _parse_families(args.families)
    lo, hi = _parse_krange(args.k_range)
    # |p| is linear in k, so a space past the int-to-str digit limit lies at
    # an end of the range: render both ends before printing any line
    for f, k in ((f, k) for f in fams for k in (lo, hi)):
        try:
            space = family_space(f, k)
        except ValueError:  # no lens space there: its checks report that
            continue
        str(space)
    n = len(fams) * (hi - lo + 1 - (lo <= 0 <= hi))
    # the pool forks every worker at its first task, so start no more
    # workers than the usable CPUs, nor than the instances pay forks for
    workers = min(args.jobs, _usable_cpus(), max(1, n // _WORKER_MIN))
    # about two spans per worker: few messages, and the workers still
    # finish close together
    size = min(_SPAN_CAP, -(-n // (2 * workers)))
    spans = ((f, a, min(a + size - 1, hi))
             for f in fams for a in range(lo, hi + 1, size))
    if workers == 1:
        failures = _print_batches(_verify_span(*span) for span in spans)
    else:
        # imported here: the pool's modules (multiprocessing, pickle, socket,
        # ...) then load only in a process that forks
        from concurrent.futures import ProcessPoolExecutor

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
    kind = classify(m)
    # every line is rendered before any is printed: an entry past the
    # int-to-str digit limit then leaves stdout empty
    print(f"word: {word if word.syllables else '(identity)'}\n"
          f"matrix: [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]\n"
          f"trace: {kind.trace}\n"
          f"class: {kind}\n"
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
    print("sequence:", *seq)
    return 0


def _cmd_enum_graphs(args):
    # each configuration is printed as it is found, the count line last
    count = 0
    for c in iter_configs(args.t, args.max_parallel, require_max=args.require_max):
        print(f"s={c.s} t={c.t} arcs=({c.n_a},{c.n_b},{c.n_c})")
        count += 1
    print(f"count: {count}")
    return 0


# Each command's help line, handler and argument specs, in the order of
# the help: a spec is the option string and the keywords of add_argument.
_COMMANDS = {
    "family": ("render one atlas member", _cmd_family, (
        ("--id", dict(required=True, choices=[f.value for f in FamilyId])),
        ("--k", dict(type=int)),
        ("--r", dict(type=int, help="family VI only")),
        ("--q", dict(type=int, help="family VI only")),
        ("--json", dict(action="store_true")))),
    "verify": ("recompute a parameter range", _cmd_verify, (
        ("--families", dict(default="all",
                            help='"all" or a comma list like I,III')),
        ("--k-range", dict(required=True, help="inclusive, like -20..20")),
        ("--jobs", dict(type=int, default=1)))),
    "homology": ("H1 of a link file", _cmd_homology, (
        ("--link", dict(required=True, help="JSON surgery description")),)),
    "mcg": ("classify a mapping class word", _cmd_mcg, (
        ("--word", dict(required=True, help='like "x^4 y"; "" = identity')),)),
    "grid": ("torus knot witness on the r/q grid", _cmd_grid, (
        ("--r", dict(type=int, required=True)),
        ("--q", dict(type=int, required=True)),
        ("--da", dict(type=int, required=True)),
        ("--db", dict(type=int, required=True)))),
    "enum-graphs": ("enumerate arc configurations", _cmd_enum_graphs, (
        ("--t", dict(type=int, required=True)),
        ("--max-parallel", dict(type=int, required=True)),
        ("--require-max", dict(action="store_true")))),
}


def _build_parser(argv=None):
    """The parser for argv.  When argv[0] names a command, that command
    alone gets its help line, arguments and handler; the others are
    registered by name only, with no -h and no help line, since they never
    parse and the top-level help is never printed, while the top-level
    usage and errors read only the names.  When argv[0] names none, as with
    no argv, [], "-h" or an unknown word, every command gets everything."""
    parser = argparse.ArgumentParser(
        prog="lensknots",
        description="once-punctured-torus knots in lens spaces")
    # with prog given, argparse formats no usage line to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    named = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, (help_line, func, specs) in _COMMANDS.items():
        if named not in (None, name):
            sub.add_parser(name, add_help=False)
            continue
        p = sub.add_parser(name, help=help_line)
        for option, kwargs in specs:
            p.add_argument(option, **kwargs)
        p.set_defaults(func=func)
    return parser


def _glue_range_values(argv):
    """Join "--k-range -20..20" into one token, "--k-range=-20..20".

    argparse would otherwise read the value as an option string, since a
    range starting with a negative number begins with a dash.  The value is
    known by its shape, a dash, a digit and "..", so an option abbreviated
    as argparse allows, like "--k -20..20", is joined too.
    """
    out = []
    for tok in argv:
        if (tok[:1] == "-" and tok[1:2].isdigit() and ".." in tok and out
                and out[-1].startswith("--") and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# what a shell reports for a writer killed by SIGPIPE: 128 + 13
_BROKEN_PIPE = 141


def run(argv) -> int:
    argv = _glue_range_values(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
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
