"""Workload generators and the job runner.

A workload makes passes: lists of jobs made from the seed and the pass
number alone.  The benchmark runs whole passes in a closed loop with one
client, so the next job starts only when the previous one has returned.
A job is one `cli.run([...])` invocation with stdout captured in memory,
or, where noted, one sequence of library calls.  Random draws are
stratified (one draw per equal slice of the range), so every seed gives a
pass with the same spread of sizes and only the particular inputs change.
Each job carries its slot: which slice of which draw it came from.  Every
pass of a workload has the same slots, filled with other inputs of about
the same size, and the benchmark times a slot by the median of its jobs.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from lensknots import cli, families, fatgraph

import oracles


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Job:
    kind: str      # "verify", "enum", "mcg" or "coincidence"
    argv: tuple    # CLI arguments; empty for library-only jobs
    data: tuple    # what the oracle needs to know about the input
    slot: tuple = ()  # the same in every pass; () makes the job its own slot


def _strata(rng, n):
    """(i, draw in [i/n, (i+1)/n)) for each slice i, shuffled."""
    u = [(i, (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(u)
    return u


def _windows(rng, n, widths, extra=()):
    """`verify --families all` over n windows a..a+w-1.

    |a| is log-uniform from 1 to 1e15 with a random sign.  Checking costs
    the same at |k| = 1 and |k| = 1e40 today, so any change whose cost
    grows with the size of the integers shows up as a rate drop here.  The
    width w is uniform over `widths`, so the widest windows, not the
    machine's hiccups, set the latency tail.  The width sets the cost, so
    its slice is the job's slot.
    """
    lo, hi = widths
    jobs = []
    for (_, u), (i, v) in zip(_strata(rng, n), _strata(rng, n)):
        a = round(10 ** (15 * u)) * rng.choice((1, -1))
        b = a + lo + int(v * (hi - lo + 1)) - 1
        ks = tuple(k for k in range(a, b + 1) if k != 0)
        argv = ("verify", "--families", "all", "--k-range", f"{a}..{b}") + extra
        jobs.append(Job("verify", argv, ks, ("window", i)))
    return jobs


def gen_verify_seq(rng):
    # Sequential verify stresses families -> surgery -> snf, plus gridknots,
    # lenspaces and mcg.bundle_h1: the load where caching SNF results or
    # sharing H1 between checks must show, and the bypass for the fat-graph
    # and class-query optimisations.
    return _windows(rng, 48, (20, 60))


def gen_verify_jobs(rng):
    # The same windows through `--jobs <nproc>`: the only load on the CLI's
    # process pool, whose per-task dispatch makes it slower than sequential
    # today.  Each invocation starts a pool (about 20 ms on two vCPUs).
    # There are as many windows as in verify_seq, so that the tail is taken
    # over 48 slots, and they are narrower, so that a 20 s run holds about
    # six passes and each slot's median is over that many jobs.
    return _windows(rng, 48, (10, 50), ("--jobs", str(nproc())))


ARC_T = (2, 4, 6)
ARC_MAX_PARALLEL = range(2, 23)


def gen_arc_census(rng):
    # enum-graphs slices, each config then traced by faces and by
    # scharlemann_cycles as two independent queries.  Almost all fatgraph,
    # it bypasses snf/surgery/families.  Every (t, M) slice is in each pass
    # and the seed sets their order; slot counts run from 4 to 6*22 = 132,
    # which spans the working-set sizes of the per-slot scans.  The cost of
    # a slice grows about as M**3; M stops at 22 so that a pass takes a few
    # seconds and each slice is timed several times in a run.
    jobs = [Job("enum", ("enum-graphs", "--t", str(t), "--max-parallel", str(m),
                         "--require-max"), (t, m), (t, m))
            for t in ARC_T for m in ARC_MAX_PARALLEL]
    rng.shuffle(jobs)
    return jobs


CLASS_WORDS = 120
CLASS_MAX_EXPONENT = 20000
CLASS_SHORT_EXPONENT = 30
COINCIDENCE_EVERY = 30
COINCIDENCE_MAXK = (10, 50)


def _word(rng, u, n_short):
    """1 + n_short alternating syllables: one long one, |exponent| =
    2e4 ** u, and short ones with |exponent| log-uniform up to 30.

    The cost of a word grows with the long exponent, and mixing several
    long ones makes it depend on how they cancel; one long syllable keeps
    the cost of the stratified draws, and so each pass, alike across seeds.
    A lone syllable is a twist power and far cheaper than a mixed word, so
    the slot, not the seed, sets how many syllables a word has.
    """
    exps = [round(CLASS_MAX_EXPONENT ** u)]
    exps += [round(CLASS_SHORT_EXPONENT ** rng.random()) for _ in range(n_short)]
    rng.shuffle(exps)
    gens = "xy" if rng.random() < 0.5 else "yx"
    return tuple((gens[i % 2], e * rng.choice((1, -1))) for i, e in enumerate(exps))


def word_text(syllables):
    return " ".join(f"{g}^{e}" for g, e in syllables)


def gen_class_scan(rng):
    # mcg queries: conjugacy_invariant is quadratic in the exponent today,
    # so the long words set the tail.  Each word is asked again in a
    # cyclically rotated form, a conjugate that must get the same label.
    # About one job in thirty is coincidence_scan(maxk), quadratic in maxk.
    # Nothing else exercises either path.
    groups = []
    for pair, (i, u) in enumerate(_strata(rng, CLASS_WORDS)):
        w = _word(rng, u, i % 4)
        r = rng.randrange(1, len(w)) if len(w) > 1 else 0
        groups.append([Job("mcg", ("mcg", "--word", word_text(syl)), (pair, role, syl),
                           ("word", i, role))
                       for role, syl in enumerate((w, w[r:] + w[:r]))])
    lo, hi = COINCIDENCE_MAXK
    for i, u in _strata(rng, 2 * CLASS_WORDS // (COINCIDENCE_EVERY - 1)):
        maxk = lo + int(u * (hi - lo + 1))
        groups.insert(rng.randrange(len(groups) + 1),
                      [Job("coincidence", (), (maxk,), ("scan", i))])
    return [job for group in groups for job in group]


GENERATORS = {
    "verify_seq": gen_verify_seq,
    "verify_jobs": gen_verify_jobs,
    "arc_census": gen_arc_census,
    "class_scan": gen_class_scan,
}


def generate(workload, seed, pass_no=0):
    """Pass `pass_no` of a run; the same arguments give the same job list."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}/{pass_no}"))


def warmup_jobs(workload):
    """Small fixed jobs that load everything a pass touches."""
    if workload.startswith("verify"):
        return _windows(random.Random(0), 1, (2, 2))
    if workload == "arc_census":
        return [Job("enum", ("enum-graphs", "--t", "2", "--max-parallel", "3",
                             "--require-max"), (2, 3))]
    pair = ((("x", 2), ("y", -1)), (("y", -1), ("x", 2)))
    return [Job("mcg", ("mcg", "--word", word_text(w)), (0, role, w))
            for role, w in enumerate(pair)] + [Job("coincidence", (), (2,))]


def _cli(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.run(list(argv))
    return rc, out.getvalue()


class Runner:
    """Runs jobs, times the program's part and checks it with the oracles."""

    def __init__(self):
        self.labels = {}  # conjugacy label of each class_scan word, by pair
        self.on_job = None  # called with each job before it starts

    def execute(self, job):
        """(latency in s, items, failure reason or None)."""
        if self.on_job is not None:
            self.on_job(job)
        run = getattr(self, f"_run_{job.kind}")
        t0 = perf_counter()
        try:
            result = run(job)
        except Exception as exc:  # a job that raises is a failed job
            return perf_counter() - t0, 0, f"exception: {exc!r}"
        latency = perf_counter() - t0
        try:
            items, why = self.check(job, result)
        except Exception as exc:  # output too malformed to check
            return latency, 0, f"oracle could not read the output: {exc!r}"
        return latency, items, why

    # the program's part of each job: everything inside the timed region

    def _run_verify(self, job):
        return _cli(job.argv)

    def _run_enum(self, job):
        rc, out = _cli(job.argv)
        rows, why = oracles.parse_enum_graphs(out)
        traced = []
        for row in rows or ():
            cfg = fatgraph.ArcSystemConfig(*row)
            traced.append((row, fatgraph.faces(cfg), fatgraph.scharlemann_cycles(cfg)))
        return rc, rows, why, traced

    def _run_mcg(self, job):
        return _cli(job.argv)

    def _run_coincidence(self, job):
        return families.coincidence_scan(job.data[0])

    # the oracle's part: outside the timed region

    def check(self, job, result):
        """(items, failure reason or None) for a finished job."""
        if job.kind == "verify":
            rc, out = result
            items = len(job.data) * len(oracles.FAMILIES)
            return items, oracles.check_verify(job.data, rc, out)
        if job.kind == "enum":
            rc, rows, why, traced = result
            if why is None:
                why = oracles.check_enum_graphs(*job.data, rc, rows)
            for row, report, cycles in traced:
                why = why or oracles.check_faces(row, report, cycles)
            return len(traced), why
        if job.kind == "mcg":
            pair, role, syl = job.data
            why, label = oracles.check_mcg(syl, *result)
            if role == 0:
                self.labels[pair] = label
            elif why is None and label != self.labels.get(pair):
                why = "rotated word has another conjugacy label"
            return 1, why
        return 1, oracles.check_coincidences(result)


def exponent_total(job):
    """Sum of |exponent| over a class_scan word; 0 for other jobs."""
    if job.kind != "mcg":
        return 0
    return sum(abs(e) for _, e in job.data[2])
