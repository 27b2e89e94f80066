"""Spans and counts around the public functions of lensknots.

Tracing is done from outside the package: every public function of the
traced modules is replaced, at each module binding that refers to it, by
a wrapper that records a span (name, start, end, parent span, job id).
Modules import with `from ... import`, so the same function is bound in
several modules (`surgery.smith_normal_form`, `families.h1`, `cli.h1`);
all bindings get the one wrapper.  The two per-slot scans of
`ArcSystemConfig` are counted without spans, since a span costs more than
they do.  A layer's self time is its span durations minus the time its
child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import resource
from array import array
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("cli", "families", "surgery", "snf", "mcg", "gridknots",
                  "lenspaces", "fatgraph")
COUNTED_METHODS = (("fatgraph", "ArcSystemConfig", "partner"),
                   ("fatgraph", "ArcSystemConfig", "slot_info"))


def _modules():
    return {m: importlib.import_module(f"lensknots.{m}") for m in TRACED_MODULES}


def _cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class Tracer:
    """Installs wrappers, aggregates per name and keeps the spans of pass 0.

    With cli_only, only `cli.run` is wrapped: in `verify --jobs` the library
    runs in worker processes, where spans could not be collected.
    """

    def __init__(self, cli_only=False):
        self.cli_only = cli_only
        self.names = []            # name of each span kind, by id
        self.calls = []            # completed calls, by name id
        self.self_s = []           # summed self time, by name id
        self.total_s = []          # summed duration, by name id
        self.counts = defaultdict(int)  # extra counters, by metric name
        self.active = defaultdict(int)  # open spans, by name
        self.stack = []            # open spans: [start, child time, index]
        self.job = -1
        self.job_meta = {}
        self.keep = False          # record individual spans
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_job = array("l")
        self._undo = []

    # --- installing -------------------------------------------------------

    def install(self):
        mods = _modules()
        if self.cli_only:
            targets = [("cli", "run")]
        else:
            targets = [(m, name) for m, mod in mods.items()
                       for name, obj in vars(mod).items()
                       if not name.startswith("_") and callable(obj)
                       and not isinstance(obj, type)
                       and getattr(obj, "__module__", None) == mod.__name__]
        done = set()
        for m, name in targets:
            original = getattr(mods[m], name)
            if id(original) in done:
                continue  # an alias of a function wrapped already
            wrapped = self._span(f"{m}.{name}", original)
            for other in mods.values():
                for attr, obj in list(vars(other).items()):
                    if obj is original:
                        self._set(other, attr, wrapped)
            done.add(id(wrapped))
        if self.cli_only:
            return
        words = mods["mcg"].MappingWord
        parse = vars(words)["parse"].__func__
        self._set(words, "parse", classmethod(self._span("mcg.MappingWord.parse", parse)))
        for m, cls_name, meth in COUNTED_METHODS:
            cls = getattr(mods[m], cls_name)
            self._set(cls, meth, self._counter(f"{m}.{cls_name}.{meth}",
                                               vars(cls)[meth]))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _span(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        enter, leave = self._hooks(name)
        stack, calls, active = self.stack, self.calls, self.active
        self_s, total_s = self.self_s, self.total_s

        def traced(*args, **kwargs):
            token = enter(args) if enter else None
            idx = -1
            if self.keep:
                idx = len(self.span_name)
                self.span_name.append(nid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][2] if stack else -1)
                self.span_job.append(self.job)
            frame = [0.0, 0.0, idx]
            stack.append(frame)
            active[name] += 1
            t0 = frame[0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] -= 1
                calls[nid] += 1
                self_s[nid] += (t1 - t0) - frame[1]
                total_s[nid] += t1 - t0
                if stack:
                    stack[-1][1] += t1 - t0
                if idx >= 0:
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
            if leave:
                leave(token, result)
            return result
        return traced

    def _hooks(self, name):
        """Counters measured where the work happens, as (enter, leave)."""
        c = self.counts
        if name == "cli.run":
            def enter(args):
                return _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)

            def leave(token, result):
                # children are counted once the pool has joined its workers
                c["cli.parent_cpu_s"] += _cpu(resource.RUSAGE_SELF) - token[0]
                c["cli.workers_cpu_s"] += _cpu(resource.RUSAGE_CHILDREN) - token[1]
            return enter, leave
        if name == "lenspaces.is_homeomorphic":
            def enter(args):
                if self.active["families.coincidence_scan"]:
                    c["families.coincidence_scan.homeo_tests"] += 1
            return enter, None
        if name == "mcg.conjugacy_invariant":
            def enter(args):
                c["mcg.conjugacy_invariant.exp_total"] += \
                    self.job_meta.get("exp_total", 0)
            return enter, None
        if name == "fatgraph.faces":
            def enter(args):
                c["fatgraph.slots_traced"] += args[0].num_slots
            return enter, None
        if name == "fatgraph.enumerate_configs":
            def leave(token, result):
                c["fatgraph.enumerate_configs.returned"] += len(result)
            return None, leave
        if name == "families.verify":
            def enter(args):
                fam = args[0].family.value
                c[f"families.verify.calls.{fam}"] += 1
                self.job_meta["family"] = fam
            return enter, None
        if name == "snf.smith_normal_form":
            def enter(args):
                if self.active["families.verify"]:
                    c[f"snf.calls.{self.job_meta['family']}"] += 1
            return enter, None
        return None, None

    # --- reading ----------------------------------------------------------

    def totals(self):
        """Calls and self time per span name, plus the extra counters."""
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
        return out

    def write_spans(self, path):
        """The kept spans as gzipped TSV: index, name, start, end, parent, job."""
        with gzip.open(path, "wt") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\t"
                         f"{self.span_parent[i]}\t{self.span_job[i]}\n")
