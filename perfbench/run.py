"""Seeded benchmark for lensknots.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  The workload's inputs are made from the seed before timing starts.
Whole passes of jobs then run in a closed loop with one client until the
program has been busy for S seconds, and every output is checked by the
oracles in `oracles.py`.  Human-readable lines come first; the last line
of stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.

Times are scaled to a nominal machine by a reference loop timed between
the jobs (see `speed.py`), because the host's speed drifts by up to 1.8
times over minutes.  Every pass has the same slots (see `workloads.py`),
each filled with another input of about the same size, and a slot is
timed by the median of its scaled latencies over the passes of the run.
The raw, unscaled figures are printed beside the metrics.

--trace 0 times the end-to-end metrics with tracing off.  --trace 1 runs
pass 0 repeatedly, first untraced and then with every public function of
the package wrapped (see `tracer.py`), and reports per-layer metrics per
pass, so their counts repeat exactly for one seed.  The spans of the first
traced pass are written to `perfbench/out/`.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402  (setup time counts from the first line)
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

PASSES = 16          # distinct passes made per run; longer runs cycle them
MIN_PASSES = 3       # so each slot's median is over at least three jobs
SETUP_PROBES = 11    # fresh processes timed for setup_s

END_TO_END = (
    ("items_per_s", "items/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def import_program():
    """Import lensknots from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lensknots
    except ImportError as exc:
        sys.exit(f"error: cannot import lensknots from {src}: {exc}")
    if Path(lensknots.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"error: lensknots imported from {lensknots.__file__}, not {src}")


def set_up(workload, seed, trace):
    """Inputs and a warmed-up runner: everything before timing starts."""
    import workloads
    from lensknots import families

    n = 1 if trace else PASSES
    passes = [workloads.generate(workload, seed, p) for p in range(n)]
    runner = workloads.Runner()
    families.filling_table()
    for job in workloads.warmup_jobs(workload):
        _, _, why = runner.execute(job)
        if why is not None:
            sys.exit(f"error: warm-up job {job.argv or job.data} failed: {why}")
    return passes, runner


class Stats:
    def __init__(self, speedometer=None):
        self.speed = speedometer or speed.Speedometer()
        self.samples = defaultdict(list)  # slot -> [(latency, items, mark)]
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.program_s = 0.0
        self.reasons = []

    def add(self, slot, mark, latency, items, why):
        """A finished job; mark is where it ran among the speed probes."""
        self.speed.after_job(latency)
        self.attempted += 1
        self.program_s += latency
        if why is None:
            self.items += items
        else:
            self.failed += 1
            items = 0
            if len(self.reasons) < 5:
                self.reasons.append(why)
        self.samples[slot].append((latency, items, mark))

    def slots(self, scaled=True):
        """slot -> (median latency, median items) over its jobs."""
        def latency(lat, mark):
            return self.speed.scale(lat, mark) if scaled else lat
        return {slot: (statistics.median(latency(lat, mark) for lat, _, mark in xs),
                       statistics.median(n for _, n, _ in xs))
                for slot, xs in self.samples.items()}

    def latencies(self, scaled=True):
        """The median latency of each slot."""
        return [lat for lat, _ in self.slots(scaled).values()]

    def items_per_s(self, scaled=True):
        """The slots' median items over their summed median latency."""
        slots = self.slots(scaled).values()
        return sum(n for _, n in slots) / sum(lat for lat, _ in slots)


def run_passes(passes, runner, budget_s, on_pass=None, min_passes=1):
    """Whole passes, cycling through `passes`, until the program was busy
    for budget_s and min_passes have run; returns (stats, passes run)."""
    stats = Stats()
    p = 0
    while p < min_passes or stats.program_s < budget_s:
        if on_pass is not None:
            on_pass(p)
        for job in passes[p % len(passes)]:
            mark = stats.speed.before_job()
            stats.add(job.slot or job, mark, *runner.execute(job))
        p += 1
    return stats, p


def tail(latencies):
    """(value, percentile): the highest percentile with 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:  # too few samples for any percentile: the largest
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def probe_setup(workload, seed):
    """Median of fresh-process setup times (import, inputs, warm-up), each
    scaled by reference probes taken just before it; and the raw median."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        local = statistics.median(speed.probe() for _ in range(2 * speed.WINDOW))
        res = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        raw.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
        scaled.append(raw[-1] * speed.REF_S / local)
    return statistics.median(scaled), statistics.median(raw)


def timed(workload, seed, seconds):
    passes, runner = set_up(workload, seed, trace=False)
    stats, n_passes = run_passes(passes, runner, seconds, min_passes=MIN_PASSES)
    rss = maxrss_mb(resource.RUSAGE_SELF)
    rss_children = maxrss_mb(resource.RUSAGE_CHILDREN)
    setup_s, raw_setup_s = probe_setup(workload, seed)

    def timings(scaled):
        latencies = stats.latencies(scaled)
        return (stats.items_per_s(scaled), statistics.median(latencies) * 1000,
                tail(latencies)[0] * 1000)

    metrics = dict(zip(("items_per_s", "job_p50_ms", "job_tail_ms"), timings(True)))
    metrics.update(peak_rss_mb=rss, setup_s=setup_s)
    raw = dict(zip(("items_per_s", "job_p50_ms", "job_tail_ms"), timings(False)))
    raw["setup_s"] = raw_setup_s
    pct = tail(stats.latencies())[1]
    n_slots = len(stats.samples)
    lines = [f"{n_passes} passes, {stats.attempted} jobs, "
             f"{stats.program_s:.2f} s in the program; {n_slots} slots, each "
             f"timed by its median job; {len(stats.speed.probes)} speed probes, "
             f"median {stats.speed.median() * 1000:.4f} ms "
             f"(nominal {speed.REF_S * 1000:.4f} ms)"]
    notes = {"job_tail_ms": f"(p{pct:.2f}, n={n_slots} slots, 10 beyond)"}
    if workload == "verify_jobs":
        notes["peak_rss_mb"] = f"(workers, RUSAGE_CHILDREN: {rss_children:.1f} MB)"
    for name, value in raw.items():
        notes[name] = f"(unscaled {value:.4f}) " + notes.get(name, "")
    for name, unit in END_TO_END:
        lines.append(f"{name:24s} {metrics[name]:14.4f} {unit} {notes.get(name, '')}")
    lines.append(f"{'fail_frac':24s} {stats.failed / stats.attempted:14.4f} ratio "
                 f"({stats.failed}/{stats.attempted})")
    return stats, {k: (metrics[k], u) for k, u in END_TO_END}, lines


# --- the traced run ----------------------------------------------------------

def layer_metrics(t, n, workers, overhead, time_scale=1.0):
    """Per-layer metrics from tracer totals over n identical passes; times
    are multiplied by time_scale, the nominal over the measured speed."""
    def per(key):
        return t.get(key, 0) / n

    out = {}

    def span(name, *what):
        for w in what:
            if w == "calls":
                out[f"{name}.calls"] = (per(f"{name}.calls"), "count/pass")
            else:
                out[f"{name}.self_ms"] = (per(f"{name}.self_s") * 1000 * time_scale,
                                          "ms/pass")

    def ratio(a, b):
        return a / b if b else 0.0

    span("snf.smith_normal_form", "calls", "self_ms")
    out["snf.calls_per_instance"] = (
        ratio(t.get("snf.smith_normal_form.calls", 0), t.get("families.verify.calls", 0)),
        "count/item")
    span("surgery.h1", "calls", "self_ms")
    span("surgery.core_order", "calls", "self_ms")
    span("families.instantiate", "calls", "self_ms")
    span("families.verify", "calls", "self_ms")
    span("gridknots.find_torus_grid_witness", "calls", "self_ms")
    span("gridknots.grid1_order", "calls")
    span("lenspaces.normalize", "calls", "self_ms")
    span("lenspaces.is_homeomorphic", "calls", "self_ms")
    span("families.coincidence_scan", "calls", "self_ms")
    out["families.coincidence_scan.homeo_tests"] = (
        per("families.coincidence_scan.homeo_tests"), "count/pass")
    span("mcg.conjugacy_invariant", "calls", "self_ms")
    out["mcg.conjugacy_invariant.exp_total"] = (
        per("mcg.conjugacy_invariant.exp_total"), "count/pass")
    span("mcg.MappingWord.parse", "calls", "self_ms")
    span("mcg.classify", "calls", "self_ms")
    span("mcg.bundle_h1", "calls", "self_ms")
    span("fatgraph.enumerate_configs", "calls", "self_ms")
    span("fatgraph.parity_check", "calls")
    out["fatgraph.admissible_ratio"] = (
        ratio(t.get("fatgraph.enumerate_configs.returned", 0),
              t.get("fatgraph.parity_check.calls", 0)), "ratio")
    span("fatgraph.faces", "calls", "self_ms")
    out["fatgraph.slots_traced"] = (per("fatgraph.slots_traced"), "count/pass")
    span("fatgraph.scharlemann_cycles", "calls", "self_ms")
    out["fatgraph.ArcSystemConfig.partner.calls"] = (
        per("fatgraph.ArcSystemConfig.partner"), "count/pass")
    out["fatgraph.ArcSystemConfig.slot_info.calls"] = (
        per("fatgraph.ArcSystemConfig.slot_info"), "count/pass")
    span("cli.run", "calls", "self_ms")
    out["cli.parent_cpu_s"] = (per("cli.parent_cpu_s") * time_scale, "s/pass")
    out["cli.workers_cpu_s"] = (per("cli.workers_cpu_s") * time_scale, "s/pass")
    out["cli.worker_util"] = (
        ratio(t.get("cli.workers_cpu_s", 0), t.get("cli.run.total_s", 0) * workers),
        "ratio")
    out["cli.workers_peak_rss_mb"] = (maxrss_mb(resource.RUSAGE_CHILDREN), "MB")
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def traced(workload, seed, seconds):
    import tracer as tracing
    import workloads

    passes, runner = set_up(workload, seed, trace=True)
    plain, _ = run_passes(passes, runner, seconds / 2, min_passes=MIN_PASSES)

    tr = tracing.Tracer(cli_only=(workload == "verify_jobs"))
    job_ids = itertools.count()

    def on_job(job):
        tr.job = next(job_ids)
        tr.job_meta = {"exp_total": workloads.exponent_total(job)}

    def on_pass(p):
        tr.keep = p == 0

    runner.on_job = on_job
    tr.install()
    try:
        stats, n_passes = run_passes(passes, runner, seconds / 2, on_pass,
                                     MIN_PASSES)
    finally:
        tr.uninstall()
        runner.on_job = None
    # with every job failing there is no rate to compare
    overhead = 1 - stats.items_per_s() / plain.items_per_s() if plain.items else 0.0
    workers = workloads.nproc() if workload == "verify_jobs" else 1
    t = tr.totals()
    # the traced passes' own probes set the scale of their self times
    metrics = layer_metrics(t, n_passes, workers, overhead,
                            speed.REF_S / stats.speed.median())

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.tsv.gz"
    tr.write_spans(spans_path)

    lines = [f"pass 0: {len(passes[0])} jobs",
             f"untraced {plain.items_per_s():.1f} items/s; traced {n_passes} passes "
             f"at {stats.items_per_s():.1f} items/s; spans of pass 0 in "
             f"{spans_path.relative_to(ROOT)}"]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:44s} {value:16.4f} {unit}")
    fams = [f for f in ("I", "II", "III", "IV", "V")
            if t.get(f"families.verify.calls.{f}")]
    if fams:
        per_fam = ", ".join(
            f"{f} {t.get(f'snf.calls.{f}', 0) / t[f'families.verify.calls.{f}']:.3f}"
            for f in fams)
        lines.append(f"snf calls per instance by family: {per_fam}")
    combined = Stats()
    for s in (plain, stats):
        combined.attempted += s.attempted
        combined.failed += s.failed
        combined.reasons += s.reasons
    return combined, metrics, lines


# --- entry point -------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time one set-up in this fresh process")
    args = p.parse_args(argv)
    import_program()
    import workloads
    if args.workload not in workloads.GENERATORS:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.GENERATORS)}")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        set_up(args.workload, args.seed, trace=False)
        print(json.dumps({"setup_s": perf_counter() - T_START}))
        return 0
    run = traced if args.trace else timed
    stats, metrics, lines = run(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for why in stats.reasons:
        print(f"failed: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
