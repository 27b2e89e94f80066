"""Tests of the benchmark itself: oracles, seeding, tracing and the pool.

    python3 -m pytest perfbench -q
"""

import dataclasses
import gzip
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lensknots import fatgraph, surgery  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)


def small_job(workload, kind=None):
    """The cheapest job of pass 0 of seed 1 (of one kind, if given)."""
    jobs = [j for j in workloads.generate(workload, 1) if kind in (None, j.kind)]
    if workload == "arc_census":
        return next(j for j in jobs if j.data == (2, 6))
    return jobs[0]


def run_one(job):
    return workloads.Runner().execute(job)


# --- oracles -----------------------------------------------------------------

def test_oracles_accept_every_job_kind():
    for workload in WORKLOADS:
        kinds = {j.kind for j in workloads.generate(workload, 1)}
        for kind in kinds:
            _, items, why = run_one(small_job(workload, kind))
            assert why is None, (workload, kind, why)
            assert items >= 1


def corrupt_line(out, i):
    """Change the last digit on line i."""
    lines = out.splitlines()
    line = lines[i]
    pos = max(k for k, ch in enumerate(line) if ch.isdigit())
    lines[i] = line[:pos] + str((int(line[pos]) + 1) % 10) + line[pos + 1:]
    return "\n".join(lines) + "\n"


def test_verify_oracle_rejects_corruption():
    job = small_job("verify_seq")
    rc, out = workloads._cli(job.argv)
    ks = job.data
    assert oracles.check_verify(ks, rc, out) is None
    assert oracles.check_verify(ks, 1, out)
    assert oracles.check_verify(ks, rc, corrupt_line(out, 7))
    assert oracles.check_verify(ks, rc, corrupt_line(out, -1))
    lines = out.splitlines()
    assert oracles.check_verify(ks, rc, "\n".join(lines[1:]) + "\n")
    swapped = "\n".join([lines[1], lines[0]] + lines[2:]) + "\n"
    assert oracles.check_verify(ks, rc, swapped)


def test_enum_oracle_rejects_corruption():
    job = small_job("arc_census")
    t, m = job.data
    rc, out = workloads._cli(job.argv)
    rows, why = oracles.parse_enum_graphs(out)
    assert why is None and oracles.check_enum_graphs(t, m, rc, rows) is None
    lines = out.splitlines()
    assert oracles.parse_enum_graphs("\n".join(lines[1:]))[1]  # count too high
    assert oracles.parse_enum_graphs(corrupt_line(out, -1))[1]
    bad_rows, why = oracles.parse_enum_graphs(corrupt_line(out, 0))
    assert why or oracles.check_enum_graphs(t, m, rc, bad_rows)
    assert oracles.check_enum_graphs(t, m, rc, rows[1:])


def test_faces_oracle_rejects_corruption():
    cfg = next(c for c in fatgraph.enumerate_configs(2, 4)
               if fatgraph.scharlemann_cycles(c))
    row = (cfg.s, cfg.t, *cfg.counts)
    report = fatgraph.faces(cfg)
    cycles = fatgraph.scharlemann_cycles(cfg)
    assert oracles.check_faces(row, report, cycles) is None
    fewer = dataclasses.replace(report, regions=report.regions[1:])
    assert oracles.check_faces(row, fewer, cycles)
    shorter = dataclasses.replace(report, circles=report.circles[1:])
    assert oracles.check_faces(row, shorter, cycles)
    wrong_pair = dataclasses.replace(cycles[0], label_pair=frozenset({1, 3}))
    assert oracles.check_faces(row, report, (wrong_pair,))
    longer = dataclasses.replace(cycles[0], length=cycles[0].length + 1)
    assert oracles.check_faces(row, report, (longer,))


@pytest.mark.parametrize("syl", [(("x", 7), ("y", -3)), (("x", 4), ("y", 2)),
                                 (("y", -12),), (("x", 1), ("y", 1)), ()])
def test_mcg_oracle_rejects_corruption(syl):
    rc, out = workloads._cli(("mcg", "--word", workloads.word_text(syl)))
    why, label = oracles.check_mcg(syl, rc, out)
    assert why is None and label
    lines = out.splitlines()
    for key in ("matrix", "trace", "bundle H1"):
        idx = next(k for k, line in enumerate(lines) if line.startswith(key + ":"))
        if any(ch.isdigit() for ch in lines[idx]):
            assert oracles.check_mcg(syl, rc, corrupt_line(out, idx))[0], key
    assert oracles.check_mcg(syl, 2, out)[0]
    for a, b in (("pseudo-Anosov", "reducible"), ("periodic", "reducible"),
                 ("reducible", "periodic (order 2)")):
        if a in out:
            assert oracles.check_mcg(syl, rc, out.replace(a, b))[0]


def test_rotated_word_must_share_the_label():
    w = (("x", 3), ("y", -2), ("x", 1))
    jobs = [workloads.Job("mcg", ("mcg", "--word", workloads.word_text(s)), (0, role, s))
            for role, s in enumerate((w, w[1:] + w[:1]))]
    runner = workloads.Runner()
    assert runner.execute(jobs[0])[2] is None
    assert runner.execute(jobs[1])[2] is None
    runner.labels[0] = "RRL"
    assert runner.execute(jobs[1])[2] == "rotated word has another conjugacy label"


def test_coincidence_oracle():
    from lensknots.families import FamilyId, coincidence_scan
    found = coincidence_scan(3)
    assert oracles.check_coincidences(found) is None
    assert oracles.check_coincidences(found + [((FamilyId.I, 2), (FamilyId.II, 2))])
    assert oracles.check_coincidences([])


def test_corrupted_output_counts_as_failed(monkeypatch):
    passes = [workloads.warmup_jobs("verify_seq")]
    runner = workloads.Runner()
    good, _ = bench.run_passes(passes, runner, 0)
    assert good.failed == 0 and good.items > 0

    real = workloads._cli

    def corrupted(argv):
        rc, out = real(argv)
        return rc, corrupt_line(out, 0)
    monkeypatch.setattr(workloads, "_cli", corrupted)
    bad, _ = bench.run_passes(passes, runner, 0, min_passes=3)
    assert bad.attempted == 3 * len(passes[0])
    assert bad.failed == bad.attempted and bad.items == 0


def test_exception_counts_as_failed(monkeypatch):
    def boom(argv):
        raise RuntimeError("boom")
    monkeypatch.setattr(workloads, "_cli", boom)
    latency, items, why = run_one(small_job("class_scan", "mcg"))
    assert items == 0 and "boom" in why


# --- seeds -------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7, 3) == workloads.generate(workload, 7, 3)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 7, 1)


def test_words_and_rotations_are_paired():
    jobs = workloads.generate("class_scan", 3)
    words = [j for j in jobs if j.kind == "mcg"]
    for a, b in zip(words[::2], words[1::2]):
        assert a.data[0] == b.data[0] and (a.data[1], b.data[1]) == (0, 1)
        assert sorted(a.data[2]) == sorted(b.data[2])
    assert all(max(abs(e) for _, e in j.data[2]) <= workloads.CLASS_MAX_EXPONENT
               for j in words)


# --- the process pool --------------------------------------------------------

def test_verify_jobs_stdout_matches_sequential():
    job = workloads.generate("verify_jobs", 5)[0]
    assert "--jobs" in job.argv
    rc_pool, pooled = workloads._cli(job.argv)
    rc_seq, sequential = workloads._cli(job.argv[:job.argv.index("--jobs")])
    assert rc_pool == rc_seq == 0
    assert pooled == sequential


# --- tracing -----------------------------------------------------------------

def traced_totals(jobs, keep=False):
    tr = tracer.Tracer()
    tr.keep = keep
    runner = workloads.Runner()
    tr.install()
    try:
        for i, job in enumerate(jobs):
            tr.job = i
            tr.job_meta = {"exp_total": workloads.exponent_total(job)}
            assert runner.execute(job)[2] is None
    finally:
        tr.uninstall()
    return tr


def sample_jobs():
    verify = small_job("verify_seq")
    arc = small_job("arc_census")
    words = [j for j in workloads.generate("class_scan", 2) if j.kind == "mcg"][:4]
    scan = workloads.Job("coincidence", (), (5,))
    return [verify, arc, scan] + words


def test_trace_counts_repeat_exactly():
    jobs = sample_jobs()
    first, second = traced_totals(jobs), traced_totals(jobs)
    counts = {k: v for k, v in first.totals().items() if not k.endswith("_s")}
    again = {k: v for k, v in second.totals().items() if not k.endswith("_s")}
    assert counts == again
    assert counts["families.coincidence_scan.homeo_tests"] == 3 * 5 * 5
    assert counts["snf.calls.I"] == 5 * len(jobs[0].data)
    assert counts["fatgraph.ArcSystemConfig.partner"] > 0
    assert counts["mcg.conjugacy_invariant.exp_total"] == sum(
        workloads.exponent_total(j) for j in jobs)


def test_self_times_add_up_to_the_root_spans():
    tr = traced_totals(sample_jobs(), keep=True)
    t = tr.totals()
    self_total = sum(v for k, v in t.items() if k.endswith(".self_s"))
    roots = sum(e - s for s, e, p in zip(tr.span_start, tr.span_end, tr.span_parent)
                if p == -1)
    assert self_total == pytest.approx(roots, rel=1e-6)
    assert all(t[k] >= 0 for k in t if k.endswith(".self_s"))


def test_spans_kept_with_parents_and_jobs(tmp_path):
    tr = tracer.Tracer()
    runner = workloads.Runner()
    tr.install()
    tr.keep = True
    try:
        tr.job = 4
        runner.execute(small_job("verify_seq"))
    finally:
        tr.uninstall()
    names = [tr.names[i] for i in tr.span_name]
    assert names[0] == "cli.run" and tr.span_parent[0] == -1
    snf = names.index("snf.smith_normal_form")
    parent = tr.names[tr.span_name[tr.span_parent[snf]]]
    assert parent in ("surgery.h1", "surgery.core_order", "mcg.bundle_h1")
    assert set(tr.span_job) == {4}
    assert all(s <= e for s, e in zip(tr.span_start, tr.span_end))
    path = tmp_path / "spans.tsv.gz"
    tr.write_spans(path)
    with gzip.open(path, "rt") as fh:
        assert len(fh.read().splitlines()) == len(names) + 1


def test_uninstall_restores_the_package():
    before = (surgery.smith_normal_form, fatgraph.ArcSystemConfig.partner,
              fatgraph.faces)
    tr = tracer.Tracer()
    tr.install()
    assert surgery.smith_normal_form is not before[0]
    tr.uninstall()
    assert (surgery.smith_normal_form, fatgraph.ArcSystemConfig.partner,
            fatgraph.faces) == before


# --- the report --------------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    value, pct = bench.tail([i / 1000 for i in range(100)])
    assert value == 89 / 1000 and pct == 90.0
    assert bench.tail([0.5, 0.25]) == (0.5, 100.0)


def test_slot_is_timed_by_its_scaled_median_job():
    gauge = speed.Speedometer()
    gauge.probes = [speed.REF_S] * 8 + [2 * speed.REF_S] * 8
    stats = bench.Stats(gauge)
    # slot "a" ran once on the nominal machine and twice at half its speed
    for slot, mark, latency, items in (("a", 1, 0.3, 3), ("b", 1, 0.1, 1),
                                       ("a", 16, 0.4, 2), ("a", 16, 0.8, 4)):
        stats.add(slot, mark, latency, items, None)
    assert stats.slots() == {"a": (pytest.approx(0.3), 3), "b": (0.1, 1)}
    assert stats.slots(scaled=False) == {"a": (0.4, 3), "b": (0.1, 1)}
    assert stats.items_per_s() == pytest.approx(4 / 0.4)
    assert stats.attempted == 4 and stats.items == 10


def test_speed_probes_bracket_the_jobs():
    gauge = speed.Speedometer(every_s=0.05)
    marks = []
    for latency in (0.03, 0.03, 0.03, 0.01, 0.05):
        marks.append(gauge.before_job())
        gauge.after_job(latency)
    assert marks == [1, 1, 2, 2, 2] and len(gauge.probes) == 2
    assert gauge.local(2) == statistics.median(gauge.probes)
    assert gauge.scale(0.5, 2) == pytest.approx(0.5 * speed.REF_S / gauge.local(2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pass_has_the_same_slots(workload):
    slots = [sorted(map(repr, (j.slot for j in workloads.generate(workload, 4, p))))
             for p in range(3)]
    assert slots[0] == slots[1] == slots[2]
    assert len(set(slots[0])) == len(slots[0]) >= 16


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == dict(bench.END_TO_END)
    layers = bench.layer_metrics({}, 1, 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_command_prints_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        res = run_bench(ROOT, "--workload", "class_scan", "--seed", "3",
                        "--seconds", "0.2", "--trace", trace)
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout.splitlines()[-1])
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
        assert set(out["metrics"]) == {m["name"] for m in spec[key]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run_bench(tmp_path, "--workload", "verify_seq", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert "{" not in res.stdout
