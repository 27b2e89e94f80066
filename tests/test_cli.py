import argparse
import collections
import concurrent.futures
import json
import subprocess
import sys
import time
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from lensknots import cli, families, fatgraph, gridknots, lenspaces, mcg, surgery
from lensknots.cli import run
from lensknots.families import instantiate
from lensknots.lenspaces import LensSpace
from lensknots.surgery import AbelianGroup, FramedLink, link_to_obj, unknot, whitehead

from conftest import child_env


def link_json(link):
    return json.dumps(link_to_obj(link), indent=2, sort_keys=True)


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_family_plain(capsys):
    assert run(["family", "--id", "V", "--k", "-1"]) == 0
    out, _ = out_of(capsys)
    assert "space: L(10,3)" in out
    assert "s=2" in out
    assert "monodromy x^5 y" in out
    assert "pseudo-Anosov" in out
    assert "surgery: whitehead(-2, -5), core component 0" in out


def test_family_vi_plain(capsys):
    assert run(["family", "--id", "VI", "--r", "7", "--q", "2"]) == 0
    out, _ = out_of(capsys)
    assert "space: L(7,2)" in out
    assert "fibered: no" in out
    assert "grid index: 1" in out


def test_family_json_round_trip(capsys):
    assert run(["family", "--id", "III", "--k", "-2", "--json"]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out) == instantiate("III", -2).to_dict()


# family flags, and the k and rq instantiate gets from them
FAMILY_MISUSE = [
    (["--id", "VI", "--k", "3"], 3, None),
    (["--id", "VI", "--r", "7"], None, (7, None)),
    (["--id", "VI", "--q", "2"], None, (None, 2)),
    (["--id", "I"], None, None),
    (["--id", "III"], None, None),
    (["--id", "I", "--k", "1", "--r", "5"], 1, (5, None)),
    (["--id", "I", "--k", "1", "--q", "3"], 1, (None, 3)),
    (["--id", "VI", "--r", "4", "--q", "2"], None, (4, 2)),
]


@pytest.mark.parametrize("flags, k, rq", FAMILY_MISUSE,
                         ids=[" ".join(flags) for flags, _, _ in FAMILY_MISUSE])
def test_family_misuse_reports_instantiate_error(capsys, flags, k, rq):
    """`family` has no rule of its own: a bad flag set gets the error that
    instantiate raises for the same k and rq."""
    with pytest.raises(ValueError) as raised:
        instantiate(flags[1], k=k, rq=rq)
    assert run(["family", *flags]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == f"error: {raised.value}\n"


def test_verify_small_range(capsys):
    assert run(["verify", "--families", "I,II", "--k-range", "-2..2"]) == 0
    out, _ = out_of(capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 2 families x 4 nonzero k, plus the tally
    assert all(line.startswith("ok ") for line in lines[:-1])
    assert lines[-1] == "checked 8 instances: all ok"


def test_verify_jobs_byte_identical(capsys):
    assert run(["verify", "--families", "all", "--k-range", "1..3"]) == 0
    solo, _ = out_of(capsys)
    assert run(["verify", "--families", "all", "--k-range", "1..3",
                "--jobs", "2"]) == 0
    pooled, _ = out_of(capsys)
    assert solo == pooled


class ReadFuture(Future):
    """A future that records whether its result was read."""
    read = False

    def result(self, timeout=None):
        self.read = True
        return super().result(timeout)


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replace the process pool by one that runs each task in this process
    as it is submitted, on two usable CPUs.  Records each pool's size and
    the most submitted tasks whose results were not yet read."""
    record = SimpleNamespace(sizes=[], peak_in_flight=0)
    futures = []

    class InProcessPool:
        def __init__(self, max_workers):
            record.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = ReadFuture()
            future.set_result(fn(*args))
            futures.append(future)
            in_flight = sum(not f.read for f in futures)
            record.peak_in_flight = max(record.peak_in_flight, in_flight)
            return future

    # `_cmd_verify` imports the pool class when it forks, so the class is
    # replaced where that import reads it
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return record


@pytest.fixture
def fake_pool(monkeypatch, in_process_pool):
    """The in-process pool, with a worker worth forking for one instance,
    so that ranges of a few instances still exercise the pool."""
    monkeypatch.setattr(cli, "_WORKER_MIN", 1)
    return in_process_pool


@pytest.mark.parametrize("fams, krange, pools", [
    ("all", "1..50", []),  # the widest window of the verify_jobs benchmark
    ("I", f"1..{2 * cli._WORKER_MIN - 1}", []),
    ("I", f"1..{2 * cli._WORKER_MIN}", [2]),
])
def test_verify_pool_only_where_it_pays(capsys, in_process_pool, fams, krange,
                                        pools):
    """Below two workers' worth of instances `--jobs 2` runs in-process."""
    argv = ["verify", "--families", fams, "--k-range", krange]
    assert run(argv) == 0
    solo, _ = out_of(capsys)
    assert run(argv + ["--jobs", "2"]) == 0
    pooled, _ = out_of(capsys)
    assert pooled == solo
    assert in_process_pool.sizes == pools


def test_verify_real_pool_matches_sequential(monkeypatch, capsys):
    """Just over two workers' worth of instances forks a real pool of two,
    whose report is byte-identical to the sequential one."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    width = 2 * cli._WORKER_MIN // 5 + 1  # five families
    argv = ["verify", "--families", "all", "--k-range", f"-3..{width - 3}"]
    assert run(argv) == 0
    solo, _ = out_of(capsys)
    assert run(argv + ["--jobs", "2"]) == 0
    pooled, _ = out_of(capsys)
    assert pooled == solo
    assert solo.endswith(f"checked {5 * width} instances: all ok\n")
    assert sizes == [2]


def test_cli_loads_no_pool_modules_unless_it_forks():
    """A fresh process that imports the CLI and runs a verify too small to
    fork, and an mcg query, never loads the process pool's modules."""
    code = "\n".join([
        "import contextlib, io, sys",
        "from lensknots.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [run(['verify', '--families', 'all', '--k-range', '1..50',"
        " '--jobs', '2']), run(['mcg', '--word', 'x^2 y^-1'])]",
        "print(codes, [m for m in ('multiprocessing', 'concurrent.futures.process')"
        " if m in sys.modules])",
    ])
    proc = python_O("-c", code)
    assert proc.stdout == "[0, 0] []\n", proc.stderr


@pytest.mark.parametrize("jobs, cpus, workers", [
    (64, 8, 5),   # capped by the 5 tasks
    (3, 8, 3),    # as asked
    (64, 2, 2),   # capped by the CPUs
    (64, None, 1),  # unknown CPU count: no pool
])
def test_verify_pool_capped(monkeypatch, capsys, fake_pool, jobs, cpus, workers):
    """The pool starts at most min(jobs, tasks, usable CPUs) workers; here
    on a platform without affinity masks, where os.cpu_count() decides."""
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    argv = ["verify", "--families", "I", "--k-range", "-3..2"]  # 5 tasks
    assert run(argv) == 0
    solo, _ = out_of(capsys)
    assert run(argv + ["--jobs", str(jobs)]) == 0
    pooled, _ = out_of(capsys)
    assert pooled == solo
    assert fake_pool.sizes == ([workers] if workers > 1 else [])


def test_usable_cpus_follows_affinity(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert cli._usable_cpus() == 1  # as under `taskset -c 0`


@pytest.mark.parametrize("fams, krange, count", [
    ("I", "-3..4", 7),            # straddles 0
    ("II", "0..5", 5),            # starts at 0
    ("III", "-6..0", 6),          # ends at 0
    ("IV", "7..7", 1),            # width 1
    ("V", "-1..-1", 1),           # width 1, negative
    ("I,III,V", "-9..9", 54),     # several families
    ("all", "0..1", 5),           # one k in each family
    ("all", "-150..150", 1500),   # spans at the size cap, more than in flight
])
def test_verify_pooled_matches_sequential(capsys, fake_pool, fams, krange, count):
    argv = ["verify", "--families", fams, "--k-range", krange]
    assert run(argv) == 0
    solo, _ = out_of(capsys)
    assert run(argv + ["--jobs", "2"]) == 0
    pooled, _ = out_of(capsys)
    assert pooled == solo
    assert solo.endswith(f"checked {count} instances: all ok\n")
    assert solo.count("\n") == count + 1
    assert fake_pool.sizes == ([2] if count > 1 else [])
    assert fake_pool.peak_in_flight <= 4  # two spans per worker


def _line_of(fn, offset=1):
    """`file:line` of the line `offset` lines below the def of fn."""
    return f"test_cli.py:{fn.__code__.co_firstlineno + offset}"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_one_failure(monkeypatch, capsys, fake_pool, jobs):
    real = families._run_checks

    def run_or_divide(inst):
        if inst.k == 2:
            return 1 // 0
        return real(inst)

    monkeypatch.setattr(families, "_run_checks", run_or_divide)
    assert run(["verify", "--families", "I,II", "--k-range", "1..3",
                "--jobs", jobs]) == 1
    out, _ = out_of(capsys)
    fails = [line for line in out.splitlines() if not line.startswith("ok ")]
    assert fails == [
        "FAIL I k=2: exception: ZeroDivisionError('integer division or modulo"
        f" by zero') in run_or_divide ({_line_of(run_or_divide, 2)})",
        "FAIL II k=2: exception: ZeroDivisionError('integer division or modulo"
        f" by zero') in run_or_divide ({_line_of(run_or_divide, 2)})",
        "checked 6 instances: 2 failed",
    ]
    assert fake_pool.sizes == ([2] if jobs == "2" else [])


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_check_exception_detail(monkeypatch, capsys, fake_pool, jobs):
    """A check that raises fails alone, naming where the exception came from."""
    real = families._check_grid

    def broken_grid(inst):
        if inst.k == -1:
            raise KeyError("grid")
        return real(inst)

    monkeypatch.setattr(families, "_check_grid", broken_grid)
    assert run(["verify", "--families", "III", "--k-range", "-2..1",
                "--jobs", jobs]) == 1
    out, _ = out_of(capsys)
    assert out.splitlines()[1] == (
        "FAIL III k=-1: grid: exception: KeyError('grid') in broken_grid"
        f" ({_line_of(broken_grid, 2)})")
    assert out.endswith("checked 3 instances: 1 failed\n")


def verify_lines(fams, ks):
    """What `verify` of the CLI prints for these instances, written from
    the reports of families.verify."""
    lines = []
    for fam in fams:
        for k in ks:
            inst = instantiate(fam, k)
            report = families.verify(inst)
            bad = [f"{c.name}: {c.detail}" for c in report.checks if not c.passed]
            lines.append(f"FAIL {report.label}: {'; '.join(bad)}" if bad
                         else f"ok {report.label}: {inst.space}")
    return lines


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("how", ["false", "raise"])
@pytest.mark.parametrize("name", families._CHECK_NAMES)
def test_verify_fail_line_is_the_report(monkeypatch, capsys, fake_pool, name,
                                        how, jobs):
    """A check that fails at one k, by its verdict or by raising, gives the
    FAIL line that the instance's own report renders: the CLI builds that
    report, and only for a failing instance."""
    real = getattr(families, f"_check_{name}")

    def fails_at_2(inst):
        verdict, *rest = real(inst)
        if inst.k == 2:
            if how == "raise":
                raise RuntimeError(name)
            verdict = False
        return (verdict, *rest)

    monkeypatch.setattr(families, f"_check_{name}", fails_at_2)
    assert run(["verify", "--families", "I,IV", "--k-range", "1..3",
                "--jobs", jobs]) == 1
    out, err = out_of(capsys)
    want = verify_lines(("I", "IV"), (1, 2, 3))
    assert [line.startswith("FAIL ") for line in want] == [False, True, False] * 2
    assert out.splitlines() == want + ["checked 6 instances: 2 failed"]
    assert err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("value", [0, 1, None])
@pytest.mark.parametrize("shape", ["verdict", "bare"])
def test_verify_judges_odd_outcomes_as_the_report(monkeypatch, capsys, fake_pool,
                                                  shape, value, jobs):
    """A check whose verdict is 0, 1 or None is judged by its truth, as
    report.ok judges it.  A check that returns one of them bare, with no
    detail, makes verify raise; the CLI prints that instance as one FAIL
    line naming the same exception, and no traceback."""
    real = families._check_grid

    def odd_at_2(inst):
        if inst.k != 2:
            return real(inst)
        return value if shape == "bare" else (value, "grid read {}", value)

    monkeypatch.setattr(families, "_check_grid", odd_at_2)
    code = run(["verify", "--families", "I", "--k-range", "1..3", "--jobs", jobs])
    out, err = out_of(capsys)
    assert err == ""
    lines = out.splitlines()
    if shape == "bare":
        with pytest.raises(TypeError) as raised:
            families.verify(instantiate("I", 2))
        assert code == 1
        assert lines.pop(1).startswith(f"FAIL I k=2: exception: {raised.value!r} in ")
        assert lines == verify_lines(("I",), (1, 3)) + ["checked 3 instances: 1 failed"]
    else:
        ok = families.verify(instantiate("I", 2)).ok
        assert ok is bool(value)
        assert code == (0 if ok else 1)
        assert lines == verify_lines(("I",), (1, 2, 3)) + [
            f"checked 3 instances: {'all ok' if ok else '1 failed'}"]
        assert lines[1] == ("ok I k=2: L(11,3)" if ok else
                            f"FAIL I k=2: grid: grid read {value}")


def test_passing_verify_renders_no_detail(monkeypatch, capsys):
    """A passing line prints the space and nothing of what the checks
    compared: the ok line renders the space once, the CLI's
    families._verify_line renders only the label, and _cmd_verify renders
    each family's two range ends.  families.verify, which builds a report,
    renders all six details; the reports still compare by value."""
    argv = ["verify", "--families", "all", "--k-range", "-20..20"]
    assert run(argv) == 0  # warm
    calls = collections.Counter()
    for cls in (AbelianGroup, LensSpace):
        def counted(self, render=cls.__str__, name=cls.__name__):
            calls[name] += 1
            return render(self)
        monkeypatch.setattr(cls, "__str__", counted)
    assert run(argv) == 0
    assert out_of(capsys)[0].endswith("checked 200 instances: all ok\n")
    assert calls == {"LensSpace": 200 + 2 * 5}
    for fam in ("I", "II", "III", "IV", "V"):
        for k in range(-20, 21):
            if k:
                inst = instantiate(fam, k)
                assert families.verify(inst) == families.verify(inst), (fam, k)


def test_verify_usage_errors(capsys):
    assert run(["verify", "--families", "IX", "--k-range", "1..2"]) == 2
    assert run(["verify", "--k-range", "whatever"]) == 2
    assert run(["verify", "--k-range", "0..0"]) == 2
    assert run(["verify", "--k-range", "1..2", "--jobs", "0"]) == 2
    assert run(["verify", "--families", "I,I", "--k-range", "1..2"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.count("error:") == 5


@pytest.mark.parametrize("flag", ["--k-range", "--k-ran", "--k"])
def test_negative_range_after_abbreviated_flag(capsys, flag):
    """argparse takes any unambiguous prefix of --k-range; a value that
    starts with a negative number is joined to each of them."""
    assert run(["verify", "--families", "I", "--k-range=-2..2"]) == 0
    want, _ = out_of(capsys)
    assert run(["verify", "--families", "I", flag, "-2..2"]) == 0
    out, err = out_of(capsys)
    assert out == want and want.endswith("checked 4 instances: all ok\n")
    assert err == ""


def test_negative_k_is_not_joined(capsys):
    assert cli._glue_range_values(["family", "--id", "I", "--k", "-3"]) == [
        "family", "--id", "I", "--k", "-3"]
    assert run(["family", "--id", "I", "--k", "-3"]) == 0
    out, _ = out_of(capsys)
    assert out == cli._render_instance(instantiate("I", -3)) + "\n"


def test_verify_reversed_range(capsys):
    assert run(["verify", "--k-range", "5..1"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: empty k-range '5..1'\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_wide_range_streams_under_memory_limit(jobs):
    """Six million k per family stream in bounded memory, with one process
    and with two: the child, limited to 400 MB of address space, prints
    its first lines and, when the pipe is closed, exits 141 (128 + SIGPIPE)
    with nothing on stderr."""
    resource = pytest.importorskip("resource")
    limit = 400 * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.Popen(
        [sys.executable, "-m", "lensknots", "verify", "--k-range",
         "-3000000..3000000", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        preexec_fn=cap)
    try:
        head = [proc.stdout.readline() for _ in range(3)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert [line.split(":")[0] for line in head] == [
        "ok I k=-3000000", "ok I k=-2999999", "ok I k=-2999998"]
    assert proc.returncode == 141
    assert err == ""


def test_homology_closed(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(link_json(whitehead("-3", "-4")))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "H1 = Z/12" in out
    assert "core order of component 0: 3" in out
    assert "core order of component 1: 4" in out


def test_homology_unfilled_and_infinite(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(link_json(whitehead("-3", None)))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "core orders: undefined, components 1 are unfilled" in out

    path.write_text(link_json(unknot("0")))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "H1 = Z" in out
    assert "core order of component 0: infinite" in out


def test_homology_singular_three_components(tmp_path, capsys):
    """A singular H1 on three columns: the general Smith path gives two
    infinite cores and one finite one."""
    path = tmp_path / "singular.json"
    path.write_text(link_json(FramedLink.make(
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]], ["1", "1", "3"])))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert out == ("H1 = Z + Z/3\n"
                   "core order of component 0: infinite\n"
                   "core order of component 1: infinite\n"
                   "core order of component 2: 3\n")


def test_homology_reduces_h1_once(monkeypatch, tmp_path, capsys):
    """A closed three-component link runs n + 1 = 4 Smith forms: H1's,
    which `h1` and the three `core_order` calls share through the memo of
    the last link reduced, and one core quotient per component.  The
    printed lines are those of the earlier five-form route."""
    calls = []
    snf = surgery.smith_normal_form
    monkeypatch.setattr(surgery, "smith_normal_form",
                        lambda rows: calls.append(len(rows)) or snf(rows))
    path = tmp_path / "three.json"
    path.write_text(link_json(FramedLink.make(
        [[0, 2, 0], [2, 0, 3], [0, 3, 0]], ["4", "2", "-6"])))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert out == ("H1 = Z/60\n"
                   "core order of component 0: 20\n"
                   "core order of component 1: 5\n"
                   "core order of component 2: 30\n")
    assert calls == [3, 3, 3, 3]


def test_homology_malformed_slope(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema_version": 1, "linking": [[0]], "coefficients": ["1/2/3"]}')
    assert run(["homology", "--link", str(path)]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: not a slope: '1/2/3'\n"


def test_homology_file_errors(tmp_path, capsys):
    assert run(["homology", "--link", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 99}')
    assert run(["homology", "--link", str(bad)]) == 2
    _, err = out_of(capsys)
    assert err.count("error:") == 2


MALFORMED_LINKS = {
    "asymmetric": '{"schema_version": 1, "linking": [[0, 1], [2, 0]], "coefficients": ["1", "1"]}',
    "list": '[{"schema_version": 1}]',
    "no-coefficients": '{"schema_version": 1, "linking": [[0]]}',
    "null-linking-entry": '{"schema_version": 1, "linking": [[0, null], [null, 0]], "coefficients": ["1", "1"]}',
    "null-coefficient": '{"schema_version": 1, "linking": [[0]], "coefficients": [null]}',
    "numeric-coefficient": '{"schema_version": 1, "linking": [[0]], "coefficients": [3]}',
    "flat-linking": '{"schema_version": 1, "linking": [0], "coefficients": ["1"]}',
    "string-coefficients": '{"schema_version": 1, "linking": [[0]], "coefficients": "3"}',
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "list-name": '{"schema_version": 1, "linking": [[0]], "coefficients": ["1"], "name": [1]}',
    "too-few-coefficients": '{"schema_version": 1, "linking": [[0, 0], [0, 0]], "coefficients": ["1"]}',
}


@pytest.mark.parametrize("text", MALFORMED_LINKS.values(), ids=MALFORMED_LINKS.keys())
def test_homology_malformed_link(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run(["homology", "--link", str(path)]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def python_O(*args):
    """Run python -O (asserts stripped) with the package on the path."""
    return subprocess.run([sys.executable, "-O", *args], capture_output=True,
                          text=True, env=child_env(), timeout=60)


@pytest.mark.parametrize("case", [
    "enum-graphs --t 3 --max-parallel 2",
    "enum-graphs --t 2 --max-parallel 0",
])
def test_bad_enum_graphs_input_exits_2(capsys, case):
    """Input validation must not rest on assert, which python -O strips.
    src/ holds no assert (tests/test_no_assert.py), so this plain run shows
    the -O one; test_homology_malformed_link does the same for link files."""
    assert run(case.split()) == 2
    out, err = out_of(capsys)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


LIBRARY_VALIDATIONS = {
    "non-pair-rq": lambda: families.instantiate("VI", rq=7),
    "gof_filling-VI": lambda: families.gof_filling("VI"),
    "family_space-VI": lambda: families.family_space("VI", 3),
    "family_space-zero-k": lambda: families.family_space("I", 0),
    "family_space-bool-k": lambda: families.family_space("I", True),
    "family_space-float-k": lambda: families.family_space("I", 2.5),
    "coincidence_scan": lambda: families.coincidence_scan(0),
    "bool-coincidence_scan": lambda: families.coincidence_scan(True),
    "float-coincidence_scan": lambda: families.coincidence_scan(2.5),
    "torus_knot_sequence": lambda: gridknots.torus_knot_sequence(0, 1, 1, 1),
    "bool-torus_knot_sequence": lambda: gridknots.torus_knot_sequence(5, 2, True, 2),
    "float-torus_knot_sequence": lambda: gridknots.torus_knot_sequence(5.0, 2, 1, 2),
    "bool-find_torus_grid_witness":
        lambda: gridknots.find_torus_grid_witness(7, True, 1, 2),
    "float-find_torus_grid_witness":
        lambda: gridknots.find_torus_grid_witness(7, 2, 1, 2.0),
    "bool-core_order": lambda: surgery.core_order(whitehead("1", "2"), True),
    "float-core_order": lambda: surgery.core_order(whitehead("1", "2"), 1.0),
    "bool-blow_down": lambda: surgery.blow_down(whitehead("2", "1"), True),
    "negative-core_order": lambda: surgery.core_order(whitehead("1", "2"), -1),
    "out-of-range-core_order": lambda: surgery.core_order(whitehead("1", "2"), 5),
    "from_presentation": lambda: AbelianGroup.from_presentation([[2]], 2),
    "from_presentation-negative-ngens": lambda: AbelianGroup.from_presentation([], -1),
    "float-ngens-from_presentation": lambda: AbelianGroup.from_presentation([[2, 0]], 2.0),
    "float-rank-AbelianGroup": lambda: AbelianGroup(1.5, ()),
    "float-torsion-AbelianGroup": lambda: AbelianGroup(0, (2.5,)),
    "bool-rank-AbelianGroup": lambda: AbelianGroup(True, ()),
    "list-torsion-AbelianGroup": lambda: AbelianGroup(0, [2, 4]),
    "str-rank-AbelianGroup": lambda: AbelianGroup("1", ()),
    "Region.length":
        lambda: fatgraph.faces(fatgraph.ArcSystemConfig(2, 2, 2, 0, 0)).annuli[0].length,
    "bool-linking": lambda: FramedLink.make([[0, True], [True, 0]], ["1", "2"]),
    "bool-slope": lambda: whitehead(True, "-3"),
    "tuple-slope": lambda: whitehead((1, 2), "-3"),
    "bool-Slope": lambda: lenspaces.Slope(True, 1),
    "float-Slope": lambda: lenspaces.Slope(1.5, 1),
    "bool-LensSpace": lambda: LensSpace(2, True),
    "float-Slope.make": lambda: lenspaces.Slope.make(1.5, 1),
    "bool-Slope.make": lambda: lenspaces.Slope.make(True, 2),
    "float-normalize": lambda: lenspaces.normalize(7.0, 2),
    "bool-normalize": lambda: lenspaces.normalize(2, True),
    "list-linking": lambda: FramedLink([[0]], (None,)),
    "list-syllables": lambda: mcg.MappingWord([("x", 1)]),
    "bool-k": lambda: instantiate("I", True),
    "verify-past-digit-limit": lambda: families.verify(instantiate("I", 10**5000)),
    "bool-matrix": lambda: mcg.evaluate(((True, 1), (0, True))),
    "none-classify": lambda: mcg.classify(None),
    "int-row-matrix": lambda: mcg.evaluate(((1, 0), 5)),
    "bool-grid1_order": lambda: gridknots.grid1_order(True, 5),
    "bool-r-grid1_order": lambda: gridknots.grid1_order(2, True),
    "float-grid1_order": lambda: gridknots.grid1_order(1.5, 5),
    "float-config": lambda: fatgraph.ArcSystemConfig(1.0, 2, 1, 0, 0),
    "bool-config": lambda: fatgraph.ArcSystemConfig(True, 2, 1, 0, 0),
    "float-t": lambda: fatgraph.enumerate_configs(2.0, 3),
    "float-max-parallel": lambda: fatgraph.enumerate_configs(2, 3.0),
    "none-faces": lambda: fatgraph.faces(None),
    "none-cycles": lambda: fatgraph.scharlemann_cycles(None),
}


@pytest.mark.parametrize("case", LIBRARY_VALIDATIONS.values(),
                         ids=LIBRARY_VALIDATIONS.keys())
def test_library_validation_under_python_O(case):
    """Each case raises exactly ValueError.  It runs in-process: src/ holds
    no assert (tests/test_no_assert.py), so it does so under python -O as
    well."""
    with pytest.raises(ValueError) as caught:
        case()
    assert caught.type is ValueError, caught.value


def test_verify_under_python_O(capsys):
    """The main workload gives the same stdout with asserts stripped."""
    argv = ["verify", "--families", "all", "--k-range", "-30..30"]
    proc = python_O("-m", "lensknots", *argv)
    assert proc.returncode == 0, proc.stderr
    assert run(argv) == 0
    assert proc.stdout == out_of(capsys)[0]


def test_mcg_identity(capsys):
    assert run(["mcg", "--word", ""]) == 0
    out, _ = out_of(capsys)
    assert "word: (identity)" in out
    assert "matrix: [[1, 0], [0, 1]]" in out
    assert "class: periodic (order 1)" in out
    assert "bundle H1: Z^3" in out
    assert "conjugacy invariant: identity" in out


def test_mcg_word(capsys):
    assert run(["mcg", "--word", "x^5 y"]) == 0
    out, _ = out_of(capsys)
    assert "trace: -3" in out
    assert "class: pseudo-Anosov (trace -3)" in out
    assert "conjugacy invariant: LR" in out


def test_mcg_huge_exponent(capsys):
    """The label is run-length encoded, so an exponent of 10^11 answers at
    once."""
    assert run(["mcg", "--word", "x^100000000000 y"]) == 0
    out, _ = out_of(capsys)
    assert "conjugacy invariant: LR^99999999996" in out.splitlines()


def test_mcg_entries_past_str_limit(capsys):
    """Entries too long for str() give one error line and no partial output."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert run(["mcg", "--word", " ".join(["x^3 y^-3"] * 5000)]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_spaces_past_str_limit(capsys, jobs):
    """Lens spaces too long for str() give one error line and no output,
    not FAIL lines blaming the checks whose details could not be rendered."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    hi = "9" * 4300  # parses, but L(6k-1, 2k-1) has 4301 digits
    lo = "9" * 4299 + "8"
    try:
        assert run(["verify", "--families", "I", "--k-range", f"{lo}..{hi}",
                    "--jobs", jobs]) == 2
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = out_of(capsys)
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_grid_success(capsys):
    assert run(["grid", "--r", "5", "--q", "1", "--da", "2", "--db", "3"]) == 0
    out, _ = out_of(capsys)
    assert "witness qdot=1" in out
    assert "sequence: 0 1 2 3 4 0" in out


def test_grid_failure_and_usage(capsys):
    assert run(["grid", "--r", "7", "--q", "1", "--da", "2", "--db", "4"]) == 1
    out, _ = out_of(capsys)
    assert out.strip() == "FAILURE"
    assert run(["grid", "--r", "6", "--q", "3", "--da", "2", "--db", "3"]) == 2
    # a first run longer than r wraps onto residue 0
    assert run(["grid", "--r", "3", "--q", "1", "--da", "5", "--db", "1"]) == 1
    out, _ = out_of(capsys)
    assert out.strip() == "FAILURE"


def grid_under_memory_limit(*args):
    """`grid` run in a child limited to 400 MB of address space, so the
    parent test process never builds a list of the candidate's size."""
    resource = pytest.importorskip("resource")
    limit = 400 * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, "-m", "lensknots", "grid", *args],
        capture_output=True, text=True, env=child_env(), timeout=60, preexec_fn=cap)


def test_grid_huge_da_under_memory_limit():
    """A path longer than r fails by pigeonhole before any list is built."""
    proc = grid_under_memory_limit("--r", "5", "--q", "1", "--da", "100000000",
                                   "--db", "1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "FAILURE\n"
    assert "Traceback" not in proc.stderr


def test_grid_huge_colliding_candidate_under_memory_limit():
    """Candidates that close up but whose strands collide are refused in
    constant memory, their collisions counted by floor sums: five million
    residues per candidate would not fit in the limit as a list and its
    set."""
    proc = grid_under_memory_limit("--r", "5000011", "--q", "4285724", "--da", "2",
                                   "--db", "5000004")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "FAILURE\n"
    assert "Traceback" not in proc.stderr


def test_enum_graphs(capsys):
    assert run(["enum-graphs", "--t", "2", "--max-parallel", "3",
                "--require-max"]) == 0
    out, _ = out_of(capsys)
    lines = out.strip().splitlines()
    assert lines[0] == "s=3 t=2 arcs=(3,0,0)"
    assert lines[-1] == "count: 4"
    assert run(["enum-graphs", "--t", "2", "--max-parallel", "2"]) == 0
    out, _ = out_of(capsys)
    assert out.strip().splitlines()[-1] == "count: 5"
    assert run(["enum-graphs", "--t", "3", "--max-parallel", "2"]) == 2
    assert run(["enum-graphs", "--t", "2", "--max-parallel", "0"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.count("error:") == 2


def test_enum_graphs_streams():
    """A census too large to hold prints its first configuration within a
    second and, when the reader closes the pipe as `| head -1` does, exits
    141 with nothing on stderr.  The whole list takes minutes to build."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "lensknots", "enum-graphs", "--t", "2",
         "--max-parallel", "300"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env())
    try:
        first = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert first == "s=1 t=2 arcs=(1,0,0)\n"
    assert elapsed < 1.0
    assert proc.returncode == 141
    assert err == ""


def test_bad_subcommand_and_help(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    out, _ = out_of(capsys)
    assert "family" in out and "enum-graphs" in out


# argvs whose exit code, stdout and stderr must not depend on how much of
# the parser tree run builds: top-level help and errors, each command's
# help, a missing required option of each command, bad values, abbreviated
# options, extras, and a valid call of each command
PARSER_CORPUS = [
    [], ["-h"], ["--he"], ["bogus"], ["mc"], ["--", "mcg"],
    *([name, "--help"] for name in
      ("family", "verify", "homology", "mcg", "grid", "enum-graphs")),
    ["family"], ["verify"], ["homology"], ["mcg"],
    ["grid", "--q", "2", "--da", "1", "--db", "1"],
    ["grid", "--r", "7", "--da", "1", "--db", "1"],
    ["grid", "--r", "7", "--q", "2", "--db", "1"],
    ["grid", "--r", "7", "--q", "2", "--da", "1"],
    ["enum-graphs", "--max-parallel", "3"], ["enum-graphs", "--t", "2"],
    ["mcg", "--word"],
    ["verify", "--k-range", "1..2", "--jobs", "x"],
    ["family", "--id", "VII"],
    ["verify", "--families", "I", "--k", "-20..20"],
    ["mcg", "--wo", "x y"],
    ["mcg", "--word", "x", "extra"],
    ["mcg", "--word", "x", "--bogus"],
    ["family", "--id", "I", "--k", "3"],
    ["homology", "--link", "no-such-file.json"],
    ["grid", "--r", "7", "--q", "2", "--da", "1", "--db", "1"],
    ["enum-graphs", "--t", "2", "--max-parallel", "3", "--require-max"],
    # argv[0] names a command, then help or a second command word follows
    ["mcg", "--word", "x", "-h"], ["mcg", "--word", "x", "--he"],
    ["mcg", "-h", "verify"], ["mcg", "verify"], ["verify", "mcg"],
    ["enum-graphs", "--help", "--t", "2"], ["grid", "mcg", "--r", "7"],
    ["family", "--id", "I", "--k", "3", "verify"],
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=" ".join)
def test_parser_for_argv_parses_as_the_full_tree(monkeypatch, capsys, argv):
    """The same exit code, stdout and stderr as the full tree, at a width
    where the top-level usage line fits and one where it wraps."""
    full = cli._build_parser
    for columns in ("80", "30"):
        monkeypatch.setenv("COLUMNS", columns)
        got = run(argv), *out_of(capsys)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda argv=None: full())
            assert (run(argv), *out_of(capsys)) == got, columns


def _subparsers_action(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action


def test_parser_for_argv_gives_arguments_only_to_its_command():
    """Every command is a choice, but only mcg gets -h, its arguments, a
    handler and a help entry; the others are registered by name only.  The
    full tree gives every command all of them."""
    lazy = _subparsers_action(cli._build_parser(["mcg", "--word", "x"]))
    assert list(lazy.choices) == list(cli._COMMANDS)
    for name, p in lazy.choices.items():
        dests = [a.dest for a in p._actions]
        assert dests == (["help", "word"] if name == "mcg" else []), name
        assert p.get_default("func") is (cli._cmd_mcg if name == "mcg" else None)
    assert [a.dest for a in lazy._choices_actions] == ["mcg"]
    full = _subparsers_action(cli._build_parser())
    for name, p in full.choices.items():
        _, func, specs = cli._COMMANDS[name]
        assert len(p._actions) == 1 + len(specs) and p.get_default("func") is func
    assert [a.dest for a in full._choices_actions] == list(cli._COMMANDS)


def test_docstring_lists_the_commands():
    """The module docstring's "Subcommands:" list is the table's names and
    help lines, in order."""
    block = cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    assert [line.split(None, 1) for line in block.splitlines()] == [
        [name, help_line] for name, (help_line, _, _) in cli._COMMANDS.items()]


TOP_USAGE = "usage: lensknots [-h] {family,verify,homology,mcg,grid,enum-graphs} ...\n"


@pytest.mark.parametrize("argv, error", [
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
     "'family', 'verify', 'homology', 'mcg', 'grid', 'enum-graphs')"),
    ([], "the following arguments are required: command"),
    (["mcg", "--word", "x", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_top_level_errors(monkeypatch, capsys, argv, error):
    """The top-level usage line and errors, which the parser tree of every
    argv shares, read as they always have."""
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == 2
    assert out_of(capsys) == ("", f"{TOP_USAGE}lensknots: error: {error}\n")
