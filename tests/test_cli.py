import json
import os
import pathlib
import subprocess
import sys
from concurrent.futures import Future
from types import SimpleNamespace

import pytest

from lensknots import cli, families
from lensknots.cli import run
from lensknots.families import FamilyInstance, instantiate
from lensknots.surgery import link_to_json, unknot, whitehead

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


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
    assert FamilyInstance.from_dict(json.loads(out)) == instantiate("III", -2)


def test_family_flag_mismatches(capsys):
    assert run(["family", "--id", "I"]) == 2
    assert run(["family", "--id", "VI", "--k", "3"]) == 2
    assert run(["family", "--id", "I", "--k", "1", "--r", "5"]) == 2
    _, err = out_of(capsys)
    assert "error:" in err


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
def fake_pool(monkeypatch):
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

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    return record


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
    real = cli.verify

    def verify_or_divide(inst):
        if inst.k == 2:
            return 1 // 0
        return real(inst)

    monkeypatch.setattr(cli, "verify", verify_or_divide)
    assert run(["verify", "--families", "I,II", "--k-range", "1..3",
                "--jobs", jobs]) == 1
    out, _ = out_of(capsys)
    fails = [line for line in out.splitlines() if not line.startswith("ok ")]
    assert fails == [
        "FAIL I k=2: exception: ZeroDivisionError('integer division or modulo"
        f" by zero') in verify_or_divide ({_line_of(verify_or_divide, 2)})",
        "FAIL II k=2: exception: ZeroDivisionError('integer division or modulo"
        f" by zero') in verify_or_divide ({_line_of(verify_or_divide, 2)})",
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


def test_verify_usage_errors(capsys):
    assert run(["verify", "--families", "IX", "--k-range", "1..2"]) == 2
    assert run(["verify", "--k-range", "whatever"]) == 2
    assert run(["verify", "--k-range", "0..0"]) == 2
    assert run(["verify", "--k-range", "1..2", "--jobs", "0"]) == 2
    assert run(["verify", "--families", "I,I", "--k-range", "1..2"]) == 2
    out, err = out_of(capsys)
    assert out == "" and err.count("error:") == 5


def test_verify_reversed_range(capsys):
    assert run(["verify", "--k-range", "5..1"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert err == "error: empty k-range '5..1'\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_wide_range_streams_under_memory_limit(jobs):
    """Six million k per family stream in bounded memory: the child, limited
    to 400 MB of address space, prints its first lines and, when the pipe
    is closed, exits 141 (128 + SIGPIPE) with nothing on stderr."""
    resource = pytest.importorskip("resource")
    limit = 400 * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lensknots", "verify", "--k-range",
         "-3000000..3000000", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
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
    path.write_text(link_to_json(whitehead("-3", "-4")))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "H1 = Z/12" in out
    assert "core order of component 0: 3" in out
    assert "core order of component 1: 4" in out


def test_homology_unfilled_and_infinite(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text(link_to_json(whitehead("-3", None)))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "core orders: undefined, components 1 are unfilled" in out

    path.write_text(link_to_json(unknot("0")))
    assert run(["homology", "--link", str(path)]) == 0
    out, _ = out_of(capsys)
    assert "H1 = Z" in out
    assert "core order of component 0: infinite" in out


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", *args],
                          capture_output=True, text=True, env=env, timeout=60)


@pytest.mark.parametrize("case", [
    "enum-graphs --t 3 --max-parallel 2",
    "enum-graphs --t 2 --max-parallel 0",
    *(f"link:{name}" for name in MALFORMED_LINKS),
])
def test_bad_input_exits_2_under_python_O(tmp_path, case):
    """Input validation must not rest on assert, which python -O strips."""
    if case.startswith("link:"):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_LINKS[case[len("link:"):]])
        argv = ["homology", "--link", str(path)]
    else:
        argv = case.split()
    proc = python_O("-m", "lensknots", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


LIBRARY_VALIDATIONS = {
    "from_dict": "from lensknots.families import FamilyInstance, instantiate; "
                 "FamilyInstance.from_dict({**instantiate('I', 3).to_dict(), "
                 "'schema_version': 7})",
    "coincidence_scan": "from lensknots.families import coincidence_scan; "
                        "coincidence_scan(0)",
    "torus_knot_sequence": "from lensknots.gridknots import torus_knot_sequence; "
                           "torus_knot_sequence(0, 1, 1, 1)",
    "from_presentation": "from lensknots.surgery import AbelianGroup; "
                         "AbelianGroup.from_presentation([[2]], 2)",
    "Region.length": "from lensknots.fatgraph import ArcSystemConfig, faces; "
                     "faces(ArcSystemConfig(2, 2, 2, 0, 0)).annuli[0].length",
}


@pytest.mark.parametrize("code", LIBRARY_VALIDATIONS.values(),
                         ids=LIBRARY_VALIDATIONS.keys())
def test_library_validation_under_python_O(code):
    proc = python_O("-c", code)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith("ValueError:"), proc.stderr


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


def test_grid_huge_da_under_memory_limit():
    """A path longer than r fails by pigeonhole before any list is built.

    Runs in a child limited to 400 MB of address space, so the parent test
    process never builds a list of this size.
    """
    resource = pytest.importorskip("resource")
    limit = 400 * 1024 * 1024

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lensknots", "grid", "--r", "5", "--q", "1",
         "--da", "100000000", "--db", "1"],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap)
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


def test_bad_subcommand_and_help(capsys):
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    assert run(["--help"]) == 0
    out, _ = out_of(capsys)
    assert "family" in out and "enum-graphs" in out
