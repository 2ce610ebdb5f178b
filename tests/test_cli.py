import contextlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinprimes import cli
from twinprimes.cli import main


def run_cli(*argv, env_extra=None):
    env = dict(os.environ)
    env.pop("TWINPRIMES_OUTDIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "twinprimes", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_table1_csv_stdout():
    proc = run_cli("table1", "--limit", "1000", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.split("\n")
    assert lines[0] == "x,pi_x,pi2_x,pi_pi_x,ratio"
    assert lines[1] == "25,9,4,4,1.000"


def test_table2_and_table3_json(capsys):
    assert main(["table2", "--limit", "10000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["table_id"] == 2
    assert doc["rows"][0]["x"] == 50
    assert main(["table3", "--limit", "10000", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {r["x"] for r in doc["rows"]} <= set(range(5, 10**4 + 1))


def test_custom_checkpoints(capsys):
    assert main(["table1", "--limit", "100", "--checkpoints", "5,25,97",
                 "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.split("\n")[1] == "5,3,1,2,0.500"
    assert "97," in out


def test_limit_bounds_the_points_but_is_not_sieved_to(capsys):
    # 10**10 alone would not fit a store in the budget; the table reads no x
    # past 2,000,000, and that is as far as it sieves.
    argv = ["table3", "--checkpoints", "1000000,2000000"]
    assert main([*argv, "--limit", "10000000000"]) == 0
    far = capsys.readouterr()
    assert main([*argv, "--limit", "2000000"]) == 0
    assert far == capsys.readouterr()
    assert far.out.splitlines()[1:] == ["1000000,1.325720,8169,8165,4,0.0005",
                                        "2000000,1.340875,14871,14696,175,0.0118"]


def test_out_file_and_env_dir(tmp_path, capsys):
    target = tmp_path / "t1.csv"
    assert main(["table1", "--limit", "1000", "--format", "csv",
                 "--out", str(target)]) == 0
    direct = target.read_text()
    assert direct.startswith("x,pi_x")

    os.environ["TWINPRIMES_OUTDIR"] = str(tmp_path / "nested")
    try:
        assert main(["table1", "--limit", "1000", "--format", "csv",
                     "--out", "rel.csv"]) == 0
        assert (tmp_path / "nested" / "rel.csv").read_text() == direct
        # absolute path wins over the env dir
        other = tmp_path / "abs.csv"
        assert main(["table1", "--limit", "1000", "--format", "csv",
                     "--out", str(other)]) == 0
        assert other.read_text() == direct
    finally:
        del os.environ["TWINPRIMES_OUTDIR"]


def test_byte_identical_output_across_thread_counts():
    a = run_cli("table1", "--limit", "20000", "--format", "csv",
                "--threads", "1")
    b = run_cli("table1", "--limit", "20000", "--format", "csv",
                "--threads", "3")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_sieve_summary(capsys):
    assert main(["sieve", "--limit", "100000"]) == 0
    out = capsys.readouterr().out
    assert "pi=9592" in out
    assert "pi2=1224" in out


def test_estimate_output_and_divergence_warning():
    proc = run_cli("estimate", "--x", "1000", "--limit", "1000")
    assert proc.returncode == 0
    assert "pi=168" in proc.stdout
    assert "pi2=35" in proc.stdout
    assert "pi2_star=37" in proc.stdout
    assert "density_holds=true" in proc.stdout
    assert "truncated divergent" in proc.stderr


def test_estimate_respects_hc_override(capsys):
    assert main(["estimate", "--x", "1000", "--limit", "1000",
                 "--hc", "10.0"]) == 0
    out = capsys.readouterr().out
    assert "pi2_star=282" in out  # 10 * 168**2 / 1000, rounded


# (y, r): the whole stdout of `phi`.  Below y = 2 nothing is counted and
# pi(y) = 0.  P_1501**2 > 10**5, so phi(10**5, 1500) = 1 + pi(10**5) - 1500;
# the Moebius route is capped at r = 25 and is not printed.
_PHI_STDOUT = {
    (0, 0): "y=0\nr=0\nphi_recursive=0\nphi_mobius=0\npi_y=0\nbound_ok=true\n",
    (1, 3): "y=1\nr=3\nphi_recursive=1\nphi_mobius=1\npi_y=0\nbound_ok=true\n",
    (2, 1): "y=2\nr=1\nphi_recursive=1\nphi_mobius=1\npi_y=1\nbound_ok=true\n",
    (100, 4): ("y=100\nr=4\nphi_recursive=22\nphi_mobius=22\npi_y=25\n"
               "bound_ok=true\n"),
    (100000, 1500): ("y=100000\nr=1500\nphi_recursive=8093\npi_y=9592\n"
                     "bound_ok=true\n"),
}


@pytest.mark.parametrize("y,r", _PHI_STDOUT)
def test_phi_stdout(capsys, y, r):
    # phi reaches y whatever --limit says, even one below 5.
    for limit in ([], ["--limit", "3"]):
        assert main(["phi", "--y", str(y), "--r", str(r), *limit]) == 0
        assert capsys.readouterr() == (_PHI_STDOUT[y, r], "")


def test_calibrate_reports_mean(capsys):
    assert main(["calibrate", "--limit", "100000"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[-1].startswith("h_c=")
    value = float(out[-1].split("=")[1])
    assert 1.25 < value < 1.42


def test_audit_exit_codes():
    proc = run_cli("audit", "--limit", "20000")
    assert proc.returncode == 3  # mismatches found, non-strict
    assert "mismatch" in proc.stdout
    proc = run_cli("audit", "--limit", "20000", "--strict-paper")
    assert proc.returncode == 2


def test_audit_json(capsys):
    assert main(["audit", "--limit", "1000", "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["status_counts"]["mismatch"] > 0


def test_check_exit_code_paths():
    # clean range: every reference cell <= 25 matches and invariants hold
    assert run_cli("check", "--limit", "25").returncode == 0
    # reference mismatches only (ratio/pi2 errata start at x = 150)
    assert run_cli("check", "--limit", "2000").returncode == 3
    assert run_cli("check", "--limit", "2000",
                   "--strict-paper").returncode == 2
    # estimator-accuracy invariant genuinely fails once 5000 is in range
    proc = run_cli("check", "--limit", "10000")
    assert proc.returncode == 2
    assert "estimator_accuracy" in proc.stdout


def test_check_json(capsys):
    assert main(["check", "--limit", "2000", "--format", "json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["invariants"]["passed"] is True
    assert doc["audit_status_counts"]["mismatch"] > 0


def test_invalid_arguments_exit_nonzero():
    proc = run_cli("table1", "--limit", "10000", "--checkpoints", "30000")
    assert proc.returncode == 1
    assert "checkpoints" in proc.stderr
    proc = run_cli("table1", "--limit", "3")
    assert proc.returncode == 1


@pytest.mark.parametrize("command", ["table1", "table2", "table3", "calibrate"])
@pytest.mark.parametrize("checkpoints", ["100,50", "50,50"])
def test_checkpoints_must_strictly_increase(command, checkpoints, capsys):
    # One rule for every subcommand, before a sieve is built.
    assert main([command, "--limit", "1000", "--checkpoints", checkpoints]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: checkpoints must be strictly increasing, "
                   f"got [{checkpoints.replace(',', ', ')}]\n")


CASES = Path(__file__).resolve().parents[1] / "perfbench" / "data"
SWEEP = json.loads((CASES / "cases.json").read_text(encoding="utf-8"))["sweep"]


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("TWINPRIMES_OUTDIR", raising=False)
    case = SWEEP[name]
    assert main(case["argv"]) == case["exit"]
    golden = (CASES / "golden" / case["golden"]).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


# Output that the sweep does not pin: the other formats, and the files of
# `reproduce`, captured at 10**6; the Euler products to the bit at ten times
# the sweep's pmax; and check's C2 past its ladder's top rung of 10**6.
GOLDEN = Path(__file__).parent / "data" / "golden"
_M = ["--limit", "1000000"]
_RENDERED = {
    **{f"table{t}.{fmt}": ([f"table{t}", *_M, "--format", fmt], 0)
       for t in (1, 2, 3) for fmt in ("text", "json")},
    "audit.json": (["audit", *_M, "--format", "json"], 3),
    "check.json": (["check", *_M, "--format", "json"], 2),
    "check-pmax3e6.stdout": (["check", *_M, "--euler-pmax", "3000000"], 2),
    "estimate-pmax1e7.stdout": (
        ["estimate", "--x", "1000000", "--euler-pmax", "10000000"], 0),
    "estimate-x6291460.stdout": (["estimate", "--x", "6291460"], 0),
    "sieve-1e9.stdout": (
        ["sieve", "--limit", "1000000000", "--threads", "2"], 0),
}


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("reproduce")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["reproduce", *_M, "--outdir", str(outdir)]) == 0
    return outdir


@pytest.mark.parametrize("name", sorted(
    str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*") if p.is_file()))
def test_rendered_output_matches_golden(name, reproduced, capsys, monkeypatch):
    monkeypatch.delenv("TWINPRIMES_OUTDIR", raising=False)
    if name.startswith("reproduce/"):
        got = (reproduced / Path(name).name).read_bytes()
    else:
        argv, code = _RENDERED[name]
        assert main(argv) == code
        got = capsys.readouterr().out.encode("utf-8")
    assert got == (GOLDEN / name).read_bytes()


# A CLI process freezes the heap at exit instead of collecting it: what it
# wrote must be whole by then, on stdout and in files.
def test_a_reproduce_process_writes_the_golden_files(tmp_path):
    proc = run_cli("reproduce", *_M, "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"wrote {tmp_path}/\n")
    golden = GOLDEN / "reproduce"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path


def test_a_check_process_writes_the_golden_json(tmp_path):
    out = tmp_path / "check.json"
    proc = run_cli("check", *_M, "--format", "json", "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "")
    assert out.read_bytes() == (GOLDEN / "check.json").read_bytes()


def test_check_sieves_its_flags_once(monkeypatch, capsys):
    # The count to 10**6 sieves prime_flags; its count at each pi(x), the
    # suite's small_primes and first_primes, and the Euler ladder to 10**6
    # read a prefix of that one sieve.  Each truncation of the ladder is
    # streamed once; the run's C2 is its cached top rung.
    from twinprimes import estimators, legendre, sieve

    real, reads = sieve.prime_flags, []
    real_p_minus_ones, streamed = estimators._p_minus_ones, []

    def p_minus_ones(pmax):
        streamed.append(pmax)
        return real_p_minus_ones(pmax)

    def prime_flags(limit):
        held, caller = len(sieve._flags), sys._getframe(1)
        if caller.f_code.co_name == "small_primes":
            caller = caller.f_back
        flags = real(limit)
        reads.append((caller.f_code.co_name, limit, len(flags) > held))
        return flags

    monkeypatch.setattr(sieve, "_flags", bytearray())
    monkeypatch.setattr(sieve, "prime_flags", prime_flags)
    monkeypatch.setattr(estimators, "prime_flags", prime_flags)
    monkeypatch.setattr(estimators, "_p_minus_ones", p_minus_ones)
    legendre.first_primes.cache_clear()
    estimators.twin_prime_constant.cache_clear()
    try:
        assert main(["check", *_M]) == 2
    finally:
        legendre.first_primes.cache_clear()
        estimators.twin_prime_constant.cache_clear()
    assert capsys.readouterr().out == (
        CASES / "golden" / "check.stdout").read_text()
    assert [(c, n) for c, n, sieved in reads if sieved] == [
        ("_count_pass", 10**6)]
    callers = [c for c, _, _ in reads]
    assert callers.count("_count_pass") == 2
    assert {"checks", "first_primes", "_p_minus_ones"} <= set(callers)
    assert streamed == [10**6, 100, 10**3, 10**4, 10**5]


def test_check_and_reproduce_are_identical_on_two_workers(tmp_path,
                                                          monkeypatch, capsys):
    # Two CPUs on any host, and windows of 2**14 j-values, so the count pass
    # spans 11 windows at 10**6 and a second worker counts half of them.
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr("twinprimes.sieve.SEGMENT_SIZE", 2**14)
    monkeypatch.delenv("TWINPRIMES_OUTDIR", raising=False)
    runs = []
    for threads in ("1", "2"):
        check = main(["check", *_M, "--threads", threads]), capsys.readouterr()
        repro = main(["reproduce", *_M, "--threads", threads,
                      "--outdir", str(tmp_path)]), capsys.readouterr()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        runs.append((check, repro, files))
    assert forks
    assert runs[0] == runs[1]
    check, repro, files = runs[0]
    assert check == (2, ((CASES / "golden" / "check.stdout").read_text(), ""))
    assert repro[0] == 0 and len(files) == 9


def test_main_registers_the_exit_freeze_once():
    # gc.freeze is swapped for a counter before main runs; the printer,
    # registered first, runs last at exit.
    proc = subprocess.run([sys.executable, "-c", (
        "import atexit, contextlib, gc, io\n"
        "calls = []\n"
        "atexit.register(lambda: print('freezes', len(calls)))\n"
        "gc.freeze = lambda: calls.append(1)\n"
        "from twinprimes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(2):\n"
        "        assert main(['sieve', '--limit', '1000']) == 0\n"
        "print('ran', len(calls))\n")],
        capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "ran 0\nfreezes 1\n"


def test_ctrl_c_twice_is_one_error_line_and_leaves_no_worker():
    # A terminal sends SIGINT to the whole process group: the CLI and the
    # worker it forked for the second half of the windows.  The CLI starts
    # with SIGINT's default action even where the tests run with it ignored
    # (a background job), since an ignored SIGINT stays ignored across exec.
    children = Path(f"/proc/self/task/{os.getpid()}/children")
    if not children.exists():
        pytest.skip("needs /proc/<pid>/task/<tid>/children")
    proc = subprocess.Popen(
        [sys.executable, "-m", "twinprimes", "sieve", "--limit", str(10**10),
         "--threads", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        time.sleep(0.05)  # both are counting now
        for _ in range(2):
            os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        with pytest.raises(ProcessLookupError):  # the worker is reaped too
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_reproduce_writes_the_subcommand_outputs(tmp_path, capsys):
    def stdout_of(*argv):
        main([*argv, "--limit", "10000"])
        return capsys.readouterr().out

    assert main(["reproduce", "--limit", "10000",
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    expected = {"audit.txt": stdout_of("audit"),
                "audit.json": stdout_of("audit", "--format", "json")}
    for t in (1, 2, 3):
        for fmt in ("csv", "json"):
            expected[f"table{t}.{fmt}"] = stdout_of(f"table{t}", "--format", fmt)
    check = stdout_of("check").splitlines(keepends=True)
    assert check[-1].startswith("reference audit:")
    expected["invariants.txt"] = "".join(check[:-1])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text, name


_REQUIRED = {"estimate": ["--x", "1000"], "phi": ["--y", "100", "--r", "2"]}


@pytest.mark.parametrize("command,flag", [
    ("table1", "--hc"),
    ("table1", "--euler-pmax"),
    ("table2", "--hc"),
    ("table2", "--euler-pmax"),
    ("table3", "--euler-pmax"),
    ("audit", "--euler-pmax"),
] + [(command, "--segment-size") for command in (
    "sieve", "table1", "table2", "table3", "estimate", "calibrate", "phi",
    "audit", "check", "reproduce",
)], ids=lambda v: v.lstrip("-"))
def test_unread_flags_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--limit", "1000", *_REQUIRED.get(command, []),
              flag, "200"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 200" in capsys.readouterr().err


def test_bad_format_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--limit", "1000", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["mkdir", "write", "estimate_x", "euler_pmax", "hc_inf",
             "hc_overflow", "phi_first_primes"]
)
def test_failure_is_one_error_line(case, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "mkdir": ["table1", "--limit", "1000",
                  "--out", str(blocker / "sub" / "x.csv")],
        "write": ["table1", "--limit", "1000", "--out", str(tmp_path)],
        "estimate_x": ["estimate", "--x", "3"],
        "euler_pmax": ["estimate", "--x", "1000", "--limit", "1000",
                       "--euler-pmax", "1000000000000"],
        "hc_inf": ["check", "--limit", "20000", "--hc", "inf"],
        "hc_overflow": ["table3", "--limit", "20000", "--hc", "1e308"],
        # The first 13.5 million primes, as a tuple of ints, would not fit
        # the budget beside the sieve that finds them.
        "phi_first_primes": ["phi", "--y", "100", "--r", "13500000"],
    }[case]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("y", ["1", "5"])
def test_a_bad_thread_count_is_refused_where_nothing_is_counted(y, capsys):
    # Below y = 2 phi counts nothing, yet --threads is refused as at y = 5.
    assert main(["phi", "--y", y, "--r", "3", "--threads", "0"]) == 1
    assert capsys.readouterr() == ("", "error: threads must be >= 1, got 0\n")


def test_budget_error_names_the_requested_and_held_bytes():
    # The first 13.5 million primes as a tuple of ints: a refusal by
    # small_primes for first_primes, not by a sieve build.
    proc = run_cli("phi", "--y", "100", "--r", "13500000")
    assert proc.returncode == 1
    m = re.fullmatch(r"error: ~([\d,]+) bytes requested on top of ([\d,]+) "
                     r"held would pass the memory budget of 536,870,912 "
                     r"bytes\n", proc.stderr)
    assert m, proc.stderr
    requested, held = (int(g.replace(",", "")) for g in m.groups())
    assert requested > 536_870_912 > held >= 0


# Values that either run small or are refused before anything is allocated:
# 10**18 is refused by the memory budget wherever it is sieved to (its base
# primes alone, up to 10**9, would not fit), as a --limit it only bounds the
# points, which stay at most 10**6, and no thread count above 2 is drawn.
# 10**12 would not do: a pass counts to it in O(sqrt x) memory.
# Valid values are drawn twice as often as others.
def _mostly(valid, other):
    return st.one_of(valid, valid, other)


_REFUSED = st.just(10**18)
_SIZE = _mostly(st.integers(5, 20_000), st.one_of(st.integers(-5, 4), _REFUSED))
_VALUES = {
    "--limit": _SIZE,
    "--threads": _mostly(st.integers(1, 2), st.integers(-1, 0)),
    "--checkpoints": _mostly(
        st.lists(st.integers(5, 3000), min_size=1, max_size=4)
        .map(lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["", "x", "5,,25", "1e3", "4", "30000"])),
    "--format": _mostly(st.sampled_from(["json", "text"]),
                        st.sampled_from(["csv", "yaml"])),
    "--out": st.sampled_from(["out.txt", "sub/out.csv", "."]),
    "--hc": _mostly(st.floats(1.0, 2.0),
                    st.one_of(st.floats(), st.sampled_from(["0", "abc"]))),
    "--euler-pmax": _mostly(st.integers(100, 10**5),
                            st.one_of(st.integers(-5, 99), _REFUSED)),
    "--strict-paper": st.none(),
    "--x": _SIZE,
    "--y": _SIZE,
    "--r": _mostly(st.integers(0, 3000), st.integers(-5, -1)),
    "--outdir": st.sampled_from(["repro", "a/b"]),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    own = cli._SHARED + cli._COMMANDS[command][2]
    # Its required flags, most of its others, now and then one it does not
    # read.
    flags = [f for f in own
             if cli._FLAGS[f].get("required") or draw(st.integers(0, 3))]
    if draw(st.integers(0, 7)) == 0:
        flags.append(draw(st.sampled_from(sorted(cli._FLAGS))))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        value = draw(_VALUES[flag])
        argv += [flag] if value is None else [flag, str(value)]
    return argv


@settings(max_examples=80, deadline=None)
@given(argv=_argv())
def test_random_small_argv_fails_cleanly(argv, tmp_path_factory):
    # Relative --out and --outdir paths land in a fresh directory.
    cwd, err = os.getcwd(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        os.environ.pop("TWINPRIMES_OUTDIR", None)
        os.chdir(tmp_path_factory.mktemp("argv"))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors exit 2
            code = exc.code
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("error:"), argv
        assert err.getvalue().count("\n") == 1, argv
