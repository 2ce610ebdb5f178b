"""Child processes, correctness gates and statistics shared by the workloads.

Every op the benchmark times runs in a child process that this module
spawns and reaps with ``os.wait4``, so each child's own peak RSS comes from
its own rusage.  ``RUSAGE_CHILDREN`` is not used: it keeps a running maximum
over all children ever reaped, so one large op would mask every later one.
Linux carries a process's peak RSS across exec, so a child's figure is at
least the parent's peak: the parent must stay small while it spawns
measured children.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = BENCH_DIR / "data"
# Unlinked temporary files for child stdout, stderr and span dumps live here,
# so the benchmark writes nothing outside its checkout.
WORK = BENCH_DIR / ".work"


def program_present() -> bool:
    return (SRC / "twinprimes" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    returncode: int | None  # None when the child could not be reaped
    wall_s: float
    max_rss_mib: float
    stdout: bytes
    stderr: bytes
    extra: bytes  # what the child wrote to the fd passed as {fd}
    timed_out: bool


def run_child(argv: list[str], timeout_s: float) -> ChildResult:
    """Run argv to completion and return its outputs, wall time and peak RSS.

    Any ``{fd}`` in argv is replaced by a file descriptor the child inherits;
    what it writes there comes back as ``extra``.  The child is killed after
    timeout_s seconds.
    """
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err, \
            tempfile.TemporaryFile(dir=WORK) as ext:
        fd = ext.fileno()
        argv = [a.replace("{fd}", str(fd)) for a in argv]
        timed_out = threading.Event()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            pass_fds=(fd,), env=child_env(), cwd=ROOT,
        )

        def kill() -> None:
            timed_out.set()
            proc.kill()  # Popen.kill polls first and never signals a reaped pid

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = returncode = os.waitstatus_to_exitcode(status)
            rss = usage.ru_maxrss / 1024.0  # Linux reports KiB
        except ChildProcessError:  # the timer's poll reaped it first
            wall, returncode, rss = time.perf_counter() - t0, None, 0.0
        finally:
            timer.cancel()
            timer.join()
        outputs = []
        for f in (out, err, ext):
            f.seek(0)
            outputs.append(f.read())
    return ChildResult(returncode, wall, rss, *outputs, timed_out.is_set())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "twinprimes", *args]


def script_argv(script: str, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def load_cases() -> dict:
    return json.loads((DATA / "cases.json").read_text())


def golden(name: str) -> bytes:
    return (DATA / "golden" / name).read_bytes()


def child_failure(res: ChildResult, exit_code: int, stdout: bytes | None) -> str | None:
    """Why an op failed, or None when it passed every gate.

    An op fails when it timed out, exited with another code than expected,
    printed a traceback on stderr, or (when stdout is given) printed other
    bytes than expected.
    """
    if res.timed_out or res.returncode is None:
        return "timed out"
    if res.returncode != exit_code:
        return f"exit code {res.returncode}, expected {exit_code}"
    if b"Traceback" in res.stderr:
        return "traceback on stderr"
    if stdout is not None and res.stdout != stdout:
        return "stdout differs from golden"
    return None


# ---------------------------------------------------------------------------
# statistics


def spread(values: list[float]) -> dict:
    """Median, quartiles, 90th percentile and sample count of values (zeros
    when empty).  The 90th percentile interpolates between samples and,
    unlike the default method, never extrapolates beyond the largest."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    else:
        q1 = med = q3 = p90 = values[0] if values else 0.0
    return {"median": med, "q1": q1, "q3": q3, "p90": p90, "n": len(values)}


TAIL_BEYOND = 10


def tail(values: list[float]) -> dict:
    """The highest order statistic with at least TAIL_BEYOND samples above it.

    Its percentile (share of samples at or below it) and the sample count
    are recorded beside it.  With too few samples the maximum is reported,
    with the number of samples beyond it (zero) saying so.
    """
    ordered = sorted(values) or [0.0]
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return {
        "value": ordered[k],
        "percentile": 100.0 * (k + 1) / n,
        "beyond": n - k - 1,
        "n": n,
    }


def environment() -> dict:
    """What the spread of every number should be read next to."""
    import numpy

    commit = None
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.splitlines()
        if Path(top).resolve() != ROOT:
            commit = None  # a repository around the checkout, not its own
    except (OSError, subprocess.SubprocessError, ValueError):
        pass  # the checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((SRC / "twinprimes").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }
