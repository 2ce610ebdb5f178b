"""`import twinprimes` loads no module of the package and no numpy; each
public name and module loads on first use, `twinprimes sieve` loads only
the modules it runs, and numpy only where a count spans two windows.  No
subcommand at 10**6 loads `dataclasses` or `inspect`: the records are
NamedTuples."""

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import twinprimes

# The modules that perfbench/tracing.py reads off the package by name.
_TRACED_MODULES = ("sieve", "counting", "legendre", "estimators", "report",
                   "cli")


def _loaded_after(code):
    """sys.modules of a fresh interpreter after it runs code."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport sys; print(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_loads_no_numpy_and_no_submodule():
    loaded = _loaded_after("import twinprimes")
    assert "numpy" not in loaded
    assert not {m for m in loaded if m.startswith("twinprimes.")}


def test_sieve_subcommand_loads_only_what_it_runs():
    loaded = _loaded_after(
        "from twinprimes import cli\n"
        "assert cli.main(['sieve', '--limit', '1000']) == 0")
    for name in ("report", "estimators", "legendre", "counting"):
        assert f"twinprimes.{name}" not in loaded, name
    for name in ("json", "statistics", "concurrent.futures", "numpy"):
        assert name not in loaded, name
    assert {"twinprimes.cli", "twinprimes.sieve"} <= loaded


def test_a_two_worker_pass_loads_no_thread_pool():
    # The second of two workers is a forked process, not a pool thread.
    loaded = _loaded_after(
        "import os\n"
        "os.cpu_count = lambda: 2\n"
        "from twinprimes import sieve\n"
        "assert sieve._worker_count(2, sieve._n_windows(10**7)) == 2\n"
        "assert sieve.count_at(10**7, [10**7], threads=2)[10**7] == "
        "(664579, 58980)")
    assert "concurrent.futures" not in loaded


_SWEEP = json.loads((Path(__file__).parents[1] / "perfbench" / "data"
                     / "cases.json").read_text())["sweep"]


@functools.cache
def _loaded_by_sweep_case(case):
    argv, code = _SWEEP[case]["argv"], _SWEEP[case]["exit"]
    assert "1000000" in argv
    return _loaded_after(
        "import contextlib, io\n"
        "from twinprimes import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == {code}\n")


@pytest.mark.parametrize("case", sorted(_SWEEP))
def test_a_sweep_subcommand_at_1e6_loads_no_numpy(case):
    # Every point lies in the first window of 2**20 odd numbers.
    assert "numpy" not in _loaded_by_sweep_case(case)


@pytest.mark.parametrize("case", sorted(_SWEEP))
def test_a_sweep_subcommand_at_1e6_loads_no_dataclasses_or_inspect(case):
    loaded = _loaded_by_sweep_case(case)
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


@pytest.mark.parametrize("case", sorted(_SWEEP))
def test_a_sweep_subcommand_at_1e6_loads_no_pickle(case):
    # One worker: a fan-out is one call, with no fork and nothing to pickle.
    assert "pickle" not in _loaded_by_sweep_case(case)


def test_a_count_past_one_window_loads_numpy():
    # One window of 2**20 j-values per plane reaches 6 * 2**20 + 4.
    for limit, numpy in ((6_291_460, False), (6_291_461, True)):
        loaded = _loaded_after(
            "from twinprimes import cli\n"
            f"assert cli.main(['sieve', '--limit', '{limit}']) == 0")
        assert ("numpy" in loaded) == numpy, limit


def test_every_exported_name_resolves():
    listed = dir(twinprimes)
    for name in twinprimes.__all__:
        obj = getattr(twinprimes, name)
        assert obj.__module__.startswith("twinprimes."), name
        assert name in listed, name
    namespace = {}
    exec("from twinprimes import *", namespace)
    assert set(twinprimes.__all__) <= set(namespace)


def test_submodules_resolve_by_name():
    # In a fresh interpreter, where no submodule has been imported yet.
    loaded = _loaded_after(
        "import sys, twinprimes\n"
        f"for name in {_TRACED_MODULES!r}:\n"
        "    module = getattr(twinprimes, name)\n"
        "    assert module is sys.modules['twinprimes.' + name], name\n"
        "    assert name in dir(twinprimes), name")
    assert {f"twinprimes.{name}" for name in _TRACED_MODULES} <= loaded


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twinprimes.no_such_name
