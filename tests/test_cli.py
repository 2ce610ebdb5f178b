import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
                "--threads", "3", "--segment-size", "2048")
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


def test_phi_subcommand(capsys):
    assert main(["phi", "--y", "100", "--r", "4"]) == 0
    out = capsys.readouterr().out
    assert "phi_recursive=22" in out
    assert "phi_mobius=22" in out
    assert "pi_y=25" in out
    assert "bound_ok=true" in out


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


CASES = Path(__file__).resolve().parents[1] / "perfbench" / "data"
SWEEP = json.loads((CASES / "cases.json").read_text(encoding="utf-8"))["sweep"]


@pytest.mark.parametrize("name", sorted(SWEEP))
def test_sweep_stdout_matches_golden(name, capsys, monkeypatch):
    monkeypatch.delenv("TWINPRIMES_OUTDIR", raising=False)
    case = SWEEP[name]
    assert main(case["argv"]) == case["exit"]
    golden = (CASES / "golden" / case["golden"]).read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


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


@pytest.mark.parametrize("command,flag", [
    ("table1", "--hc"),
    ("table1", "--euler-pmax"),
    ("table2", "--hc"),
    ("table2", "--euler-pmax"),
    ("table3", "--euler-pmax"),
    ("audit", "--euler-pmax"),
], ids=lambda v: v.lstrip("-"))
def test_unread_flags_are_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--limit", "1000", flag, "200"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 200" in capsys.readouterr().err


def test_bad_format_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--limit", "1000", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["mkdir", "write", "estimate_x", "phi_depth"])
def test_failure_is_one_error_line(case, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {
        "mkdir": ["table1", "--limit", "1000",
                  "--out", str(blocker / "sub" / "x.csv")],
        "write": ["table1", "--limit", "1000", "--out", str(tmp_path)],
        "estimate_x": ["estimate", "--x", "3"],
        "phi_depth": ["phi", "--y", "100000", "--r", "1500"],
    }[case]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1 and proc.stderr.endswith("\n")
    assert "Traceback" not in proc.stderr
