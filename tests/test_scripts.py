import doctest
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_worked_examples_runs():
    proc = _run(str(ROOT / "scripts" / "worked_examples.py"))
    assert proc.returncode == 0, proc.stderr
    assert "recognition and realization:" in proc.stdout
    # the whole text, pinned byte for byte (it does not depend on hash seeds)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "c3491c459e4ebfbf3f8f1b00d8337f41c9308651774e8bc6566d687ef7589757"
    )


def test_run_verification_refuses_negative_bound():
    proc = _run(str(ROOT / "scripts" / "run_verification.py"), "--max-crossings", "-1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: max_crossings -1 below 0\n"


def test_run_verification_reads_the_cli_integer_rule():
    # int() alone would read the Arabic-Indic one and run the c <= 1 sweep;
    # a usage error exits 1, as in warp, since 2 means violations
    script = str(ROOT / "scripts" / "run_verification.py")
    for value in ("\u0661", "1_0", "1\x1c\u3000"):
        proc = _run(script, "--max-crossings", value)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.endswith(
            f"error: argument --max-crossings: invalid int value: {value!r}\n"
        )


def test_run_verification_success(tmp_path):
    script = str(ROOT / "scripts" / "run_verification.py")
    proc = _run(script, "--max-crossings", "2")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert sorted(report) == ["almost_alternating_scan", "identity_suite"]
    assert report["identity_suite"]["diagrams_checked"] == 15
    assert report["almost_alternating_scan"]["diagrams_checked"] == 6
    assert all(r["violations"] == [] for r in report.values())
    assert proc.stderr.endswith("all identities hold\n")
    out = tmp_path / "report.json"
    proc = _run(script, "--max-crossings", "2", "--out", str(out))
    assert (proc.returncode, proc.stdout) == (0, "")
    assert json.loads(out.read_text()) == report


def test_cli_exit_codes_reach_the_shell():
    # every other CLI test calls main() in process; this runs the module
    proc = _run("-m", "warppoly.cli", "poly", "O1 U2 O3 U1 O2 U3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3t+3t^2\n", "")
    proc = _run("-m", "warppoly.cli", "poly", "O1 X2")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")
    proc = _run("-m", "warppoly.cli", "witness", "t+t^2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "Reject: SumTooSmall\n", "")


def test_readme_library_example():
    # only the python block: a whole-file doctest would read the closing
    # fence as expected output
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False) == doctest.TestResults(0, 12)
