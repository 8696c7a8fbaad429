"""`tools/linecov.py` runs and reports in its documented form."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_linecov_reports_the_lines_a_run_leaves_unrun():
    proc = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider", "tests/test_metrics.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert re.fullmatch(r"\d+ of \d+ executable lines in src/equicast not run", lines[-1]), lines[-1]
    # the `__main__` guard runs in no test run; the metrics tests run no CLI code at all
    assert "src/equicast/cli.py:176" in lines
