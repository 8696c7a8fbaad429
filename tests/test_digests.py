"""Trained results, sweeps and `verify` results are bitwise those recorded in `tests/digests.txt`.

The file is the output of `python3 tools/digests.py`.  The test runs the
tool in a subprocess, as the file was made (the tool pins BLAS to one
thread before numpy loads), and names each (config, seed), sweep or
`verify` line whose digests differ.  A change that alters results on
purpose regenerates the file in the same commit and says so.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).resolve().parent / "digests.txt"


def _by_key(lines: list[str]) -> dict[str, list[str]]:
    """'name seed=S digest...' lines keyed by 'name seed=S'."""
    return {" ".join(line.split()[:2]): line.split()[2:] for line in lines}


def test_results_are_bitwise_the_recorded_digests():
    proc = subprocess.run([sys.executable, "tools/digests.py"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    (header, *lines), (recorded_header, *recorded) = proc.stdout.splitlines(), RECORDED.read_text().splitlines()
    problems = [] if header == recorded_header else [f"recorded under {recorded_header!r}, run under {header!r}"]
    now, then = _by_key(lines), _by_key(recorded)
    for key in list(then) + [key for key in now if key not in then]:
        if key not in now or key not in then:
            problems.append(f"{key}: {'missing from the run' if key in then else 'missing from digests.txt'}")
        elif now[key] != then[key]:  # a sweep or verify line names each of its parts that differs
            parts = [a.split("=")[0] for a, b in zip(now[key], then[key]) if a != b and "=" in a]
            problems.append(f"{key}: differs" + (f" in {', '.join(parts)}" if parts else ""))
    assert problems == [], "\n".join(problems)
