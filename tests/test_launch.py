"""Smoke test of tools/launch.py, the measuring launcher."""

import re
import subprocess
import sys
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parents[1] / "tools" / "launch.py"


def test_launcher_measures_one_version_run():
    done = subprocess.run(
        [sys.executable, str(LAUNCHER), "--repeat", "1", "--", "--version"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    run, summary = done.stdout.splitlines()
    measures = r"exit 0 wall_s \S+ cpu_s \S+ minflt \d+ peak_mb \S+"
    assert re.fullmatch(rf"run 1 \S+: {measures}", run)
    assert re.fullmatch(rf"lower-half mean of 1 \S+: {measures}", summary)
    # the program's stdout, "epmt 0.1.0", is not mixed into the report
    assert "epmt 0" not in done.stdout
