"""The repository's own checks run as tests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_option_audit_finds_nothing_unexplained():
    """``scripts/option_audit.py`` exits 0: every option that no call sets,
    every public name that nothing outside the tests reaches and every
    class member that nothing outside the tests reads is kept with a
    reason."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "option_audit.py"), str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
