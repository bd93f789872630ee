"""The repository's own checks run as tests."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _audit(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "option_audit.py"), str(root)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_option_audit_finds_nothing_unexplained():
    """``scripts/option_audit.py`` exits 0: every option that no call or
    only tests set, every public name that nothing outside the tests
    reaches and every class member that nothing outside the tests reads is
    kept with a reason."""
    proc = _audit(ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_option_audit_fails_on_an_option_only_tests_set(tmp_path):
    """A defaulted parameter that only a test sets, and that no entry of
    ``KEPT`` explains, fails the audit, which names it."""
    package = tmp_path / "src" / "dosedid"
    package.mkdir(parents=True)
    (package / "m.py").write_text("def f(a=1):\n    return a\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("from dosedid.m import f\n\nf(a=2)\n", encoding="utf-8")
    proc = _audit(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "m.py: f(a)" in proc.stdout


def test_option_audit_counts_a_fields_walk_as_reading_every_field(tmp_path):
    """A field that code reads only through ``dataclasses.fields`` of its
    class is read; the same field with no such walk is listed unread."""
    package = tmp_path / "src" / "dosedid"
    package.mkdir(parents=True)
    source = "from dataclasses import dataclass\n\n\n@dataclass\nclass C:\n    unseen: int\n"
    (package / "m.py").write_text(source, encoding="utf-8")
    proc = _audit(tmp_path)
    assert proc.returncode == 1 and "m.py: C.unseen" in proc.stdout, proc.stdout + proc.stderr
    walk = "import dataclasses\n\nfrom dosedid.m import C\n\nprint([f.name for f in dataclasses.fields(C)])\n"
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "s.py").write_text(walk, encoding="utf-8")
    proc = _audit(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
