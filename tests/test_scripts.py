"""The scripts under scripts/, run the way a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_reproduce_table_diff():
    out = run_script("reproduce_table.py", "--diff")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "recomputation matches the shipped table exactly" in out.stdout.splitlines()
