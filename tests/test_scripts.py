"""The scripts under scripts/, run the way a user runs them."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

CLI = "from wftas.cli import main; import sys; sys.exit(main(sys.argv[1:]))"

# SHA-256 of the stdout of every seeded command.  These outputs are
# deterministic and must stay byte-identical from one change to the
# next; a change to one of them is a change in behaviour.
PINNED = {
    "wftas check":
        "111d934760b52defa3d8017f7b5177b87c8cc72ced98d54effd81905d20f73a4",
    "wftas check --json":
        "337d409deaf3507cd4a1790af3705f862021c47a40a4f0489406075bff63b070",
    "wftas expect --verify --policy":
        "b14481bc80ea5099569d7752568e4298c3a276a7aab60e3726589c5c7e421a2e",
    "wftas dump-fa3":
        "e568f05db1e97a5c355e354795ff9843ead3dc9160a227d4508edb0e467c5a7b",
    "wftas simulate --ops 100 --adversary round-robin --seed 0":
        "5ac547ad45c1be638b7f514705102e3d217ea70c22b116e49a4cd8f04276477e",
    "wftas simulate --ops 100 --adversary optimal --seed 1":
        "aaeff820ce166b752fad69d8258d28c13c46887f574a7eeab01ba178bef4217e",
    "wftas simulate --ops 200 --adversary random --seed 13":
        "6dc7147f431293dd7286ff558f60360c1ce799b4f095fdbfece1b3eba7e7d5e8",
    "wftas tournament --n 3":
        "acf037b4e935c445e63d2379645e161bf094cb752ef0cd19a477c9130a3cfe70",
    "wftas tournament --n 3 --budget 10":
        "acf037b4e935c445e63d2379645e161bf094cb752ef0cd19a477c9130a3cfe70",
    "scripts/reproduce_table.py --diff":
        "e712c60ce2c039adf24a764ac24baddd0c3ecec052426e8b10e4e51c44cf737c",
    "scripts/loop_experiment.py --visits 1000 --seed 0":
        "d7eeb987aff72ec046700605b7387060b4d2eb9736ac9bca57cf9e6ebe97a8fb",
    "scripts/tournament_demo.py --n 4":
        "2acc19719bb61b4d1e12be86b390ff7c002d21a675cc3a31d3687b03132ba794",
}

# SHA-256 of the `--trace` file of a seeded tournament search: every
# node access, rebuilt from the tree's log, in the file's line format.
# The n=3 run is the guided schedule, in which a loser resets the node
# it won, so a role's second operation at a node is numbered too.
PINNED_TRACES = {
    "wftas tournament --n 4 --seed 2":
        "b6471a681ba0b1c2eb4fe51ead876a2252e0299e4e8b25b58eebf32a4e9a6767",
    "wftas tournament --n 3":
        "78ac88dacd0b2e12a9f8e8d804701c199628a1ef137ae9f189a3494aa7f2d56a",
}

# SHA-256 of the `--stats` CSV of a seeded simulation: one row per
# operation, in start order.
PINNED_STATS = {
    "wftas simulate --ops 2000 --adversary random --seed 1":
        "071a34db496b35b1de2ec42bd4e7a29e3760e02b38489b88e9bcd74928a6e1d3",
}

# The report of `wftas lint-trace` on the stdout of a seeded simulation.
PINNED_LINT = {
    "wftas simulate --ops 2000 --adversary random --seed 1":
        "linearizable: 5733 accesses, 2884 operations\n",
}


def run(argv, text=True, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], input=stdin,
        capture_output=True, text=text, env=env, cwd=ROOT, timeout=120,
    )


def run_script(name, *args):
    return run([str(ROOT / "scripts" / name), *args])


def test_reproduce_table_diff():
    out = run_script("reproduce_table.py", "--diff")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "recomputation matches the shipped table exactly" in out.stdout.splitlines()


@pytest.mark.parametrize("cmd", list(PINNED))
def test_seeded_output_pinned(cmd):
    prog, *args = cmd.split()
    if prog == "wftas":
        argv = ["-c", CLI, *args]
    else:
        argv = [str(ROOT / prog), *args]
    out = run(argv, text=False)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout).hexdigest() == PINNED[cmd]


@pytest.mark.parametrize("cmd", list(PINNED_TRACES))
def test_trace_file_pinned(cmd, tmp_path):
    path = tmp_path / "trace.jsonl"
    out = run(["-c", CLI, *cmd.split()[1:], "--trace", str(path)], text=False)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACES[cmd]


@pytest.mark.parametrize("cmd", list(PINNED_STATS))
def test_stats_file_pinned(cmd, tmp_path):
    path = tmp_path / "stats.csv"
    out = run(["-c", CLI, *cmd.split()[1:], "--stats", str(path)], text=False)
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_STATS[cmd]


@pytest.mark.parametrize("cmd", list(PINNED_LINT))
def test_lint_report_pinned(cmd):
    trace = run(["-c", CLI, *cmd.split()[1:]])
    assert trace.returncode == 0, trace.stderr
    out = run(["-c", CLI, "lint-trace"], stdin=trace.stdout)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout == PINNED_LINT[cmd]


def test_tournament_demo():
    out = run_script("tournament_demo.py", "--n", "3")
    assert out.returncode == 0, out.stdout + out.stderr
