"""``roarray serve --snapshot-dir``: graceful SIGTERM drain and resume.

The subprocess test runs the supervised serve CLI, sends SIGTERM once
the first fixes are journaled, asserts the resumable exit status (75),
finishes the run with ``roarray resume <snapshot-dir>``, and demands the
interrupted-then-resumed ack journal be byte-identical to an
uninterrupted run's.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runtime.checkpoint import EXIT_RESUMABLE
from repro.serve import LoadGenerator

REPO_ROOT = Path(__file__).resolve().parents[2]

SERVE_FLAGS = [
    "--batch-size", "4",
    "--max-delay", "0.01",
    "--window-packets", "4",
    "--min-quorum", "2",
    "--resolution", "0.5",
    "--angle-points", "61",
    "--delay-points", "21",
    "--iterations", "100",
    "--snapshot-every", "4",
    "--json",
]


def _spawn(*cli_args: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        "-c",
        "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
        *cli_args,
    ]
    return subprocess.Popen(
        command, env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True
    )


def _serve(workload_path: Path, snapshot_dir: Path) -> subprocess.Popen:
    return _spawn(
        "serve", str(workload_path), "--snapshot-dir", str(snapshot_dir), *SERVE_FLAGS
    )


def _wait_for_first_fix(journal: Path, *, timeout_s: float = 120.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            if journal.read_text().count("\n") >= 1:
                return
        except OSError:
            pass
        time.sleep(0.01)
    raise AssertionError(f"no fix journaled to {journal} within {timeout_s}s")


@pytest.mark.slow
def test_sigterm_exits_resumable_and_resume_is_byte_identical(tmp_path):
    workload_path = tmp_path / "workload.npz"
    LoadGenerator(
        n_clients=4,
        duration_s=2.0,
        sample_interval_s=0.1,
        stationary_fraction=0.25,
        n_aps=3,
        band="high",
        seed=11,
    ).generate().save(workload_path)

    # Uninterrupted reference run.
    steady_dir = tmp_path / "steady"
    steady = _serve(workload_path, steady_dir)
    stdout, _ = steady.communicate(timeout=300)
    assert steady.returncode == 0, stdout
    reference = json.loads(stdout)
    assert reference["n_delivered"] > 0 and not reference["interrupted"]

    # Interrupted run: SIGTERM once the journal shows delivered fixes.
    crashy_dir = tmp_path / "crashy"
    interrupted = _serve(workload_path, crashy_dir)
    _wait_for_first_fix(crashy_dir / "fixes.jsonl")
    interrupted.send_signal(signal.SIGTERM)
    stdout, _ = interrupted.communicate(timeout=300)
    assert interrupted.returncode == EXIT_RESUMABLE, stdout
    partial = json.loads(stdout)
    assert partial["interrupted"]
    assert partial["n_consumed"] < reference["n_consumed"]
    assert (crashy_dir / "service.json").exists()

    # `roarray resume` re-dispatches the recorded command and finishes
    # the stream.
    resumed = _spawn("resume", str(crashy_dir))
    stdout, _ = resumed.communicate(timeout=300)
    assert resumed.returncode == 0, stdout
    final = json.loads(stdout)
    assert final["resumed"] and not final["interrupted"]
    assert final["n_consumed"] == reference["n_consumed"]
    assert final["n_delivered"] == reference["n_delivered"]

    steady_journal = (steady_dir / "fixes.jsonl").read_bytes()
    crashy_journal = (crashy_dir / "fixes.jsonl").read_bytes()
    assert len(steady_journal) > 0
    assert crashy_journal == steady_journal
