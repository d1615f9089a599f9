"""Real and synthetic sources through ``roarray batch``, the one trace driver."""

import contextlib
import io
import json

from repro.cli import main

FIXTURES = "tests/fixtures/real_captures"


def run_batch(argv):
    """Run ``roarray batch ... --json`` and return (exit code, payload)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["batch", *argv, "--json"])
    return code, json.loads(out.getvalue())


class TestEndToEnd:
    def test_raw_stages_none(self):
        code, payload = run_batch(["dataset://lab/ap-west", "--registry", FIXTURES])
        assert code == 0
        assert len(payload["outcomes"]) == 1

    def test_synthetic_sources_flow_through(self):
        code, payload = run_batch(["synthetic://random?n=2&packets=4&seed=1"])
        assert code == 0
        labels = [row["label"] for row in payload["outcomes"]]
        assert labels == ["synthetic[0]", "synthetic[1]"]

    def test_result_serializes(self):
        code, payload = run_batch(["dataset://lab/ap-west", "--registry", FIXTURES])
        assert code == 0
        assert payload["outcomes"][0]["label"] == "dataset://lab/ap-west"
        assert payload.get("fix") is None
        assert payload["report"]["n_jobs"] == 1
