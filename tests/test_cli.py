"""Tests for the command-line interface."""

import contextlib
import io
import json

import numpy as np
import pytest

from repro.channel.trace import CsiTrace
from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate", "out.npz"])
        assert args.snr == 10.0
        assert args.packets == 10

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "x.npz", "--system", "bogus"])


class TestSimulate:
    def test_writes_loadable_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        code = main(["simulate", str(out), "--packets", "3", "--snr", "12"])
        assert code == 0
        trace = CsiTrace.load(out)
        assert trace.n_packets == 3
        assert trace.snr_db == 12.0
        assert "wrote" in capsys.readouterr().out

    def test_blockage_flag_attenuates(self, tmp_path):
        plain = tmp_path / "a.npz"
        blocked = tmp_path / "b.npz"
        main(["simulate", str(plain), "--packets", "1"])
        main(["simulate", str(blocked), "--packets", "1", "--blockage-db", "12"])
        # Both valid traces with the same ground truth AoA.
        a, b = CsiTrace.load(plain), CsiTrace.load(blocked)
        assert a.direct_aoa_deg == b.direct_aoa_deg


class TestAnalyze:
    @pytest.mark.parametrize("system", ["roarray", "spotfi", "arraytrack"])
    def test_analyze_reports_direct_path(self, tmp_path, capsys, system):
        out = tmp_path / "trace.npz"
        main(["simulate", str(out), "--packets", "3", "--snr", "18", "--seed", "4"])
        code = main(["analyze", str(out), "--system", system])
        assert code == 0
        output = capsys.readouterr().out
        assert "direct path" in output
        assert "ground truth" in output


class TestLocalize:
    def test_end_to_end_fix(self, capsys):
        code = main(
            [
                "localize",
                "--system",
                "roarray",
                "--aps",
                "3",
                "--packets",
                "2",
                "--band",
                "high",
                "--resolution",
                "0.25",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "fix (" in output
        assert "error" in output


LAB_BATCH = [
    "batch",
    "dataset://lab/ap-west",
    "dataset://lab/ap-east",
    "dataset://lab/ap-south-1",
    "--registry",
    "tests/fixtures/real_captures",
    "--preprocess",
    "--localize",
    "--json",
]


def run_json(argv):
    """``main(argv)``'s exit code and parsed ``--json`` output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def without_report(payload):
    """Everything but the wall-clock batch report."""
    return {key: value for key, value in payload.items() if key != "report"}


@pytest.fixture(scope="module")
def lab_fix():
    """The committed lab captures, localized once for the whole module."""
    return run_json(LAB_BATCH + ["--workers", "0"])


class TestBatchLocalize:
    """``batch --localize`` on the lab datasets: real captures to one fix."""

    def test_fix_lands_thirty_centimetres_from_truth(self, lab_fix):
        code, payload = lab_fix
        assert code == 0
        assert payload["fix"]["n_aps"] == 3
        assert payload["fix"]["error_m"] == pytest.approx(0.30, abs=0.05)

    def test_every_ap_analyzes_within_ten_degrees(self, lab_fix):
        _, payload = lab_fix
        assert [row["ok"] for row in payload["outcomes"]] == [True, True, True]
        assert all(row["aoa_error_deg"] < 10.0 for row in payload["outcomes"])

    def test_worker_count_does_not_change_the_result(self, lab_fix):
        _, serial = lab_fix
        _, parallel = run_json(LAB_BATCH + ["--workers", "2"])
        assert parallel["outcomes"] == serial["outcomes"]
        assert parallel["fix"] == serial["fix"]

    def test_resumed_checkpoint_gives_the_same_json(self, tmp_path, lab_fix):
        code, first = run_json(LAB_BATCH + ["--checkpoint", str(tmp_path)])
        assert code == 0
        resumed_code, resumed = run_json(["resume", str(tmp_path)])
        assert resumed_code == 0
        assert without_report(resumed) == without_report(first) == without_report(lab_fix[1])

    def test_non_dataset_source_cannot_localize(self, capsys):
        code = main(
            ["batch", "synthetic://random?n=2&packets=3", "--localize", "--json"]
        )
        assert code == 2
        assert "dataset:// reference with AP geometry" in capsys.readouterr().err


class TestReport:
    def test_writes_markdown_file(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        code = main(["report", str(out), "--sections", "fig3"])
        assert code == 0
        content = out.read_text()
        assert content.startswith("# ROArray evaluation report")
        assert "Fig. 3" in content

    def test_stdout_mode(self, capsys):
        assert main(["report", "-", "--sections", "fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out


class TestJsonMode:
    def test_analyze_json(self, tmp_path, capsys):
        out = tmp_path / "trace.npz"
        main(["simulate", str(out), "--packets", "3", "--snr", "18", "--seed", "4"])
        capsys.readouterr()
        assert main(["analyze", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "ROArray"
        assert set(payload["direct"]) == {"aoa_deg", "toa_s", "n_paths"}
        assert payload["aoa_error_deg"] is not None

    def test_batch_json(self, capsys):
        code = main(["batch", "--synthetic", "2", "--packets", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["outcomes"]) == 2
        assert all(row["ok"] for row in payload["outcomes"])
        report = payload["report"]
        assert report["n_jobs"] == 2
        assert "solver_s" in report["stages"]

    def test_report_json_stdout(self, capsys):
        assert main(["report", "-", "--sections", "fig3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sections"] == ["fig3"]
        assert "Fig. 3" in payload["markdown"]


class TestTrace:
    def test_trace_batch_writes_span_tree(self, tmp_path, capsys):
        trace_out = tmp_path / "trace.json"
        code = main(
            [
                "trace",
                "--trace-out",
                str(trace_out),
                "batch",
                "--synthetic",
                "2",
                "--packets",
                "3",
            ]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().err
        payload = json.loads(trace_out.read_text())
        spans = payload["spans"]
        names = {span["name"] for span in spans}
        assert {"batch_evaluate", "job", "fusion", "solver"} <= names
        roots = [span for span in spans if span["parent_id"] is None]
        assert [root["name"] for root in roots] == ["batch_evaluate"]
        solver_spans = [span for span in spans if span["name"] == "solver"]
        assert all("convergence" in span["attributes"] for span in solver_spans)

    def test_trace_without_command_fails(self, tmp_path, capsys):
        assert main(["trace", "--trace-out", str(tmp_path / "t.json")]) == 2
        assert "usage" in capsys.readouterr().err

    def test_trace_cannot_nest(self, capsys):
        assert main(["trace", "trace", "figures"]) == 2
        assert "nested" in capsys.readouterr().err


class TestTelemetryReport:
    def test_report_telemetry_appends_cost_table(self, capsys):
        assert main(["report", "-", "--sections", "fig3", "--telemetry"]) == 0
        output = capsys.readouterr().out
        assert "## Telemetry — where the time went" in output
        assert "| solver |" in output


class TestBenchBatched:
    def test_writes_batched_benchmark_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--batched", "--batch-sizes", "1", "3",
                "--iterations", "3", "--repeats", "1", "--output", str(out),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "batched solve" in output
        assert "speedup" in output
        payload = json.loads(out.read_text())
        assert payload["benchmark"] == "batched_solve"
        assert [row["batch_size"] for row in payload["batches"]] == [1, 3]
        assert all(row["max_relative_deviation"] <= 1e-12 for row in payload["batches"])
        assert [row["batch_size"] for row in payload["mmv"]] == [1, 3, 16, 1]
        assert all(row["max_relative_deviation"] <= 1e-12 for row in payload["mmv"])
        assert "mmv 61x21 p=2" in output

    def test_batched_json_mode(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench", "--batched", "--json", "--batch-sizes", "2",
                "--iterations", "2", "--repeats", "1", "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["benchmark"] == "batched_solve"
        assert out.exists()

    def test_unknown_backend_rejected(self):
        """No array-backend, device or precision flag exists any more."""
        for argv in (
            ["bench", "--batched", "--backend", "mlx"],
            ["bench", "--batched", "--backend", "numpy"],
            ["bench", "--batched", "--dtype", "complex64"],
            ["serve", "workload.npz", "--device", "cpu"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)


class TestFigures:
    def test_lists_every_paper_figure(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        for key in FIGURES:
            assert key in output
        assert "fig6" in output


class TestChaosDrills:
    def test_passing_drill_exits_zero_and_writes_scorecard(self, tmp_path, capsys):
        path = tmp_path / "scorecard.json"
        code = main(["chaos", "--scenario", "queue_storm", "--scorecard", str(path)])
        assert code == 0
        assert "[PASS] queue_storm" in capsys.readouterr().out
        scorecard = json.loads(path.read_text())
        assert scorecard["passed"] is True
        assert [s["name"] for s in scorecard["scenarios"]] == ["queue_storm"]

    def test_json_prints_the_scorecard(self, tmp_path, capsys):
        path = tmp_path / "scorecard.json"
        argv = ["chaos", "--scenario", "queue_storm", "--scorecard", str(path), "--json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(path.read_text())

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--scenario", "power_cut"],
            ["chaos", "--scenario", "queue_storm", "--scenario", "nlos_everything"],
        ],
    )
    def test_unknown_drill_exits_two_and_lists_the_catalogue(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert "unknown drill" in captured.err
        for name in ("baseline", "queue_storm", "nlos_single_ap", "ghost_multipath"):
            assert name in captured.err

    def test_serve_flag_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--serve"])

    def test_checkpoint_writes_a_resumable_manifest(self, tmp_path, capsys):
        from repro.runtime.checkpoint import read_manifest

        argv = ["chaos", "--scenario", "queue_storm", "--checkpoint", str(tmp_path), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert read_manifest(tmp_path) == argv
        assert main(["resume", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out) == first
