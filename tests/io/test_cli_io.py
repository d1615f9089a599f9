"""CLI-level tests for the unified trace-source grammar and --json."""

import json

import pytest

from repro.cli import main

REGISTRY = "tests/fixtures/real_captures"


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


class TestIngest:
    def test_ingest_json(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            [
                "ingest",
                "tests/fixtures/real_captures/ap_west.dat",
                "--out",
                str(tmp_path),
                "--json",
            ],
        )
        assert code == 0
        assert payload["ok"]
        [record] = payload["records"]
        assert record["source_format"] == "intel-dat"
        assert record["n_packets"] == 8
        assert record["calibration"]["n_antennas"] == 3

    def test_ingest_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "junk.dat"
        bad.write_bytes(b"nope")
        with pytest.warns(RuntimeWarning):
            code = main(["ingest", str(bad), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert not payload["ok"]

    def test_ingest_registers_datasets(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "tests/fixtures/real_captures/ap_west.dat",
                "--out",
                str(tmp_path / "traces"),
                "--registry",
                str(tmp_path),
                "--register-prefix",
                "site/",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"][0]["dataset"] == "site/ap_west"
        code = main(
            ["analyze", "dataset://site/ap_west", "--registry", str(tmp_path), "--json"]
        )
        assert code == 0


class TestBatchSources:
    def test_synthetic_flag_still_works(self, capsys):
        code, payload, _ = run_json(
            capsys, ["batch", "--synthetic", "2", "--packets", "3", "--json"]
        )
        assert code == 0
        labels = [o["label"] for o in payload["outcomes"]]
        assert labels == ["synthetic[0]", "synthetic[1]"]

    def test_mixed_sources(self, tmp_path, capsys):
        code, payload, _ = run_json(
            capsys,
            ["batch", "synthetic://fixed?aoa=100&packets=3",
             "dataset://lab/ap-west", "--registry", REGISTRY, "--json"],
        )
        assert code == 0
        assert len(payload["outcomes"]) == 2

    def test_localize_needs_dataset_sources(self, capsys):
        code = main(
            ["batch", "--synthetic", "1", "--packets", "3", "--localize", "--json"]
        )
        assert code == 2
        assert "localize" in capsys.readouterr().err


class TestAnalyze:
    def test_dataset_source_with_preprocess(self, capsys):
        code, payload, _ = run_json(
            capsys,
            ["analyze", "dataset://lab/spotfi-sample", "--registry", REGISTRY,
             "--preprocess", "--json"],
        )
        assert code == 0
        assert payload["direct"]["aoa_deg"] == pytest.approx(114.0, abs=1.0)


class TestJsonEverywhere:
    def test_loadgen_json(self, tmp_path, capsys):
        out = tmp_path / "load.npz"
        code, payload, _ = run_json(
            capsys,
            ["loadgen", str(out), "--clients", "2", "--duration", "1",
             "--band", "medium", "--json"],
        )
        assert code == 0
        assert payload["clients"] == 2
        assert payload["packets"] > 0
        assert out.exists()

    def test_resume_json(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        main(["batch", "--synthetic", "2", "--packets", "3",
              "--checkpoint", str(ckpt), "--json"])
        capsys.readouterr()
        code = main(["resume", str(ckpt), "--json"])
        captured = capsys.readouterr()
        assert code == 0
        # The status payload leads stderr; the replayed command's own
        # progress may follow it.
        start = captured.err.index("{")
        payload, _ = json.JSONDecoder().raw_decode(captured.err[start:])
        assert payload["journals"][0]["complete"]
        # The replayed batch emits its (fully journaled) result on stdout.
        replay = json.loads(captured.out)
        assert len(replay["outcomes"]) == 2

    def test_band_spec_spelling(self, tmp_path, capsys):
        out = tmp_path / "load.jsonl"
        code = main(
            ["loadgen", str(out), "--clients", "1", "--duration", "1",
             "--band", "synthetic://band/low", "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["band"] == "low"

    def test_bad_band_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["loadgen", str(tmp_path / "x.jsonl"), "--band", "random"])
        assert "not an SNR band" in capsys.readouterr().err
