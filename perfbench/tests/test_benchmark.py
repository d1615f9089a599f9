"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.harness import END_TO_END, LAYER_TIMES, PER_LAYER
from perfbench.ledger import Ledger
from perfbench.streams import cohort_stream, write_capture_corpus
from perfbench.workloads import (
    QUANTIZATION_TOLERANCE,
    WORKLOADS,
    FixLatencyBook,
    _quantization_error,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- packet → fix latency accounting -----------------------------------------


def _packet(client, ap, time_s):
    return SimpleNamespace(client=client, ap=ap, time_s=time_s)


def _sessions(**estimates):
    """``client=({ap: estimate time}, ...)`` → the service's session view."""
    return {
        client: SimpleNamespace(
            estimates={ap: SimpleNamespace(time_s=t) for ap, t in aps.items()}
        )
        for client, aps in estimates.items()
    }


def test_latency_runs_from_sending_to_the_fix_covering_the_packet():
    book = FixLatencyBook()
    for packet in [
        _packet("a", "ap1", 0.0), _packet("a", "ap2", 0.0),
        _packet("b", "ap1", 0.1), _packet("a", "ap1", 0.5),
    ]:
        book.sent(packet, sent_at=100.0 + packet.time_s)
    # a's ap1 estimate covers only its first packet; b has no fix yet.
    book.fixed(["a"], _sessions(a={"ap1": 0.0, "ap2": 0.0}), now=100.3)
    assert book.latencies_s == pytest.approx([0.3, 0.3])
    # A fix for b, then a newer a-fix that covers a's second ap1 packet.
    book.fixed(["b"], _sessions(b={"ap1": 0.1}), now=100.4)
    book.fixed(["a"], _sessions(a={"ap1": 0.5, "ap2": 0.0}), now=101.0)
    assert book.latencies_s == pytest.approx([0.3, 0.3, 0.3, 0.5])


def test_a_fix_for_another_client_completes_nothing():
    book = FixLatencyBook()
    book.sent(_packet("a", "ap1", 1.0), sent_at=1.0)
    book.fixed(["b"], _sessions(a={"ap1": 5.0}, b={"ap1": 5.0}), now=9.0)
    assert book.latencies_s == []


# -- seeded inputs -------------------------------------------------------------


def _stream(seed):
    return cohort_stream(
        seed, n_cohorts=2, clients_per_cohort=2, client_life_s=1.0,
        period_s=1.0, stationary_fraction=0.5,
    )


def _fingerprint(stream):
    return [(p.client, p.ap, p.time_s, np.asarray(p.csi).tobytes()) for p in stream.packets]


def test_identical_seeds_build_identical_streams():
    first, second = _stream(7), _stream(7)
    assert _fingerprint(first) == _fingerprint(second)
    assert first.truth == second.truth
    assert _fingerprint(_stream(8)) != _fingerprint(first)


def test_cohorts_arrive_one_period_apart():
    stream = _stream(3)
    times = {c: min(t for t, _ in track) for c, track in stream.truth.items()}
    assert all(0.0 <= t < 0.5 for c, t in times.items() if c.startswith("k000-"))
    assert all(1.0 <= t < 1.5 for c, t in times.items() if c.startswith("k001-"))


def test_identical_seeds_write_identical_corpora(tmp_path):
    def corpus(seed, name):
        sites = write_capture_corpus(seed, tmp_path / name, n_sites=1, n_aps=2, n_packets=3)
        return [(c.path.read_bytes(), c.exact.tobytes()) for site in sites for c in site]

    assert corpus(5, "a") == corpus(5, "b")
    assert corpus(5, "a") != corpus(6, "c")


def test_quantization_check_accepts_scaled_rotated_captures_and_rejects_others():
    rng = np.random.default_rng(0)
    exact = (rng.normal(size=(4, 3, 30)) + 1j * rng.normal(size=(4, 3, 30))) * 40
    quantized = np.round(exact.real) + 1j * np.round(exact.imag)
    ramp = np.exp(1j * 0.3 * np.arange(30))
    ingested = quantized * np.array([0.5, 2.0, 3.0, 7.0])[:, None, None] * ramp
    assert _quantization_error(ingested, exact) <= QUANTIZATION_TOLERANCE
    corrupted = ingested.copy()
    corrupted[1, 2, 5] *= 1.5
    assert _quantization_error(corrupted, exact) > QUANTIZATION_TOLERANCE
    assert _quantization_error(ingested[:, :2], exact) is None


# -- ledger --------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    ledger = Ledger(clock=lambda: next(ticks))
    with ledger.span("outer"):
        with ledger.span("inner"):
            pass
        with ledger.span("inner"):
            pass
    assert ledger.total_s == {"outer": 10.0, "inner": 4.0}
    assert ledger.self_s == {"outer": 6.0, "inner": 4.0}
    assert sum(ledger.self_s.values()) == 10.0
    assert [depth for *_, depth in ledger.spans] == [1, 1, 0]


def test_installed_wrappers_time_the_caller_lookup_and_restore_it():
    import repro.core.fusion as fusion

    original = fusion.svd_reduce_snapshots
    ledger = Ledger()
    with ledger.installed([("repro.core.fusion:svd_reduce_snapshots", "core.svd")]):
        assert fusion.svd_reduce_snapshots is not original
        fusion.svd_reduce_snapshots(np.eye(4, dtype=complex), 2)
    assert fusion.svd_reduce_snapshots is original
    assert ledger.calls["core.svd"] == 1


# -- metric names ----------------------------------------------------------------


def test_metric_names_are_well_formed_and_declared_in_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared_e2e == END_TO_END
    assert declared_layer == PER_LAYER
    for name in [*END_TO_END, *PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert set(LAYER_TIMES) <= set(PER_LAYER)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
