"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`Workload.prepare`,
not timed), times its set-up (:meth:`Workload.setup_once`), measures a
run of a given length (:meth:`Workload.measure`) and checks that run's
outputs (:meth:`Workload.check`).  A measurement carries what every
end-to-end metric needs; per-layer numbers come from the ledger of a
traced measurement (:meth:`Workload.layer_metrics`).

``serve_open``
    Open loop: packets are submitted when due on the real clock,
    whether or not earlier ones are fixed.
``serve_durable``
    Closed loop through :class:`~repro.serve.ServiceSupervisor`:
    snapshots, fsync'd journal, graceful stop, restore and resume.
``fig6_sweep``
    :func:`~repro.experiments.run_snr_band_experiment`, one location
    per call, all three systems, low band.
``ingest_captures``
    :func:`~repro.io.ingest.ingest_sources` over a written Intel 5300
    corpus, one site (one capture per AP) per call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import layers
from perfbench.streams import cohort_stream, prefix_stream, write_capture_corpus
from repro.core.grids import AngleGrid, DelayGrid
from repro.experiments import runner
from repro.io import ingest
from repro.serve import (
    LocalizationService,
    ServeConfig,
    ServiceSupervisor,
    SnapshotPolicy,
    median_fix_error_m,
    offline_reference,
)

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

#: The BENCH_serve solver working point.
SERVE_SOLVER = dict(
    batch_size=16,
    max_delay_s=0.05,
    window_packets=2,
    resolution_m=0.5,
    angle_grid=AngleGrid(n_points=61),
    delay_grid=DelayGrid(n_points=21),
    max_iterations=100,
)

#: A packet whose fix arrives later than this after it was due misses.
DEADLINE_S = 1.0
#: Service poll interval while a micro-batch waits for its deadline
#: (what ``LocalizationService.run`` uses).
POLL_S = 0.002
#: Streaming accuracy may trail the offline path by at most this much.
ACCURACY_MARGIN_M = 0.15


@dataclass
class Measurement:
    """One measured run of a workload."""

    #: ``time.perf_counter()`` when the measured window opened.
    started: float
    wall_s: float
    #: Wall time minus the open-loop sender's idle sleeps.
    busy_s: float
    #: CSI packets carried through to a result.
    packets: int
    #: Items attempted (packets, locations or captures) and their fates.
    attempted: int
    failed: int
    ok: int
    #: One latency per completed item, seconds.
    latencies_s: list[float]
    extra: dict = field(default_factory=dict)


class Workload:
    """Seeded inputs, set-up, measurement and output checks of one workload."""

    name = ""
    #: Set-ups timed per run, in three equal bursts; ``setup_s`` is their median.
    setup_repeats = 102

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self, seconds: float) -> None:
        raise NotImplementedError

    def setup_once(self) -> float:
        raise NotImplementedError

    def patches(self, ledger) -> list:
        raise NotImplementedError

    def measure(self, seconds: float, ledger=None) -> Measurement:
        raise NotImplementedError

    def check(self, measured: Measurement) -> list[str]:
        raise NotImplementedError

    def layer_metrics(self, ledger, measured: Measurement) -> dict:
        return {}

    def probe_problems(self) -> list:
        return []


# ---------------------------------------------------------------------------
# serve workloads
# ---------------------------------------------------------------------------


class _ServeHooks:
    """Queue waits (submit → the solve_batch call carrying the key) and solve stats."""

    def __init__(self, ledger) -> None:
        self.ledger = ledger
        self.stats = layers.SolveStats()
        self.pending_since: dict[str, float] = {}

    def after_submit(self, args, kwargs, reason, _token) -> None:
        packet = args[1]
        if reason is None:
            self.pending_since.setdefault(f"{packet.client}:{packet.ap}", self.ledger.clock())

    def before_batch(self, args, kwargs):
        now = self.ledger.clock()
        waits = self.ledger.samples["serve.queue_wait"]
        for key in kwargs.get("warm_keys") or ():
            since = self.pending_since.pop(key, None)
            if since is not None:
                waits.append(now - since)
        return self.stats.before_batch(args, kwargs)

    def patches(self) -> list:
        return [
            (f"{layers.SERVE}:LocalizationService.submit", "serve.admit", None, self.after_submit),
            (f"{layers.SERVE}:solve_batch", "optim.solve", self.before_batch, self.stats.after_batch),
        ] + layers.SERVE_LAYERS


class FixLatencyBook:
    """Packet → fix latency.

    A packet sent at ``sent_at`` is fixed by the first fix returned for
    its client whose session estimate for the packet's AP is at least
    the packet's time (``sessions[client].estimates[ap].time_s``).  The
    open loop sends each packet at its due time.
    """

    def __init__(self) -> None:
        self.latencies_s: list[float] = []
        self._outstanding: dict[tuple[str, str], deque] = {}

    def sent(self, packet, sent_at: float) -> None:
        queue = self._outstanding.setdefault((packet.client, packet.ap), deque())
        queue.append((packet.time_s, sent_at))

    def fixed(self, clients, sessions, now: float) -> None:
        for client in clients:
            for ap, estimate in sessions[client].estimates.items():
                queue = self._outstanding.get((client, ap))
                while queue and queue[0][0] <= estimate.time_s:
                    self.latencies_s.append(now - queue.popleft()[1])


class _ServeBase(Workload):
    robust = False

    def _config(self):
        return ServeConfig(**SERVE_SOLVER, robust=self.robust)

    def _service(self, clock):
        stream = self.stream
        service = LocalizationService(
            stream.room, stream.access_points, array=stream.array, layout=stream.layout,
            config=self._config(), clock=clock,
        )
        service.cache.warmup()
        return service

    def patches(self, ledger) -> list:
        self.hooks = _ServeHooks(ledger)
        return self.hooks.patches()

    def probe_problems(self) -> list:
        return self.hooks.stats.problems

    def _serve_metrics(self, ledger, measured: Measurement, service) -> dict:
        """Ledger metrics both serve workloads share."""
        stats = self.hooks.stats
        waits = ledger.samples["serve.queue_wait"]
        reported = service.metrics.to_dict().get("serve.fix_latency_s", {})
        return {
            "serve.queue_wait_p50_ms": _percentile_ms(waits, 50),
            "serve.queue_wait_p99_ms": _percentile_ms(waits, 99),
            "serve.batch_problems_mean": _mean(stats.batch_widths),
            "serve.fix_latency_p50_ms": _percentile_ms(measured.latencies_s, 50),
            "serve.fix_latency_p99_ms": _percentile_ms(measured.latencies_s, 99),
            "serve.reported_fix_latency_p99_ms": reported.get("p99", 0.0) * 1e3,
            "optim.warm_mb": service.warm_state.nbytes / 1e6,
            **_optim_metrics(stats),
        }


class ServeOpen(_ServeBase):
    """Open loop at a fixed offered rate on the real clock."""

    name = "serve_open"
    #: 1 stationary client arrives per second and stays 3 s (7 reports to
    #: each of 3 APs): 20 packets/s offered.  The seed runs it about 30 %
    #: busy with no growing backlog.  A busier loop amplifies the host's
    #: speed swings through the queue: at 30 packets/s (45 % busy) the p90
    #: latency moved by 30 % between runs, at 20 packets/s by 3 %.
    cohort = dict(clients_per_cohort=1, client_life_s=3.0, period_s=1.0, stationary_fraction=1.0)

    def prepare(self, seconds: float) -> None:
        n_cohorts = int(math.ceil(seconds / self.cohort["period_s"]))
        self.stream = prefix_stream(cohort_stream(self.seed, n_cohorts=n_cohorts, **self.cohort), seconds)

    def setup_once(self) -> float:
        started = time.perf_counter()
        self._service(time.perf_counter)
        return time.perf_counter() - started

    def measure(self, seconds: float, ledger=None) -> Measurement:
        stream = self.stream
        packets = stream.packets
        n = len(packets)
        service = self._service(time.perf_counter)
        lags = []
        fixes = []
        idle = 0.0
        sleep_span = (lambda: ledger.span("loadgen.idle")) if ledger else contextlib.nullcontext

        start = time.perf_counter()
        book = FixLatencyBook()
        index = 0
        while index < n:
            now = time.perf_counter()
            while index < n and start + packets[index].time_s <= now:
                packet = packets[index]
                lags.append(now - start - packet.time_s)
                if service.submit(packet) is None:
                    book.sent(packet, start + packet.time_s)
                index += 1
                now = time.perf_counter()
            batch = service.process_due()
            if batch:
                book.fixed([fix.client for fix in batch], service.sessions, time.perf_counter())
                fixes.extend(batch)
            if index < n:
                wait = start + packets[index].time_s - time.perf_counter()
                if service.pending:
                    wait = min(wait, POLL_S)
                if wait > 0:
                    with sleep_span():
                        slept = time.perf_counter()
                        time.sleep(wait)
                        idle += time.perf_counter() - slept
        batch = service.drain()
        book.fixed([fix.client for fix in batch], service.sessions, time.perf_counter())
        fixes.extend(batch)
        wall = time.perf_counter() - start

        latencies = book.latencies_s
        return Measurement(
            started=start,
            wall_s=wall,
            busy_s=wall - idle,
            packets=len(latencies),
            attempted=n,
            failed=n - len(latencies),
            ok=sum(1 for latency in latencies if latency <= DEADLINE_S),
            latencies_s=latencies,
            extra={"stream": stream, "fixes": fixes, "service": service, "lags": lags},
        )

    def check(self, measured: Measurement) -> list[str]:
        stream, fixes = measured.extra["stream"], measured.extra["fixes"]
        problems = []
        missing = set(stream.clients) - {fix.client for fix in fixes}
        if missing:
            problems.append(f"{len(missing)} client(s) never got a fix")
        if measured.failed:
            problems.append(f"{measured.failed} packet(s) rejected or never fixed")
        # The accuracy pairing covers the first half of the stream: the
        # offline path solves every packet alone, cold, and is slow.
        half = prefix_stream(stream, stream.duration_s / 2)
        early = [fix for fix in fixes if fix.time_s < stream.duration_s / 2]
        if early:
            served = median_fix_error_m(early, half)
            offline = median_fix_error_m(offline_reference(half, config=self._config()), half)
            if served > offline + ACCURACY_MARGIN_M:
                problems.append(
                    f"streaming median error {served:.3f} m exceeds the offline "
                    f"{offline:.3f} m by more than {ACCURACY_MARGIN_M} m"
                )
        return problems

    def layer_metrics(self, ledger, measured: Measurement) -> dict:
        return {
            **self._serve_metrics(ledger, measured, measured.extra["service"]),
            "loadgen.lag_p99_ms": _percentile_ms(measured.extra["lags"], 99),
            "accuracy.loc_error_median_m": median_fix_error_m(
                measured.extra["fixes"], measured.extra["stream"]
            ),
        }


class ServeDurable(_ServeBase):
    """Closed loop through the crash-safe supervisor, stopped and resumed.

    Each pair of cycles replays one stream twice: once uninterrupted,
    once stopped gracefully at mid-stream, restored from the snapshot
    directory by a new supervisor and resumed to the end.  Successive
    pairs use successive streams, so a run covers many clients.
    """

    name = "serve_durable"
    setup_repeats = 63
    robust = True
    #: 4 random-waypoint walkers arrive per second and stay 1 s.
    cohort = dict(clients_per_cohort=4, client_life_s=1.0, period_s=1.0, stationary_fraction=0.0)
    n_cohorts = 3
    #: Streams prepared per run; pairs cycle through them.
    n_streams = 16
    snapshot_every = 32

    def prepare(self, seconds: float) -> None:
        self.streams = [
            cohort_stream(self.seed * 100 + index, n_cohorts=self.n_cohorts, **self.cohort)
            for index in range(self.n_streams)
        ]
        self.stream = self.streams[0]
        self._cycles = 0

    def _policy(self):
        self._cycles += 1
        directory = self.workdir / f"snapshots-{self._cycles}"
        shutil.rmtree(directory, ignore_errors=True)
        return SnapshotPolicy(directory=directory, every_packets=self.snapshot_every, max_duty=0.0)

    def setup_once(self) -> float:
        policy = self._policy()
        started = time.perf_counter()
        with ServiceSupervisor(self._service, policy):
            pass
        return time.perf_counter() - started

    def _supervised(self, policy, book: FixLatencyBook, *, stop_at=None):
        """One supervisor run.

        Each packet counts as sent when the supervisor asks for it, and
        as fixed when a fix for its client is journaled; the journal's
        new lines are read between steps.
        """
        packets = self.stream.packets
        with ServiceSupervisor(self._service, policy) as supervisor, open(
            policy.fixes_path, encoding="utf-8"
        ) as journal:
            journal.seek(0, os.SEEK_END)
            delivered = [supervisor.n_delivered]

            def collect(now: float) -> None:
                if supervisor.n_delivered > delivered[0]:
                    delivered[0] = supervisor.n_delivered
                    clients = [json.loads(line)["client"] for line in journal.readlines()]
                    book.fixed(clients, supervisor.service.sessions, now)

            def stop() -> bool:
                now = time.perf_counter()
                collect(now)
                if stop_at is not None and supervisor.n_consumed >= stop_at:
                    return True
                book.sent(packets[supervisor.n_consumed], now)
                return False

            result = supervisor.run(packets, stop=stop)
            collect(time.perf_counter())
            rejected = sum(
                item.get("value", 0)
                for name, item in supervisor.service.metrics.to_dict().items()
                if name.startswith("serve.rejected.")
            )
            return result, rejected, supervisor.service

    def _cycle(self, interrupted: bool) -> dict:
        policy = self._policy()
        book = FixLatencyBook()
        if interrupted:
            stop_at = len(self.stream.packets) // 2
            first, rejected_a, _ = self._supervised(policy, book, stop_at=stop_at)
            second, rejected_b, service = self._supervised(policy, book)
            runs, rejected = [first, second], rejected_a + rejected_b
        else:
            only, rejected, service = self._supervised(policy, book)
            runs = [only]
        return {
            "stream": self.stream,
            "interrupted": interrupted,
            "runs": runs,
            "rejected": rejected,
            "latencies_s": book.latencies_s,
            "digest": hashlib.sha256(policy.fixes_path.read_bytes()).hexdigest(),
            "snapshots": sum(run.n_snapshots for run in runs),
            "snapshot_bytes": policy.snapshot_path.stat().st_size,
            "fixes": [fix for run in runs for fix in run.fixes],
            "service": service,
        }

    def measure(self, seconds: float, ledger=None) -> Measurement:
        cycles = []
        start = time.perf_counter()
        while not cycles or time.perf_counter() - start < seconds:
            self.stream = self.streams[len(cycles) // 2 % len(self.streams)]
            for interrupted in (False, True):
                cycle = self._cycle(interrupted)
                # Only the last service is kept (for the ledger): peak RSS
                # must not grow with the number of cycles a run fits.
                service = cycle.pop("service")
                cycles.append(cycle)
        wall = time.perf_counter() - start
        latencies = [latency for cycle in cycles for latency in cycle["latencies_s"]]
        n = sum(len(cycle["stream"].packets) for cycle in cycles)
        return Measurement(
            started=start, wall_s=wall, busy_s=wall, packets=len(latencies), attempted=n,
            failed=n - len(latencies), ok=len(latencies), latencies_s=latencies,
            extra={"cycles": cycles, "service": service},
        )

    def check(self, measured: Measurement) -> list[str]:
        cycles = measured.extra["cycles"]
        problems = []
        for plain, resumed in zip(cycles[::2], cycles[1::2]):
            n = len(plain["stream"].packets)
            if resumed["digest"] != plain["digest"]:
                problems.append("a resumed journal differs from the uninterrupted run's")
            expected = n // self.snapshot_every + 1
            if (plain["snapshots"], resumed["snapshots"]) != (expected, expected + 1):
                problems.append(
                    f"snapshot counts {plain['snapshots']}/{resumed['snapshots']} "
                    f"!= {expected}/{expected + 1}"
                )
            first, second = resumed["runs"]
            if not (first.interrupted and second.resumed):
                problems.append("the stop → restore → resume cycle did not stop and resume")
            missing = set(plain["stream"].clients) - {fix.client for fix in plain["fixes"]}
            if missing:
                problems.append(f"{len(missing)} client(s) never got a fix")
        if any(run.n_restarts for cycle in cycles for run in cycle["runs"]):
            problems.append("a supervisor restarted")
        rejected = sum(cycle["rejected"] for cycle in cycles)
        if rejected or measured.failed:
            problems.append(f"{rejected} packet(s) rejected, {measured.failed} never fixed")
        return problems

    def layer_metrics(self, ledger, measured: Measurement) -> dict:
        cycles = measured.extra["cycles"]
        return {
            **self._serve_metrics(ledger, measured, measured.extra["service"]),
            "resilience.snapshot_count": sum(cycle["snapshots"] for cycle in cycles),
            "resilience.snapshot_mb": _mean([cycle["snapshot_bytes"] for cycle in cycles]) / 1e6,
            "accuracy.loc_error_median_m": float(np.median([
                fix.error_to(cycle["stream"].truth_position(fix.client, fix.time_s))
                for cycle in cycles[::2] for fix in cycle["fixes"]
            ])),
        }

    def patches(self, ledger) -> list:
        return super().patches(ledger) + layers.RESILIENCE_LAYERS


# ---------------------------------------------------------------------------
# fig6_sweep
# ---------------------------------------------------------------------------


class Fig6Sweep(Workload):
    """The Fig. 6/7 low-band sweep, one location per call."""

    name = "fig6_sweep"
    setup_repeats = 42
    n_aps = 6
    n_packets = 15

    def prepare(self, seconds: float) -> None:
        reference = REFERENCE["fig6_sweep"]
        self.reference_seeds = list(reference["seeds"])

    def _call_seed(self, index: int) -> int:
        # The recorded reference locations come first; the rest are
        # drawn from the workload seed.
        if index < len(self.reference_seeds):
            return self.reference_seeds[index]
        return self.seed * 1_000 + index

    def setup_once(self) -> float:
        started = time.perf_counter()
        runner.default_systems()[0].cache.warmup()
        return time.perf_counter() - started

    def patches(self, ledger) -> list:
        self.stats = layers.SolveStats()
        return [
            ("repro.experiments.runner:run_snr_band_experiment", "experiments.sweep"),
            ("repro.core.fusion:solve_mmv_fista", "optim.solve", None, self.stats.after_single),
        ] + layers.SWEEP_LAYERS

    def probe_problems(self) -> list:
        return self.stats.problems

    def measure(self, seconds: float, ledger=None) -> Measurement:
        results = []
        latencies = []
        start = time.perf_counter()
        while len(results) < len(self.reference_seeds) or time.perf_counter() - start < seconds:
            called = time.perf_counter()
            result = runner.run_snr_band_experiment(
                "low", n_locations=1, n_packets=self.n_packets, n_aps=self.n_aps,
                seed=self._call_seed(len(results)), workers=0,
            )
            latencies.append(time.perf_counter() - called)
            results.append(result)
        wall = time.perf_counter() - start
        ok = sum(
            1 for result in results
            if all(
                len(outcomes) == 1 and math.isfinite(outcomes[0].location_error_m)
                for outcomes in result.outcomes.values()
            )
        )
        return Measurement(
            started=start, wall_s=wall, busy_s=wall, packets=len(results) * self.n_aps * self.n_packets,
            attempted=len(results), failed=len(results) - ok, ok=ok,
            latencies_s=latencies, extra={"results": results},
        )

    def _reference_medians(self, measured: Measurement) -> tuple[float, float]:
        outcomes = [
            result.outcomes["ROArray"][0]
            for result in measured.extra["results"][: len(self.reference_seeds)]
        ]
        return (
            float(np.median([o.location_error_m for o in outcomes])),
            float(np.median([e for o in outcomes for e in o.direct_aoa_errors_deg])),
        )

    def check(self, measured: Measurement) -> list[str]:
        reference = REFERENCE["fig6_sweep"]
        problems = []
        if measured.failed:
            problems.append(f"{measured.failed} location(s) missing a system's outcome")
        location_m, aoa_deg = self._reference_medians(measured)
        if abs(location_m - reference["roarray_location_error_median_m"]) > reference["tolerance_m"]:
            problems.append(
                f"ROArray reference median location error {location_m:.6f} m != recorded "
                f"{reference['roarray_location_error_median_m']:.6f} m"
            )
        if abs(aoa_deg - reference["roarray_direct_aoa_error_median_deg"]) > reference["tolerance_deg"]:
            problems.append(
                f"ROArray reference median AoA error {aoa_deg:.6f} deg != recorded "
                f"{reference['roarray_direct_aoa_error_median_deg']:.6f} deg"
            )
        return problems

    def layer_metrics(self, ledger, measured: Measurement) -> dict:
        location_m, aoa_deg = self._reference_medians(measured)
        return {
            **_optim_metrics(self.stats),
            "accuracy.loc_error_median_m": location_m,
            "accuracy.aoa_error_median_deg": aoa_deg,
        }


# ---------------------------------------------------------------------------
# ingest_captures
# ---------------------------------------------------------------------------


class IngestCaptures(Workload):
    """Bulk ingestion of a seeded Intel 5300 ``.dat`` corpus, one site per call."""

    name = "ingest_captures"
    setup_repeats = 6
    n_sites = 4
    n_aps = 3
    n_packets = 400

    def prepare(self, seconds: float) -> None:
        sites = write_capture_corpus(
            self.seed, self.workdir / "corpus",
            n_sites=self.n_sites, n_aps=self.n_aps, n_packets=self.n_packets,
        )
        self.sites = sites
        self.captures = [capture for site in sites for capture in site]
        self.out_dir = self.workdir / "artifacts"

    def setup_once(self) -> float:
        """A cold start of the ingest tool: a fresh interpreter importing
        the ingest path and building the default Intel stage pipeline.
        ``ingest_sources`` keeps no state, so this is all the set-up an
        ingestion pays."""
        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", INGEST_COLD_START], env=env, check=True)
        return time.perf_counter() - started

    def patches(self, ledger) -> list:
        return list(layers.INGEST_LAYERS)

    def measure(self, seconds: float, ledger=None) -> Measurement:
        records = []
        latencies = []
        start = time.perf_counter()
        while len(records) < len(self.captures) or time.perf_counter() - start < seconds:
            site = self.sites[len(latencies) % len(self.sites)]
            called = time.perf_counter()
            result = ingest.ingest_sources([str(c.path) for c in site], out_dir=self.out_dir)
            latencies.append(time.perf_counter() - called)
            records.extend(result.records)
        wall = time.perf_counter() - start
        ok = [record for record in records if record.ok]
        return Measurement(
            started=start, wall_s=wall, busy_s=wall, packets=sum(record.n_packets for record in ok),
            attempted=len(records), failed=len(records) - len(ok), ok=len(ok),
            latencies_s=latencies, extra={"records": records},
        )

    def check(self, measured: Measurement) -> list[str]:
        problems = []
        if measured.failed:
            problems.append(f"{measured.failed} capture(s) failed to ingest")
        artifacts = {Path(r.source).stem: r.output_path for r in measured.extra["records"] if r.ok}
        for capture in self.captures:
            with np.load(artifacts[capture.path.stem]) as data:
                csi = data["csi"]
            error = _quantization_error(csi, capture.exact)
            if error is None:
                problems.append(f"{capture.path.name}: shape {csi.shape} != {capture.exact.shape}")
            elif error > QUANTIZATION_TOLERANCE:
                problems.append(
                    f"{capture.path.name}: ingested CSI is {error:.3f} int8 units off the capture"
                )
        return problems


INGEST_COLD_START = (
    "import repro.io.calibration, repro.io.ingest, repro.io.intel, repro.io.stages; "
    "repro.io.stages.default_stages('intel-dat')"
)

#: |round(z) − z| ≤ √2/2 per element, plus the per-packet scale fit's error.
QUANTIZATION_TOLERANCE = 0.9


def _quantization_error(ingested: np.ndarray, exact: np.ndarray) -> float | None:
    """Largest per-element magnitude error, in int8 units, after undoing
    the NIC's per-packet scaling (STO removal only rotates phases)."""
    if ingested.shape != exact.shape:
        return None
    measured = np.abs(ingested).reshape(len(ingested), -1)
    truth = np.abs(exact).reshape(len(exact), -1)
    scale = np.sum(measured * truth, axis=1) / np.sum(truth * truth, axis=1)
    return float(np.max(np.abs(measured / scale[:, None] - truth)))


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _percentile_ms(values_s, q: float) -> float:
    return float(np.percentile(values_s, q)) * 1e3 if len(values_s) else 0.0


def _optim_metrics(stats: layers.SolveStats) -> dict:
    warm, cold = stats.iterations["warm"], stats.iterations["cold"]
    problems = len(warm) + len(cold)
    return {
        "optim.solve_calls": len(stats.batch_widths),
        "optim.problems": problems,
        "optim.iterations_mean_warm": _mean(warm),
        "optim.iterations_mean_cold": _mean(cold),
        "optim.converged_share": _mean(stats.converged),
        "optim.warm_hit_share": len(warm) / problems if problems else 0.0,
    }


WORKLOADS = {
    workload.name: workload
    for workload in (ServeOpen, ServeDurable, Fig6Sweep, IngestCaptures)
}

