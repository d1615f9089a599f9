"""Command-line interface.

The subcommands cover the workflows a user has before writing code:

``roarray simulate``
    Synthesize a CSI trace for a random classroom link and save it as
    ``.npz`` (the :class:`~repro.channel.trace.CsiTrace` format).
``roarray analyze``
    Load a trace and run one of the three systems on it; prints the
    direct-path estimate and an ASCII AoA spectrum.
``roarray ingest``
    Pull real captures (Intel 5300 ``.dat``, SpotFi ``.mat``) through
    the preprocessing + validation pipeline, fit calibration, and write
    normalized ``.npz`` artifacts — optionally registering them as
    named datasets.
``roarray batch``
    Analyze many traces (or a synthetic sweep) through the parallel
    batch runtime; prints per-trace estimates and the
    :class:`~repro.runtime.report.RuntimeReport` summary.  ``--workers``
    changes throughput only — results are identical for any value.
    ``--localize`` additionally fuses dataset-backed traces into a
    position fix using the registry's AP geometry.
``roarray localize``
    Run one full multi-AP localization round end to end and print the
    fix against ground truth.
``roarray chaos``
    Inject a fault scenario (AP outages, antenna dropout, NaN-corrupted
    packets) into a multi-AP world and run it through the hardened
    runtime; prints the clean-vs-degraded localization table.
``roarray resume <dir>``
    Finish an interrupted ``--checkpoint`` run: reads the directory's
    manifest, reports percent-complete per journal, and re-dispatches
    the original command — journaled jobs replay, missing ones compute.
``roarray loadgen``
    Generate a streaming workload — many mobile clients walking a
    classroom, one CSI packet per AP per trajectory sample — and save
    it as one replayable ``.npz``.
``roarray serve``
    Replay a saved workload through the streaming localization service
    (:mod:`repro.serve`): micro-batched solves, warm starts, per-AP
    health, Kalman tracks.  Prints fix throughput, latency quantiles
    and the reject/drop taxonomies.
``roarray figures``
    List the paper's figures and the benchmark that regenerates each.
``roarray trace <command> ...``
    Run any other subcommand with tracing enabled and write the span
    tree to ``--trace-out`` (default ``trace.json``).

Every command that reads a trace (``analyze``, ``batch``, ``ingest``)
accepts one unified source grammar, resolved by
:func:`repro.io.open_trace`: a file path (``.npz`` / ``.dat`` /
``.mat``, format sniffed), a ``dataset://name`` registry reference, or
a ``synthetic://scenario?params`` spec (bare scenario names work too).
Band arguments (``localize``, ``chaos``, ``loadgen``) likewise accept
``synthetic://band/medium`` alongside the bare name.

Every subcommand that reports results accepts ``--json`` for
machine-readable output instead of the human-readable blocks.
All output goes through :mod:`repro.experiments.reporting.console`.

Also runnable as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.channel.array import UniformLinearArray
from repro.channel.csi import CsiSynthesizer
from repro.channel.impairments import ImpairmentModel
from repro.channel.ofdm import intel5300_layout
from repro.channel.paths import random_profile
from repro.channel.trace import CsiTrace
from repro.obs import NULL_TRACER


def _tracer_of(args: argparse.Namespace):
    """The tracer installed by ``roarray trace`` (null tracer otherwise)."""
    tracer = getattr(args, "tracer", None)
    return NULL_TRACER if tracer is None else tracer


def _build_system(name: str, tracer=NULL_TRACER):
    from repro.baselines.arraytrack import ArrayTrackEstimator
    from repro.baselines.spotfi import SpotFiEstimator
    from repro.core.pipeline import RoArrayEstimator

    if name == "roarray":
        return RoArrayEstimator(tracer=tracer)
    systems = {
        "spotfi": SpotFiEstimator,
        "arraytrack": ArrayTrackEstimator,
    }
    return systems[name]()


def _preprocess(trace: CsiTrace) -> CsiTrace:
    """Apply the format-appropriate default preprocessing stages."""
    from repro.io import default_stages, run_stages

    cleaned, _reports = run_stages(trace, default_stages(trace.source_format))
    return cleaned


def _band_arg(value: str) -> str:
    """argparse type for band options: bare name or synthetic:// spelling."""
    from repro.exceptions import IngestError
    from repro.io import scenario_band

    try:
        return scenario_band(value)
    except IngestError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit

    rng = np.random.default_rng(args.seed)
    profile = random_profile(
        rng,
        n_paths=args.paths,
        direct_aoa_deg=args.aoa,
        direct_toa_s=30e-9,
    )
    if args.blockage_db > 0:
        profile = profile.with_direct_attenuation(args.blockage_db)
    synthesizer = CsiSynthesizer(
        UniformLinearArray(), intel5300_layout(), ImpairmentModel(), seed=args.seed
    )
    trace = synthesizer.packets(profile, n_packets=args.packets, snr_db=args.snr, rng=rng)
    trace.save(args.output)
    emit(
        f"wrote {args.output}: {trace.n_packets} packets, "
        f"{trace.n_antennas}×{trace.n_subcarriers} CSI, SNR {trace.snr_db:g} dB, "
        f"direct AoA {trace.direct_aoa_deg:g}°"
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.text import format_spectrum_ascii
    from repro.experiments.reporting.console import emit, emit_json

    from repro.io import open_trace

    tracer = _tracer_of(args)
    trace = open_trace(args.trace, registry=args.registry)
    if args.preprocess:
        trace = _preprocess(trace)
    system = _build_system(args.system, tracer)
    with tracer.span("analyze", system=system.name):
        analysis = system.analyze(trace)
    truth = None if np.isnan(trace.direct_aoa_deg) else float(trace.direct_aoa_deg)
    error = None if truth is None else abs(float(analysis.direct.aoa_deg) - truth)
    if args.json:
        emit_json(
            {
                "system": system.name,
                "trace": args.trace,
                "direct": {
                    "aoa_deg": float(analysis.direct.aoa_deg),
                    "toa_s": None if np.isnan(analysis.direct.toa_s) else float(analysis.direct.toa_s),
                    "n_paths": int(analysis.direct.n_paths),
                },
                "truth_aoa_deg": truth,
                "aoa_error_deg": error,
            }
        )
        return 0
    emit(f"system: {system.name}")
    emit(
        f"direct path: AoA {analysis.direct.aoa_deg:.1f}°"
        + ("" if np.isnan(analysis.direct.toa_s) else f", ToA {analysis.direct.toa_s * 1e9:.0f} ns")
        + f", {analysis.direct.n_paths} path(s) resolved"
    )
    if truth is not None:
        emit(f"ground truth: AoA {truth:.1f}° (error {error:.1f}°)")
    if hasattr(system, "aoa_spectrum"):
        emit("AoA spectrum:")
        emit(format_spectrum_ascii(system.aoa_spectrum(trace)))
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit, emit_json
    from repro.io import DatasetRegistry, ingest_sources

    tracer = _tracer_of(args)
    registry = None
    if args.register_prefix is not None:
        registry = DatasetRegistry(args.registry)
    if args.checkpoint:
        from repro.runtime import write_manifest

        write_manifest(args.checkpoint, getattr(args, "argv", []))
    result = ingest_sources(
        args.sources,
        out_dir=args.out,
        calibrate=not args.no_calibrate,
        expected_shape=tuple(args.expect_shape) if args.expect_shape else None,
        registry=registry,
        register_prefix=args.register_prefix,
        overwrite=args.overwrite,
        checkpoint_dir=args.checkpoint,
        tracer=tracer,
    )
    if args.json:
        emit_json(result.to_dict())
        return 0 if result.ok else 1
    for record in result.records:
        if record.ok:
            line = (
                f"{record.n_packets} packets, "
                f"{record.n_antennas}×{record.n_subcarriers} [{record.source_format}]"
            )
            if record.snr_db is not None:
                line += f", SNR {record.snr_db:.1f} dB"
            if record.calibration is not None:
                spread = record.calibration["detection_delay_range_s"] * 1e9
                line += f", delay spread {spread:.1f} ns"
            if record.output_path:
                line += f" → {record.output_path}"
            if record.dataset:
                line += f" (dataset://{record.dataset})"
        else:
            line = f"FAILED [{record.error_kind or 'unknown'}] ({record.error})"
        emit(f"  {record.label:<28} {line}")
    if result.n_replayed:
        emit(f"{result.n_replayed} source(s) replayed from checkpoint", stream=sys.stderr)
    if result.n_failed:
        emit("failure summary:")
        for group in result.failure_summary():
            emit(
                f"  {group['count']:>4}× [{group['error_kind']}] {group['error']}"
                f" (e.g. {group['sources'][0]})"
            )
    emit(f"{len(result.records) - result.n_failed}/{len(result.records)} trace(s) ingested")
    return 0 if result.ok else 1


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit, emit_json
    from repro.io import DatasetRegistry, open_traces, resolve_source
    from repro.runtime import BatchEvaluator

    tracer = _tracer_of(args)
    sources = list(args.traces)
    if args.synthetic > 0:
        # Sugar for the unified spec; the generation loop inside
        # synthesize_from_spec matches the historical --synthetic loop
        # bit for bit.
        sources.append(
            f"synthetic://random?n={args.synthetic}"
            f"&packets={args.packets}&snr={args.snr:g}&seed={args.seed}"
        )
    if not sources:
        emit(
            "nothing to do: pass trace sources (paths, dataset:// refs, "
            "synthetic:// specs) or --synthetic N",
            stream=sys.stderr,
        )
        return 2

    registry = None
    labels: list[str] = []
    traces: list[CsiTrace] = []
    entries: list = []  # DatasetEntry | None, aligned with traces
    for source in sources:
        resolved = resolve_source(source)
        entry = None
        if resolved.kind == "dataset":
            if registry is None:
                registry = DatasetRegistry(args.registry)
            entry = registry.entry(resolved.dataset)
        for label, trace in open_traces(source, registry=registry):
            if args.preprocess:
                trace = _preprocess(trace)
            labels.append(label)
            traces.append(trace)
            entries.append(entry)

    system = _build_system(args.system, tracer)
    evaluator = BatchEvaluator(
        system, workers=args.workers, chunk_size=args.chunk_size, base_seed=args.seed,
        tracer=tracer,
    )
    checkpoint = None
    if args.checkpoint:
        from pathlib import Path

        from repro.runtime import CheckpointPolicy, write_manifest

        write_manifest(args.checkpoint, getattr(args, "argv", []))
        checkpoint = CheckpointPolicy(
            path=Path(args.checkpoint) / "batch.jsonl", experiment="batch"
        )
    result = evaluator.evaluate(traces, checkpoint=checkpoint)

    fix_payload = None
    if args.localize:
        fix_payload, problem = _batch_fix(
            entries, traces, result.outcomes, resolution_m=args.resolution
        )
        if problem is not None:
            emit(f"cannot localize: {problem}", stream=sys.stderr)
            return 2

    if args.json:
        rows = []
        for label, trace, outcome in zip(labels, traces, result.outcomes):
            row: dict = {"label": label, "ok": outcome.ok}
            if outcome.ok:
                row["aoa_deg"] = float(outcome.analysis.direct.aoa_deg)
                row["n_paths"] = int(outcome.analysis.direct.n_paths)
                if not np.isnan(trace.direct_aoa_deg):
                    row["aoa_error_deg"] = abs(
                        float(outcome.analysis.direct.aoa_deg) - float(trace.direct_aoa_deg)
                    )
            else:
                row["failure"] = {
                    "error_type": outcome.failure.error_type,
                    "message": outcome.failure.message,
                }
            rows.append(row)
        payload = {"outcomes": rows, "report": result.report.to_dict()}
        if fix_payload is not None:
            payload["fix"] = fix_payload
        emit_json(payload)
        return 1 if result.failures else 0
    for label, trace, outcome in zip(labels, traces, result.outcomes):
        if outcome.ok:
            line = (
                f"AoA {outcome.analysis.direct.aoa_deg:6.1f}° | "
                f"{outcome.analysis.direct.n_paths} path(s)"
            )
            if not np.isnan(trace.direct_aoa_deg):
                line += f" | error {abs(outcome.analysis.direct.aoa_deg - trace.direct_aoa_deg):.1f}°"
        else:
            line = f"FAILED ({outcome.failure.error_type}: {outcome.failure.message})"
        emit(f"  {label:<24} {line}")
    if fix_payload is not None:
        line = (
            f"fix ({fix_payload['position'][0]:.2f}, "
            f"{fix_payload['position'][1]:.2f}) m from {fix_payload['n_aps']} AP(s)"
        )
        if "error_m" in fix_payload:
            line += (
                f" | truth ({fix_payload['truth'][0]:.2f}, "
                f"{fix_payload['truth'][1]:.2f}) m | error {fix_payload['error_m']:.2f} m"
            )
        emit("")
        emit(line)
    emit("")
    emit(result.report.summary())
    return 1 if result.failures else 0


def _batch_fix(entries, traces, outcomes, *, resolution_m):
    """Fuse dataset-backed batch outcomes into one position fix.

    Returns ``(payload, problem)`` — exactly one is ``None``.  Requires
    every source to be a ``dataset://`` reference whose manifest records
    the capturing AP's geometry.
    """
    from repro.channel.geometry import Room
    from repro.core.localization import ApObservation, localize_weighted_aoa

    observations = []
    room = None
    truth = None
    for entry, trace, outcome in zip(entries, traces, outcomes):
        if entry is None or entry.access_point() is None:
            return None, (
                "--localize needs every source to be a dataset:// reference "
                "with AP geometry in the registry"
            )
        if not outcome.ok:
            continue
        observations.append(
            ApObservation(
                entry.access_point(),
                float(outcome.analysis.direct.aoa_deg),
                float(trace.rssi_dbm),
            )
        )
        dims = entry.ground_truth.get("room")
        if dims is not None:
            room = Room(width=float(dims[0]), depth=float(dims[1]))
        client = entry.ground_truth.get("client")
        if client is not None:
            truth = (float(client[0]), float(client[1]))
    if len(observations) < 2:
        return None, (
            f"need at least 2 successful AP observations, have {len(observations)}"
        )
    fix = localize_weighted_aoa(observations, room or Room(), resolution_m=resolution_m)
    payload = {
        "position": [float(fix.position[0]), float(fix.position[1])],
        "n_aps": len(observations),
    }
    if truth is not None:
        payload["truth"] = list(truth)
        payload["error_m"] = float(fix.error_to(truth))
    return payload, None


def cmd_localize(args: argparse.Namespace) -> int:
    from repro.core.localization import ApObservation, localize_weighted_aoa
    from repro.experiments.reporting.console import emit
    from repro.experiments.runner import _scene_traces
    from repro.experiments.scenarios import SNR_BANDS, build_random_scene

    tracer = _tracer_of(args)
    rng = np.random.default_rng(args.seed)
    band = SNR_BANDS[args.band]
    scene = build_random_scene(rng, n_aps=args.aps)
    snrs = [band.draw(rng) for _ in range(args.aps)]
    blockages = [band.draw_blockage(rng) for _ in range(args.aps)]
    traces = _scene_traces(
        scene,
        snr_db_per_ap=snrs,
        n_packets=args.packets,
        impairments=ImpairmentModel(),
        rng=rng,
        boot_seed=args.seed,
        blockage_db_per_ap=blockages,
    )
    system = _build_system(args.system, tracer)
    observations = []
    with tracer.span("localize", system=system.name, n_aps=args.aps) as round_span:
        for i, trace in enumerate(traces):
            with tracer.span("ap_analysis", ap=scene.access_points[i].name):
                analysis = system.analyze(trace)
            truth = scene.ground_truth_aoa(i)
            emit(
                f"AP {scene.access_points[i].name:<12} SNR {snrs[i]:5.1f} dB | "
                f"AoA {analysis.direct.aoa_deg:6.1f}° (truth {truth:6.1f}°)"
            )
            observations.append(
                ApObservation(scene.access_points[i], analysis.direct.aoa_deg, trace.rssi_dbm)
            )
        with tracer.span("localization", n_aps=len(observations)):
            fix = localize_weighted_aoa(observations, scene.room, resolution_m=args.resolution)
        error = fix.error_to(scene.client)
        round_span.annotate(location_error_m=float(error))
    emit(
        f"\nfix ({fix.position[0]:.2f}, {fix.position[1]:.2f}) m | "
        f"truth ({scene.client[0]:.2f}, {scene.client[1]:.2f}) m | error {error:.2f} m"
    )
    return 0


FIGURES = {
    "fig2": ("MUSIC AoA spectra vs SNR", "benchmarks/test_fig2_music_snr.py"),
    "fig3": ("sparse spectrum vs iterations", "benchmarks/test_fig3_iterations.py"),
    "fig4": ("single packets vs multi-packet fusion", "benchmarks/test_fig4_joint_fusion.py"),
    "fig6": ("localization CDFs, 3 systems × 3 SNR bands", "benchmarks/test_fig6_localization_cdf.py"),
    "fig7": ("AoA-error CDFs, 3 systems × 3 SNR bands", "benchmarks/test_fig7_aoa_cdf.py"),
    "fig8a": ("accuracy vs number of APs", "benchmarks/test_fig8a_ap_density.py"),
    "fig8b": ("phase-calibration schemes", "benchmarks/test_fig8b_calibration.py"),
    "fig8c": ("polarization deviation", "benchmarks/test_fig8c_polarization.py"),
    "sec3c": ("complexity scaling", "benchmarks/test_complexity_scaling.py"),
}


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import generate_report
    from repro.experiments.reporting.console import emit, emit_json

    tracer = _tracer_of(args)
    sections = tuple(args.sections) if args.sections else None
    markdown = generate_report(
        scale=args.scale,
        seed=args.seed,
        sections=sections,
        tracer=tracer,
        telemetry=args.telemetry,
    )
    if args.json:
        payload = {
            "scale": args.scale,
            "seed": args.seed,
            "sections": list(sections) if sections else None,
            "markdown": markdown,
        }
        if args.output == "-":
            emit_json(payload)
        else:
            import json

            from repro.runtime.checkpoint import atomic_write

            atomic_write(args.output, json.dumps(payload, indent=2, sort_keys=True) + "\n")
            emit(f"wrote {args.output}")
        return 0
    if args.output == "-":
        emit(markdown)
    else:
        from repro.runtime.checkpoint import atomic_write

        atomic_write(args.output, markdown)
        emit(f"wrote {args.output} ({len(markdown.splitlines())} lines)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit, emit_json
    from repro.runtime.bench import batched_solve_benchmark, joint_solve_benchmark

    tracer = _tracer_of(args)
    if args.batched:
        with tracer.span("bench", benchmark="batched_solve") as span:
            result = batched_solve_benchmark(
                batch_sizes=tuple(args.batch_sizes),
                snr_db=args.snr,
                seed=args.seed,
                repeats=args.repeats,
                max_iterations=args.iterations,
            )
            span.annotate(speedup=result["max_batch_speedup"])
        output = args.output or "BENCH_batched_solve.json"
        if args.json:
            emit_json(result)
        else:
            grid = result["grid"]
            emit(
                f"batched solve ({grid['rows']}×{grid['columns']} dictionary, "
                f"{result['iterations']} iterations, best of {result['repeats']}):"
            )
            for row in result["batches"]:
                emit(
                    f"  batch {row['batch_size']:>4}: loop {row['loop_seconds']:.3f} s | "
                    f"batched {row['batched_seconds']:.3f} s | "
                    f"speedup {row['speedup']:.2f}× | "
                    f"deviation {row['max_relative_deviation']:.2e}"
                )
        from repro.runtime.checkpoint import atomic_write

        atomic_write(output, result)
        if not args.json:
            emit(f"wrote {output}")
        return 0
    with tracer.span("bench", benchmark="joint_solve") as span:
        result = joint_solve_benchmark(
            snr_db=args.snr, seed=args.seed, repeats=args.repeats, max_iterations=args.iterations
        )
        span.annotate(speedup=result["speedup"])
    if args.json:
        emit_json(result)
    else:
        grid = result["grid"]
        emit(
            f"joint solve ({grid['rows']}×{grid['columns']} dictionary, "
            f"{result['iterations']} iterations, best of {result['repeats']}):"
        )
        emit(
            f"  dense {result['dense_seconds']:.3f} s | "
            f"operator {result['operator_seconds']:.3f} s | "
            f"speedup {result['speedup']:.2f}×"
        )
        emit(f"  max relative spectrum error {result['max_relative_spectrum_error']:.2e}")
    if args.output:
        from repro.runtime.checkpoint import atomic_write

        atomic_write(args.output, result)
    return 0


def _chaos_serve(args: argparse.Namespace) -> int:
    """``roarray chaos --serve``: the service-level resilience drills."""
    from repro.experiments.reporting.console import emit, emit_json
    from repro.serve import ServeChaosOptions, run_serve_chaos

    options = ServeChaosOptions(seed=args.seed)
    result = run_serve_chaos(options, scenarios=args.scenario or None)
    scorecard = result.scorecard()
    if args.scorecard:
        from repro.runtime.checkpoint import atomic_write

        atomic_write(args.scorecard, scorecard)
    if args.json:
        emit_json(scorecard)
        return 0 if result.passed else 1
    emit(
        f"serve chaos: {result.n_passed}/{len(result.outcomes)} scenario(s) passed"
        + (f" | scorecard: {args.scorecard}" if args.scorecard else "")
    )
    for outcome in result.outcomes:
        verdict = "PASS" if outcome.passed else "FAIL"
        highlights = ", ".join(
            f"{key}={value}"
            for key, value in outcome.details.items()
            if isinstance(value, (int, float, str, bool))
        )
        emit(f"  [{verdict}] {outcome.name}: {highlights}")
    return 0 if result.passed else 1


def _chaos_nlos(args: argparse.Namespace) -> int:
    """``roarray chaos --scenario nlos_*``: the measurement-corruption drills.

    Exits 0 iff every requested drill passes its acceptance criteria
    (detection AND bounded consensus error).  The drills run at their
    pinned working point (high SNR band, 18° bias floor) — that working
    point is part of the scored contract, so ``--band`` is not
    forwarded here.
    """
    from repro.experiments.reporting.console import emit, emit_json
    from repro.faults.nlos import NLOS_SCENARIOS, run_nlos_suite

    unknown = sorted(set(args.scenario) - set(NLOS_SCENARIOS))
    if unknown:
        emit(
            f"unknown NLOS scenario(s) {unknown}; available: {list(NLOS_SCENARIOS)}",
            stream=sys.stderr,
        )
        return 2
    tracer = _tracer_of(args)
    suite = run_nlos_suite(
        scenarios=tuple(args.scenario),
        seed=args.seed,
        workers=args.workers,
        tracer=tracer,
        checkpoint_dir=args.checkpoint,
    )
    scorecard = suite.scorecard()
    if args.scorecard:
        from repro.runtime.checkpoint import atomic_write

        atomic_write(args.scorecard, scorecard)
    if args.json:
        emit_json(scorecard)
        return 0 if suite.passed else 1
    emit(
        f"nlos drills: {suite.n_passed}/{len(suite.drills)} passed"
        + (f" | scorecard: {args.scorecard}" if args.scorecard else "")
    )
    for drill in suite.drills:
        verdict = "PASS" if drill.passed else "FAIL"
        highlights = ", ".join(
            f"{key}={value:.2f}" if isinstance(value, float) else f"{key}={value}"
            for key, value in drill.criteria.items()
            if isinstance(value, (int, float))
        )
        emit(f"  [{verdict}] {drill.name}: {highlights}")
    return 0 if suite.passed else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    if args.serve:
        return _chaos_serve(args)
    if args.scenario:
        return _chaos_nlos(args)
    from repro.experiments.reporting.console import emit, emit_json
    from repro.experiments.reporting.markdown import format_degradation_table
    from repro.faults import (
        AntennaDropout,
        ApFault,
        ApOutage,
        ChaosScenario,
        ValueCorruption,
        run_chaos_experiment,
    )
    from repro.runtime import ExecutionPolicy

    tracer = _tracer_of(args)
    if args.kill_aps + (1 if args.drop_antennas > 0 else 0) >= args.aps:
        emit(
            f"scenario kills or cripples every AP ({args.aps} APs, "
            f"{args.kill_aps} killed): nothing left to localize with",
            stream=sys.stderr,
        )
        return 2
    faults = [
        ApFault(ap=args.aps - 1 - k, injector=ApOutage()) for k in range(args.kill_aps)
    ]
    if args.drop_antennas > 0:
        faults.append(
            ApFault(
                ap=args.aps - 1 - args.kill_aps,
                injector=AntennaDropout(n_antennas=args.drop_antennas),
            )
        )
    if args.corrupt > 0:
        faults.extend(
            ApFault(ap=ap, injector=ValueCorruption(fraction=args.corrupt))
            for ap in range(args.aps - args.kill_aps)
        )
    scenario = ChaosScenario(name="cli", faults=tuple(faults), seed=args.seed)
    policy = ExecutionPolicy(
        validate=True, timeout_s=args.timeout, max_retries=args.retries
    )
    if args.checkpoint:
        from repro.runtime import write_manifest

        write_manifest(args.checkpoint, getattr(args, "argv", []))
    result = run_chaos_experiment(
        scenario,
        n_aps=args.aps,
        n_locations=args.locations,
        n_packets=args.packets,
        band=args.band,
        seed=args.seed,
        workers=args.workers,
        resolution_m=args.resolution,
        min_quorum=args.min_quorum,
        policy=policy,
        tracer=tracer,
        checkpoint_dir=args.checkpoint,
    )
    if args.json:
        emit_json(result.to_dict())
        return 0 if result.n_located == len(result.locations) else 1
    emit(
        f"chaos scenario {scenario.name!r}: {args.kill_aps} AP(s) killed, "
        f"{args.drop_antennas} antenna(s) dropped, "
        f"{args.corrupt:.0%} of packets corrupted"
    )
    emit("")
    emit(format_degradation_table(result.degradation_rows()).rstrip())
    emit("")
    emit(result.report.summary())
    return 0 if result.n_located == len(result.locations) else 1


def cmd_resume(args: argparse.Namespace) -> int:
    """Re-dispatch the command recorded in a checkpoint directory.

    The original ``--checkpoint`` run wrote a manifest with its argv;
    this replays it verbatim, so the resumed run replays journaled jobs
    and computes only what is missing.  Progress goes to stderr (the
    re-dispatched command may be emitting ``--json`` on stdout).
    """
    from repro.experiments.reporting.console import emit, emit_json
    from repro.experiments.reporting.text import format_checkpoint_status
    from repro.runtime.checkpoint import checkpoint_status, read_manifest

    command = read_manifest(args.checkpoint)
    statuses = checkpoint_status(args.checkpoint)
    if args.json:
        emit_json(
            {
                "checkpoint": args.checkpoint,
                "command": list(command),
                "journals": [
                    {
                        "path": status.path,
                        "experiment": status.experiment,
                        "n_jobs": status.n_jobs,
                        "n_recorded": status.n_recorded,
                        "percent_complete": status.percent_complete,
                        "complete": status.complete,
                    }
                    for status in statuses
                ],
            },
            stream=sys.stderr,
        )
    else:
        if statuses:
            emit(format_checkpoint_status(statuses), stream=sys.stderr)
        emit(f"resuming: roarray {' '.join(command)}", stream=sys.stderr)
    inner = build_parser().parse_args(command)
    inner.argv = list(command)
    return inner.handler(inner)


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit, emit_json
    from repro.serve import LoadGenerator

    outages = {}
    for name, start, end in args.outage or ():
        outages[name] = (float(start), float(end))
    generator = LoadGenerator(
        n_clients=args.clients,
        duration_s=args.duration,
        sample_interval_s=args.interval,
        stationary_fraction=args.stationary,
        n_aps=args.aps,
        band=args.band,
        seed=args.seed,
        outages=outages,
    )
    workload = generator.generate()
    workload.save(args.output)
    if args.json:
        emit_json(
            {
                "output": args.output,
                "packets": len(workload.packets),
                "clients": len(workload.clients),
                "duration_s": float(workload.duration_s),
                "aps": args.aps,
                "band": args.band,
                "seed": args.seed,
                "outages": {name: list(window) for name, window in sorted(outages.items())},
            }
        )
        return 0
    emit(
        f"wrote {args.output}: {len(workload.packets)} packets from "
        f"{len(workload.clients)} clients over {workload.duration_s:.1f} s "
        f"({args.aps} APs, {args.band} band"
        + (f", outages: {', '.join(sorted(outages))}" if outages else "")
        + ")"
    )
    return 0


def _serve_supervised(args: argparse.Namespace, workload, config, tracer) -> int:
    """``roarray serve --snapshot-dir``: the crash-supervised drive.

    Runs the synchronous supervised core instead of the asyncio host:
    packets feed through a :class:`~repro.serve.ServiceSupervisor`
    that snapshots periodically and journals every delivered fix to
    ``<snapshot-dir>/fixes.jsonl``.  SIGTERM / SIGINT request a
    graceful stop — the in-flight step finishes, a final snapshot is
    written and the process exits 75 (resumable); re-running the same
    command resumes the stream and produces a byte-identical journal.
    """
    import signal

    from repro.experiments.reporting.console import emit, emit_json
    from repro.runtime.checkpoint import EXIT_RESUMABLE
    from repro.serve import LocalizationService, ServiceSupervisor, SnapshotPolicy

    stop_requested = False

    def _request_stop(signum, frame):
        nonlocal stop_requested
        stop_requested = True

    def factory(clock):
        return LocalizationService(
            workload.room,
            workload.access_points,
            array=workload.array,
            layout=workload.layout,
            config=config,
            tracer=tracer,
            clock=clock,
        )

    policy = SnapshotPolicy(
        directory=args.snapshot_dir,
        every_packets=args.snapshot_every,
        max_duty=args.snapshot_duty,
    )
    previous_term = signal.signal(signal.SIGTERM, _request_stop)
    previous_int = signal.signal(signal.SIGINT, _request_stop)
    try:
        with ServiceSupervisor(factory, policy) as supervisor:
            if args.warm_in and not supervisor.resumed:
                slots = supervisor.service.load_warm_state(args.warm_in)
                emit(
                    f"loaded {slots} warm-start slot(s) from {args.warm_in}",
                    stream=sys.stderr,
                )
            result = supervisor.run(workload.packets, stop=lambda: stop_requested)
            service = supervisor.service
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
    if args.warm_out:
        service.save_warm_state(args.warm_out)
    summary = {
        "workload": args.workload,
        "snapshot_dir": str(args.snapshot_dir),
        "fixes_journal": str(policy.fixes_path),
        **result.to_dict(),
    }
    if args.json:
        emit_json(summary)
    else:
        state = "interrupted (resumable)" if result.interrupted else "complete"
        emit(
            f"supervised serve {state}: {result.n_consumed}/"
            f"{len(workload.packets)} packets, {len(result.fixes)} fix(es) "
            f"delivered this run ({result.n_delivered} total in "
            f"{policy.fixes_path})"
        )
        emit(
            f"snapshots: {result.n_snapshots} | restarts: {result.n_restarts} | "
            f"replay-suppressed fixes: {result.n_suppressed}"
            + (" | resumed from snapshot" if result.resumed else "")
        )
    return EXIT_RESUMABLE if result.interrupted else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.core.grids import AngleGrid, DelayGrid
    from repro.experiments.reporting.console import emit, emit_json
    from repro.serve import LocalizationService, ServeConfig, Workload, replay

    tracer = _tracer_of(args)
    workload = Workload.load(args.workload)
    config = ServeConfig(
        batch_size=args.batch_size,
        max_delay_s=args.max_delay,
        window_packets=args.window_packets,
        observation_max_age_s=args.observation_max_age,
        outage_after_s=args.outage_after,
        min_quorum=args.min_quorum,
        resolution_m=args.resolution,
        robust=args.robust,
        warm_start=not args.no_warm,
        angle_grid=AngleGrid(n_points=args.angle_points),
        delay_grid=DelayGrid(n_points=args.delay_points),
        max_iterations=args.iterations,
    )
    if args.snapshot_dir:
        return _serve_supervised(args, workload, config, tracer)
    service = LocalizationService(
        workload.room,
        workload.access_points,
        array=workload.array,
        layout=workload.layout,
        config=config,
        tracer=tracer,
    )
    if args.warm_in:
        slots = service.load_warm_state(args.warm_in)
        emit(f"loaded {slots} warm-start slot(s) from {args.warm_in}", stream=sys.stderr)
    result = asyncio.run(service.run(replay(workload)))
    if args.warm_out:
        service.save_warm_state(args.warm_out)

    fixed_clients = set(result.fix_counts)
    missing = sorted(set(workload.clients) - fixed_clients)
    errors = [
        fix.error_to(workload.truth_position(fix.client, fix.time_s))
        for fix in result.fixes
    ]
    median_error = float(np.median(errors)) if errors else None
    latency = result.metrics.get("serve.fix_latency_s", {})
    if args.json:
        emit_json(
            {
                "workload": args.workload,
                "summary": result.to_dict(),
                "median_error_m": median_error,
                "clients_total": len(workload.clients),
                "clients_fixed": len(fixed_clients),
                "clients_missing": missing,
            }
        )
    else:
        emit(
            f"served {result.n_packets} packets ({result.n_accepted} accepted, "
            f"{len(result.rejected)} rejected) in {result.wall_seconds:.2f} s"
        )
        emit(
            f"fixes: {result.n_fixes} ({result.fixes_per_second:.1f}/s) for "
            f"{len(fixed_clients)}/{len(workload.clients)} clients"
            + (f" | median error {median_error:.2f} m" if median_error is not None else "")
        )
        if latency.get("count"):
            emit(
                f"fix latency: p50 {latency['p50'] * 1e3:.1f} ms | "
                f"p90 {latency['p90'] * 1e3:.1f} ms | p99 {latency['p99'] * 1e3:.1f} ms"
            )
        emit(
            f"batches: max {result.max_batch_observed} | triggers "
            + ", ".join(f"{k}={v}" for k, v in sorted(result.batch_triggers.items()))
        )
        warm = result.warm
        emit(
            f"warm starts: {'on' if warm['enabled'] else 'off'} | "
            f"{warm['hits']} hits, {warm['misses']} misses, "
            f"{warm['slots']} slots ({warm['nbytes'] / 1024:.0f} KiB)"
        )
        if result.reject_counts:
            emit(
                "rejects: "
                + ", ".join(f"{k}={v}" for k, v in sorted(result.reject_counts.items()))
            )
        for name, health in result.health.items():
            if health["status"] != "healthy":
                emit(f"AP {name}: {health['status']} ({health['failures']})")
        if missing:
            emit(f"no fix for {len(missing)} client(s): {', '.join(missing[:5])}...")
    if args.require_all_clients and missing:
        return 1
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.experiments.reporting.console import emit

    emit("paper figure → benchmark (run with: pytest <file> --benchmark-only -s)")
    for key, (description, path) in FIGURES.items():
        emit(f"  {key:<6} {description:<45} {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Re-dispatch ``args.rest`` with a recording tracer installed."""
    from repro.experiments.reporting.console import emit
    from repro.obs import Tracer

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        emit("usage: roarray trace [--trace-out PATH] <command> [args...]", stream=sys.stderr)
        return 2
    if rest[0] == "trace":
        emit("trace cannot be nested", stream=sys.stderr)
        return 2
    inner = build_parser().parse_args(rest)
    inner.argv = rest
    tracer = Tracer()
    inner.tracer = tracer
    code = inner.handler(inner)
    tracer.export_json(args.trace_out)
    emit(f"wrote {args.trace_out} ({len(tracer.spans)} spans)", stream=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roarray",
        description="ROArray (ICDCS'17) reproduction — simulate, analyze, localize.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="synthesize a CSI trace to .npz")
    simulate.add_argument("output", help="output .npz path")
    simulate.add_argument("--snr", type=float, default=10.0, help="SNR in dB (default 10)")
    simulate.add_argument("--packets", type=int, default=10, help="packets (default 10)")
    simulate.add_argument("--paths", type=int, default=4, help="multipath count (default 4)")
    simulate.add_argument("--aoa", type=float, default=150.0, help="direct-path AoA in deg")
    simulate.add_argument("--blockage-db", type=float, default=0.0, help="LoS attenuation")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=cmd_simulate)

    analyze = subparsers.add_parser("analyze", help="run a system on a saved trace")
    analyze.add_argument(
        "trace",
        help="trace source: file path (.npz/.dat/.mat), dataset://name, "
        "or synthetic:// spec",
    )
    analyze.add_argument(
        "--system", choices=("roarray", "spotfi", "arraytrack"), default="roarray"
    )
    analyze.add_argument(
        "--registry", default=None, metavar="PATH",
        help="dataset registry root or manifest for dataset:// sources "
        "(default: $REPRO_DATA_DIR or ./datasets)",
    )
    analyze.add_argument(
        "--preprocess", action="store_true",
        help="apply the format's default preprocessing stages (STO removal "
        "for real captures) before analysis",
    )
    analyze.add_argument("--json", action="store_true", help="machine-readable output")
    analyze.set_defaults(handler=cmd_analyze)

    ingest = subparsers.add_parser(
        "ingest",
        help="parse real captures through preprocessing + validation, fit "
        "calibration, write normalized .npz artifacts",
    )
    ingest.add_argument(
        "sources", nargs="+",
        help="capture sources: .dat/.mat/.npz paths, dataset:// refs, or "
        "synthetic:// specs",
    )
    ingest.add_argument(
        "--out", default=None, metavar="DIR",
        help="write normalized .npz artifacts under DIR (default: no artifacts)",
    )
    ingest.add_argument(
        "--registry", default=None, metavar="PATH",
        help="dataset registry root or manifest (default: $REPRO_DATA_DIR "
        "or ./datasets)",
    )
    ingest.add_argument(
        "--register-prefix", default=None, metavar="PREFIX",
        help="register each written artifact as dataset PREFIX<label> "
        "(requires --out)",
    )
    ingest.add_argument(
        "--overwrite", action="store_true",
        help="replace already-registered dataset names",
    )
    ingest.add_argument(
        "--no-calibrate", action="store_true",
        help="skip the per-trace calibration fit",
    )
    ingest.add_argument(
        "--expect-shape", type=int, nargs=2, default=None, metavar=("M", "L"),
        help="fail validation unless traces are M antennas × L subcarriers",
    )
    ingest.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal per-source outcomes to DIR/ingest.jsonl; a rerun "
        "replays finished sources",
    )
    ingest.add_argument("--json", action="store_true", help="machine-readable output")
    ingest.set_defaults(handler=cmd_ingest)

    batch = subparsers.add_parser(
        "batch", help="analyze many traces through the parallel batch runtime"
    )
    batch.add_argument(
        "traces", nargs="*",
        help="trace sources: file paths, dataset:// refs, synthetic:// specs "
        "(or use --synthetic)",
    )
    batch.add_argument(
        "--synthetic", type=int, default=0, metavar="N",
        help="generate N seeded random traces (sugar for "
        "synthetic://random?n=N&packets=…&snr=…&seed=…)",
    )
    batch.add_argument(
        "--registry", default=None, metavar="PATH",
        help="dataset registry root or manifest for dataset:// sources",
    )
    batch.add_argument(
        "--preprocess", action="store_true",
        help="apply each format's default preprocessing stages before analysis",
    )
    batch.add_argument(
        "--localize", action="store_true",
        help="fuse dataset-backed outcomes into one position fix using the "
        "registry's AP geometry",
    )
    batch.add_argument(
        "--resolution", type=float, default=0.1,
        help="fix grid pitch in m for --localize (default 0.1)",
    )
    batch.add_argument(
        "--system", choices=("roarray", "spotfi", "arraytrack"), default="roarray"
    )
    batch.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = sequential, default)"
    )
    batch.add_argument(
        "--chunk-size", type=int, default=None, help="jobs per scheduling unit (default: auto)"
    )
    batch.add_argument("--packets", type=int, default=10, help="packets per synthetic trace")
    batch.add_argument("--snr", type=float, default=10.0, help="synthetic trace SNR in dB")
    batch.add_argument("--seed", type=int, default=0)
    batch.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal completed jobs to DIR/batch.jsonl; an interrupted run "
        "exits with status 75 and `roarray resume DIR` finishes it",
    )
    batch.add_argument("--json", action="store_true", help="machine-readable output")
    batch.set_defaults(handler=cmd_batch)

    localize = subparsers.add_parser("localize", help="one end-to-end localization round")
    localize.add_argument(
        "--system", choices=("roarray", "spotfi", "arraytrack"), default="roarray"
    )
    localize.add_argument(
        "--band", type=_band_arg, default="medium",
        help="SNR regime: high/medium/low or synthetic://band/<name>",
    )
    localize.add_argument("--aps", type=int, default=6)
    localize.add_argument("--packets", type=int, default=10)
    localize.add_argument("--resolution", type=float, default=0.1)
    localize.add_argument("--seed", type=int, default=0)
    localize.set_defaults(handler=cmd_localize)

    bench = subparsers.add_parser(
        "bench",
        help="solver microbenchmarks: dense vs Kronecker operator, or "
        "--batched for solve_batch vs the sequential loop",
    )
    bench.add_argument("--snr", type=float, default=12.0, help="measurement SNR in dB")
    bench.add_argument("--seed", type=int, default=2017)
    bench.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    bench.add_argument(
        "--iterations", type=int, default=None, help="pinned FISTA iterations (default: config)"
    )
    bench.add_argument(
        "--batched", action="store_true",
        help="benchmark solve_batch against the per-problem loop "
        "(writes BENCH_batched_solve.json unless --output is given)",
    )
    bench.add_argument(
        "--batch-sizes", type=int, nargs="+", default=[1, 8, 64], metavar="N",
        help="batch sizes to sweep with --batched (default 1 8 64)",
    )
    bench.add_argument(
        "--output", default=None, metavar="PATH", help="also write the JSON to PATH"
    )
    bench.add_argument("--json", action="store_true", help="print the full JSON result")
    bench.set_defaults(handler=cmd_bench)

    chaos = subparsers.add_parser(
        "chaos", help="inject faults and demonstrate graceful degradation"
    )
    chaos.add_argument("--aps", type=int, default=6, help="APs per scene (default 6)")
    chaos.add_argument("--locations", type=int, default=3, help="test locations (default 3)")
    chaos.add_argument("--packets", type=int, default=10, help="packets per AP trace")
    chaos.add_argument(
        "--band", type=_band_arg, default="medium",
        help="SNR regime: high/medium/low or synthetic://band/<name>",
    )
    chaos.add_argument("--kill-aps", type=int, default=2, help="APs to black out entirely")
    chaos.add_argument(
        "--drop-antennas", type=int, default=1, help="antennas to kill on one surviving AP"
    )
    chaos.add_argument(
        "--corrupt", type=float, default=0.2, metavar="FRACTION",
        help="fraction of packets NaN-poisoned on surviving APs (default 0.2)",
    )
    chaos.add_argument(
        "--timeout", type=float, default=None, metavar="S", help="per-job wall-clock budget"
    )
    chaos.add_argument(
        "--retries", type=int, default=0, help="retry budget for transient failures"
    )
    chaos.add_argument("--min-quorum", type=int, default=2, help="min surviving APs per fix")
    chaos.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = sequential, default)"
    )
    chaos.add_argument("--resolution", type=float, default=0.1)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal both chaos batches to DIR; an interrupted run exits "
        "with status 75 and `roarray resume DIR` finishes it",
    )
    chaos.add_argument(
        "--serve", action="store_true",
        help="run the service-level resilience drills (AP blackout, queue "
        "storm, corrupted packets, mid-stream crash recovery) instead of "
        "the offline fault-injection experiment",
    )
    chaos.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only the named scenario (repeatable): with --serve the "
        "service resilience drills; otherwise the NLOS measurement-corruption "
        "drills (nlos_single_ap, nlos_majority, ghost_multipath), exiting 0 "
        "iff every drill passes",
    )
    chaos.add_argument(
        "--scorecard", default=None, metavar="PATH",
        help="with --serve or --scenario: write the scorecard JSON to PATH",
    )
    chaos.add_argument("--json", action="store_true", help="machine-readable output")
    chaos.set_defaults(handler=cmd_chaos)

    resume = subparsers.add_parser(
        "resume", help="finish an interrupted --checkpoint run from its journals"
    )
    resume.add_argument("checkpoint", metavar="DIR", help="checkpoint directory")
    resume.add_argument(
        "--json", action="store_true",
        help="machine-readable progress to stderr (stdout stays with the "
        "re-dispatched command)",
    )
    resume.set_defaults(handler=cmd_resume)

    loadgen = subparsers.add_parser(
        "loadgen", help="generate a streaming workload of mobile clients to .npz"
    )
    loadgen.add_argument("output", help="output .npz workload path")
    loadgen.add_argument("--clients", type=int, default=50, help="client count (default 50)")
    loadgen.add_argument(
        "--duration", type=float, default=2.0, help="stream duration in s (default 2)"
    )
    loadgen.add_argument(
        "--interval", type=float, default=0.5, help="per-client sample interval in s"
    )
    loadgen.add_argument(
        "--stationary", type=float, default=0.3, metavar="FRACTION",
        help="fraction of clients that sit still (default 0.3)",
    )
    loadgen.add_argument("--aps", type=int, default=4, help="access points (default 4)")
    loadgen.add_argument(
        "--band", type=_band_arg, default="high",
        help="SNR regime: high/medium/low or synthetic://band/<name>",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--outage", nargs=3, action="append", metavar=("AP", "START", "END"),
        help="black out AP between START and END seconds (repeatable)",
    )
    loadgen.add_argument("--json", action="store_true", help="machine-readable output")
    loadgen.set_defaults(handler=cmd_loadgen)

    serve = subparsers.add_parser(
        "serve", help="replay a workload through the streaming localization service"
    )
    serve.add_argument("workload", help=".npz workload from `roarray loadgen`")
    serve.add_argument("--batch-size", type=int, default=16, help="micro-batch size")
    serve.add_argument(
        "--max-delay", type=float, default=0.05, metavar="S",
        help="micro-batch latency trigger in s (default 0.05)",
    )
    serve.add_argument(
        "--window-packets", type=int, default=4, help="sliding-window packets per AP"
    )
    serve.add_argument(
        "--observation-max-age", type=float, default=2.0, metavar="S",
        help="drop per-AP estimates older than this from fixes (default 2.0)",
    )
    serve.add_argument(
        "--outage-after", type=float, default=2.0, metavar="S",
        help="mark an AP outage after this long without packets (default 2.0)",
    )
    serve.add_argument("--min-quorum", type=int, default=2, help="min APs per fix")
    serve.add_argument("--resolution", type=float, default=0.25, help="fix grid pitch in m")
    serve.add_argument(
        "--robust", action="store_true",
        help="NLOS/corruption-aware fixes: localize by AP consensus, attach "
        "per-AP trust scores, and demote persistently-untrusted APs in health",
    )
    serve.add_argument(
        "--angle-points", type=int, default=91, help="AoA grid size (default 91)"
    )
    serve.add_argument(
        "--delay-points", type=int, default=50, help="ToA grid size (default 50)"
    )
    serve.add_argument(
        "--iterations", type=int, default=150, help="FISTA iterations per solve"
    )
    serve.add_argument(
        "--no-warm", action="store_true", help="disable cross-batch warm starts"
    )
    serve.add_argument(
        "--warm-in", default=None, metavar="PATH", help="load warm-start state from PATH"
    )
    serve.add_argument(
        "--warm-out", default=None, metavar="PATH", help="save warm-start state to PATH"
    )
    serve.add_argument(
        "--snapshot-dir", default=None, metavar="DIR",
        help="run crash-supervised: snapshot service state to DIR, journal "
        "fixes to DIR/fixes.jsonl, resume from DIR if a snapshot exists; "
        "SIGTERM drains gracefully and exits 75 (resumable)",
    )
    serve.add_argument(
        "--snapshot-every", type=int, default=64, metavar="N",
        help="with --snapshot-dir: snapshot after every N packets (default 64)",
    )
    serve.add_argument(
        "--snapshot-duty", type=float, default=0.01, metavar="FRAC",
        help="with --snapshot-dir: defer periodic snapshots so their I/O "
        "stays under this fraction of wall time (default 0.01; 0 disables "
        "the throttle)",
    )
    serve.add_argument(
        "--require-all-clients", action="store_true",
        help="exit 1 unless every client in the workload got at least one fix",
    )
    serve.add_argument("--json", action="store_true", help="machine-readable output")
    serve.set_defaults(handler=cmd_serve)

    figures = subparsers.add_parser("figures", help="map paper figures to benchmarks")
    figures.set_defaults(handler=cmd_figures)

    report = subparsers.add_parser(
        "report", help="run the full evaluation and write a markdown report"
    )
    report.add_argument("output", help="output .md path (or - for stdout)")
    report.add_argument("--scale", type=int, default=1, help="location multiplier")
    report.add_argument("--seed", type=int, default=2017)
    report.add_argument(
        "--sections",
        nargs="+",
        choices=("fig2", "fig3", "fig4", "bands", "fig8"),
        default=None,
        help="subset of sections (default: all)",
    )
    report.add_argument(
        "--telemetry", action="store_true", help="append a per-span cost table"
    )
    report.add_argument("--json", action="store_true", help="machine-readable output")
    report.set_defaults(handler=cmd_report)

    trace = subparsers.add_parser(
        "trace", help="run another subcommand with tracing, write spans to JSON"
    )
    trace.add_argument(
        "--trace-out", default="trace.json", metavar="PATH", help="span-tree JSON path"
    )
    trace.add_argument("rest", nargs=argparse.REMAINDER, help="subcommand to trace")
    trace.set_defaults(handler=cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.exceptions import CheckpointError, ResumableInterrupt
    from repro.runtime.checkpoint import EXIT_RESUMABLE

    parser = build_parser()
    args = parser.parse_args(argv)
    # The verbatim argv, recorded in checkpoint manifests so `roarray
    # resume` can re-dispatch the original command.
    args.argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.handler(args)
    except ResumableInterrupt as interrupt:
        percent = (
            100.0 * interrupt.completed / interrupt.total if interrupt.total else 0.0
        )
        print(f"interrupted: {interrupt}", file=sys.stderr)
        print(
            f"progress: {interrupt.completed} of {interrupt.total} jobs "
            f"journaled ({percent:.1f}% complete)",
            file=sys.stderr,
        )
        return EXIT_RESUMABLE
    except CheckpointError as error:
        print(f"checkpoint error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
