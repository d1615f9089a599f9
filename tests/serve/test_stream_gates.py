"""Service gates on a 40-client stream, driven through the supervisor.

Forty clients (30 % stationary, the rest random-waypoint walkers) report
to 3 APs every 0.5 s for 1 s (seed 2017), at the serve solver working
point (61×21 grid, 100 iterations, micro-batches of 16).  The stream
runs through :class:`~repro.serve.ServiceSupervisor`, the one loop that
feeds packets to the service, and must fix every client without a
reject, fill micro-batches to the size trigger, and stay within
0.15 m of the cold, unbatched offline path's median error.
"""

import pytest

from repro.core.grids import AngleGrid, DelayGrid
from repro.serve import (
    LoadGenerator,
    LocalizationService,
    ServeConfig,
    ServiceSupervisor,
    SnapshotPolicy,
    median_fix_error_m,
    offline_reference,
)

#: Service medians may beat the offline baseline (warm starts, fused
#: windows) but must never regress beyond this margin.
ACCURACY_MARGIN_M = 0.15
BATCH_TARGET = 16

# window_packets=2: windows saturate at width 2 by the second sample,
# so the warm-start chain (same key, same shape) engages within the
# short stream.
CONFIG = ServeConfig(
    batch_size=BATCH_TARGET,
    max_delay_s=0.05,
    window_packets=2,
    resolution_m=0.5,
    angle_grid=AngleGrid(n_points=61),
    delay_grid=DelayGrid(n_points=21),
    max_iterations=100,
)


@pytest.fixture(scope="module")
def stream():
    return LoadGenerator(
        n_clients=40,
        duration_s=1.0,
        sample_interval_s=0.5,
        stationary_fraction=0.3,
        n_aps=3,
        band="high",
        seed=2017,
    ).generate()


@pytest.fixture(scope="module")
def supervised(stream, tmp_path_factory):
    def factory(clock):
        return LocalizationService(
            stream.room,
            stream.access_points,
            array=stream.array,
            layout=stream.layout,
            config=CONFIG,
            clock=clock,
        )

    policy = SnapshotPolicy(directory=tmp_path_factory.mktemp("stream"), every_packets=0)
    with ServiceSupervisor(factory, policy) as supervisor:
        result = supervisor.run(stream.packets)
    return result, supervisor.service


def test_every_client_fixed_without_rejects(stream, supervised):
    result, service = supervised
    assert result.n_consumed == len(stream.packets)
    assert {fix.client for fix in result.fixes} == set(stream.clients)
    rejected = [name for name in service.metrics.to_dict() if name.startswith("serve.rejected.")]
    assert rejected == []


def test_micro_batches_reach_the_size_trigger(supervised):
    _, service = supervised
    assert service.max_batch_observed >= BATCH_TARGET


def test_accuracy_within_margin_of_offline(stream, supervised):
    result, _ = supervised
    served = median_fix_error_m(result.fixes, stream)
    offline = median_fix_error_m(offline_reference(stream, config=CONFIG), stream)
    assert served <= offline + ACCURACY_MARGIN_M, (
        f"streaming path regressed accuracy: {served:.3f} m vs offline {offline:.3f} m"
    )
