"""Device-pool scheduler + occupancy ledger tests: routing by the perf
model, atomic leasing, and the never-over-capacity invariant."""

from __future__ import annotations

import threading
import time
import typing

import pytest

from repro.core.pipeline import compile_stencil
from repro.server import DevicePoolScheduler
from repro.server.scheduler import RouteCancelledError
from repro.tcu.occupancy import OccupancyLedger
from repro.tcu.spec import MultiDeviceSpec
from repro.util.validation import ValidationError


class TestOccupancyLedger:
    def test_acquire_release_accounting(self):
        ledger = OccupancyLedger(4)
        lease = ledger.acquire(3)
        assert ledger.in_use == 3
        assert ledger.free == 1
        assert ledger.peak_in_use == 3
        held = ledger.release(lease, modelled_seconds=0.5)
        assert held >= 0.0
        assert ledger.in_use == 0
        assert ledger.free == 4
        assert ledger.peak_in_use == 3       # high-water mark survives
        snapshot = ledger.snapshot()
        assert snapshot["total_leases"] == 1
        busy = [d for d in snapshot["per_device"] if d["leases"] == 1]
        assert len(busy) == 3
        # the run's total modelled time is split across the leased devices,
        # so the pool-wide sum reproduces the total
        assert sum(d["modelled_seconds"] for d in busy) == pytest.approx(0.5)

    def test_try_acquire_never_oversubscribes(self):
        ledger = OccupancyLedger(2)
        first = ledger.try_acquire(2)
        assert first is not None
        assert ledger.try_acquire(1) is None
        ledger.release(first)
        assert ledger.try_acquire(1) is not None

    def test_acquire_more_than_pool_rejected(self):
        with pytest.raises(ValidationError):
            OccupancyLedger(2).acquire(3)

    def test_acquire_blocks_until_release(self):
        ledger = OccupancyLedger(1)
        lease = ledger.acquire(1)
        acquired_at = []

        def waiter():
            inner = ledger.acquire(1)
            acquired_at.append(time.perf_counter())
            ledger.release(inner)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not acquired_at            # still blocked
        released_at = time.perf_counter()
        ledger.release(lease)
        thread.join(timeout=5)
        assert acquired_at and acquired_at[0] >= released_at

    def test_acquire_timeout(self):
        ledger = OccupancyLedger(1)
        ledger.acquire(1)
        with pytest.raises(TimeoutError):
            ledger.acquire(1, timeout=0.05)

    def test_utilization_fractions(self):
        ledger = OccupancyLedger(2)
        lease = ledger.acquire(1)
        time.sleep(0.02)
        ledger.release(lease)
        busy = ledger.utilization()
        assert 0.0 < busy[lease.device_ids[0]] <= 1.0
        idle = next(i for i in range(2) if i != lease.device_ids[0])
        assert busy[idle] == 0.0

    def test_concurrent_hammer_never_exceeds_capacity(self):
        ledger = OccupancyLedger(3)

        def worker():
            for _ in range(20):
                lease = ledger.acquire(1)
                assert ledger.in_use <= 3
                ledger.release(lease)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert ledger.in_use == 0
        assert ledger.peak_in_use <= 3
        assert ledger.total_leases == 160


class TestRoutingDecisions:
    @pytest.fixture(scope="class")
    def large_plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (2048, 2048))

    @pytest.fixture(scope="class")
    def small_plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (64, 64))

    def test_large_grid_routes_sharded_small_routes_single(
            self, large_plan, small_plan):
        """Acceptance: same pool, perf model splits the routes."""
        scheduler = DevicePoolScheduler(4)
        large = scheduler.decide(large_plan, 2)
        small = scheduler.decide(small_plan, 2)
        assert large.executor == "sharded"
        assert large.devices >= 2
        assert large.modelled_speedup > 1.25
        assert 0.0 < large.halo_fraction <= 0.25
        assert small.executor == "single"
        assert small.devices == 1
        assert "latency-bound" in small.reason

    def test_busy_pool_degrades_to_single(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        decision = scheduler.decide(large_plan, 2, free_devices=1)
        assert decision.executor == "single"
        assert "busy" in decision.reason

    def test_non_divisible_iterations_stay_single(self, heat2d_cls):
        fused = compile_stencil(heat2d_cls, (2048, 2048), temporal_fusion=2)
        scheduler = DevicePoolScheduler(4)
        assert scheduler.decide(fused, 4).executor == "sharded"
        odd = scheduler.decide(fused, 3)
        assert odd.executor == "single"
        assert "divisible" in odd.reason

    def test_slow_interconnect_disables_sharding(self, large_plan):
        dialup = MultiDeviceSpec(device_count=4,
                                 interconnect_bandwidth_gbs=0.001,
                                 link_latency_seconds=1.0)
        scheduler = DevicePoolScheduler(dialup)
        assert scheduler.decide(large_plan, 2).executor == "single"

    def test_route_leases_atomically(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        decision, lease = scheduler.route(large_plan, 2)
        assert decision.executor == "sharded"
        assert lease.device_count == decision.devices
        assert scheduler.ledger.in_use == decision.devices
        scheduler.ledger.release(lease)

    def test_route_degrades_when_devices_held(self, large_plan):
        scheduler = DevicePoolScheduler(4)
        held = scheduler.ledger.acquire(3)
        decision, lease = scheduler.route(large_plan, 2)
        # only one device free: the route degrades to single instead of
        # blocking on devices that may never free up together
        assert decision.executor == "single"
        assert lease.device_count == 1
        assert scheduler.ledger.in_use == 4
        scheduler.ledger.release(lease)
        scheduler.ledger.release(held)

    def test_route_retry_loop_is_bounded(self, large_plan):
        """Regression: under contention flapping the free count (another
        worker releases and a third grabs between every decide and
        try_acquire), the old unbounded loop spun forever.  A ledger whose
        optimistic lease always fails while advertising a free pool is the
        worst case: the router must give up after ``route_retries``
        attempts and take the single-device route."""

        class FlappingLedger(OccupancyLedger):
            def __init__(self):
                super().__init__(4)
                self.failed_leases = 0

            @property
            def free(self):
                return 4           # always looks worth sharding

            def try_acquire(self, devices):
                self.failed_leases += 1
                return None        # ...but the lease always loses the race

        ledger = FlappingLedger()
        scheduler = DevicePoolScheduler(4, ledger=ledger, route_retries=5)
        decision, lease = scheduler.route(large_plan, 2)
        assert ledger.failed_leases == 5
        assert decision.executor == "single"
        assert decision.devices == 1
        assert "contention" in decision.reason
        assert lease.device_count == 1
        ledger.release(lease)

    def test_route_retries_validated(self):
        with pytest.raises(ValidationError):
            DevicePoolScheduler(4, route_retries=0)

    def test_route_cancel_aborts_device_wait(self, small_plan):
        """Regression for the shutdown deadlock: every device leased
        elsewhere and never released, route() waiting on acquire(1).  A
        set cancel event must abort the wait with the typed error instead
        of blocking forever."""
        scheduler = DevicePoolScheduler(2)
        held = scheduler.ledger.acquire(2)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(RouteCancelledError):
            scheduler.route(small_plan, 2, cancel=cancel,
                            poll_seconds=0.01)
        scheduler.ledger.release(held)

    def test_route_cancel_set_mid_wait(self, small_plan):
        scheduler = DevicePoolScheduler(2)
        held = scheduler.ledger.acquire(2)
        cancel = threading.Event()
        outcome = []

        def routed():
            try:
                scheduler.route(small_plan, 2, cancel=cancel,
                                poll_seconds=0.01)
            except RouteCancelledError:
                outcome.append("cancelled")

        thread = threading.Thread(target=routed)
        thread.start()
        thread.join(timeout=0.1)
        assert thread.is_alive()          # genuinely parked on the wait
        cancel.set()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert outcome == ["cancelled"]
        scheduler.ledger.release(held)

    def test_route_with_set_cancel_still_leases_free_device(self,
                                                            small_plan):
        """A free device wins over a set cancel event: the acquire is
        attempted before every cancellation check."""
        scheduler = DevicePoolScheduler(2)
        cancel = threading.Event()
        cancel.set()
        decision, lease = scheduler.route(small_plan, 2, cancel=cancel)
        assert decision.devices == lease.device_count
        scheduler.ledger.release(lease)

    def test_spec_for_keeps_plan_device(self, large_plan):
        scheduler = DevicePoolScheduler(8)
        decision = scheduler.decide(large_plan, 2)
        spec = scheduler.spec_for(decision, large_plan)
        assert spec.device_count == decision.devices
        assert spec.device == large_plan.spec
        assert spec.interconnect_bandwidth_gbs == \
            scheduler.pool.interconnect_bandwidth_gbs


class TestHaloDepthRouting:
    """The scheduler's communication-avoiding depth search: auto mode picks
    the modelled-best depth per device count, fixed depth is honoured, and
    the decision carries both knobs to the executor."""

    @pytest.fixture(scope="class")
    def plan(self, heat2d_cls):
        return compile_stencil(heat2d_cls, (514, 514), search=False,
                               r1=8, r2=8)

    @pytest.fixture(scope="class")
    def laggy_pool(self):
        return MultiDeviceSpec(device_count=4,
                               interconnect_bandwidth_gbs=600.0,
                               link_latency_seconds=2e-7)

    def test_auto_depth_goes_deep_when_latency_exposed(self, plan,
                                                       laggy_pool):
        decision = DevicePoolScheduler(laggy_pool, overlap=False).decide(
            plan, 16)
        assert decision.executor == "sharded"
        assert decision.halo_depth > 1
        assert decision.overlap is False
        assert "halo depth" in decision.reason

    def test_overlap_can_hide_what_deep_halos_avoid(self, plan, laggy_pool):
        """With overlap modelled, the interior hides this workload's whole
        exchange — depth 1 wins; without it the search must go deeper."""
        hidden = DevicePoolScheduler(laggy_pool, overlap=True).decide(plan, 16)
        exposed = DevicePoolScheduler(laggy_pool, overlap=False).decide(
            plan, 16)
        assert hidden.executor == exposed.executor == "sharded"
        assert hidden.halo_depth == 1
        assert hidden.overlap is True
        assert exposed.halo_depth > hidden.halo_depth
        assert hidden.modelled_speedup >= exposed.modelled_speedup

    def test_fixed_depth_honoured(self, plan, laggy_pool):
        decision = DevicePoolScheduler(laggy_pool, halo_depth=2).decide(
            plan, 16)
        assert decision.executor == "sharded"
        assert decision.halo_depth == 2

    def test_deep_halos_unlock_sharding(self, plan, laggy_pool):
        """Capped at depth 1 the exposed latency kills the modelled speedup
        and the workload routes single-device — the deeper search is what
        makes this pool worth sharding on at all."""
        capped = DevicePoolScheduler(laggy_pool, overlap=False,
                                     max_halo_depth=1).decide(plan, 16)
        deep = DevicePoolScheduler(laggy_pool, overlap=False).decide(plan, 16)
        assert capped.executor == "single"
        assert "latency-bound" in capped.reason
        assert deep.executor == "sharded"
        assert deep.halo_depth > 1

    def test_single_route_keeps_default_depth(self, heat2d_cls):
        small = compile_stencil(heat2d_cls, (64, 64))
        decision = DevicePoolScheduler(4).decide(small, 2)
        assert decision.executor == "single"
        assert decision.halo_depth == 1


@pytest.fixture(scope="class")
def heat2d_cls():
    from repro.stencils.pattern import StencilPattern
    return StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1],
                               name="heat-2d")


class TestAnnotations:
    @pytest.mark.parametrize("method", ["decide", "decide_program",
                                        "spec_for", "spec_for_program"])
    def test_type_hints_resolve(self, method):
        """Every annotation names something the module imports."""
        hints = typing.get_type_hints(getattr(DevicePoolScheduler, method))
        assert hints["return"] is not None
