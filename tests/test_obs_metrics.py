"""Unified metrics: percentile edge cases, primitives, the registry."""

import gc

import pytest

from repro.obs import MetricsRegistry, RollingLatency, reset_global_registry
from repro.obs.metrics import global_registry
from repro.util.validation import ValidationError


# --------------------------------------------------------------------------- #
# RollingLatency percentile edge cases (the satellite fix)
# --------------------------------------------------------------------------- #
class TestRollingLatencyPercentiles:
    def test_empty_window_is_zero(self):
        rolling = RollingLatency()
        assert rolling.percentile(50.0) == 0.0
        assert rolling.percentile(99.0) == 0.0

    def test_single_sample_answers_every_percentile(self):
        rolling = RollingLatency()
        rolling.record(0.7)
        for p in (1.0, 50.0, 95.0, 99.0, 100.0):
            assert rolling.percentile(p) == pytest.approx(0.7)

    def test_two_samples_interpolate(self):
        rolling = RollingLatency()
        rolling.record(1.0)
        rolling.record(3.0)
        assert rolling.percentile(50.0) == pytest.approx(2.0)
        assert rolling.percentile(100.0) == pytest.approx(3.0)
        assert rolling.percentile(25.0) == pytest.approx(1.5)

    def test_large_window_matches_uniform_quantiles(self):
        rolling = RollingLatency(window=1001)
        for i in range(1001):
            rolling.record(i / 1000.0)
        assert rolling.percentile(50.0) == pytest.approx(0.5, abs=1e-9)
        assert rolling.percentile(95.0) == pytest.approx(0.95, abs=1e-9)

    def test_percentile_bounds_enforced(self):
        rolling = RollingLatency()
        with pytest.raises(ValidationError):
            rolling.percentile(0.0)
        with pytest.raises(ValidationError):
            rolling.percentile(101.0)

    def test_reset_returns_to_fresh_state(self):
        rolling = RollingLatency(window=4)
        for value in (0.1, 0.2, 0.3):
            rolling.record(value)
        rolling.reset()
        assert rolling.count == 0
        assert rolling.percentile(99.0) == 0.0
        stats = rolling.as_dict()
        assert all(value == 0 for value in stats.values())
        # the window works again after the reset
        rolling.record(0.5)
        assert rolling.percentile(50.0) == pytest.approx(0.5)

    def test_negative_sample_rejected(self):
        rolling = RollingLatency()
        with pytest.raises(ValidationError):
            rolling.record(-0.1)


# --------------------------------------------------------------------------- #
# counters + registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        snap = registry.snapshot()
        assert snap["counters"] == {"requests": 3}

    def test_primitives_are_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValidationError):
            MetricsRegistry().counter("x").inc(-1)

    def test_provider_sections_appear_in_snapshot(self):
        registry = MetricsRegistry()
        registry.register_provider("static", lambda: {"value": 42},
                                   weak=False)
        assert registry.snapshot()["static"] == {"value": 42}

    def test_provider_name_collision_gets_suffix(self):
        registry = MetricsRegistry()
        first = registry.register_provider("cache", lambda: {"n": 1},
                                           weak=False)
        second = registry.register_provider("cache", lambda: {"n": 2},
                                            weak=False)
        assert (first, second) == ("cache", "cache-2")
        snap = registry.snapshot()
        assert snap["cache"] == {"n": 1} and snap["cache-2"] == {"n": 2}

    def test_provider_cannot_hide_the_counters_section(self):
        """A provider named ``counters`` must not replace the registry's
        own counters in the export; it gets a suffix like any collision."""
        registry = MetricsRegistry()
        registry.counter("lint.rejected").inc(2)
        actual = registry.register_provider("counters", lambda: {"n": 1},
                                            weak=False)
        assert actual == "counters-2"
        snap = registry.snapshot()
        assert snap["counters"] == {"lint.rejected": 2}
        assert snap["counters-2"] == {"n": 1}

    def test_dead_bound_method_provider_is_pruned(self):
        class Owner:
            def snapshot(self):
                return {"alive": True}

        registry = MetricsRegistry()
        owner = Owner()
        registry.register_provider("owner", owner.snapshot)
        assert registry.snapshot()["owner"] == {"alive": True}
        del owner
        gc.collect()
        assert "owner" not in registry.snapshot()

    def test_broken_provider_exports_error_not_raise(self):
        registry = MetricsRegistry()

        def broken():
            raise RuntimeError("boom")

        registry.register_provider("bad", broken, weak=False)
        assert "RuntimeError" in registry.snapshot()["bad"]["error"]

    def test_unregister_provider(self):
        registry = MetricsRegistry()
        name = registry.register_provider("s", lambda: {}, weak=False)
        registry.unregister_provider(name)
        assert "s" not in registry.snapshot()

    def test_global_registry_reset(self):
        first = global_registry()
        assert global_registry() is first
        fresh = reset_global_registry()
        assert fresh is global_registry() and fresh is not first


# --------------------------------------------------------------------------- #
# subsystems re-register into the global registry
# --------------------------------------------------------------------------- #
class TestSubsystemRegistration:
    def test_server_telemetry_section(self):
        reset_global_registry()
        from repro.server.telemetry import ServerTelemetry

        telemetry = ServerTelemetry()
        telemetry.submitted()
        snap = global_registry().snapshot()
        assert snap[telemetry.metrics_section]["submitted"] == 1

    def test_cache_section(self):
        reset_global_registry()
        from repro.service.cache import CompileCache

        cache = CompileCache(capacity=4)
        section = cache.metrics_section
        snap = global_registry().snapshot()
        assert snap[section]["resident_plans"] == 0
        assert snap[section]["capacity"] == 4

    def test_ledger_section(self):
        reset_global_registry()
        from repro.tcu.occupancy import OccupancyLedger

        ledger = OccupancyLedger(2)
        snap = global_registry().snapshot()
        assert snap[ledger.metrics_section]["device_count"] == 2

    def test_dead_subsystems_drop_out(self):
        reset_global_registry()
        from repro.service.cache import CompileCache

        cache = CompileCache(capacity=4)
        section = cache.metrics_section
        del cache
        gc.collect()
        assert section not in global_registry().snapshot()


# --------------------------------------------------------------------------- #
# occupancy ledger satellite: hold-time percentiles + zero-wall guards
# --------------------------------------------------------------------------- #
class TestOccupancyLedgerStats:
    def test_snapshot_immediately_after_construction(self):
        from repro.tcu.occupancy import OccupancyLedger

        ledger = OccupancyLedger(2)
        snap = ledger.snapshot()
        assert snap["mean_utilization"] >= 0.0
        for entry in snap["per_device"]:
            assert 0.0 <= entry["utilization"] <= 1.0

    def test_lease_hold_time_percentiles(self):
        from repro.tcu.occupancy import OccupancyLedger

        ledger = OccupancyLedger(1)
        lease = ledger.acquire(1)
        ledger.release(lease, modelled_seconds=0.001)
        snap = ledger.snapshot()
        hold = snap["per_device"][0]["hold_seconds"]
        assert hold["p50_seconds"] >= 0.0
        assert hold["max_seconds"] >= hold["p50_seconds"]
