"""Bounded admission-price cache: the long-trace memory fix.

The min-cost and intensity routers memoize projected admission prices.
Before PR 3 the memo was a plain dict that grew for the whole trace —
100k-step runs with varied context buckets accumulated every distinct
operating point ever priced. These tests pin the LRU bound, the counter
surface, and the cluster report wiring.
"""

import pytest

from repro.cluster import ClusterSimulator, MinCostRouter, Replica, build_router
from repro.cluster.router import IntensityAwareRouter, PriceCache, RoundRobinRouter
from repro.errors import ConfigurationError
from repro.models.config import get_model
from repro.serving.arrivals import poisson_arrivals
from repro.serving.dataset import sample_requests
from repro.serving.request import Request
from repro.systems.papi import PAPISystem

MODEL = get_model("llama-65b")


class _Scope:
    """Weakref-able stand-in for a system (plain object() is not)."""


class TestPriceCacheLRU:
    def test_100k_distinct_keys_stay_bounded(self):
        """The long-trace property: however many distinct operating
        points a trace prices, residency never exceeds the bound."""
        cache = PriceCache(max_entries=256)
        system = _Scope()
        for i in range(100_000):
            cache.put(system, ("m", "pu", i, 1, 32), float(i))
            assert cache.entries <= 256
        assert cache.entries == 256

    def test_evicts_least_recently_used(self):
        cache = PriceCache(max_entries=2)
        system = _Scope()
        cache.put(system, "a", 1.0)
        cache.put(system, "b", 2.0)
        assert cache.get(system, "a") == 1.0  # refresh "a"
        cache.put(system, "c", 3.0)  # evicts "b"
        assert cache.get(system, "b") is None
        assert cache.get(system, "a") == 1.0
        assert cache.get(system, "c") == 3.0

    def test_counters_and_stats(self):
        cache = PriceCache(max_entries=8)
        system = _Scope()
        assert cache.get(system, "k") is None
        cache.put(system, "k", 1.5)
        assert cache.get(system, "k") == 1.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 8
        assert stats["systems"] == 1

    def test_entries_scoped_per_system(self):
        """Two systems never read each other's prices, and a collected
        system's entries are purged (no recycled-id staleness)."""
        import gc

        cache = PriceCache(max_entries=8)
        a, b = _Scope(), _Scope()
        cache.put(a, "k", 1.0)
        cache.put(b, "k", 2.0)
        assert cache.get(b, "k") == 2.0  # scopes never cross-read
        assert cache.get(a, "k") == 1.0
        del a
        gc.collect()
        assert cache.stats()["systems"] == 1  # a's scope was purged

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ConfigurationError):
            PriceCache(max_entries=0)


def _make_replicas(n=2, max_batch=4):
    return [
        Replica(
            replica_id=i,
            system=PAPISystem(),
            model=MODEL,
            max_batch_size=max_batch,
        )
        for i in range(n)
    ]


class TestRouterCacheBehavior:
    def test_min_cost_select_keeps_cache_bounded(self):
        """A stream of arrivals with ever-changing context buckets —
        the pattern that grew the old dict without limit."""
        router = MinCostRouter(max_cache_entries=16)
        replicas = _make_replicas()
        for i in range(300):
            request = Request(
                request_id=i, input_len=32 + 32 * (i % 64), output_len=8
            )
            index = router.select(request, replicas, now=float(i))
            assert 0 <= index < len(replicas)
            # The bound is per system; two replicas => two scopes.
            assert router.price_cache.entries <= 16 * len(replicas)
        assert router.price_cache.misses > 32  # evictions actually happened
        # A recurring operating point (steady-state traffic) hits.
        for i in range(300, 310):
            request = Request(request_id=i, input_len=64, output_len=8)
            router.select(request, replicas, now=float(i))
        assert router.price_cache.hits > 0

    def test_intensity_router_exposes_cache(self):
        router = IntensityAwareRouter(max_cache_entries=32)
        assert router.price_cache.max_entries == 32

    def test_stateless_router_has_no_cache(self):
        assert RoundRobinRouter().price_cache is None

    def test_cluster_summary_reports_cache_stats(self):
        replicas = _make_replicas()
        requests = poisson_arrivals(
            sample_requests("creative-writing", 12, seed=3), rate_per_s=64.0
        )
        summary = ClusterSimulator(replicas, build_router("min-cost")).run(
            requests
        )
        assert summary.router_cache["misses"] > 0
        assert summary.router_cache["entries"] <= (
            summary.router_cache["max_entries"]
            * summary.router_cache["systems"]
        )

    def test_stateless_router_reports_empty_stats(self):
        replicas = _make_replicas()
        requests = poisson_arrivals(
            sample_requests("creative-writing", 8, seed=4), rate_per_s=64.0
        )
        summary = ClusterSimulator(replicas, build_router("round-robin")).run(
            requests
        )
        assert summary.router_cache == {}
