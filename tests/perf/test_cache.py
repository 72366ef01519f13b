"""InferenceCache and module-level memos: correctness under mutation,
fault-injector swaps, and the benchmark's disable switch."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults import FaultInjector, FaultPlan
from repro.net.dns import RdnsStore
from repro.perf import (
    InferenceCache,
    memoization_disabled,
    memoization_enabled,
    normalize_address,
    p2p_peer_str,
)
from repro.rdns.regexes import HostnameParser

NAME = "ae-1-ar01.aggco.co.denver.comcast.net"
OTHER_NAME = "ae-1-ar01.otherco.co.denver.comcast.net"


@pytest.fixture()
def rdns():
    store = RdnsStore()
    store.set("10.0.0.1", NAME)
    return store


@pytest.fixture()
def cache(rdns):
    return InferenceCache(rdns, HostnameParser())


class TestModuleMemos:
    def test_normalize_matches_uncached(self):
        values = ["10.0.0.1", "192.168.1.1", "2001:db8::1"]
        with memoization_disabled():
            baseline = [normalize_address(v) for v in values]
        assert [normalize_address(v) for v in values] == baseline
        # Second pass hits the memo; answers must not drift.
        assert [normalize_address(v) for v in values] == baseline

    def test_p2p_peer_memoizes_failures(self):
        # A /30 network address has no peer: None both times.
        assert p2p_peer_str("10.0.0.0") is None
        assert p2p_peer_str("10.0.0.0") is None
        assert p2p_peer_str("10.0.0.1") == "10.0.0.2"

    def test_disable_switch_restores(self):
        assert memoization_enabled()
        with memoization_disabled():
            assert not memoization_enabled()
            assert normalize_address("10.0.0.1") == "10.0.0.1"
        assert memoization_enabled()


@pytest.mark.parametrize(
    "module", ["repro.perf", "repro.perf.cache", "repro.net.dns"]
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    # perf.cache builds on net.addresses; the rDNS store must not import
    # perf back, or whichever side a process imports first breaks.
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestLookupInvalidation:
    def test_memoized_lookup_answers(self, cache):
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.stats.lookup_hits == 1
        assert cache.stats.lookup_misses == 1

    def test_store_mutation_invalidates(self, cache, rdns):
        assert cache.lookup("10.0.0.1") == NAME
        rdns.set("10.0.0.1", OTHER_NAME)
        assert cache.lookup("10.0.0.1") == OTHER_NAME
        assert cache.stats.invalidations == 1

    def test_record_removal_invalidates(self, cache, rdns):
        assert cache.lookup("10.0.0.1") == NAME
        rdns.remove("10.0.0.1")
        assert cache.lookup("10.0.0.1") is None

    def test_injector_swap_invalidates(self, cache, rdns):
        # Stale-rDNS injection changes what lookup() returns per
        # address; attaching (or detaching) an injector must drop the
        # memo even though the store's records never changed.
        baseline = cache.lookup("10.0.0.1")
        assert baseline == NAME
        rdns.faults = FaultInjector(FaultPlan(seed=5, stale_rdns=1.0))
        faulted = cache.lookup("10.0.0.1")
        assert faulted == rdns.lookup("10.0.0.1")
        assert cache.stats.invalidations == 1
        rdns.faults = None
        assert cache.lookup("10.0.0.1") == NAME
        assert cache.stats.invalidations == 2

    def test_parse_memo_survives_invalidation(self, cache, rdns):
        parsed = cache.parsed_lookup("10.0.0.1")
        assert parsed is not None and parsed.co_tag == "aggco.co"
        rdns.set("10.0.0.2", OTHER_NAME)  # bump epoch
        again = cache.parsed_lookup("10.0.0.1")
        assert again is parsed  # pure parse memo kept across epochs
        assert cache.stats.parse_hits >= 1


class TestDerivedAnswers:
    def test_regional_co_matches_uncached(self, cache, rdns):
        parser = HostnameParser()
        expected = parser.regional_co(rdns.lookup("10.0.0.1"), "comcast")
        assert cache.regional_co("10.0.0.1", "comcast") == expected
        assert cache.regional_co("10.0.0.1", "nobody") is None

    def test_degree_threshold_matches_statistics(self, cache):
        import statistics

        degrees = (1, 2, 2, 9)
        expected = statistics.fmean(degrees) + statistics.pstdev(degrees)
        assert cache.degree_threshold(degrees) == expected
        assert cache.degree_threshold(degrees) == expected
