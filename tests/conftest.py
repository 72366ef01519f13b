"""Shared fixtures.

Unit tests use the small hand-built ``toy_network``; integration tests
share session-scoped campaign results so the expensive sweeps run once.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.net.network import Network
from repro.net.router import ReplyPolicy, Router

# Property-based tests: "ci" pins the derandomized profile so runs are
# reproducible across workers; "dev" (default) explores fresh examples.
hypothesis_settings.register_profile(
    "ci", max_examples=60, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
hypothesis_settings.register_profile("dev", max_examples=30, deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture()
def toy_network():
    """A 6-router diamond with a routed customer prefix.

    Delegates to :func:`repro.measure.substrates.toy_network` so the
    fixture and the substrate a spawned supervisor worker rebuilds are
    the same network by construction.
    """
    from repro.measure.substrates import toy_network as build

    return build()


@pytest.fixture(scope="session")
def internet():
    """A full simulated internet, built once per test session."""
    from repro.topology.internet import SimulatedInternet

    return SimulatedInternet(seed=3)


@pytest.fixture(scope="session")
def standard_vps(internet):
    return list(internet.build_standard_vps())


@pytest.fixture(scope="session")
def comcast_run(internet, standard_vps):
    """One full serial Comcast-like pipeline run shared by integration
    tests: ``(pipeline, result)``, the pipeline's span tree being the
    serial reference."""
    from repro.infer.pipeline import CableInferencePipeline

    pipeline = CableInferencePipeline(
        internet.network, internet.comcast, standard_vps, sweep_vps=6
    )
    return pipeline, pipeline.run()


@pytest.fixture(scope="session")
def comcast_result(comcast_run):
    return comcast_run[1]


@pytest.fixture(scope="session")
def att_topology(internet):
    """One full AT&T San Diego pipeline run."""
    from repro.infer.att import AttInferencePipeline
    from repro.measure.wardriving import McTracerouteCampaign

    internal = list(internet.telco_internal_vps())
    campaign = McTracerouteCampaign(internet.network, internet.att, seed=3)
    campaign.place_hotspots(internet.att.regions["sndgca"], count=58)
    pipeline = AttInferencePipeline(internet.network, internal)
    return pipeline.run_region(
        "sndgca", extra_vps=campaign.usable_vps(), dpr_stride=2
    )


@pytest.fixture(scope="session")
def ship_results(internet):
    """One full ShipTraceroute campaign over all three carriers."""
    from repro.measure.shiptraceroute import ShipTracerouteCampaign

    campaign = ShipTracerouteCampaign(
        internet.mobile_carriers, internet.geography, seed=3
    )
    return campaign, campaign.run()
