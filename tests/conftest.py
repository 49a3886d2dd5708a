"""Shared fixtures for the VampOS reproduction test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

import repro.components  # noqa: F401  (register Table I components)
from repro.core.config import DAS
from repro.net.hostshare import HostShare
from repro.net.tcp import HostNetwork
from repro.sim.engine import Simulation
from repro.unikernel.image import ImageBuilder, ImageSpec
from repro.unikernel.kernel import UnikraftKernel
from repro.core.runtime import VampOSKernel

# Hypothesis profiles: "ci" is the default — deadline disabled because
# the simulated kernels legitimately take tens of milliseconds per
# example on slow runners; "dev" trades coverage for a fast local
# feedback loop.  Tests keep their tuned ``max_examples`` where the
# example cost warrants it; the profile supplies everything else.
settings.register_profile("ci", deadline=None)
settings.register_profile("dev", deadline=None, max_examples=10)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

#: a component set with both the file and network stacks (Nginx-like)
FULL_COMPONENTS = ["VFS", "9PFS", "LWIP", "NETDEV", "PROCESS", "SYSINFO",
                   "USER", "TIMER", "VIRTIO"]


@pytest.fixture
def sim() -> Simulation:
    return Simulation(seed=1234)


@pytest.fixture
def share() -> HostShare:
    share = HostShare()
    share.makedirs("/data")
    share.create("/data/hello.txt", b"hello world")
    return share


def build_kernel(sim: Simulation, share: HostShare, mode: str = "vampos",
                 config=DAS, components=None) -> object:
    """Build and boot a kernel over the standard test image."""
    network = HostNetwork(sim)
    spec = ImageSpec(
        "test-app", list(components or FULL_COMPONENTS),
        component_args={"VIRTIO": {"share": share, "network": network}})
    image = ImageBuilder().build(spec, sim)
    if mode == "vampos":
        kernel = VampOSKernel(image, config)
    else:
        kernel = UnikraftKernel(image)
    kernel.boot()
    kernel.test_network = network  # type: ignore[attr-defined]
    return kernel


@pytest.fixture
def vamp_kernel(sim, share) -> VampOSKernel:
    return build_kernel(sim, share, mode="vampos")


@pytest.fixture
def vanilla_kernel(sim, share) -> UnikraftKernel:
    return build_kernel(sim, share, mode="unikraft")


@pytest.fixture
def crossing_compiles(monkeypatch) -> list:
    """Record every crossing-tape source compiled while the test runs
    (the text ``_compile_crossing`` hands to ``exec``)."""
    from repro.core import runtime

    compiled: list = []

    def counting_exec(source, namespace):
        compiled.append(source)
        exec(source, namespace)  # noqa: S102 - the code under test

    monkeypatch.setattr(runtime, "exec", counting_exec, raising=False)
    return compiled
