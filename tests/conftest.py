"""Shared fixtures: fast-but-real fitted primitives reused across the suite."""

from __future__ import annotations

import gc
from multiprocessing import shared_memory

import numpy as np
import pytest

from lock_audit import serving_audit
from repro.core.registry import DEFAULT_TRAINING_CONFIG, LutRegistry
from repro.core.training import TrainingConfig

pytest_plugins = ["pytester"]  # the shm_ledger fixture is tested in a sub-session


@pytest.fixture(scope="session")
def fast_registry() -> LutRegistry:
    """A shared registry with reduced-cost fits (still 16-entry, still accurate).

    Fitting all four primitives takes about 0.3 s (2-vCPU x86); doing it once
    per session keeps the suite fast while letting integration tests exercise the
    real pipeline end to end.
    """
    config = TrainingConfig(
        hidden_size=15,
        num_samples=12_000,
        batch_size=2048,
        epochs=40,
        learning_rate=1e-3,
        seed=0,
        num_restarts=1,
    )
    return LutRegistry(training_config=config)


@pytest.fixture(scope="session")
def fitted_gelu(fast_registry):
    return fast_registry.get("gelu", num_entries=16)


@pytest.fixture(scope="session")
def fitted_exp(fast_registry):
    return fast_registry.get("exp", num_entries=16)


@pytest.fixture(scope="session")
def fitted_reciprocal(fast_registry):
    return fast_registry.get("reciprocal", num_entries=16)


@pytest.fixture(scope="session")
def fitted_rsqrt(fast_registry):
    return fast_registry.get("rsqrt", num_entries=16)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="module")
def shm_ledger():
    """Every shared-memory block the module creates is gone when it ends.

    Records the name of each ``SharedMemory(create=True)`` made in this
    process while the module runs; at module teardown — after the module's
    own pools and transports have been torn down — attaching to any of them
    must raise ``FileNotFoundError``.  A survivor is unlinked (so one leak
    does not outlive the run) and fails the module.  Use it with
    ``pytestmark = pytest.mark.usefixtures("shm_ledger")``.
    """
    created = []
    original = shared_memory.SharedMemory.__init__

    def recording_init(self, name=None, create=False, size=0):
        original(self, name, create, size)
        if create:
            created.append(self.name)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shared_memory.SharedMemory, "__init__", recording_init)
        yield created
    gc.collect()  # pools left to their GC finalizers release here
    survivors = []
    for name in created:
        try:
            block = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        survivors.append(name)
        block.close()
        block.unlink()
    assert not survivors, (
        f"{len(survivors)} of {len(created)} shared-memory blocks created "
        f"here outlived the module: {survivors}"
    )


@pytest.fixture(scope="module")
def lock_audit():
    """The runtime lock audit (``tests/lock_audit.py``), armed for a module.

    Arm it with ``pytestmark = pytest.mark.usefixtures("lock_audit")``,
    listed first so the module's own pools and queues are built with
    audited locks.  Each test fails on what the audit recorded while it
    ran; whatever threads record after the module's last test fails the
    module.
    """
    with serving_audit() as audit:
        yield audit
    audit.assert_clean()


@pytest.fixture(autouse=True)
def _lock_audit_verdict(request):
    if "lock_audit" not in request.fixturenames:
        yield
        return
    audit = request.getfixturevalue("lock_audit")
    yield
    audit.assert_clean()
