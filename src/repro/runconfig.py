"""The run configuration: the six session settings as one frozen value.

A :class:`RunConfig` holds what ``--faults``, ``--planner``, ``--cluster``,
``--storage``, ``--backend`` and ``--rewrite`` select for a session.  It
travels as one value: the CLI builds it, :func:`~repro.bench.parallel.
run_session` pickles it into spawned workers and folds it into every
cache key, and :func:`~repro.bench.registry.run_experiment` installs it
with :func:`use_run` for the run's scope.  Serving code reads it through
:func:`current_run`; a :class:`~repro.workload.engine.WorkloadConfig`
that pins a setting explicitly is never overridden by it.

The defaults are canonical: ``RunConfig()`` *is* the unflagged session,
so ``--planner static`` or ``--backend sim`` build an equal value (and
the same cache key) as leaving the flag out.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.cluster.config import ClusterConfig
    from repro.faults.plan import FaultPlan
    from repro.storage.config import StorageConfig


@dataclass(frozen=True)
class RunConfig:
    """The session settings every serving run defers to.

    * ``faults`` — a :class:`~repro.faults.FaultPlan` injected into every
      serving run (``None``: no injection);
    * ``planner`` — a session planner mode (:data:`repro.planner.
      PLANNER_MODES`; the experiment-only ``oracle`` is not one);
    * ``cluster`` — a :class:`~repro.cluster.ClusterConfig` shard map or
      its spec string (``"2x4"``; ``None``: one enclave);
    * ``storage`` — a :class:`~repro.storage.StorageConfig` sealed-spill
      budget or its spec string (``"2G"``; ``None``: no spill path);
    * ``backend`` — a :data:`repro.backends.BACKEND_MODES` entry; engine
      modes price serving templates from calibrated engine profiles,
      which cover only the static reference plans;
    * ``rewrite`` — a :data:`repro.rewrite.REWRITE_MODES` entry.
    """

    faults: Optional["FaultPlan"] = None
    planner: str = "static"
    cluster: Optional["ClusterConfig"] = None
    storage: Optional["StorageConfig"] = None
    backend: str = "sim"
    rewrite: str = "off"

    def __post_init__(self) -> None:
        # Parse and validate lazily: the default config must not import
        # the cluster, storage, planner, backend or rewrite packages.
        if isinstance(self.cluster, str):
            from repro.cluster.config import ClusterConfig

            parsed = ClusterConfig.parse(self.cluster)
            object.__setattr__(self, "cluster", parsed)
        if isinstance(self.storage, str):
            from repro.storage.config import StorageConfig

            parsed = StorageConfig.parse(self.storage)
            object.__setattr__(self, "storage", parsed)
        if self.planner != "static":
            from repro.planner import validate_mode

            validate_mode(self.planner, allow_oracle=False)
        if self.backend != "sim":
            from repro.backends.config import validate_mode

            validate_mode(self.backend)
        if self.rewrite != "off":
            from repro.rewrite.config import validate_mode

            validate_mode(self.rewrite)
        if self.backend != "sim" and self.planner != "static":
            raise ConfigurationError(
                f"--backend {self.backend} prices templates from calibrated "
                "engine profiles, which cover only the static plans; it "
                f"cannot be combined with --planner {self.planner}"
            )
        if self.backend != "sim" and self.rewrite != "off":
            raise ConfigurationError(
                f"--rewrite {self.rewrite} races logical rewrites through "
                "the operator simulator's costing; it cannot be combined "
                f"with --backend {self.backend} (engine profiles cover "
                "only the reference plans)"
            )


_ACTIVE: List[RunConfig] = [RunConfig()]


def current_run() -> RunConfig:
    """The run configuration in effect (``RunConfig()`` unless installed)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def use_run(config: RunConfig) -> Iterator[RunConfig]:
    """Install ``config`` as the run configuration for the ``with`` scope."""
    _ACTIVE.append(config)
    try:
        yield config
    finally:
        _ACTIVE.pop()
