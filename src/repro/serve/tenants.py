"""Scenario tenants: pre-trained deployments the service hosts.

A :class:`Tenant` bundles one placed-and-trained MicroDeep deployment
(model, unit graph, placement, network, executor) under a name, ready
to serve recognition requests.  :data:`SCENARIOS` catalogues the
paper-derived flavors — fall monitoring (i), HVAC comfort (vi), train
congestion — each with its own field size, node grid, model, and class
labels.  :class:`TenantPool` is the hot-swappable registry the
dispatcher and HTTP layer resolve tenants from.

Serving contract (bitwise batch invariance)
-------------------------------------------

``Conv2D`` and ``Dense`` compute each row with its own fixed-shape
product, so a row's output depends only on that row and the weights.
:meth:`Tenant.infer` forwards a micro-batch exactly as coalesced, and
each request's logits are **byte-identical** to its row forwarded
alone, however the dispatcher batched it.  The serving tests pin this
(any chunking equals each row alone; any interleaving equals the
serial baseline; served over HTTP equals a direct forward).

The math runs through the executor's layer loop alone
(:meth:`~repro.core.DistributedExecutor.forward_hooked`) and the
accounting is applied once per micro-batch by
:meth:`~repro.core.DistributedExecutor.account_traffic` — one bulk
compiled update in the steady state, or the event-driven replay when
the tenant's fault state forces the oracle — so ``/metrics``
reconciles exactly with the number of requests served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.assignment import grid_correspondence_assignment
from repro.core.executor import DistributedExecutor
from repro.core.training import MicroDeepTrainer
from repro.core.unitgraph import UnitGraph
from repro.faults.scenario import toy_field_task
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, SGD, Sequential
from repro.wsn.network import Network
from repro.wsn.topology import GridTopology

#: Rows computed per requested row (a forward computes exactly its
#: rows); ``perfbench/run.py`` reads it for ``useful_rows_ratio``.
SERVE_BATCH = 1

#: Most ``train_epochs × train_samples`` a ``POST /v1/tenants`` config
#: may ask for (32× the CLI default of 2 × 64).  The hot-swap trains on
#: the event loop, stalling every tenant: at this budget a build took
#: up to 1.9 s (congestion, 2,048 epochs of 2 samples; 0.8 s at 1 ×
#: 4,096) on a 2-core host.
MAX_TRAIN_EXAMPLE_EPOCHS = 4096


@dataclass(frozen=True)
class ScenarioSpec:
    """Static description of one servable scenario flavor."""

    description: str
    field_hw: Tuple[int, int]
    node_grid: Tuple[int, int]
    labels: Tuple[str, ...]
    #: layer factory name understood by :func:`_build_model`.
    arch: str


SCENARIOS: Dict[str, ScenarioSpec] = {
    "fall": ScenarioSpec(
        description="(i) elderly fall monitoring over an IR sensor field",
        field_hw=(8, 8), node_grid=(3, 3),
        labels=("no_fall", "fall"), arch="compact",
    ),
    "hvac": ScenarioSpec(
        description="(vi) autonomous HVAC comfort recognition",
        field_hw=(10, 10), node_grid=(4, 4),
        labels=("comfortable", "adjust"), arch="pooled",
    ),
    "congestion": ScenarioSpec(
        description="train-car congestion monitoring",
        field_hw=(12, 12), node_grid=(4, 4),
        labels=("free_flow", "congested"), arch="pooled",
    ),
}


@dataclass(frozen=True)
class TenantConfig:
    """How to build one tenant (the ``POST /v1/tenants`` payload)."""

    name: str
    scenario: str
    seed: int = 0
    train_epochs: int = 2
    train_samples: int = 64

    @classmethod
    def from_payload(cls, payload: Dict) -> "TenantConfig":
        """A validated config from a decoded ``POST /v1/tenants``
        object.  ``name`` defaults to the scenario and nothing is
        coerced: a wrong type or range, or training past
        :data:`MAX_TRAIN_EXAMPLE_EPOCHS`, raises ``ValueError`` naming
        the field."""
        config = cls(
            name=payload.get("name", payload.get("scenario", "")),
            scenario=payload.get("scenario", ""),
            seed=payload.get("seed", 0),
            train_epochs=payload.get("train_epochs", 0),
            train_samples=payload.get("train_samples", 64),
        )
        config.validate()
        budget = config.train_epochs * config.train_samples
        if budget > MAX_TRAIN_EXAMPLE_EPOCHS:
            raise ValueError(
                f"train_epochs * train_samples = {budget} exceeds "
                f"{MAX_TRAIN_EXAMPLE_EPOCHS} example-epochs"
            )
        return config

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first bad field: ``name``
        and ``scenario`` must be non-empty strings, the rest integers
        (never bools) with ``seed >= 0``, ``train_epochs >= 0`` and
        ``train_samples >= 2``."""
        for field in ("name", "scenario"):
            value = getattr(self, field)
            if not isinstance(value, str):
                raise ValueError(f"{field} must be a string, "
                                 f"got {type(value).__name__}")
            if not value:
                raise ValueError(f"{field} must be non-empty")
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; available: "
                f"{', '.join(sorted(SCENARIOS))}"
            )
        for field, low in (("seed", 0), ("train_epochs", 0),
                           ("train_samples", 2)):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{field} must be an integer, "
                                 f"got {type(value).__name__}")
            if value < low:
                raise ValueError(f"{field} must be >= {low}")


def _build_model(spec: ScenarioSpec) -> Sequential:
    if spec.arch == "compact":
        return Sequential([Conv2D(2, 3), ReLU(), Flatten(), Dense(2)])
    return Sequential([
        Conv2D(2, 3), ReLU(), MaxPool2D(2), Flatten(),
        Dense(8), ReLU(), Dense(len(spec.labels)),
    ])


class Tenant:
    """One servable deployment; built by :func:`build_tenant`."""

    def __init__(
        self,
        config: TenantConfig,
        spec: ScenarioSpec,
        model: Sequential,
        graph: UnitGraph,
        placement,
        topology: GridTopology,
        network: Network,
        executor: DistributedExecutor,
    ) -> None:
        self.config = config
        self.spec = spec
        self.name = config.name
        self.scenario = config.scenario
        self.model = model
        self.graph = graph
        self.placement = placement
        self.topology = topology
        self.network = network
        self.executor = executor
        #: single-inference input shape, ``(channels, h, w)``.
        self.input_shape: Tuple[int, ...] = (1,) + tuple(spec.field_hw)
        self.labels = spec.labels
        #: requests served; the pool's health report.
        self.served = 0

    def fault_state(self) -> Optional[str]:
        """Why this tenant currently falls back to the event-driven
        oracle (``None`` in the compiled steady state): the reason
        :meth:`infer` would report, an unroutable transfer included."""
        return self.executor.fallback_reason()

    def direct_forward(self, x: np.ndarray) -> np.ndarray:
        """One logits row per row of ``x``, traffic untouched.  Each
        row's bytes are those of that row forwarded alone; the serving
        path runs this, so it is also the serial parity baseline."""
        return self.executor.forward_hooked(x)

    def infer(self, x: np.ndarray) -> Tuple[np.ndarray, str]:
        """Serve one micro-batch; returns ``(logits, served_by)``.

        ``x`` is the stacked batch ``(k, channels, h, w)``.  The
        returned logits carry exactly ``k`` rows, each byte-identical
        to its row forwarded alone, however the dispatcher batched it
        (see the module docstring); ``served_by`` is ``"plan"`` or
        ``"fallback:<reason>"``.  Traffic for exactly ``k`` inferences
        is accounted on the tenant's network.
        """
        k = int(x.shape[0])
        logits = self.direct_forward(x)
        served_by = self.executor.account_traffic(k)
        self.served += k
        return logits, served_by

    def describe(self) -> Dict:
        return {
            "scenario": self.scenario,
            "seed": self.config.seed,
            "input_shape": list(self.input_shape),
            "labels": list(self.labels),
            "node_grid": list(self.spec.node_grid),
            "served": self.served,
            "fault": self.fault_state(),
        }


def build_tenant(config: TenantConfig, telemetry=None) -> Tenant:
    """Build (and optionally train) one tenant, deterministically.

    Same config -> same weights, placement, and logits; the serving
    tests rebuild a tenant from scratch and pin byte-identical logits
    against the served ones.  ``train_epochs=0`` skips training (the
    test harness's fast path — untrained weights are still
    deterministic).
    """
    config.validate()
    spec = SCENARIOS[config.scenario]
    if telemetry is None:
        from repro.obs.runtime import current

        telemetry = current()
    rng = np.random.default_rng(config.seed)
    model = _build_model(spec)
    model.build((1,) + tuple(spec.field_hw), rng)
    graph = UnitGraph(model)
    topology = GridTopology(*spec.node_grid)
    placement = grid_correspondence_assignment(graph, topology)
    if config.train_epochs > 0:
        x, y = toy_field_task(config.train_samples, spec.field_hw, rng)
        trainer = MicroDeepTrainer(
            graph, placement, SGD(lr=0.1, momentum=0.9), update_mode="local"
        )
        trainer.fit(
            x, y, epochs=config.train_epochs, batch_size=16, rng=rng
        )
    network = Network(topology, telemetry=telemetry)
    executor = DistributedExecutor(
        model, graph, placement, network, telemetry=telemetry
    )
    return Tenant(
        config, spec, model, graph, placement, topology, network, executor
    )


class UnknownTenant(LookupError):
    """No tenant under that name (HTTP 404)."""

    def __init__(self, name: str) -> None:
        self.tenant = name
        super().__init__(f"unknown tenant {name!r}")


class TenantPool:
    """Name -> :class:`Tenant` registry with live hot-swap.

    The dispatcher resolves the tenant *at flush time*, so a swap that
    lands between a request being queued and its lane's flush is
    well-defined: the queued requests are served by the new tenant
    (their input shapes are re-validated against it).
    """

    def __init__(self, tenants: Optional[List[Tenant]] = None) -> None:
        self._tenants: Dict[str, Tenant] = {}
        for tenant in tenants or []:
            self.swap(tenant)

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self) -> Iterator[Tenant]:
        return iter([self._tenants[k] for k in sorted(self._tenants)])

    def names(self) -> List[str]:
        return sorted(self._tenants)

    def get(self, name: str) -> Optional[Tenant]:
        return self._tenants.get(name)

    def require(self, name: str) -> Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def swap(self, tenant: Tenant) -> Optional[Tenant]:
        """Install ``tenant`` under its name; returns the replaced
        tenant (None on first install)."""
        previous = self._tenants.get(tenant.name)
        self._tenants[tenant.name] = tenant
        return previous

    def remove(self, name: str) -> Tenant:
        tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise UnknownTenant(name)
        return tenant

    def describe(self) -> Dict[str, Dict]:
        return {name: self._tenants[name].describe()
                for name in sorted(self._tenants)}
