"""MicroDeep: distributed CNNs on wireless sensor networks.

The paper's central mechanism (ref. [7], §IV.C): CNN units are
assigned to sensor nodes laid out on XY-coordinates; forward (and
backward) propagation is carried out by message passing between the
nodes, and weights are updated locally to avoid communication.

- :mod:`repro.core.unitgraph` -- extracts the per-layer unit structure
  (grids, channel counts, dependencies) from a :class:`repro.nn.Sequential`.
- :mod:`repro.core.assignment` -- unit-to-node placement strategies:
  the paper's grid-correspondence heuristic, the centralized
  "standard CNN" comparator, and round-robin/random baselines.
- :mod:`repro.core.costmodel` -- static per-node communication cost
  (received values per inference, Fig. 10's y-axis) and the one
  derivation of the cross-node transfer list.
- :mod:`repro.core.placement_index` -- :class:`PlacementIndex`, every
  fact derived from a placement (owner of each position, positions
  per node, dead-node gathers, transfer groups), built once and read
  by the executor, the plan compiler, the trainer, and the fault
  runtime.
- :mod:`repro.core.executor` -- distributed forward execution over a
  :class:`repro.wsn.Network` with measured traffic and node-failure
  masking.
- :mod:`repro.core.compiled` -- steady-state fast path: the transfer
  groups folded through the network's router into one batched
  traffic-accounting update (event-driven path kept as parity oracle).
- :mod:`repro.core.training` -- exact vs. local (communication-free)
  distributed backpropagation.
"""

from repro.core.unitgraph import LayerUnits, UnitGraph
from repro.core.assignment import (
    Placement,
    centralized_assignment,
    grid_correspondence_assignment,
    random_assignment,
    round_robin_assignment,
)
from repro.core.costmodel import CommunicationCostModel, CostReport
from repro.core.placement_index import PlacementIndex
from repro.core.compiled import (
    CompiledPlan,
    HopProgram,
    PlanNotCompilable,
    compile_plan,
)
from repro.core.executor import DistributedExecutor
from repro.core.training import MicroDeepTrainer
from repro.core.planner import (
    CollectionPlan,
    CollectionPlanner,
    Obstacle,
    PlanningError,
    SlotAssignment,
)

__all__ = [
    "CollectionPlanner",
    "CollectionPlan",
    "Obstacle",
    "PlanningError",
    "SlotAssignment",
    "UnitGraph",
    "LayerUnits",
    "Placement",
    "grid_correspondence_assignment",
    "centralized_assignment",
    "round_robin_assignment",
    "random_assignment",
    "CommunicationCostModel",
    "CostReport",
    "PlacementIndex",
    "CompiledPlan",
    "HopProgram",
    "PlanNotCompilable",
    "compile_plan",
    "DistributedExecutor",
    "MicroDeepTrainer",
]
