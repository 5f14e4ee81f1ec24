"""Unit-graph extraction from a built Sequential model.

MicroDeep treats the CNN as a graph of *units*.  For spatial layers
(conv, pool, elementwise) the natural granularity is one unit per
output grid position — the layer's channels at a position are
co-located, because a node that computes one filter's output at (y, x)
already holds every input needed for all filters there.  For flat
layers (dense) each output neuron is a unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.layers.flatten import Flatten
from repro.nn.model import Sequential

GridPos = Tuple[int, int]


@dataclass
class LayerUnits:
    """Unit structure of one layer.

    Attributes:
        index: layer position in the model.
        kind: ``"spatial"``, ``"flat"``, or ``"flatten"`` (the
            bridge layer, which moves no data by itself).
        in_hw / out_hw: grids for spatial layers (None for flat).
        in_values / out_values: scalars held per input/output position
            (spatial: channel count) or per unit (flat: 1).
        n_units: flat-layer output units (None for spatial).
        in_units: flat-layer input width (None for spatial).
        deps: spatial dependency map (output pos -> input positions);
            None for flat layers, which depend on everything.
    """

    index: int
    layer: Layer
    kind: str
    in_hw: Optional[GridPos]
    out_hw: Optional[GridPos]
    in_values: int
    out_values: int
    n_units: Optional[int] = None
    in_units: Optional[int] = None
    deps: Optional[Dict[GridPos, List[GridPos]]] = None

    def output_positions(self) -> List:
        """All producer slots of this layer (grid positions or unit
        indices)."""
        if self.kind == "flat":
            return list(range(self.n_units))
        h, w = self.out_hw
        return [(y, x) for y in range(h) for x in range(w)]


class UnitGraph:
    """Per-layer unit structure of a built model.

    Args:
        model: a built :class:`Sequential` whose input is spatial
            ``(C, H, W)``.

    Attributes:
        feeding: per layer, the index of the layer producing its inputs
            — the nearest earlier non-flatten layer, or -1 for the
            model input.

    Raises:
        ValueError: if the model is unbuilt or its input is not a 2-D
            grid.
    """

    def __init__(self, model: Sequential) -> None:
        if not model.built:
            raise ValueError("model must be built before extracting units")
        if len(model.input_shape) != 3:
            raise ValueError(
                f"MicroDeep expects (C, H, W) input, got {model.input_shape}"
            )
        self.model = model
        self.input_shape = model.input_shape
        self.input_hw: GridPos = (model.input_shape[1], model.input_shape[2])
        self.input_values = model.input_shape[0]
        self.layers: List[LayerUnits] = []
        self.feeding: List[int] = []
        self._extract()

    def _extract(self) -> None:
        shape = self.input_shape
        feeding = -1
        for idx, layer in enumerate(self.model.layers):
            out_shape = layer.output_shape(shape)
            if isinstance(layer, Flatten):
                entry = LayerUnits(
                    index=idx,
                    layer=layer,
                    kind="flatten",
                    in_hw=(shape[1], shape[2]) if len(shape) == 3 else None,
                    out_hw=None,
                    in_values=shape[0] if len(shape) == 3 else 1,
                    out_values=1,
                    in_units=int(np.prod(shape)),
                )
            elif layer.is_spatial and len(shape) == 3:
                in_hw = (shape[1], shape[2])
                out_hw = (out_shape[1], out_shape[2])
                entry = LayerUnits(
                    index=idx,
                    layer=layer,
                    kind="spatial",
                    in_hw=in_hw,
                    out_hw=out_hw,
                    in_values=shape[0],
                    out_values=out_shape[0],
                    deps=layer.spatial_dependencies(in_hw),
                )
            elif len(shape) == 1:
                entry = LayerUnits(
                    index=idx,
                    layer=layer,
                    kind="flat",
                    in_hw=None,
                    out_hw=None,
                    in_values=1,
                    out_values=1,
                    n_units=out_shape[0],
                    in_units=shape[0],
                )
            else:
                raise ValueError(
                    f"layer {idx} ({type(layer).__name__}) does not fit the "
                    "spatial -> flatten -> flat structure MicroDeep expects"
                )
            self.layers.append(entry)
            self.feeding.append(feeding)
            if entry.kind != "flatten":
                feeding = idx
            shape = out_shape

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def spatial_layers(self) -> List[LayerUnits]:
        return [l for l in self.layers if l.kind == "spatial"]

    def flat_layers(self) -> List[LayerUnits]:
        return [l for l in self.layers if l.kind == "flat"]

    def total_units(self) -> int:
        """Total assignable units across all layers."""
        total = 0
        for entry in self.layers:
            if entry.kind == "spatial":
                h, w = entry.out_hw
                total += h * w
            elif entry.kind == "flat":
                total += entry.n_units
        return total
