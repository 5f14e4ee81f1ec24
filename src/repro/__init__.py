"""Reproduction of *Context Recognition of Humans and Objects by
Distributed Zero-Energy IoT Devices* (Higashino et al., ICDCS 2019).

The package is organised as a stack of substrates topped by the paper's
central mechanism and its applications:

- :mod:`repro.sim` -- discrete-event simulation kernel.
- :mod:`repro.nn` -- from-scratch NumPy CNN framework.
- :mod:`repro.ml` -- classical machine-learning substrate and metrics.
- :mod:`repro.energy` -- energy harvesting and radio energy budgets.
- :mod:`repro.wsn` -- wireless-sensor-network simulator.
- :mod:`repro.backscatter` -- ambient backscatter PHY and the
  backscatter-aware WLAN MAC protocol.
- :mod:`repro.sensing` -- CSI and RSSI wireless-sensing simulators.
- :mod:`repro.core` -- MicroDeep: distributed CNN execution on a WSN.
- :mod:`repro.faults` -- deterministic fault injection: node crashes,
  brownouts, link loss/corruption/duplication, resilient execution.
- :mod:`repro.contexts` -- context-recognition applications.
- :mod:`repro.datasets` -- synthetic dataset generators replacing the
  paper's private testbed data.
- :mod:`repro.obs` -- unified telemetry: sim-clock tracing, metrics
  registry, and per-node cost reports (lazy; nothing imports it at
  module scope).
- :mod:`repro.par` -- deterministic sweep engine
  (per-point seed substreams and telemetry sessions, canonical result
  merge).
"""

__version__ = "1.0.0"

__all__ = [
    "sim",
    "nn",
    "ml",
    "energy",
    "wsn",
    "backscatter",
    "sensing",
    "core",
    "faults",
    "contexts",
    "datasets",
    "obs",
    "par",
]
