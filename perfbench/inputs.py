"""Seeded inputs for every workload.

Everything the program is fed is drawn here from the workload seed, so
the same seed gives the same inputs in the measured process and in the
benchmark's independent checks.  Only NumPy is imported: the checks for
``city_churn`` run without the program.
"""

from __future__ import annotations

import math

import numpy as np

# city_churn: 1 tag per 100 m^2 and a 15 m radio range (the density of
# the repo's city_scale bench), 4,000 tags.
CITY_TAGS = 4000
CITY_RANGE_M = 15.0
CITY_SIDE_M = math.sqrt(CITY_TAGS * 100.0)
CITY_FLIPS = 5
CITY_UNICASTS = 8
#: Tags down when the run starts.  Each round takes 3 alive tags down and
#: brings 2 down tags back, or 2 and 3 on odd rounds, so the share of
#: tags down stays at 10% and every round costs the same.
CITY_DOWN = CITY_TAGS // 10

# fault_campaign: loss rates of one sweep op, and plan seeds per run.
CAMPAIGN_LOSSES = (0.0, 0.15, 0.3, 0.5)
CAMPAIGN_PLAN_SEEDS = 8

# train_local
TRAIN_EXAMPLES = 256
TRAIN_FIELD = (12, 12)
TRAIN_GRID = (4, 4)
TRAIN_DEAD = (5, 10)
TRAIN_BATCH = 16
TRAIN_LR = 0.05

# serve_open
SERVE_TENANTS = ("fall", "hvac", "congestion")
SERVE_FIELDS = {"fall": (8, 8), "hvac": (10, 10), "congestion": (12, 12)}
SERVE_RATE = 100.0
SERVE_CONNECTIONS = 2
SERVE_WARMUP_PER_TENANT = 8


def city_positions(seed: int) -> np.ndarray:
    """``(CITY_TAGS, 2)`` uniform tag positions in metres."""
    rng = np.random.default_rng([seed, 1])
    return rng.uniform(0.0, CITY_SIDE_M, size=(CITY_TAGS, 2))


def city_rounds(seed: int):
    """``(down at start, rounds)``: the tags down before round 0, and
    an endless iterator of ``(flips, pairs)`` per round — the tags
    whose alive flag flips and the ``(src, dst)`` tags of its
    unicasts."""
    rng = np.random.default_rng([seed, 2])
    alive = np.ones(CITY_TAGS, dtype=bool)
    down = rng.choice(CITY_TAGS, size=CITY_DOWN, replace=False)
    alive[down] = False

    def rounds():
        k = 0
        while True:
            n_down = CITY_FLIPS // 2 + (k % 2 == 0)
            kill = rng.choice(np.flatnonzero(alive), size=n_down,
                              replace=False)
            revive = rng.choice(np.flatnonzero(~alive),
                                size=CITY_FLIPS - n_down, replace=False)
            alive[kill] = False
            alive[revive] = True
            pairs = rng.integers(0, CITY_TAGS, size=(CITY_UNICASTS, 2))
            yield ([int(i) for i in np.concatenate([kill, revive])],
                   [(int(s), int(d)) for s, d in pairs])
            k += 1

    return [int(i) for i in down], rounds()


def campaign_seeds(seed: int):
    """``(scenario seed, plan seeds)`` of a fault_campaign run; ops
    cycle through the plan seeds."""
    rng = np.random.default_rng([seed, 3])
    scenario_seed = int(rng.integers(0, 2**31))
    plans = [int(s) for s in rng.integers(0, 2**31, size=CAMPAIGN_PLAN_SEEDS)]
    return scenario_seed, plans


def train_rngs(seed: int):
    """``(data rng, weight-init rng, shuffle rng)`` of a train_local
    run."""
    return tuple(np.random.default_rng([seed, 4, i]) for i in range(3))


def serve_requests(seed: int, seconds: float):
    """The open-loop schedule: due offsets (s) of a Poisson process at
    :data:`SERVE_RATE` conditioned on ``rate * seconds`` arrivals (sorted
    uniform times), and one ``(tenant, input)`` per arrival."""
    rng = np.random.default_rng([seed, 5])
    n = max(1, int(round(SERVE_RATE * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=n))
    tenants = rng.integers(0, len(SERVE_TENANTS), size=n)
    requests = []
    for t in tenants:
        name = SERVE_TENANTS[int(t)]
        h, w = SERVE_FIELDS[name]
        requests.append((name, rng.normal(0.0, 1.0, size=(1, h, w))))
    return due, requests


def serve_warmup(seed: int):
    """Closed-loop warm-up requests sent before the open-loop window."""
    rng = np.random.default_rng([seed, 6])
    out = []
    for __ in range(SERVE_WARMUP_PER_TENANT):
        for name in SERVE_TENANTS:
            h, w = SERVE_FIELDS[name]
            out.append((name, rng.normal(0.0, 1.0, size=(1, h, w))))
    return out
