"""Vectorized test oracles for the simulator's scalar hot loops.

Each oracle does the same work as its product twin as whole-array numpy
operations, in the same IEEE-754 arithmetic, so the differential tests
can demand *exact* equality rather than a tolerance:

* :func:`summarize_oracle` — the timing summary of
  :func:`repro.core.timing.summarize`;
* :func:`max_min_rates_oracle` — the progressive-filling solver of
  :func:`repro.net.flows.max_min_rates`.

An independent formulation that agrees to the last bit on hundreds of
random inputs is strong evidence that neither one drops or reorders a
floating-point operation.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# One saturation threshold for both solvers, so equal rounding holds by
# construction.
from repro.net.flows import _EPS_REL

__all__ = ["max_min_rates_oracle", "summarize_oracle"]


def _seq_sum(arr: np.ndarray) -> float:
    """Sequential (left-to-right) sum — bit-identical to Python ``sum``.

    ``np.cumsum`` accumulates sequentially, unlike ``np.sum``, which
    uses pairwise summation."""
    return float(np.cumsum(arr)[-1])


def summarize_oracle(
    times: Sequence[float], dismiss_sigma: float | None
) -> tuple[float, float, float, int, float, float]:
    """``(mean, std, kept_mean, dismissed, minimum, maximum)`` of
    ``times`` under the paper's one-sided dismissal rule."""
    arr = np.asarray(times, dtype=np.float64)
    n = arr.size
    mean = _seq_sum(arr) / n
    dev = arr - mean
    var = _seq_sum(dev * dev) / n
    std = math.sqrt(var)
    negligible = std <= 1e-9 * abs(mean)
    if dismiss_sigma is None or negligible:
        kept = arr
    else:
        cutoff = mean + dismiss_sigma * std
        kept = arr[arr <= cutoff]
        if kept.size == 0:
            kept = arr
    return (
        mean,
        std,
        _seq_sum(kept) / int(kept.size),
        int(n - kept.size),
        float(arr.min()),
        float(arr.max()),
    )


def max_min_rates_oracle(
    routes: Sequence[tuple[int, ...]],
    demands: Sequence[float],
    capacities: Sequence[float],
) -> list[float]:
    """Max-min fair rates by progressive filling over a flat
    (flow, link) incidence representation:

    * per-link active-flow counts: one ``bincount`` over the edges;
    * the filling increment: array minima over ``demands - rates`` and
      ``headroom / counts`` (the minimum of a float set does not depend
      on iteration order);
    * saturation and at-cap freezing: elementwise masks.
    """
    n = len(routes)
    if len(demands) != n:
        raise ValueError("routes and demands must align")
    demand = np.asarray(demands, dtype=np.float64)
    if demand.size and np.any(demand <= 0):
        raise ValueError("flow demand caps must be positive")
    caps = np.asarray(capacities, dtype=np.float64)
    if caps.size and np.any(caps <= 0):
        raise ValueError("link capacities must be positive")
    if n == 0:
        return []

    # Flat incidence: edge e is (flow_ids[e], link_ids[e]).
    route_lens = np.fromiter((len(r) for r in routes), dtype=np.int64, count=n)
    flow_ids = np.repeat(np.arange(n, dtype=np.int64), route_lens)
    if flow_ids.size:
        link_ids = np.concatenate(
            [np.asarray(r, dtype=np.int64) for r in routes if len(r)]
        )
    else:
        link_ids = np.empty(0, dtype=np.int64)

    nlinks = caps.size
    rates = np.zeros(n, dtype=np.float64)
    headroom = caps.copy()
    sat_floor = _EPS_REL * caps
    active = np.ones(n, dtype=bool)
    while active.any():
        edge_active = active[flow_ids]
        counts = np.bincount(link_ids[edge_active], minlength=nlinks)
        inc = float(np.min(demand[active] - rates[active]))
        used = counts > 0
        if used.any():
            share_min = float(np.min(headroom[used] / counts[used]))
            if share_min < inc:
                inc = share_min
        if inc > 0:
            rates[active] += inc
            headroom[used] -= inc * counts[used]
        saturated = used & (headroom <= sat_floor)
        at_cap = active & (rates >= demand * (1 - _EPS_REL))
        rates[at_cap] = demand[at_cap]
        if flow_ids.size:
            edge_sat = edge_active & saturated[link_ids]
            blocked = np.bincount(flow_ids[edge_sat], minlength=n) > 0
        else:
            blocked = np.zeros(n, dtype=bool)
        still = active & ~at_cap & ~blocked
        if still.sum() == active.sum():  # float pathology guard
            break
        active = still
    return [float(r) for r in rates]
