"""The benchmark's inputs: named cities, seeded variants and delta streams.

The base cities are fixed, named inputs (the synthesiser's ``mini`` city
configuration on three grid sizes); the workload seed drives everything
drawn from them — model initialisation, structural variants, the delta
stream and the order of operations — so the same seed gives the same
inputs and the program only ever sees what was generated here.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.stream import GraphDelta
from repro.synth import generate_city, mini_city
from repro.synth.evolution import EvolutionConfig, generate_step
from repro.urg import UrbanRegionGraph, build_urg

#: the synthesiser seed of every base city
CITY_SEED = 1
#: grid sizes: the ROADMAP's medium reference city, a city larger than the
#: engine's 2048-region micro-batch, and the small city bundles train on
GRIDS = {"medium": (32, 36), "large": (48, 48), "small": (16, 16)}

#: small feature deltas touch this many regions; road rewiring swaps this
#: many undirected edges; region churn removes / grows this many regions
DELTA_REGIONS = 2
REWIRE_EDGES = 3
CHURN_REGIONS = 2

_EVOLUTION = EvolutionConfig(poi_churn_count=DELTA_REGIONS,
                             imagery_refresh_count=DELTA_REGIONS,
                             rewire_edges=REWIRE_EDGES,
                             growth_regions=CHURN_REGIONS)


def city(size: str) -> UrbanRegionGraph:
    """One of the named base cities (``medium``, ``large`` or ``small``)."""
    height, width = GRIDS[size]
    config = dataclasses.replace(mini_city(seed=CITY_SEED), name=size,
                                 grid_height=height, grid_width=width)
    return build_urg(generate_city(config))


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """An independent generator per (workload seed, purpose...) tuple."""
    return np.random.default_rng([int(seed), *map(int, stream)])


def rewiring(graph: UrbanRegionGraph, rng: np.random.Generator,
             swaps: int = REWIRE_EDGES) -> GraphDelta:
    """Swap ``swaps`` undirected roads for new ones (both directions)."""
    src, dst = graph.edge_index
    n = graph.num_nodes
    upper = np.flatnonzero(src < dst)
    drop = upper[rng.choice(upper.size, size=swaps, replace=False)]
    existing = set((src * n + dst).tolist())
    added: List[Tuple[int, int]] = []
    while len(added) < swaps:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        if u * n + v in existing or (u, v) in added:
            continue
        added.append((u, v))
    removed = np.stack([src[drop], dst[drop]])
    add = np.asarray(added, dtype=np.int64).T
    return GraphDelta(kind="road_rewiring",
                      remove_edges=np.concatenate([removed, removed[::-1]], axis=1),
                      add_edges=np.concatenate([add, add[::-1]], axis=1))


def structural_variant(graph: UrbanRegionGraph, seed: int, index: int,
                       warmup: bool = False) -> UrbanRegionGraph:
    """The ``index``-th rewired copy of ``graph``: its own edge set, so its
    own fingerprint and edge plan.  Warm-up copies come from a stream of
    their own, so no timed request meets a city warm-up scored."""
    return rewiring(graph, rng_for(seed, 7 if warmup else 1, index)).apply(graph)


def city_variants(graph: UrbanRegionGraph, count: int, seed: int
                  ) -> Dict[str, UrbanRegionGraph]:
    """``count`` structurally distinct cities for the stream workloads."""
    return {f"{graph.name}-{i}": (graph if i == 0 else
                                  rewiring(graph, rng_for(seed, 2, i)).apply(graph))
            for i in range(count)}


#: one round of the ``stream_update`` mix, per city: every five
#: consecutive steps hold three small feature deltas, one road rewiring
#: and one region-churn delta (removals and growths alternate, so the
#: region count returns) — a run timing whole runs of five steps always
#: times 60% feature deltas (the median) and 20% node-count-changing
#: full-path updates (the p90)
STREAM_ROUND = ("poi_churn", "imagery_refresh", "road_rewiring", "poi_churn",
                "region_removal",
                "imagery_refresh", "poi_churn", "road_rewiring", "imagery_refresh",
                "region_growth")
STREAM_HALF = len(STREAM_ROUND) // 2

#: the ``http_stream`` writes: small feature deltas only
HTTP_ROUND = ("poi_churn", "imagery_refresh")


def next_delta(graph: UrbanRegionGraph, kind: str,
               rng: np.random.Generator) -> GraphDelta:
    """One delta of ``kind`` against the current version of a city."""
    if kind == "road_rewiring":
        return rewiring(graph, rng)
    if kind == "region_removal":
        victims = np.sort(rng.choice(graph.num_nodes, size=CHURN_REGIONS,
                                     replace=False))
        return GraphDelta(kind="region_removal", remove_regions=victims)
    delta: Optional[GraphDelta] = generate_step(graph, kind, _EVOLUTION, rng)
    if delta is None:
        raise RuntimeError(f"cannot generate a {kind} delta for {graph.name}")
    return delta
