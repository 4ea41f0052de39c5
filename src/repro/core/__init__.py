"""Core CAP mining: data model, parameters, and the MISCELA algorithm."""

from .baseline import naive_search
from .bitset import BitsetEvolvingSet
from .delayed import delayed_support
from .evolving import co_evolution_count, extract_all_evolving, extract_evolving
from .miner import MiningResult, MiscelaMiner, NaiveMiner
from .parallel import (
    MiningCancelled,
    MiningControl,
    ShardUnit,
    estimate_seed_cost,
    plan_shards,
    resolve_jobs,
)
from .parameters import SEGMENTATION_METHODS, MiningParameters
from .search import dedupe_strongest, filter_maximal, search_all, search_component
from .segmentation import (
    Segment,
    bottom_up_segmentation,
    reconstruct,
    segment_series,
    sliding_window_segmentation,
    smooth_series,
    top_down_segmentation,
)
from .streaming import StreamingMiner
from .spatial import (
    GridIndex,
    build_proximity_graph,
    connected_components,
    haversine_matrix,
    is_connected,
    subgraph,
)
from .types import CAP, EvolvingSet, Sensor, SensorDataset, haversine_km

__all__ = [
    "BitsetEvolvingSet",
    "CAP",
    "EvolvingSet",
    "GridIndex",
    "MiningCancelled",
    "MiningControl",
    "MiningParameters",
    "MiningResult",
    "MiscelaMiner",
    "NaiveMiner",
    "SEGMENTATION_METHODS",
    "Segment",
    "Sensor",
    "SensorDataset",
    "ShardUnit",
    "StreamingMiner",
    "bottom_up_segmentation",
    "build_proximity_graph",
    "co_evolution_count",
    "connected_components",
    "dedupe_strongest",
    "delayed_support",
    "estimate_seed_cost",
    "extract_all_evolving",
    "extract_evolving",
    "filter_maximal",
    "haversine_km",
    "haversine_matrix",
    "is_connected",
    "naive_search",
    "plan_shards",
    "reconstruct",
    "resolve_jobs",
    "search_all",
    "search_component",
    "segment_series",
    "sliding_window_segmentation",
    "smooth_series",
    "subgraph",
    "top_down_segmentation",
]
