"""Correlation statistics over datasets and mining results.

Quantitative companions to the visual analysis: co-evolution rates between
sensor pairs, attribute-pair pattern counts (which attribute combinations
correlate, and how strongly), and the geographic-axis statistics behind the
paper's China scenario (east–west vs. north–south correlation).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Sequence

from ..core.evolving import extract_evolving
from ..core.types import CAP, EvolvingSet, Sensor, SensorDataset

__all__ = [
    "co_evolution_rate",
    "pairwise_co_evolution",
    "attribute_pair_counts",
    "cap_summary",
    "axis_alignment",
    "axis_correlation_report",
]


def co_evolution_rate(a: EvolvingSet, b: EvolvingSet) -> float:
    """Jaccard similarity of two evolving sets.

    1.0 means the sensors always change together; 0.0 never.  This is the
    symmetric normalisation of the paper's raw support count.  The shared
    count is ``int.bit_count()`` of the ``&`` of the two int bitmaps.
    """
    if len(a) == 0 and len(b) == 0:
        return 0.0
    shared = a.bits.intersect_count(b.bits)
    union = len(a) + len(b) - shared
    return shared / union if union else 0.0


def pairwise_co_evolution(
    dataset: SensorDataset,
    evolving: Mapping[str, EvolvingSet],
    sensor_ids: Sequence[str] | None = None,
) -> dict[tuple[str, str], float]:
    """Co-evolution rate for every sensor pair (or a subset)."""
    ids = list(sensor_ids) if sensor_ids is not None else list(dataset.sensor_ids)
    rates: dict[tuple[str, str], float] = {}
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            key = (a, b) if a <= b else (b, a)
            rates[key] = co_evolution_rate(evolving[a], evolving[b])
    return rates


def attribute_pair_counts(caps: Sequence[CAP]) -> Counter:
    """How often each attribute pair appears together across CAPs.

    The demo's "we can find correlated patterns among temperatures and
    traffic volumes" reads straight off this counter.
    """
    counts: Counter = Counter()
    for cap in caps:
        attrs = sorted(cap.attributes)
        for i, a in enumerate(attrs):
            for b in attrs[i + 1 :]:
                counts[(a, b)] += 1
    return counts


def cap_summary(caps: Sequence[CAP]) -> dict[str, object]:
    """Aggregate statistics of a CAP set (the results-page summary strip)."""
    if not caps:
        return {
            "num_caps": 0,
            "max_support": 0,
            "mean_support": 0.0,
            "size_histogram": {},
            "attribute_histogram": {},
        }
    sizes = Counter(cap.size for cap in caps)
    attr_counts = Counter(cap.num_attributes for cap in caps)
    supports = [cap.support for cap in caps]
    return {
        "num_caps": len(caps),
        "max_support": max(supports),
        "mean_support": sum(supports) / len(supports),
        "size_histogram": dict(sorted(sizes.items())),
        "attribute_histogram": dict(sorted(attr_counts.items())),
    }


def axis_alignment(a: Sensor, b: Sensor) -> str:
    """Classify a sensor pair's geographic alignment.

    ``"east-west"`` when the pair's longitude separation dominates,
    ``"north-south"`` when latitude does (scaled by cos(lat) so degrees are
    comparable), ``"mixed"`` when neither dominates by 2×.
    """
    dlat = abs(a.lat - b.lat)
    mean_lat = math.radians((a.lat + b.lat) / 2.0)
    dlon = abs(a.lon - b.lon) * math.cos(mean_lat)
    if dlon >= 2.0 * dlat:
        return "east-west"
    if dlat >= 2.0 * dlon:
        return "north-south"
    return "mixed"


def axis_correlation_report(
    dataset: SensorDataset, caps: Sequence[CAP], min_km: float = 1.0
) -> dict[str, int]:
    """Count CAP sensor pairs by geographic axis — the China wind scenario.

    Only pairs at least ``min_km`` apart count (co-located sensors in one
    station have no meaningful axis).  The paper's claim is that pairs
    inside patterns skew heavily east–west when pollution rides the wind.
    """
    counts = {"east-west": 0, "north-south": 0, "mixed": 0}
    for cap in caps:
        members = sorted(cap.sensor_ids)
        for i, sid_a in enumerate(members):
            a = dataset.sensor(sid_a)
            for sid_b in members[i + 1 :]:
                b = dataset.sensor(sid_b)
                if a.distance_km(b) < min_km:
                    continue
                counts[axis_alignment(a, b)] += 1
    return counts
