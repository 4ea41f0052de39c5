"""Evolving-timestamp extraction (MISCELA step 2).

A sensor *evolves* at timestamp ``t`` when the change from the previous
timestamp is at least the evolving rate ε; smaller changes "are evaluated as
that the measurements do not change" (paper, Section 2.1).  The direction of
the change (+1 / −1) is kept so direction-aware co-evolution can be checked.

The extractor optionally smooths the series first with the linear
segmentation of step 1, which removes sub-ε jitter that would otherwise
create spurious single-step evolutions.

Downstream, the search consumes evolving sets as Python-int bitmaps (see
:mod:`repro.core.bitset`), which every :class:`EvolvingSet` builds lazily,
once, from the sorted index arrays made here via its ``.bits`` property.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .parameters import MiningParameters
from .segmentation import smooth_series
from .types import DECREASING, INCREASING, EvolvingSet, SensorDataset

__all__ = ["extract_evolving", "extract_all_evolving", "co_evolution_count"]


def extract_evolving(
    values: np.ndarray,
    evolving_rate: float,
    segmentation: str = "none",
    segmentation_error: float = 0.0,
) -> EvolvingSet:
    """The evolving timestamps of one measurement series.

    Timestamp index ``t`` (``t >= 1``) evolves iff
    ``|values[t] - values[t-1]| >= evolving_rate`` and both endpoints are
    present (non-NaN).  With ``evolving_rate == 0`` every strict change is an
    evolution, matching the definition's limit case.

    Parameters
    ----------
    values:
        1-D measurement array; NaN marks a missing reading.
    evolving_rate:
        ε from the paper.  Non-negative.
    segmentation, segmentation_error:
        Optional step-1 smoothing applied before differencing.
    """
    if evolving_rate < 0:
        raise ValueError(f"evolving_rate must be >= 0, got {evolving_rate}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if values.shape[0] < 2:
        return EvolvingSet.empty()
    smoothed = smooth_series(values, segmentation, segmentation_error)
    delta = smoothed[1:] - smoothed[:-1]
    with np.errstate(invalid="ignore"):
        if evolving_rate == 0.0:
            mask = np.abs(delta) > 0.0
        else:
            mask = np.abs(delta) >= evolving_rate
    mask &= ~np.isnan(delta)
    indices = np.nonzero(mask)[0] + 1
    directions = np.where(delta[indices - 1] > 0, INCREASING, DECREASING).astype(np.int8)
    return EvolvingSet(indices.astype(np.int64), directions)


def extract_all_evolving(
    dataset: SensorDataset, params: MiningParameters
) -> dict[str, EvolvingSet]:
    """Evolving sets for every sensor in the dataset.

    Uses the per-attribute ε override when one is configured, and the
    segmentation settings from the parameters.
    """
    evolving: dict[str, EvolvingSet] = {}
    for sensor in dataset:
        evolving[sensor.sensor_id] = extract_evolving(
            dataset.values(sensor.sensor_id),
            params.rate_for(sensor.attribute),
            params.segmentation,
            params.segmentation_error,
        )
    return evolving


def co_evolution_count(
    evolving: Mapping[str, EvolvingSet],
    sensor_ids: tuple[str, ...] | list[str],
) -> int:
    """Number of timestamps at which *all* the given sensors evolve.

    This is the support of the sensor set under the demo paper's
    direction-agnostic definition of co-evolution: the ``&`` of the sets'
    presence bitmaps, counted with ``int.bit_count()``.
    """
    if not sensor_ids:
        return 0
    first, *rest = sensor_ids
    common = evolving[first].bits.presence
    for sid in rest:
        common &= evolving[sid].bits.presence
    return common.bit_count()
