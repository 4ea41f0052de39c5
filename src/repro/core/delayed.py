"""Delayed co-evolution of a fixed delay assignment (DPD 2020 extension).

The journal version of MISCELA ("discovering simultaneous and time-delayed
correlated attribute patterns") generalises co-evolution: sensor ``s`` may
react up to δ timeline steps *after* the pattern's reference time.  A
delayed CAP assigns each sensor a delay ``d_s ∈ [0, δ]`` (the smallest is
0, which anchors the pattern in time) such that at ≥ ψ reference
timestamps ``t`` every sensor evolves at ``t + d_s``.  The search itself
is step 4's one tree (:func:`repro.core.search.search_component`), which
branches over the delays; :func:`delayed_support` evaluates one given
assignment directly, which is what tests check the tree against.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .bitset import bit_indices
from .types import EvolvingSet

__all__ = ["delayed_support"]


def delayed_support(
    evolving: Mapping[str, EvolvingSet],
    delays: Mapping[str, int],
    horizon: int,
) -> np.ndarray:
    """Reference timestamps where every sensor evolves at its delayed time."""
    common = (1 << horizon) - 1 if delays else 0
    for sid, delay in delays.items():
        common &= evolving[sid].bits.shift(-delay, horizon).presence
    return bit_indices(common)
