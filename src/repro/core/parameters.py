"""Mining parameters (Section 2.1 of the paper).

The four user-facing parameters of CAP mining, plus the knobs the MISCELA
papers add (segmentation method, direction-aware co-evolution, maximum time
delay).  ``MiningParameters`` is immutable and hashable so it can serve
directly as a cache key component (Section 3.3).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

__all__ = ["MiningParameters", "SEGMENTATION_METHODS"]

#: Linear-segmentation algorithms offered by :mod:`repro.core.segmentation`.
SEGMENTATION_METHODS = ("none", "sliding_window", "bottom_up", "top_down")

#: Values the retired ``evolving_backend`` field may carry in documents
#: written before it was removed; both mined identical CAPs.
_LEGACY_BACKENDS = ("array", "bitset")

#: Fields that count things and must hold whole numbers.
_INTEGER_FIELDS = ("max_attributes", "min_support", "max_sensors", "max_delay", "n_jobs")


def _as_int(name: str, value: Any) -> int:
    """``value`` as an ``int``; bools and fractional numbers are rejected."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class MiningParameters:
    """User-specified parameters of CAP mining.

    Parameters
    ----------
    evolving_rate:
        ε — changes smaller than this are treated as "no change" when
        extracting evolving timestamps.  Must be non-negative.  Measured in
        the unit of the attribute; attribute-specific overrides can be given
        via ``evolving_rate_per_attribute``.
    distance_threshold:
        η — two sensors closer than this many kilometres are "spatially
        close".  Must be positive.
    max_attributes:
        μ — upper bound on the number of distinct attributes in a CAP.
        Must be at least 2 (a CAP correlates *multiple* attributes).
    min_support:
        ψ — minimum number of co-evolving timestamps.  Must be at least 1.
    max_sensors:
        Optional cap on CAP size in sensors (the MISCELA implementation
        bounds pattern size to keep the search tractable).  ``None`` means
        unbounded.
    segmentation:
        Which linear-segmentation filter to run before extracting evolving
        timestamps (MISCELA step 1).  ``"none"`` skips filtering.
    segmentation_error:
        Maximum residual error allowed per segment for the segmentation
        algorithms.
    direction_aware:
        When true, a co-evolution additionally requires a *consistent*
        direction pattern across the sensor set at the shared timestamps
        (the MDM 2019 definition records direction patterns; the demo paper
        uses the simpler "change at the same timestamp").
    require_multi_attribute:
        The paper restricts CAPs to multiple attributes but notes "this
        restriction can be easily removed" — set to ``False`` to remove it.
    max_delay:
        δ — maximum time delay (in timeline steps) for the time-delayed
        extension (DPD 2020).  ``0`` mines simultaneous CAPs only.
    evolving_rate_per_attribute:
        Optional per-attribute ε overrides, e.g. ``{"temperature": 0.5}``.
    n_jobs:
        Worker processes for the CAP search (:mod:`repro.core.parallel`).
        ``1`` (default) runs today's serial path, ``0`` means one worker
        per available CPU, ``n > 1`` uses exactly ``n`` workers.  Purely an
        execution knob: the mined CAPs are identical for every value, so it
        is excluded from :meth:`to_document` (and therefore from cache
        keys) while still being accepted by :meth:`from_document`.
    """

    evolving_rate: float
    distance_threshold: float
    max_attributes: int
    min_support: int
    max_sensors: int | None = None
    segmentation: str = "none"
    segmentation_error: float = 0.0
    direction_aware: bool = False
    require_multi_attribute: bool = True
    max_delay: int = 0
    evolving_rate_per_attribute: Mapping[str, float] = field(default_factory=dict)
    n_jobs: int = 1

    def __post_init__(self) -> None:
        # Counts compare against the raw value during the search, so a
        # fractional one would mine differently from its ``int`` document
        # (and cache key); integral floats such as ``3.0`` are normalised.
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if name == "max_sensors" and value is None:
                continue
            object.__setattr__(self, name, _as_int(name, value))
        if self.evolving_rate < 0:
            raise ValueError(f"evolving_rate must be >= 0, got {self.evolving_rate}")
        if self.distance_threshold <= 0:
            raise ValueError(
                f"distance_threshold must be > 0, got {self.distance_threshold}"
            )
        if self.max_attributes < 2 and self.require_multi_attribute:
            raise ValueError(
                f"max_attributes must be >= 2 for multi-attribute CAPs, "
                f"got {self.max_attributes}"
            )
        if self.max_attributes < 1:
            raise ValueError(f"max_attributes must be >= 1, got {self.max_attributes}")
        if self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")
        if self.max_sensors is not None and self.max_sensors < 2:
            raise ValueError(f"max_sensors must be >= 2, got {self.max_sensors}")
        if self.segmentation not in SEGMENTATION_METHODS:
            raise ValueError(
                f"segmentation must be one of {SEGMENTATION_METHODS}, "
                f"got {self.segmentation!r}"
            )
        if self.segmentation_error < 0:
            raise ValueError(
                f"segmentation_error must be >= 0, got {self.segmentation_error}"
            )
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if self.n_jobs < 0:
            raise ValueError(
                f"n_jobs must be >= 0 (0 = one worker per CPU), got {self.n_jobs}"
            )
        for attr, rate in self.evolving_rate_per_attribute.items():
            if rate < 0:
                raise ValueError(
                    f"evolving_rate override for {attr!r} must be >= 0, got {rate}"
                )
        # Freeze the mapping so the dataclass stays hashable-by-value.
        object.__setattr__(
            self,
            "evolving_rate_per_attribute",
            dict(self.evolving_rate_per_attribute),
        )

    def rate_for(self, attribute: str) -> float:
        """The evolving rate ε to use for one attribute."""
        return self.evolving_rate_per_attribute.get(attribute, self.evolving_rate)

    def with_updates(self, **changes: Any) -> "MiningParameters":
        """A copy with some fields replaced (for parameter sweeps)."""
        return replace(self, **changes)

    # -- serialisation (cache keys, API payloads) ---------------------------

    def to_document(self) -> dict[str, Any]:
        """Canonical JSON-serialisable form used for cache keys and the API.

        ``n_jobs`` is deliberately omitted: the parallel engine guarantees
        identical CAPs for any worker count, so two requests differing only
        in ``n_jobs`` must share one cache entry.
        """
        return {
            "evolving_rate": float(self.evolving_rate),
            "distance_threshold": float(self.distance_threshold),
            "max_attributes": int(self.max_attributes),
            "min_support": int(self.min_support),
            "max_sensors": None if self.max_sensors is None else int(self.max_sensors),
            "segmentation": self.segmentation,
            "segmentation_error": float(self.segmentation_error),
            "direction_aware": bool(self.direction_aware),
            "require_multi_attribute": bool(self.require_multi_attribute),
            "max_delay": int(self.max_delay),
            "evolving_rate_per_attribute": {
                k: float(v)
                for k, v in sorted(self.evolving_rate_per_attribute.items())
            },
            # Fixed format constant: cache keys, ETags and stored documents
            # hash this dict, so dropping the retired field would re-key them.
            "evolving_backend": "bitset",
        }

    @classmethod
    def from_document(cls, doc: Mapping[str, Any]) -> "MiningParameters":
        """Parameters from their document form.

        The retired ``evolving_backend`` field is accepted (and dropped)
        when it names one of the former backends, so stored jobs, results
        and stream state written with it still decode.
        """
        known = {
            "evolving_rate",
            "distance_threshold",
            "max_attributes",
            "min_support",
            "max_sensors",
            "segmentation",
            "segmentation_error",
            "direction_aware",
            "require_multi_attribute",
            "max_delay",
            "evolving_rate_per_attribute",
            "evolving_backend",
            "n_jobs",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown parameter fields: {sorted(unknown)}")
        missing = {"evolving_rate", "distance_threshold", "max_attributes", "min_support"} - set(doc)
        if missing:
            raise ValueError(f"missing required parameter fields: {sorted(missing)}")
        fields = dict(doc)
        backend = fields.pop("evolving_backend", "bitset")
        if backend not in _LEGACY_BACKENDS:
            raise ValueError(
                f"evolving_backend must be one of {_LEGACY_BACKENDS}, got {backend!r}"
            )
        return cls(**fields)

    def __hash__(self) -> int:
        return hash(
            (
                self.evolving_rate,
                self.distance_threshold,
                self.max_attributes,
                self.min_support,
                self.max_sensors,
                self.segmentation,
                self.segmentation_error,
                self.direction_aware,
                self.require_multi_attribute,
                self.max_delay,
                tuple(sorted(self.evolving_rate_per_attribute.items())),
                self.n_jobs,
            )
        )
