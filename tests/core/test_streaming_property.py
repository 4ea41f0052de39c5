"""Satellite property: any batch split of a synthetic-city history is
byte-identical to a from-scratch mine of the concatenated history.

Stronger than the signature-set checks in ``test_streaming.py``: the CAP
*documents* — sensors, attributes, support, evolving indices, delays —
are serialised to canonical JSON and compared as bytes.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.miner import MiscelaMiner
from repro.core.parameters import MiningParameters
from repro.core.streaming import StreamingMiner
from repro.data.synthetic import generate_santander

STEPS = 60

PARAM_DOC = {
    "evolving_rate": 3.0,
    "distance_threshold": 0.35,
    "max_attributes": 3,
    "min_support": 3,
}


def canonical_bytes(result) -> bytes:
    """A canonical byte serialisation of a mining result's CAP documents."""
    documents = sorted(
        (cap.to_document() for cap in result.caps),
        key=lambda doc: json.dumps(doc, sort_keys=True),
    )
    return json.dumps(documents, sort_keys=True).encode("utf-8")


def split_points(cuts: list[int]) -> list[int]:
    return sorted(set(cuts))


@given(
    seed=st.integers(min_value=0, max_value=1_000),
    cuts=st.lists(
        st.integers(min_value=2, max_value=STEPS - 2), min_size=1, max_size=4
    ),
)
@settings(max_examples=15, deadline=None)
def test_any_split_is_byte_identical(seed, cuts):
    city = generate_santander(seed=seed, neighbourhoods=2, steps=STEPS)
    points = split_points(cuts)
    params = MiningParameters(**PARAM_DOC)
    batch = MiscelaMiner(params).mine(city)

    prefix = city.slice_time(
        city.timeline[0], city.timeline[points[0]], name=city.name
    )
    miner = StreamingMiner(params, prefix)
    bounds = points + [len(city.timeline)]
    for start, stop in zip(bounds, bounds[1:]):
        if start == stop:
            continue
        miner.extend(
            list(city.timeline[start:stop]),
            {sid: city.values(sid)[start:stop] for sid in city.sensor_ids},
        )
    incremental = miner.mine()

    assert canonical_bytes(incremental) == canonical_bytes(batch), (
        f"split {points} diverged from batch mine"
    )
