"""Unit tests for MiningParameters validation and serialisation."""

from __future__ import annotations

import pytest

from repro.core.parameters import SEGMENTATION_METHODS, MiningParameters


def make(**overrides):
    defaults = dict(
        evolving_rate=1.0, distance_threshold=2.0, max_attributes=3, min_support=5
    )
    defaults.update(overrides)
    return MiningParameters(**defaults)


class TestValidation:
    def test_defaults_are_valid(self):
        p = make()
        assert p.max_delay == 0
        assert p.segmentation == "none"
        assert p.require_multi_attribute

    @pytest.mark.parametrize("rate", [-0.1, -5])
    def test_negative_evolving_rate(self, rate):
        with pytest.raises(ValueError, match="evolving_rate"):
            make(evolving_rate=rate)

    def test_zero_evolving_rate_allowed(self):
        assert make(evolving_rate=0.0).evolving_rate == 0.0

    @pytest.mark.parametrize("eta", [0.0, -1.0])
    def test_nonpositive_distance(self, eta):
        with pytest.raises(ValueError, match="distance_threshold"):
            make(distance_threshold=eta)

    def test_max_attributes_one_rejected_when_multi_required(self):
        with pytest.raises(ValueError, match="max_attributes"):
            make(max_attributes=1)

    def test_max_attributes_one_allowed_without_multi(self):
        p = make(max_attributes=1, require_multi_attribute=False)
        assert p.max_attributes == 1

    @pytest.mark.parametrize("psi", [0, -3])
    def test_min_support_positive(self, psi):
        with pytest.raises(ValueError, match="min_support"):
            make(min_support=psi)

    def test_max_sensors_bound(self):
        with pytest.raises(ValueError, match="max_sensors"):
            make(max_sensors=1)
        assert make(max_sensors=2).max_sensors == 2

    def test_unknown_segmentation(self):
        with pytest.raises(ValueError, match="segmentation"):
            make(segmentation="fourier")

    @pytest.mark.parametrize("method", SEGMENTATION_METHODS)
    def test_all_segmentation_methods_accepted(self, method):
        assert make(segmentation=method).segmentation == method

    def test_negative_segmentation_error(self):
        with pytest.raises(ValueError, match="segmentation_error"):
            make(segmentation_error=-0.5)

    def test_negative_delay(self):
        with pytest.raises(ValueError, match="max_delay"):
            make(max_delay=-1)

    def test_negative_per_attribute_rate(self):
        with pytest.raises(ValueError, match="override"):
            make(evolving_rate_per_attribute={"temperature": -1.0})

    @pytest.mark.parametrize(
        "field", ["max_attributes", "min_support", "max_sensors", "max_delay", "n_jobs"]
    )
    @pytest.mark.parametrize("value", [2.5, True, "3", float("nan")])
    def test_integer_fields_reject_fractions_and_bools(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make(**{field: value})

    def test_integral_floats_become_ints(self):
        p = make(max_attributes=3.0, min_support=5.0, max_sensors=4.0,
                 max_delay=1.0, n_jobs=2.0)
        q = make(max_attributes=3, min_support=5, max_sensors=4, max_delay=1, n_jobs=2)
        assert p == q and hash(p) == hash(q)
        assert p.to_document() == q.to_document()
        assert all(type(getattr(p, name)) is int for name in
                   ("max_attributes", "min_support", "max_sensors", "max_delay", "n_jobs"))

    def test_backend_is_not_a_parameter(self):
        assert not hasattr(make(), "evolving_backend")
        with pytest.raises(TypeError):
            make(evolving_backend="bitset")


class TestBehaviour:
    def test_rate_for_uses_override(self):
        p = make(evolving_rate=1.0, evolving_rate_per_attribute={"pm25": 4.0})
        assert p.rate_for("pm25") == 4.0
        assert p.rate_for("temperature") == 1.0

    def test_with_updates_creates_new(self):
        p = make()
        q = p.with_updates(min_support=9)
        assert q.min_support == 9
        assert p.min_support == 5

    def test_equality_and_hash(self):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert make(min_support=6) != make()

    def test_hash_includes_per_attribute_rates(self):
        a = make(evolving_rate_per_attribute={"x": 1.0})
        b = make(evolving_rate_per_attribute={"x": 2.0})
        assert hash(a) != hash(b) or a != b


class TestSerialisation:
    def test_round_trip(self):
        p = make(
            max_sensors=4,
            segmentation="bottom_up",
            segmentation_error=0.5,
            direction_aware=True,
            max_delay=2,
            evolving_rate_per_attribute={"pm25": 2.0},
        )
        assert MiningParameters.from_document(p.to_document()) == p

    def test_document_is_json_friendly(self):
        import json

        json.dumps(make().to_document())

    def test_unknown_field_rejected(self):
        doc = make().to_document()
        doc["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            MiningParameters.from_document(doc)

    def test_document_keeps_the_backend_constant(self):
        # Cache keys hash this document; the retired field stays in it.
        assert make().to_document()["evolving_backend"] == "bitset"

    @pytest.mark.parametrize("backend", ["array", "bitset"])
    def test_legacy_backend_field_decodes(self, backend):
        doc = make(max_delay=1).to_document()
        doc["evolving_backend"] = backend
        assert MiningParameters.from_document(doc) == make(max_delay=1)

    def test_unknown_backend_rejected(self):
        doc = make().to_document()
        doc["evolving_backend"] = "gpu"
        with pytest.raises(ValueError, match="evolving_backend"):
            MiningParameters.from_document(doc)

    def test_missing_required_field_rejected(self):
        doc = make().to_document()
        del doc["min_support"]
        with pytest.raises(ValueError, match="missing"):
            MiningParameters.from_document(doc)
