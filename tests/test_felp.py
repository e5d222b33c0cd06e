"""FELP predictor semantics."""

import pytest

from repro.core.felp import FelpPredictor
from repro.core.ept import (
    published_aggressive_table,
    published_conservative_table,
)
from repro.errors import ConfigError


@pytest.fixture
def predictor(profile):
    return FelpPredictor(
        profile,
        conservative=published_conservative_table(profile),
        aggressive=published_aggressive_table(profile),
    )


def test_above_fhigh_no_reduction(predictor, profile):
    prediction = predictor.predict(2, profile.f_high + 1)
    assert prediction.pulses == 7
    assert not prediction.reduced
    assert not prediction.aggressive


def test_conservative_prediction(predictor, profile):
    prediction = predictor.predict(2, profile.delta)
    assert prediction.pulses == 2
    assert prediction.reduced
    assert not prediction.aggressive


def test_aggressive_prediction(predictor, profile):
    prediction = predictor.predict(2, profile.delta, use_margin=True)
    assert prediction.pulses == 0
    assert prediction.aggressive


def test_aggressive_equal_to_conservative_not_flagged(predictor, profile):
    """Table 1 row 5: t2 == t1, so no intentional under-erase."""
    prediction = predictor.predict(5, profile.delta, use_margin=True)
    assert prediction.pulses == 2
    assert not prediction.aggressive


def test_margin_requires_aggressive_table(profile):
    predictor = FelpPredictor(
        profile, conservative=published_conservative_table(profile)
    )
    prediction = predictor.predict(2, profile.delta, use_margin=True)
    assert not prediction.aggressive  # silently conservative


def test_acceptance_threshold_covers_two_pulse_residual(predictor, profile):
    threshold = predictor.acceptance_threshold()
    # Residual of two pulses reads ~gamma + delta (+ noise).
    assert threshold > profile.gamma + profile.delta
    assert threshold < profile.gamma + 2 * profile.delta


def test_table_flag_validation(profile):
    conservative = published_conservative_table(profile)
    aggressive = published_aggressive_table(profile)
    with pytest.raises(ConfigError):
        FelpPredictor(profile, conservative=aggressive)
    with pytest.raises(ConfigError):
        FelpPredictor(profile, conservative=conservative, aggressive=conservative)


def test_range_index_recorded(predictor, profile):
    prediction = predictor.predict(3, int(2.5 * profile.delta))
    assert prediction.range_index == 3
    assert prediction.loop == 3
