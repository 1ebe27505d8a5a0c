"""Tests for the per-application timing parameters (paper Sec. II-C).

``TimingParameters`` is the input of the whole design chain, so every
constraint it enforces is pinned here: positivity of all seven numbers
and the cross-field rules that make the dwell models and the wait-time
analysis meaningful.
"""

from dataclasses import replace

import pytest

from repro.core.timing_params import (
    PAPER_TABLE_I,
    TimingParameters,
    paper_application,
)

FIELDS = (
    "min_inter_arrival",
    "deadline",
    "xi_tt",
    "xi_et",
    "xi_m",
    "k_p",
    "xi_m_mono",
)


@pytest.fixture()
def c3():
    return paper_application("C3")


class TestPositivity:
    @pytest.mark.parametrize("field", FIELDS)
    def test_rejects_zero(self, c3, field):
        with pytest.raises(ValueError, match=field):
            replace(c3, **{field: 0.0})


class TestCrossFieldRules:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"deadline": 16.0}, "must not exceed the minimum inter-arrival"),
            ({"xi_tt": 4.0, "xi_m": 4.0, "xi_m_mono": 4.0}, "must not exceed xi_et"),
            ({"xi_m": 0.3}, r"must be >= xi_tt"),
            ({"xi_m_mono": 0.6}, "must dominate xi_m"),
            ({"k_p": 3.97}, "must be smaller than xi_et"),
        ],
        ids=["deadline>r", "xi_tt>xi_et", "xi_m<xi_tt", "xi_m_mono<xi_m", "k_p>=xi_et"],
    )
    def test_violation_rejected_with_named_application(self, c3, changes, message):
        with pytest.raises(ValueError, match=message) as excinfo:
            replace(c3, **changes)
        assert str(excinfo.value).startswith("C3: ")

    @pytest.mark.parametrize(
        "changes",
        [
            {"deadline": 15.0},
            {"xi_tt": 0.64},
            {"xi_m_mono": 0.64},
            {"xi_tt": 3.97, "xi_m": 3.97, "xi_m_mono": 3.97, "k_p": 0.5},
        ],
        ids=["deadline=r", "xi_m=xi_tt", "xi_m_mono=xi_m", "xi_tt=xi_et"],
    )
    def test_boundary_accepted(self, c3, changes):
        params = replace(c3, **changes)
        for field, value in changes.items():
            assert getattr(params, field) == value


class TestPaperTable:
    def test_lookup_returns_the_row(self):
        for row in PAPER_TABLE_I:
            assert paper_application(row.name) is row

    def test_unknown_name_lists_the_roster(self):
        with pytest.raises(KeyError, match=r"unknown paper application 'C7'") as excinfo:
            paper_application("C7")
        assert "['C1', 'C2', 'C3', 'C4', 'C5', 'C6']" in str(excinfo.value)
