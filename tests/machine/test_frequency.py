"""Tests for frequency ladders."""

import pytest

from repro.errors import ConfigurationError
from repro.machine.frequency import GHZ, opteron_8380_scale, uniform_scale
from repro.machine.operating_point import homogeneous_space


class TestFrequencyScaleConstruction:
    """Flat-ladder construction through ``homogeneous_space``; the class
    keeps the name it had when these cases ran against a ladder class."""

    def test_descending_levels_accepted(self):
        scale = homogeneous_space((2.0e9, 1.0e9))
        assert scale.r == 2
        assert scale.fastest == 2.0e9
        assert scale.slowest == 1.0e9

    def test_single_level_allowed(self):
        assert homogeneous_space((1.0e9,)).r == 1

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous_space(())

    def test_ascending_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous_space((1.0e9, 2.0e9))

    def test_equal_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous_space((1.0e9, 1.0e9))

    def test_nonpositive_rejected(self):
        with pytest.raises(ConfigurationError):
            homogeneous_space((1.0e9, 0.0))

    def test_iteration_and_indexing(self):
        scale = homogeneous_space((3.0e9, 2.0e9, 1.0e9))
        assert list(scale) == [3.0e9, 2.0e9, 1.0e9]
        assert scale[1] == 2.0e9
        assert len(scale) == 3


class TestFrequencyArithmetic:
    def test_slowdown_of_fastest_is_one(self):
        scale = opteron_8380_scale()
        assert scale.slowdown(0) == pytest.approx(1.0)

    def test_slowdown_matches_ratio(self):
        scale = opteron_8380_scale()
        assert scale.slowdown(3) == pytest.approx(2.5 / 0.8)

    def test_relative_speed_inverse_of_slowdown(self):
        scale = opteron_8380_scale()
        for j in range(scale.r):
            assert scale.relative_speed(j) * scale.slowdown(j) == pytest.approx(1.0)

    def test_index_of_finds_levels(self):
        scale = opteron_8380_scale()
        for j, f in enumerate(scale):
            assert scale.index_of(f) == j

    def test_index_of_unknown_raises(self):
        with pytest.raises(ConfigurationError):
            opteron_8380_scale().index_of(3.14e9)

    def test_validate_index_bounds(self):
        scale = opteron_8380_scale()
        assert scale.validate_index(0) == 0
        assert scale.validate_index(3) == 3
        with pytest.raises(ConfigurationError):
            scale.validate_index(4)
        with pytest.raises(ConfigurationError):
            scale.validate_index(-1)


class TestPresets:
    def test_opteron_levels(self):
        scale = opteron_8380_scale()
        assert [f / GHZ for f in scale] == pytest.approx([2.5, 1.8, 1.3, 0.8])

    def test_uniform_scale_geometric(self):
        scale = uniform_scale(2.0, 3, ratio=0.5)
        assert [f / GHZ for f in scale] == pytest.approx([2.0, 1.0, 0.5])

    def test_uniform_scale_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_scale(2.0, 0)
        with pytest.raises(ConfigurationError):
            uniform_scale(2.0, 2, ratio=1.5)
