"""The Fig. 10 heat-strip rendering."""

import numpy as np
import pytest

from repro.analysis.heatmap import (
    heat_strip,
    rebalancing_heat_story,
    render_heat_story,
)
from repro.errors import ConfigError


class TestHeatStrip:
    def test_length_matches_pes(self):
        assert len(heat_strip([1, 2, 3, 4])) == 4

    def test_idle_pe_is_space(self):
        strip = heat_strip([0, 10], ideal=5)
        assert strip[0] == " "

    def test_overloaded_pe_is_at_sign(self):
        strip = heat_strip([20, 0], ideal=5)
        assert strip[0] == "@"

    def test_balanced_mid_grade(self):
        strip = heat_strip([5, 5], ideal=5)
        assert strip[0] == strip[1]
        assert strip[0] not in (" ", "@")

    def test_empty_raises(self):
        with pytest.raises(ConfigError):
            heat_strip([])

    def test_bad_ideal_raises(self):
        with pytest.raises(ConfigError):
            heat_strip([1], ideal=0)


class TestHeatStory:
    def test_story_structure(self, rng):
        row_nnz = rng.integers(0, 6, size=64)
        row_nnz[0] = 120
        story = rebalancing_heat_story(row_nnz, 8, hop=1)
        labels = [label for label, _ in story]
        assert labels[0] == "equal partition"
        assert "after remote switching" in labels
        assert all(len(strip) == 8 for _label, strip in story)

    def test_rebalancing_cools_hotspot(self, rng):
        # Eight medium rows all on PE 0: a *divisible* hotspot, so the
        # tuner can actually flatten it (a single atomic super-row could
        # not drop below its sharing-window share — see the robustness
        # tests).
        row_nnz = rng.integers(0, 4, size=64)
        row_nnz[0:8] = 40
        story = dict(rebalancing_heat_story(row_nnz, 8, hop=1))
        first = story["equal partition"]
        switched = story["after remote switching"]
        assert first[0] == "@"          # the hotspot glows initially
        # After remote switching the hotspot has cooled below "red".
        assert switched[0] != "@"
        assert switched.count("@") < first.count("@")

    def test_render_has_legend(self, rng):
        story = rebalancing_heat_story(rng.integers(0, 9, size=32), 4)
        text = render_heat_story(story)
        assert "legend" in text
        assert "200%" in text
