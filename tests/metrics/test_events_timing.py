"""Event-accuracy protocol and timer tests."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.metrics import Timer, event_detected, window_hits_event


class TestEventDetected:
    def test_inside_event(self):
        assert event_detected(np.array([425]), (400, 450))

    def test_within_margin(self):
        assert event_detected(np.array([330]), (400, 450), margin=100)
        assert event_detected(np.array([540]), (400, 450), margin=100)

    def test_outside_margin(self):
        assert not event_detected(np.array([250]), (400, 450), margin=100)

    def test_empty_prediction(self):
        assert not event_detected(np.array([]), (400, 450))

    def test_margin_boundaries(self):
        # start - margin is inclusive; end + margin is exclusive.
        assert event_detected(np.array([300]), (400, 450), margin=100)
        assert not event_detected(np.array([299]), (400, 450), margin=100)
        assert event_detected(np.array([549]), (400, 450), margin=100)
        assert not event_detected(np.array([550]), (400, 450), margin=100)


class TestWindowHitsEvent:
    def test_overlap(self):
        assert window_hits_event((350, 420), (400, 450))

    def test_near_miss_within_margin(self):
        assert window_hits_event((460, 500), (400, 450), margin=20)

    def test_far_window(self):
        assert not window_hits_event((700, 800), (400, 450), margin=100)


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.02)
        assert 0.015 < t.elapsed < 0.5
        assert t.minutes == pytest.approx(t.elapsed / 60.0)
