"""Property-based tests for the extension modules."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import AdaptiveRepartitioner
from repro.core.convergence import epochs_to_target, fit_exponential
from repro.hardware.energy import processor_energy
from repro.hardware.processor import Processor
from repro.hardware.specs import RTX_2080S, XEON_6242


class TestAdaptiveProperties:
    @given(
        times=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8),
    )
    def test_repartition_stays_on_simplex(self, times):
        n = len(times)
        c = AdaptiveRepartitioner([1.0 / n] * n, imbalance_threshold=0.01,
                                  cooldown_epochs=0)
        new = c.observe(times)
        if new is not None:
            assert abs(new.sum() - 1.0) < 1e-9
            assert np.all(new > 0)

    @given(
        times=st.lists(st.floats(0.1, 100.0), min_size=2, max_size=8),
    )
    def test_repartition_equalizes_under_frozen_rates(self, times):
        n = len(times)
        x0 = np.full(n, 1.0 / n)
        c = AdaptiveRepartitioner(x0, imbalance_threshold=0.01, cooldown_epochs=0)
        new = c.observe(times)
        if new is None:
            return
        rates = x0 / np.asarray(times)
        predicted = new / rates
        assert np.allclose(predicted, predicted[0], rtol=1e-9)


class TestEnergyProperties:
    @given(
        busy=st.floats(0.0, 100.0),
        extra=st.floats(0.0, 100.0),
        idle_fraction=st.floats(0.0, 1.0),
    )
    def test_energy_bounds(self, busy, extra, idle_fraction):
        total = busy + extra
        p = Processor(RTX_2080S)
        j = processor_energy(p, busy, total, idle_fraction)
        tdp = p.spec.tdp_watts
        assert idle_fraction * tdp * total - 1e-9 <= j <= tdp * total + 1e-9

    @given(busy=st.floats(0.0, 50.0), total=st.floats(50.0, 100.0))
    def test_busier_costs_more(self, busy, total):
        p = Processor(XEON_6242)
        j_low = processor_energy(p, busy, total)
        j_high = processor_energy(p, min(busy + 10, total), total)
        assert j_high >= j_low - 1e-9


class TestConvergenceProperties:
    @given(
        start=st.floats(0.5, 5.0),
        drop=st.floats(0.01, 0.9),
        length=st.integers(2, 30),
    )
    def test_epochs_to_target_monotone_in_target(self, start, drop, length):
        curve = [start * (1 - drop) ** i for i in range(length)]
        hard = epochs_to_target(curve, curve[-1])
        easy = epochs_to_target(curve, curve[0])
        assert easy <= hard

    @given(
        floor=st.floats(0.1, 2.0),
        amplitude=st.floats(0.1, 2.0),
        tau=st.floats(1.0, 10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_fit_recovers_floor_within_tolerance(self, floor, amplitude, tau):
        epochs = np.arange(1, 25)
        curve = floor + amplitude * np.exp(-(epochs - 1) / tau)
        fit = fit_exponential(curve)
        assert abs(fit.floor - floor) < 0.1 * (floor + amplitude)
        assert fit.residual < 0.05 * (floor + amplitude)
