"""Shape tests for the reproduced tables and figures.

These assert the *qualitative* paper results (who wins, rough factors,
crossovers) rather than absolute seconds — the contract DESIGN.md
section 4 sets out.
"""

import pytest

from repro.experiments.figures import (
    ALL_EXPERIMENTS,
    fig3a,
    fig3b,
    fig5_timing_sequences,
    fig6_async_pipeline,
    fig7,
    fig8,
    fig9,
    table2,
    table4,
    table5,
    table6,
)


@pytest.fixture(scope="module")
def r_fig3a():
    return fig3a()


@pytest.fixture(scope="module")
def r_table4():
    return table4()


@pytest.fixture(scope="module")
def r_fig8():
    return fig8()


@pytest.fixture(scope="module")
def r_table5():
    return table5()


@pytest.fixture(scope="module")
def r_fig9():
    return fig9()


class TestFig3:
    def test_collaborations_beat_their_parts(self, r_fig3a):
        rows = r_fig3a.row_map()
        assert rows["6242-2080"][2] < rows["2080"][2]
        assert rows["6242-2080S"][2] < rows["2080S"][2]
        assert rows["2080-2080S"][2] < rows["2080S"][2]

    def test_bad_configurations_erase_benefit(self, r_fig3a):
        rows = r_fig3a.row_map()
        good = rows["6242-2080S"][2]
        # bad communication loses even to the collaboration's lone GPU
        assert rows["6242-2080S(Bad communication)"][2] > rows["2080S"][2]
        for label in (
            "6242-2080S(Bad communication)",
            "6242-2080S(Unbalanced data)",
            "6242-2080S(Bad threads conf)",
        ):
            assert rows[label][2] > 2 * good

    def test_combo_approaches_v100(self, r_fig3a):
        """The paper's economics argument: 6242-2080S ~ V100 performance."""
        rows = r_fig3a.row_map()
        assert rows["6242-2080S"][2] == pytest.approx(rows["V100"][2], rel=0.25)

    def test_cpu_slowest_single(self, r_fig3a):
        rows = r_fig3a.row_map()
        assert rows["6242"][2] > rows["2080"][2] > rows["2080S"][2]

    def test_prices_fig3b(self):
        rows = fig3b().row_map()
        # near-V100 performance at under 1/3 of the V100's price
        assert rows["6242-2080S"][1] < rows["V100"][1] / 2.5


class TestTable2:
    def test_model_within_percent_of_paper(self):
        for row in table2().rows:
            _, iw_model, dp0_model, iw_paper, dp0_paper = row
            assert iw_model == pytest.approx(iw_paper, rel=0.01)
            assert dp0_model == pytest.approx(dp0_paper, rel=0.02)

    def test_dp0_boost_direction(self):
        for row in table2().rows:
            assert row[2] > row[1]


class TestFig5Fig6:
    def test_fig5_ordering(self):
        r = fig5_timing_sequences()
        times = r.column("epoch_time_s")
        assert times[0] > times[1] > times[2]  # original > DP1 > DP2

    def test_fig5_dp2_hides_sync(self):
        r = fig5_timing_sequences()
        exposed = dict(zip(r.column("configuration"), r.column("exposed_sync_s")))
        assert exposed["optimized, sync hidden (DP2)"] < exposed["optimized, sync ignored (DP1)"]

    def test_fig5_gantts_render(self):
        r = fig5_timing_sequences()
        assert len(r.extra["gantt"]) == 3
        for art in r.extra["gantt"].values():
            assert "legend" in art

    def test_fig6_exposed_comm_shrinks(self):
        r = fig6_async_pipeline(streams=4)
        exposed = r.column("exposed_comm_s")
        assert exposed[0] > exposed[1] > exposed[3]
        # ~1/streams of the serial exposure
        assert exposed[3] == pytest.approx(exposed[0] / 4, rel=0.05)


class TestTable4:
    def test_single_rates_match_paper_cells(self, r_table4):
        rows = r_table4.row_map()
        assert rows["Netflix"][4] == pytest.approx(1_052_866_849, rel=0.01)
        assert rows["R2"][1] == pytest.approx(266_293_289, rel=0.01)

    def test_ideal_matches_paper_cells(self, r_table4):
        rows = r_table4.row_map()
        assert rows["Netflix"][5] == pytest.approx(2_592_493_089, rel=0.005)
        assert rows["R2"][5] == pytest.approx(1_172_502_951, rel=0.005)

    def test_ideal_is_sum(self, r_table4):
        for row in r_table4.rows:
            assert row[5] == pytest.approx(sum(row[1:5]), rel=0.02)

    def test_utilization_ordering_matches_paper(self, r_table4):
        util = dict(zip(r_table4.column("dataset"), r_table4.column("utilization")))
        assert util["Netflix"] > 0.8
        assert util["R2"] > 0.8
        assert 0.35 < util["R1"] < 0.75
        assert util["MovieLens-20m"] < util["R2"]
        assert util["MovieLens-20m"] == min(util.values())

    def test_hcc_below_ideal(self, r_table4):
        for row in r_table4.rows:
            assert row[6] < row[5]


class TestFig8:
    def test_dp1_cuts_total_vs_dp0(self, r_fig8):
        red = r_fig8.extra["reductions"]
        assert 0.05 < red[("Netflix", 4, "dp1")] < 0.25
        assert 0.05 < red[("R2", 4, "dp1")] < 0.2

    def test_dp2_cuts_total_vs_dp1_on_r1star(self, r_fig8):
        red = r_fig8.extra["reductions"]
        assert red[("R1*", 4, "dp2")] > 0.05

    def test_dp1_balances_computing(self, r_fig8):
        comp = [
            row[5]
            for row in r_fig8.rows
            if row[0] == "Netflix" and row[1] == 4 and row[2] == "dp1"
        ]
        assert max(comp) / min(comp) < 1.12

    def test_dp0_unbalanced_computing(self, r_fig8):
        comp = [
            row[5]
            for row in r_fig8.rows
            if row[0] == "Netflix" and row[1] == 4 and row[2] == "dp0"
        ]
        assert max(comp) / min(comp) > 1.1


class TestTable5:
    def test_q_only_speedups_by_dataset(self, r_table5):
        rows = {(r[0], r[1], r[2]): r for r in r_table5.rows}
        netflix = rows[("COMM", "Netflix", "Q")][4]
        r1 = rows[("COMM", "R1", "Q")][4]
        r2 = rows[("COMM", "R2", "Q")][4]
        # paper: ~18x Netflix >> ~7.5x R2 > ~2.9x R1
        assert netflix > r2 > r1
        assert r1 == pytest.approx(2.7, rel=0.2)
        assert netflix > 15

    def test_fp16_doubles_q_only(self, r_table5):
        rows = {(r[0], r[1], r[2]): r for r in r_table5.rows}
        for ds in ("Netflix", "R1", "R2"):
            q = rows[("COMM", ds, "Q")][3]
            half = rows[("COMM", ds, "half-Q")][3]
            assert q / half == pytest.approx(2.0, rel=0.05)

    def test_comm_p_much_slower(self, r_table5):
        rows = {(r[0], r[1], r[2]): r for r in r_table5.rows}
        for ds in ("Netflix", "R1", "R2"):
            ratio = rows[("COMM-P", ds, "P&Q")][3] / rows[("COMM", ds, "P&Q")][3]
            assert 5.5 < ratio < 8.5

    def test_same_trend_under_both_backends(self, r_table5):
        """Section 4.4: 'the same communication performance trend is
        reflected in each strategy' under COMM and COMM-P."""
        rows = {(r[0], r[1], r[2]): r for r in r_table5.rows}
        for ds in ("Netflix", "R1", "R2"):
            a = rows[("COMM", ds, "Q")][4]
            b = rows[("COMM-P", ds, "Q")][4]
            assert a == pytest.approx(b, rel=0.15)


class TestFig9:
    def test_power_monotone_in_workers(self, r_fig9):
        """Computing power grows with each added worker — up to a 5%
        plateau tolerance on sync-bound datasets, where the time-shared
        4th worker's extra merge roughly cancels its capacity (the very
        reason the paper's Figure 9(c) stops R1 at three workers)."""
        for ds in ("Netflix", "R2", "R1", "R1*"):
            by_scale = {}
            for row in r_fig9.rows:
                if row[0] == ds:
                    by_scale[row[1]] = row[5]
            scales = sorted(by_scale)
            plateau = 1.0 if ds in ("Netflix", "R2") else 0.95  # compute-bound: strictly rising
            for a, b in zip(scales, scales[1:]):
                assert by_scale[b] > plateau * by_scale[a]
            assert by_scale[scales[-1]] > by_scale[scales[0]]

    def test_ordinary_worker_efficiency_netflix(self, r_fig9):
        eff = r_fig9.extra["worker_efficiency"]
        for (ds, worker), e in eff.items():
            if ds == "Netflix" and "cpu0w" not in worker:
                assert e > 0.7  # paper: >80% for ordinary workers
            if ds == "Netflix" and "cpu0w" in worker:
                assert e > 0.55  # paper: >70% for the special worker

    def test_r1_workers_degraded(self, r_fig9):
        eff = r_fig9.extra["worker_efficiency"]
        r1_vals = [e for (ds, _), e in eff.items() if ds == "R1"]
        netflix_vals = [e for (ds, _), e in eff.items() if ds == "Netflix"]
        assert max(r1_vals) < min(netflix_vals)
        assert max(r1_vals) < 0.7  # paper: ~45% of their own power

    def test_r1_stops_at_three_workers(self, r_fig9):
        scales = {row[1] for row in r_fig9.rows if row[0] == "R1"}
        assert max(scales) == 3


class TestTable6:
    def test_second_gpu_barely_helps(self):
        r = table6()
        single = r.extra["totals"]["single"]
        dual = r.extra["totals"]["dual"]
        # compute halves but total shrinks far less (paper 0.559 -> 0.449)
        assert dual < single
        assert dual / single > 0.6

    def test_comm_does_not_shrink_with_workers(self):
        r = table6()
        rows = [row for row in r.rows if row[0].startswith("HCC")]
        single_pull = [row[2] for row in rows if row[0] == "HCC 2080S"][0]
        dual_pulls = [row[2] for row in rows if row[0] == "HCC 2080S-2080"]
        for p in dual_pulls:
            assert p == pytest.approx(single_pull, rel=0.05)


class TestFig7Scaled:
    """Fig 7 at reduced scale so the whole module stays fast."""

    @pytest.fixture(scope="class")
    def result(self):
        return fig7(max_nnz=12_000, epochs=10, k=8, seed=1)

    def test_all_methods_converge(self, result):
        for ds, methods in result.extra["curves"].items():
            for name, series in methods.items():
                assert series["rmse"][-1] < series["rmse"][0], (ds, name)

    def test_hcc_fastest(self, result):
        for row in result.rows:
            _, method, _, _, speed, _ = row
            if method != "HCC":
                assert speed > 1.0

    def test_speedup_ordering_matches_paper(self, result):
        """FPSGD is always the slowest; CuMF sits between."""
        by = {(r[0], r[1]): r[4] for r in result.rows}
        for ds in ("Netflix", "R1", "R2"):
            assert by[(ds, "FPSGD")] > by[(ds, "cuMF_SGD")] >= 1.0

    def test_headline_speedups_vs_cumf(self, result):
        """Paper: 2.3x on Netflix and 2.9x on R2 against CuMF_SGD."""
        by = {(r[0], r[1]): r[4] for r in result.rows}
        assert 1.5 < by[("Netflix", "cuMF_SGD")] < 3.5
        assert 2.0 < by[("R2", "cuMF_SGD")] < 4.0

    def test_time_axes_consistent(self, result):
        for methods in result.extra["curves"].values():
            for series in methods.values():
                t = series["time"]
                assert all(b > a for a, b in zip(t, t[1:]))


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "fig3a", "fig3b", "table2", "fig5", "fig6", "fig7",
            "table4", "fig8", "table5", "fig9", "table6",
        }
