"""Smoke + invariant tests for every experiment module (quick settings).

Each experiment's ``run()`` must produce a non-empty report; the cheap
analytic experiments additionally assert paper-exact content.
"""

import pytest

from repro.experiments import EXPERIMENT_MODULES, ablations
from repro.experiments.common import Settings, SuiteRunner, baseline_design

#: Text each ablation study's report must contain.
ABLATION_MARKERS = {
    "replacement": ("lru",),
    "rit-rlt-size": ("64",),
    "region-size": ("4096B",),
    "sws-hashes": ("SWS(8,1)", "SWS(8,4)"),
    "higher-ways-no-sws": ("8-way",),
    "dueling-pip": ("dueling",),
    "dcp-modes": ("probe accesses per writeback",),
    "mru-filtering": ("MRU",),
}


def quick_settings():
    return Settings().quick()


class TestAnalyticExperiments:
    def test_table1(self):
        from repro.experiments import table1_lookup_cost

        report = table1_lookup_cost.run(ways=8)
        assert "Parallel Lookup (8-way)" in report
        assert "8 transfer" in report

    def test_table9(self):
        from repro.experiments import table9_storage

        report = table9_storage.run()
        assert "320 Bytes" in report
        assert "0 Bytes" in report

    def test_table9_never_fills_a_tag_store(self, monkeypatch):
        """Counting SRAM bits must not allocate the 4GB cache's tags."""
        from repro.cache.storage import TagStore
        from repro.experiments import table9_storage

        filled = []
        monkeypatch.setattr(TagStore, "prefill_junk",
                            lambda store: filled.append(store))
        assert "320 Bytes" in table9_storage.run()
        assert filled == []

    def test_fig6_small(self):
        from repro.experiments import fig6_cyclic

        report = fig6_cyclic.run(trials=4)
        assert "PIP=50%" in report
        assert "128" in report


class TestModuleRegistry:
    def test_all_modules_importable(self):
        import importlib

        for name in EXPERIMENT_MODULES:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert hasattr(module, "run")
            assert hasattr(module, "main")

    def test_registry_complete(self):
        assert len(EXPERIMENT_MODULES) == 18


@pytest.mark.slow
class TestQuickRuns:
    """Each simulation-backed experiment runs end-to-end on the quick
    configuration. These take a few seconds each."""

    def test_fig1(self):
        from repro.experiments import fig1_associativity

        report = fig1_associativity.run(quick_settings())
        assert "8-way" in report

    def test_table5(self):
        from repro.experiments import table5_pip

        report = table5_pip.run(quick_settings())
        assert "PIP=85%" in report
        assert "Direct-Mapped (PIP=100%)" in report

    def test_fig7(self):
        from repro.experiments import fig7_accuracy

        report = fig7_accuracy.run(quick_settings())
        assert "PWS+GWS" in report

    def test_table6(self):
        from repro.experiments import table6_hitrate

        report = table6_hitrate.run(quick_settings())
        assert "PWS+GWS" in report

    def test_fig10(self):
        from repro.experiments import fig10_speedup_2way

        report = fig10_speedup_2way.run(quick_settings())
        assert "Perfect WP" in report
        assert "Gmean" in report

    def test_table7(self):
        from repro.experiments import table7_sws_hitrate

        report = table7_sws_hitrate.run(quick_settings())
        assert "SWS (8,2-way)" in report

    def test_fig13(self):
        from repro.experiments import fig13_sws_speedup

        report = fig13_sws_speedup.run(quick_settings())
        assert "ACCORD SWS(8,2)" in report

    def test_fig12_quick_suite(self):
        from repro.experiments import fig12_all_workloads

        report = fig12_all_workloads.run(quick_settings())
        assert "worst-case" in report

    def test_table2(self):
        from repro.experiments import table2_predictor_storage

        report = table2_predictor_storage.run(quick_settings())
        assert "32MB" in report  # partial-tag at 4GB
        assert "4MB" in report  # MRU at 4GB

    def test_table10(self):
        from repro.experiments import table10_predictors

        report = table10_predictors.run(quick_settings())
        assert "N/A" in report  # CA-cache has no 4/8-way variant
        assert "320 bytes" in report

    def test_fig14(self):
        from repro.experiments import fig14_predictor_speedup

        report = fig14_predictor_speedup.run(quick_settings())
        assert "CA-Cache (0B)" in report

    def test_fig15(self):
        from repro.experiments import fig15_energy

        report = fig15_energy.run(quick_settings())
        assert "EDP" in report

    def test_table4(self):
        from repro.experiments import table4_workloads

        report = table4_workloads.run(quick_settings())
        assert "soplex" in report

    def test_table8(self):
        from repro.experiments import table8_cache_size

        settings = quick_settings()
        report = table8_cache_size.run(settings)
        assert "4.0GB" in report

    @pytest.mark.parametrize("name", list(ablations.ABLATIONS))
    def test_ablation(self, name):
        report = ablations.run(quick_settings(), which=[name])
        for marker in ABLATION_MARKERS[name]:
            assert marker in report


class TestSuiteRunnerMachinery:
    def test_memoizes_runs(self):
        settings = quick_settings()
        settings.suite = ["sphinx"]
        settings.num_accesses = 10_000
        runner = SuiteRunner(settings)
        first = runner.run("direct", baseline_design())
        second = runner.run("direct", baseline_design())
        assert first is second

    def test_traces_shared_across_designs(self):
        settings = quick_settings()
        settings.suite = ["sphinx"]
        settings.num_accesses = 10_000
        runner = SuiteRunner(settings)
        trace_before = runner.traces.trace_for("sphinx")
        runner.run("direct", baseline_design())
        assert runner.traces.trace_for("sphinx") is trace_before
