"""One runnable module per paper table/figure.

Run any experiment as ``python -m repro.experiments.<module>``;
``--accesses N`` controls trace length (shorter = faster, noisier) and
``--quick`` runs a reduced-size sanity configuration.

Module -> paper artifact mapping lives in DESIGN.md §4; every module
exposes ``run(settings) -> str`` returning the formatted report that
``main()`` prints, so the benchmark and tests can drive the same code.
"""

EXPERIMENT_MODULES = [
    "fig1_associativity",
    "table1_lookup_cost",
    "table2_predictor_storage",
    "table4_workloads",
    "fig6_cyclic",
    "table5_pip",
    "fig7_accuracy",
    "table6_hitrate",
    "fig10_speedup_2way",
    "table7_sws_hitrate",
    "fig13_sws_speedup",
    "fig12_all_workloads",
    "table8_cache_size",
    "table9_storage",
    "table10_predictors",
    "fig14_predictor_speedup",
    "fig15_energy",
    "ablations",
]
