"""Experiment suite: one module per claim family of the paper (PAPER.md).

``ALL_EXPERIMENTS`` maps each claim id (E1-E12) to its runner and
``all_figures`` regenerates the figures (F1-F5); ``benchmarks/bench_*.py``
gates each one.
"""

from repro.experiments.harness import SweepRow, rows_to_table, run_sweep
from repro.experiments.exp_leveled import run_e1, run_e4
from repro.experiments.exp_star import (
    run_e2,
    run_e2_ablation,
    run_e2_logical,
    run_e2_relation,
)
from repro.experiments.exp_shuffle import run_e3, run_e3_relation, run_e12
from repro.experiments.exp_hash import (
    run_e5,
    run_e5_degree_ablation,
    run_e11_cor31,
    run_e11_cor32,
    run_e11_cor33,
)
from repro.experiments.exp_mesh import (
    run_e7,
    run_e7_discipline_ablation,
    run_e7_queue_variant,
    run_e7_slice_ablation,
    run_e8,
    run_e9,
    run_linear_primitive,
)
from repro.experiments.exp_emulation import (
    run_e6,
    run_e6_combining_ablation,
    run_e6_crcw,
    run_e10,
)
from repro.experiments.exp_figures import all_figures

ALL_EXPERIMENTS = {
    "E1": run_e1,
    "E2": run_e2,
    "E2b": run_e2_relation,
    "E2c": run_e2_ablation,
    "E2d": run_e2_logical,
    "E3": run_e3,
    "E3b": run_e3_relation,
    "E4": run_e4,
    "E5": run_e5,
    "E5b": run_e5_degree_ablation,
    "E6": run_e6,
    "E6b": run_e6_crcw,
    "E6c": run_e6_combining_ablation,
    "E7": run_e7,
    "E7b": run_e7_discipline_ablation,
    "E7c": run_e7_slice_ablation,
    "E7d": run_e7_queue_variant,
    "E7e": run_linear_primitive,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11a": run_e11_cor31,
    "E11b": run_e11_cor32,
    "E11c": run_e11_cor33,
    "E12": run_e12,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "SweepRow",
    "all_figures",
    "rows_to_table",
    "run_sweep",
]
