"""Complexity-model fitting, table rendering, and experiment runners."""

from repro.analysis.experiments import (
    GRAPH_FAMILIES,
    build_family,
    exp_adhoc_probes,
    exp_baseline_comparison,
    exp_bit_complexity,
    exp_dynamic_additions,
    exp_generic_scaling,
    exp_hbl_algorithms,
    exp_kp_bit_improvement,
    exp_message_lemmas,
    exp_near_linear_scaling,
    exp_sequential_unionfind,
    exp_strongly_connected,
    exp_time_complexity,
    exp_tree_lower_bound,
    exp_unionfind_reduction,
)
from repro.analysis.fitting import (
    COST_MODELS,
    crossover,
    CostModel,
    FitResult,
    best_model,
    fit_model,
    ratio_series,
)
from repro.analysis.protocol_stats import ProtocolProfile, profile_execution
from repro.analysis.sweep import aggregate_tables
from repro.analysis.registry import (
    ExperimentRecord,
    compare_records,
    load_record,
    save_record,
)
from repro.analysis.report import build_report
from repro.analysis.tables import format_number, render_table
from repro.analysis.traceview import format_trace, sequence_diagram, trace_summary

__all__ = [
    "GRAPH_FAMILIES",
    "build_family",
    "exp_generic_scaling",
    "exp_near_linear_scaling",
    "exp_bit_complexity",
    "exp_message_lemmas",
    "exp_tree_lower_bound",
    "exp_unionfind_reduction",
    "exp_dynamic_additions",
    "exp_baseline_comparison",
    "exp_adhoc_probes",
    "exp_strongly_connected",
    "exp_sequential_unionfind",
    "exp_time_complexity",
    "exp_hbl_algorithms",
    "exp_kp_bit_improvement",
    "COST_MODELS",
    "CostModel",
    "FitResult",
    "best_model",
    "crossover",
    "fit_model",
    "ratio_series",
    "render_table",
    "format_number",
    "build_report",
    "ExperimentRecord",
    "ProtocolProfile",
    "profile_execution",
    "aggregate_tables",
    "save_record",
    "load_record",
    "compare_records",
    "format_trace",
    "sequence_diagram",
    "trace_summary",
]
