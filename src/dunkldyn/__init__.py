"""Dunkl operator dynamics on truncated entire-function power series.

The package builds and verifies entire functions that are hypercyclic or
frequently hypercyclic for the Dunkl operator at sharp growth rates: weight
tables, operator actions, integral means, growth-rate diagnostics,
constructive builders, and orbit checks, all at configurable binary precision.
"""

from .numeric import DEFAULT_PRECISION_BITS, to_decimal
from .series import (
    TruncatedSeries,
    exp_truncation,
    read_series,
    write_series,
)
from .dunkl import (
    ALPHA_BOUNDARY_GAP,
    DunklWeights,
    apply_dunkl,
    apply_dunkl_direct,
    right_inverse,
)
from .means import (
    P_INF,
    HausdorffYoungResult,
    MeanParams,
    MeanResult,
    conjugate_exponent,
    hausdorff_young_on_grid,
    means_on_grid,
)
from .growth import (
    GrowthProfile,
    RateEnvelope,
    barnes_asymptotic,
    growth_profile,
    lemma1_ratio,
    lemma3_on_grid,
    mittag_leffler,
    rate_exponent,
    standard_r_grid,
)
from .construct import (
    BuilderConfig,
    ConstructionPlan,
    DensityDecayReport,
    FhcSchedule,
    FrequencyReport,
    InfeasibleConstruction,
    OrbitHitReport,
    build_frequently_hypercyclic,
    build_hypercyclic,
    density_decay_check,
    enumerate_targets,
    frequency_report,
    poly_label,
    poly_normalize,
    poly_to_series,
    read_plan,
    verify_orbit_hits,
    write_plan,
)
from .dynamics import (
    OrbitReport,
    Thm3bReport,
    orbit_at_zero,
    thm3b_bound_check,
    windowed_c_star,
)


def __getattr__(name):
    # the CLI loads on first use, so `python -m dunkldyn.cli` runs a module not yet imported
    if name in ("ExperimentConfig", "run"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALPHA_BOUNDARY_GAP",
    "BuilderConfig",
    "ConstructionPlan",
    "DEFAULT_PRECISION_BITS",
    "DensityDecayReport",
    "DunklWeights",
    "ExperimentConfig",
    "FhcSchedule",
    "FrequencyReport",
    "GrowthProfile",
    "HausdorffYoungResult",
    "InfeasibleConstruction",
    "MeanParams",
    "MeanResult",
    "OrbitHitReport",
    "OrbitReport",
    "P_INF",
    "RateEnvelope",
    "Thm3bReport",
    "TruncatedSeries",
    "apply_dunkl",
    "apply_dunkl_direct",
    "barnes_asymptotic",
    "build_frequently_hypercyclic",
    "build_hypercyclic",
    "conjugate_exponent",
    "density_decay_check",
    "enumerate_targets",
    "exp_truncation",
    "frequency_report",
    "growth_profile",
    "hausdorff_young_on_grid",
    "lemma1_ratio",
    "lemma3_on_grid",
    "means_on_grid",
    "mittag_leffler",
    "orbit_at_zero",
    "poly_label",
    "poly_normalize",
    "poly_to_series",
    "rate_exponent",
    "read_plan",
    "read_series",
    "right_inverse",
    "run",
    "standard_r_grid",
    "thm3b_bound_check",
    "to_decimal",
    "verify_orbit_hits",
    "windowed_c_star",
    "write_plan",
    "write_series",
]

__version__ = "0.1.0"
