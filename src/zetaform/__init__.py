"""Exact closed forms for harmonic-number series over shifted denominators.

The pipeline turns a series ``sum_n F(H_n^(m)(z), H_n^(2m)(z), ...) /
prod_i (n+i-1+z)^{s_i}`` into an exact rational constant plus a rational
combination of multiple Hurwitz zeta values, and can certify every emitted
identity numerically against raw partial sums.
"""

from .qsym import (
    Composition,
    Polynomial,
    QSymExpr,
    bell_polynomial,
    complete,
    compositions,
    elementary,
    evaluate_finite,
    monomial_sum,
    poly_to_qsym,
    power_sum,
    quasi_shuffle,
)
from .reducer import (
    DivergentSeriesError,
    PartialFractionExpansion,
    as_index,
    canonicalize,
    expand_double_one,
    expand_ones_run,
    partial_fraction,
    reduce_index,
)
from .engine import (
    ClosedForm,
    ReductionRule,
    ReductionTable,
    SeriesSpec,
    apply_reductions,
    closed_form,
    default_reduction_table,
    harmonic_value,
    index_value,
    load_reduction_table,
    pair_family_value,
    power_family_value,
    telescope_value,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedForm",
    "Composition",
    "DeskLimitError",
    "DivergentSeriesError",
    "NumericResult",
    "ParseError",
    "PartialFractionExpansion",
    "Polynomial",
    "QSymExpr",
    "ReductionRule",
    "ReductionTable",
    "SeriesSpec",
    "VerificationReport",
    "apply_reductions",
    "as_index",
    "bell_polynomial",
    "canonicalize",
    "closed_form",
    "closed_form_numeric",
    "complete",
    "compositions",
    "default_reduction_table",
    "elementary",
    "evaluate_finite",
    "expand_double_one",
    "expand_ones_run",
    "harmonic_value",
    "index_value",
    "load_reduction_table",
    "mhz_numeric",
    "monomial_sum",
    "pair_family_value",
    "parse_polynomial",
    "partial_fraction",
    "poly_to_qsym",
    "power_family_value",
    "power_sum",
    "quasi_shuffle",
    "reduce_index",
    "series_partial_sum",
    "telescope_value",
    "verify_identity",
]


def __getattr__(name: str):  # PEP 562: the parser and the verifier load on first use
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = ".expr" if name in ("ParseError", "parse_polynomial") else ".verify"
    return getattr(import_module(module, __name__), name)
