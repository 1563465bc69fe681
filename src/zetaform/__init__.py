"""Exact closed forms for harmonic-number series over shifted denominators.

The pipeline turns a series ``sum_n F(H_n^(m)(z), H_n^(2m)(z), ...) /
prod_i (n+i-1+z)^{s_i}`` into an exact rational constant plus a rational
combination of multiple Hurwitz zeta values, and can certify every emitted
identity numerically against raw partial sums.

A bare ``import zetaform`` loads no submodule: each public name, and each
submodule name, imports its module on first use (PEP 562).
"""

__version__ = "0.1.0"

_EXPORTS = {  # module -> the public names it defines
    "qsym": "Composition Polynomial QSymExpr bell_polynomial complete compositions elementary "
    "evaluate_finite monomial_sum poly_to_qsym power_sum quasi_shuffle",
    "reducer": "DivergentSeriesError PartialFractionExpansion as_index canonicalize "
    "expand_double_one expand_ones_run partial_fraction reduce_index",
    "engine": "ClosedForm ReductionRule ReductionTable SeriesSpec apply_reductions closed_form "
    "default_reduction_table harmonic_value index_value load_reduction_table "
    "pair_family_value power_family_value telescope_value",
    "expr": "ParseError parse_polynomial",
    "verify": "DeskLimitError NumericResult VerificationReport closed_form_numeric mhz_numeric "
    "series_partial_sum verify_identity",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
