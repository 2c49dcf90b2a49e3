"""Extended Weyl (Weyl-Tits) groups of concrete semisimple Lie groups.

The package builds the finite group U of connected components of the
normalizer of a maximal split torus inside the maximal compact subgroup,
from exact integer matrix generators; computes the extended Bruhat order on
U together with its quotient orders indexing minimal Morse components and
control sets; and cross-validates the combinatorics against a numerical
Schubert-cell/translation-flow oracle on SO(n).

Everything but the oracle is exact integer/Fraction arithmetic.  The
oracle names re-exported here (`sample_schubert`, `recover_morse`, ...)
resolve on first access, so numpy is imported only by code that uses the
oracle, such as the `oracle` CLI commands.
"""

from .errors import (
    ClosureBoundExceeded,
    ExprParseError,
    InvariantViolation,
    PresetError,
    ReducedLiftUnavailable,
)
from .rootsys import (
    RootDatum,
    WeylElement,
    bruhat_leq,
    is_reduced,
    length,
    longest_element,
    reduced_word,
    simple_reflection,
    split_roots_by_H,
    weyl_group,
)
from .utits import (
    Coset,
    FiniteGroupTable,
    GroupPreset,
    UElement,
    c_part,
    check_quotient_isomorphism,
    cosets,
    display_word,
    enumerate_C,
    enumerate_U,
    lift_word,
    load_config,
    load_preset,
    project_to_W,
    subgroup_U_H,
    subgroup_closure,
)
from .xorder import (
    Poset,
    QuotientPoset,
    control_forward_edges,
    control_quotient_order,
    converse_candidates,
    down_covers,
    down_set,
    extended_leq,
    hasse,
    morse_quotient_order,
    pair_status,
)

# resolved by the module __getattr__ below (PEP 562), so that importing
# wtits does not import the oracle or numpy
_ORACLE_NAMES = (
    "CellSample",
    "FlowSpec",
    "MorseReport",
    "contraction_check",
    "flow_step",
    "incidence_test",
    "iwasawa_K",
    "psi_rank_one",
    "psi_split",
    "recover_morse",
    "require_flag_point",
    "sample_schubert",
    "schubert_agreement_report",
)

__version__ = "0.1.0"

__all__ = [
    "ClosureBoundExceeded",
    "ExprParseError",
    "InvariantViolation",
    "PresetError",
    "ReducedLiftUnavailable",
    "RootDatum",
    "WeylElement",
    "bruhat_leq",
    "is_reduced",
    "length",
    "longest_element",
    "reduced_word",
    "simple_reflection",
    "split_roots_by_H",
    "weyl_group",
    "Coset",
    "FiniteGroupTable",
    "GroupPreset",
    "UElement",
    "c_part",
    "check_quotient_isomorphism",
    "cosets",
    "display_word",
    "enumerate_C",
    "enumerate_U",
    "lift_word",
    "load_config",
    "load_preset",
    "project_to_W",
    "subgroup_U_H",
    "subgroup_closure",
    "Poset",
    "QuotientPoset",
    "control_forward_edges",
    "control_quotient_order",
    "converse_candidates",
    "down_covers",
    "down_set",
    "extended_leq",
    "hasse",
    "morse_quotient_order",
    "pair_status",
    *_ORACLE_NAMES,
    "__version__",
]


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_ORACLE_NAMES))
