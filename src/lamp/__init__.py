"""lamp: a linear concurrent lambda calculus with one-shot channels.

The package provides the term and type syntax, a parser and printer, a
natural-deduction typechecker with a rule-level checker as ground truth,
the reduction engine (asynchronous, call-by-value, and exhaustive), a
sequent calculus bridge for multiplicative linear logic, a concurrent
runtime over one-shot channels, and a property-test lab for the calculus
metatheory.

Each name below is imported from its module on first use (PEP 562), so
that importing lamp, as every ``lamp`` command does, compiles only the
modules the command needs.
"""

from importlib import import_module

# The function reconstruct shares its name with its module: imported on
# first use, it would be shadowed by the module as soon as anything
# imported lamp.reconstruct, so it is bound here, as it always was.
from .reconstruct import reconstruct  # noqa: F401

_EXPORTS = {
    "terms": (
        "App", "Atom", "BOT", "Bot", "Close", "DeltaEntry", "Dist", "Lolli",
        "Par", "ParT", "Send", "Sequent", "Term", "TypeExpr", "UNIT", "Unit",
        "Var", "flatten_par", "is_simple", "join_par", "occurrences",
        "print_sequent", "print_term", "print_type", "split_joined",
        "substitute",
    ),
    "parser": (
        "DuplicateBinder", "LamWithoutOccurrence", "ParseError", "Program",
        "parse_program", "parse_term", "parse_type",
    ),
    "derivations": (
        "Derivation", "LinearityError", "Rule", "RuleViolation",
        "TypecheckError", "check_channel_linearity", "check_derivation",
    ),
    "reconstruct": (
        "LinearityViolation", "UnificationFailure", "UnsatisfiableSplit",
    ),
    "metatheory": (
        "BottomLike", "HeadVar", "NormalShape", "PreconditionViolation",
        "ShapeViolation", "SubformulaCounterexample", "ValueShape",
        "check_no_freaks", "check_subformula", "classify_normal",
        "subst_derivation",
    ),
    "reduction": (
        "BudgetExceeded", "Redex", "StaleRedex", "Trace", "apply_redex",
        "cbv_trace", "comm_size", "enumerate_normal_forms", "find_redexes",
        "is_value", "normalize",
    ),
    "mll": (
        "MllDerivation", "MllRule", "MllRuleViolation", "MllSequent",
        "check_mll", "mll_to_nmll", "nmll_to_mll", "print_mll_sequent",
        "type_erasure",
    ),
    "runtime": (
        "ChannelCell", "ChannelProtocolError", "DeadlockReport",
        "run_concurrent",
    ),
    "testlab": (
        "GenConfig", "Report", "gen_derivation", "gen_mll",
        "run_property_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted([*_MODULE_OF, "reconstruct"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
