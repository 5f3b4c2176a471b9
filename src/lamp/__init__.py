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

import sys
from importlib import import_module
from types import ModuleType

_EXPORTS = {
    "terms": (
        "App", "Atom", "BOT", "Bot", "Close", "DeltaEntry", "Dist", "Lolli",
        "LinearityError", "Par", "ParT", "Send", "Sequent", "Term",
        "TypeExpr", "TypecheckError", "UNIT", "Unit", "Var",
        "check_channel_linearity", "flatten_par", "is_simple", "join_par",
        "occurrences", "print_sequent", "print_term", "print_type",
        "split_joined", "substitute",
    ),
    "parser": (
        "DuplicateBinder", "LamWithoutOccurrence", "ParseError", "Program",
        "parse_program", "parse_term", "parse_type",
    ),
    "derivations": (
        "Derivation", "Rule", "RuleViolation", "check_derivation",
    ),
    "reconstruct": (
        "LinearityViolation", "UnificationFailure", "UnsatisfiableSplit",
        "reconstruct",
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
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


class _Package(ModuleType):
    """lamp's own module type.  Loading the module lamp.reconstruct binds
    lamp.reconstruct to it; the function reconstruct, which shares the
    name, is bound instead, so that lamp.reconstruct is the function
    whichever is imported or read first."""

    def __setattr__(self, name: str, value) -> None:
        if name == "reconstruct" and isinstance(value, ModuleType):
            value = value.reconstruct
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
