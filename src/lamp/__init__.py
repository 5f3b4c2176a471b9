"""lamp: a linear concurrent lambda calculus with one-shot channels.

The package provides the term and type syntax, a parser and printer, a
natural-deduction typechecker with a rule-level checker as ground truth,
the reduction engine (asynchronous, call-by-value, and exhaustive), a
sequent calculus bridge for multiplicative linear logic, a concurrent
runtime over one-shot channels, and a property-test lab for the calculus
metatheory.
"""

from .terms import (  # noqa: F401
    App, Atom, BOT, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send,
    Sequent, Term, TypeExpr, UNIT, Unit, Var, flatten_par, is_simple,
    join_par, occurrences, print_sequent, print_term, print_type,
    split_joined, substitute,
)
from .parser import (  # noqa: F401
    DuplicateBinder, LamWithoutOccurrence, ParseError, Program,
    parse_program, parse_term, parse_type,
)
from .derivations import (  # noqa: F401
    Derivation, LinearityError, Rule, RuleViolation, check_channel_linearity,
    check_derivation,
)
from .reconstruct import (  # noqa: F401
    LinearityViolation, TypecheckError, UnificationFailure, UnsatisfiableSplit,
    reconstruct,
)
from .metatheory import (  # noqa: F401
    BottomLike, HeadVar, NormalShape, PreconditionViolation, ShapeViolation,
    SubformulaCounterexample, ValueShape, check_no_freaks, check_subformula,
    classify_normal, subst_derivation,
)
from .reduction import (  # noqa: F401
    BudgetExceeded, Redex, StaleRedex, Trace, apply_redex, cbv_step,
    cbv_trace, comm_size, enumerate_normal_forms, find_redexes, is_value,
    normalize,
)
from .mll import (  # noqa: F401
    MllDerivation, MllRule, MllRuleViolation, MllSequent, check_mll,
    mll_to_nmll, nmll_to_mll, print_mll_sequent, type_erasure,
)
from .runtime import (  # noqa: F401
    ChannelCell, ChannelProtocolError, DeadlockReport, run_concurrent,
)
from .testlab import (  # noqa: F401
    GenConfig, Report, gen_derivation, gen_mll, run_property_suite,
)
