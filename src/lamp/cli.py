"""Command line front end.

    lamp parse FILE                     pretty-print the parsed sequent
    lamp check FILE                     typecheck; print the derivation
    lamp run FILE [--mode M] [--seed N] reduce (full | cbv | concurrent)
    lamp enumerate FILE [--budget N]    all normal forms + confluence verdict
    lamp translate FILE --direction D   to-mll (program file) or
                                        to-nmll (sequent-derivation file)
    lamp props [--n N] [--seed N]       run the metatheory property suites

Exit codes: 0 success, 1 type error (including a program that uses a
channel other than exactly once, and a to-nmll input that is not a
sequent calculus derivation), 2 parse error, 3 internal invariant
violation, 4 state budget exceeded or input nested too deeply, 5 file
not readable.  A reader that closes the output early (``| head``) ends
the command quietly, with exit 0.  Set LAMP_COLOR=1 for ANSI-colored
trace output.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the modules it uses, so that a command compiles
# no more of lamp than it runs.

EXIT_OK, EXIT_TYPE, EXIT_PARSE, EXIT_INTERNAL, EXIT_BUDGET, EXIT_IO = range(6)

# The exit code and message prefix of each lamp error class, checked in
# order, by module and class name: a class whose module no command
# imported cannot have been raised.
_INTERNAL = "internal invariant violation"
_ERRORS = (
    ("parser", "ParseError", EXIT_PARSE, "parse error"),
    ("terms", "TypecheckError", EXIT_TYPE, "type error"),
    ("reduction", "BudgetExceeded", EXIT_BUDGET, "budget exceeded"),
    ("derivations", "RuleViolation", EXIT_INTERNAL, _INTERNAL),
    ("runtime", "DeadlockReport", EXIT_INTERNAL, _INTERNAL),
    ("runtime", "ChannelProtocolError", EXIT_INTERNAL, _INTERNAL),
)


def _print_trace(trace) -> None:
    """trace as Trace.render gives it; with LAMP_COLOR=1, each step's
    prefix, which ends where its line first holds " => ", in cyan."""
    lines = trace.render().split("\n")
    if os.environ.get("LAMP_COLOR", "0") == "1":
        lines[1:] = ["\x1b[36m{}\x1b[0m => {}".format(*line.split(" => ", 1))
                     for line in lines[1:]]
    print("\n".join(lines))


def _read(path: str) -> str:
    from .parser import ParseError
    try:
        # a leading byte-order mark is dropped, as Python drops it from
        # its own sources; the utf-8-sig codec would count a bad byte's
        # place from after the mark
        with open(path, encoding="utf-8") as fh:
            return fh.read().removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err.reason} "
                         f"at byte {err.start}") from None


def _load(path: str):
    from .parser import parse_program
    return parse_program(_read(path))


def cmd_parse(args) -> int:
    from .terms import print_sequent
    prog = _load(args.file)
    print(print_sequent(prog.sequent))
    return EXIT_OK


def cmd_check(args) -> int:
    from .derivations import check_derivation
    from .reconstruct import reconstruct
    from .sexpr import derivation_to_sexpr
    prog = _load(args.file)
    d = reconstruct(prog.sequent, prog.annotations)
    check_derivation(d)
    print(derivation_to_sexpr(d))
    return EXIT_OK


def cmd_run(args) -> int:
    from .reduction import Trace, cbv_trace, normalize
    from .terms import (
        Par, _spine, check_channel_linearity, flatten_par, fold, join_par, print_term,
    )
    prog = _load(args.file)
    # reduction terminates only on linear terms: beta copies an argument
    # whose bound name occurs twice
    check_channel_linearity(prog.sequent)
    term = prog.sequent.joined_term()
    if args.mode == "full":
        _print_trace(normalize(term))
        return EXIT_OK
    if args.mode == "cbv":
        # each state's components go back where flatten_par took them from
        def rejoin(state):
            parts = iter(state)
            return fold(term, _spine, lambda t, kids: Par(*kids) if kids else next(parts))
        _print_trace(Trace(term, [(desc, rejoin(state))
                                  for desc, state in cbv_trace(flatten_par(term))]))
        return EXIT_OK
    # concurrent: honor the precondition by typechecking first
    from .reconstruct import reconstruct
    from .runtime import run_concurrent
    reconstruct(prog.sequent, prog.annotations)
    final = run_concurrent(prog.sequent, seed=args.seed)
    print(f"final: {print_term(join_par(final))}")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    from .reduction import enumerate_normal_forms
    from .terms import print_term
    prog = _load(args.file)
    term = prog.sequent.joined_term()
    forms = enumerate_normal_forms(term, args.budget)
    for text in sorted(print_term(t) for t in forms):
        print(text)
    print("NO NORMAL FORM" if not forms
          else "CONFLUENT" if len(forms) == 1 else "NON-CONFLUENT")
    return EXIT_OK


def cmd_translate(args) -> int:
    from .derivations import RuleViolation, check_derivation
    from .mll import check_mll, mll_to_nmll, nmll_to_mll
    from .reconstruct import reconstruct
    from .sexpr import derivation_to_sexpr, mll_to_sexpr, sexpr_to_mll
    if args.direction == "to-mll":
        prog = _load(args.file)
        d = reconstruct(prog.sequent, prog.annotations)
        m = nmll_to_mll(d)
        check_mll(m)
        print(mll_to_sexpr(m))
        return EXIT_OK
    # mll_to_nmll matches every node as check_mll does, in the same order,
    # before it translates any: a violation it raises is the input's
    m = sexpr_to_mll(_read(args.file))
    try:
        d = mll_to_nmll(m)
    except RuleViolation as err:
        print(f"not a derivation: {err}", file=sys.stderr)
        return EXIT_TYPE
    check_derivation(d)
    print(derivation_to_sexpr(d))
    return EXIT_OK


def cmd_props(args) -> int:
    from .testlab import GenConfig, run_property_suite
    cfg = GenConfig(seed=args.seed, max_nodes=args.max_nodes)
    report = run_property_suite(args.n, cfg)
    print(report.render())
    return EXIT_OK if report.passed else EXIT_INTERNAL


def positive(text: str) -> int:
    """An int of at least 1; argparse names this type in its error."""
    n = int(text)
    if n < 1:
        raise ValueError(text)
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lamp", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and pretty-print a program")
    p.add_argument("file")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("check", help="typecheck and print the derivation")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="reduce a program")
    p.add_argument("file")
    p.add_argument("--mode", choices=["full", "cbv", "concurrent"],
                   default="full")
    p.add_argument("--seed", type=int, default=0,
                   help="scheduler permutation for --mode concurrent")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("enumerate", help="explore every reduction order, "
                       "one past each pinned beta or fixed comm of a linear "
                       "program")
    p.add_argument("file")
    p.add_argument("--budget", type=positive, default=100_000,
                   help="maximum number of states the search visits")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("translate", help="convert between derivation styles")
    p.add_argument("file")
    p.add_argument("--direction", choices=["to-mll", "to-nmll"], required=True)
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("props", help="run the metatheory property suites")
    p.add_argument("--n", type=positive, default=100, help="generated cases")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-nodes", type=positive, default=12)
    p.set_defaults(fn=cmd_props)

    return ap


def _lamp_error(err: Exception):
    """The exit code and message prefix of err, if it is a lamp error."""
    for module, name, code, label in _ERRORS:
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None and isinstance(err, getattr(loaded, name)):
            return code, label
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        # a short output is still in the buffer: written here, a closed pipe
        # raises inside this try, not in the interpreter's flush at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped reading (``lamp ... | head``): end quietly, with
        # standard output pointed at devnull so that the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        print("budget exceeded: input nested too deeply", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as err:
        known = _lamp_error(err)
        if known is None:
            raise
        code, label = known
        print(f"{label}: {err}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
