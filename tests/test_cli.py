"""Command line behaviour: outputs, exit codes, golden stability."""

import json
import os
import random
import subprocess
import sys

import pytest

from tests.conftest import (
    CORPUS_NAMES, GOLDEN, ROOT, SRC, corpus_text, run_cli, run_python,
)
from tests.test_checker import _INPUTS


def test_parse_prints_sequent():
    r = run_cli("parse", "corpus/excluded_middle.lamp")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "|- x | out x. * : A par A -o bot"


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_run_trace_matches_golden(name):
    r = run_cli("run", f"corpus/{name}.lamp")
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / f"{name}.trace.txt").read_text()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_check_matches_golden(name):
    r = run_cli("check", f"corpus/{name}.lamp")
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / f"{name}.check.txt").read_text()


def test_enumerate_reports_confluent():
    r = run_cli("enumerate", "corpus/cyclic.lamp", "--budget", "10000")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "CONFLUENT"
    assert len(lines) == 2  # one normal form plus the verdict


def test_enumerate_budget_exceeded_exit_code(tmp_path):
    r = run_cli("enumerate", "corpus/client_server_dialogue.lamp",
                "--budget", "3")
    assert r.returncode == 4


def test_enumerate_untyped_race_is_non_confluent(tmp_path):
    # one sender, two receiver occurrences: untypable, and the engine finds
    # both outcomes of the race
    f = tmp_path / "race.lamp"
    f.write_text("|- (out x. *) v | x | x : bot par (A par A)\n")
    r = run_cli("enumerate", str(f))
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[-1] == "NON-CONFLUENT"
    assert len(lines) == 3


def test_enumerate_without_a_normal_form_says_so(tmp_path):
    # untypable and copying: every state reached reduces, back to itself,
    # so there is no normal form for confluence to speak of
    f = tmp_path / "omega.lamp"
    f.write_text("|- (lam x. x x) (lam y. y y) : bot\n")
    r = run_cli("enumerate", str(f))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "NO NORMAL FORM\n"


def test_run_concurrent_mode():
    for seed in ("0", "1", "7"):
        r = run_cli("run", "corpus/cyclic.lamp", "--mode", "concurrent",
                    "--seed", seed)
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("final: ")
        assert "enc2 (enc1 M)" in r.stdout


def test_run_cbv_mode():
    r = run_cli("run", "corpus/client_server_request.lamp", "--mode", "cbv")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[1].startswith("step 1:")


def test_run_cbv_keeps_the_programs_par_tree(tmp_path):
    # the components go back at the leaves of the program's Par spine, so a
    # step prints as --mode full and the initial line do
    f = tmp_path / "nested.lamp"
    f.write_text("|- (out x. *) (lam a. a) | x | * : bot par ((bot -o bot) par bot)\n")
    want = "(out x. *) (lam a. a) | x | *\nstep 1: Comm x => * | lam a. a | *\n"
    for mode in ("cbv", "full"):
        r = run_cli("run", str(f), "--mode", mode)
        assert r.returncode == 0, r.stderr
        assert r.stdout == want, mode


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.lamp"
    bad.write_text("|- lam . x : A")
    r = run_cli("parse", str(bad))
    assert r.returncode == 2
    assert "parse error" in r.stderr


def test_type_error_exit_code(tmp_path):
    bad = tmp_path / "untypable.lamp"
    bad.write_text("|- x : A")
    r = run_cli("check", str(bad))
    assert r.returncode == 1
    assert "type error" in r.stderr


def test_a_typed_close_is_a_one_line_type_error(tmp_path):
    # close(x) concludes an untyped entry: no type may be given to it
    bad = tmp_path / "typed_close.lamp"
    bad.write_text("x : bot |- close(x) : bot\n")
    r = run_cli("check", str(bad))
    _assert_one_line_error(r, 1)
    assert r.stderr == "type error: close(...) entry carries a type: close(x)\n"


def test_type_error_prints_types_in_lamp_syntax(tmp_path):
    bad = tmp_path / "mismatch.lamp"
    bad.write_text("a : A |- (lam x. x) a : B")
    r = run_cli("check", str(bad))
    assert r.returncode == 1
    assert r.stderr == "type error: cannot unify A with B\n"
    assert "Atom(" not in r.stderr


def test_swapped_twin_is_one_line_naming_its_atoms(tmp_path):
    from lamp.testlab import GenConfig, gen_derivation
    from lamp.terms import print_sequent
    from tests.test_checker import _INPUTS
    seq = gen_derivation(GenConfig(seed=4, max_nodes=20)).conclusion
    twin = _INPUTS.swap_atom(seq, _INPUTS._atom_sites(seq)[0])
    bad = tmp_path / "twin.lamp"
    bad.write_text(print_sequent(twin))
    r = run_cli("check", str(bad))
    assert r.returncode == 1
    assert r.stderr in ("type error: cannot unify A with B\n",
                        "type error: cannot unify B with A\n")


def test_check_reports_the_first_splittable_candidates_error(tmp_path):
    # gen_derivation seed 14, max_nodes 20, with v13 : A pinned to bot.
    # The application's context split exists and fails on the pin; the
    # binary output's premise seeds share a name.  The first is reported.
    f = tmp_path / "pinned.lamp"
    f.write_text("|- (lam v11. v11) (out v10. (v13 : bot)) : A -o A, "
                 "out2 v13 v8. ((lam v5. v5) v10 | *) : bot, * : bot, "
                 "close(*), close(v8)\n")
    r = run_cli("check", str(f))
    assert (r.returncode, r.stderr) == (1, "type error: cannot unify A with bot\n")


@pytest.mark.parametrize("mode", ["full", "cbv"])
def test_run_rejects_non_linear_program(tmp_path, mode):
    # beta copies the argument of lam x. x x, so reducing would never end
    f = tmp_path / "omega.lamp"
    f.write_text("|- (lam x. x x) (lam y. y y) : A\n")
    r = run_cli("run", str(f), "--mode", mode, timeout=30)
    assert r.returncode == 1
    assert r.stderr.startswith("type error: ")
    assert "occurs 2x as a variable" in r.stderr


def _assert_one_line_error(r, code):
    assert r.returncode == code
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert "Traceback" not in r.stderr


def test_non_linear_name_reported_under_any_hash_seed(tmp_path):
    # names are checked in order of first occurrence, not in set order
    f = tmp_path / "omega.lamp"
    f.write_text("|- (lam x. x x) (lam y. y y) : A\n")
    for hash_seed in ("0", "1", "2", "3"):
        r = run_cli("run", str(f), env_extra={"PYTHONHASHSEED": hash_seed},
                    timeout=30)
        _assert_one_line_error(r, 1)
        assert "name 'x' occurs" in r.stderr, (hash_seed, r.stderr)


@pytest.mark.parametrize("command,text", [
    pytest.param(["translate", "--direction", "to-nmll"], b"",
                 id="empty-sexpr"),
    pytest.param(["translate", "--direction", "to-nmll"],
                 b'(AxId "A |- A") junk', id="trailing-sexpr"),
    pytest.param(["parse"], b"\xff\xfe", id="non-utf8"),
])
def test_malformed_file_is_one_line_parse_error(tmp_path, command, text):
    f = tmp_path / "input"
    f.write_bytes(text)
    r = run_cli(command[0], str(f), *command[1:])
    _assert_one_line_error(r, 2)
    assert r.stderr.startswith("parse error: ")


@pytest.mark.parametrize("text,error", [
    ("()", "expected rule tag"),
    ('("|- * : bot")', "expected rule tag"),  # a sequent where the tag belongs
    ('AxId "A |- A"', "expected '(' in s-expression"),
    ("(AxId)", "expected quoted sequent"),
    ('(AxId "A |- A" "B")', "expected ')' in s-expression"),
])
def test_malformed_derivation_file_names_its_error(tmp_path, text, error):
    f = tmp_path / "bad.mllsx"
    f.write_text(text)
    r = run_cli("translate", str(f), "--direction", "to-nmll")
    _assert_one_line_error(r, 2)
    assert r.stderr == f"parse error: {error}\n"


def test_a_byte_order_mark_is_read_past(tmp_path):
    # a UTF-8 file may begin with a byte-order mark: lamp reads what follows
    lamp = tmp_path / "em.lamp"
    lamp.write_bytes(("\ufeff" + corpus_text("excluded_middle")).encode())
    r = run_cli("check", str(lamp))
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "excluded_middle.check.txt").read_text()
    to_mll = run_cli("translate", "corpus/excluded_middle.lamp", "--direction", "to-mll")
    plain, marked = tmp_path / "em.mllsx", tmp_path / "em-bom.mllsx"
    plain.write_text(to_mll.stdout)
    marked.write_bytes(("\ufeff" + to_mll.stdout).encode())
    r = run_cli("translate", str(marked), "--direction", "to-nmll")
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli("translate", str(plain), "--direction", "to-nmll").stdout
    # a byte that is not UTF-8 is still placed counting the mark's three
    bad = tmp_path / "bad.lamp"
    bad.write_bytes(b"\xef\xbb\xbf|- \xff")
    r = run_cli("parse", str(bad))
    _assert_one_line_error(r, 2)
    assert r.stderr.endswith(" at byte 6\n"), r.stderr


@pytest.mark.parametrize("command", [
    ("translate", "corpus/cyclic.lamp", "--direction", "to-mll"),
    ("parse", "corpus/cyclic.lamp"),
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_closed_output_pipe_ends_quietly(command, unbuffered):
    # the reader's end is closed before lamp writes: the write fails with
    # a broken pipe, which is not an unreadable file (exit 5).  Both
    # outputs are shorter than the buffer, so they are written when lamp
    # flushes it, or, unbuffered, while it prints
    r_fd, w_fd = os.pipe()
    os.close(r_fd)
    env = dict(os.environ, LAMP_COLOR="0", PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r = subprocess.run(
        [sys.executable, "-m", "lamp.cli", *command],
        stdout=w_fd, stderr=subprocess.PIPE, text=True, cwd=ROOT, env=env,
        timeout=60)
    os.close(w_fd)
    assert (r.returncode, r.stderr) == (0, "")


def test_missing_file_exit_code(tmp_path):
    r = run_cli("parse", str(tmp_path / "absent.lamp"))
    _assert_one_line_error(r, 5)
    assert r.stderr.startswith("error: ")


def test_deep_input_exit_code(tmp_path):
    # the parser reads parentheses with its own stack, so 1,500 levels
    # parse; the proof search still costs one Python frame per rule, so
    # ring(255) parses but is nested too deeply to check
    deep = tmp_path / "deep.lamp"
    deep.write_text("|- " + "(" * 1500 + "*" + ")" * 1500 + " : bot\n")
    r = run_cli("parse", str(deep))
    assert (r.returncode, r.stdout, r.stderr) == (0, "|- * : bot\n", "")
    f = tmp_path / "ring.lamp"
    f.write_text(_INPUTS.ring_case(0, 255, random.Random(0)).text + "\n")
    r = run_cli("check", str(f))
    _assert_one_line_error(r, 4)
    assert r.stderr.startswith("budget exceeded: ")


@pytest.mark.parametrize("text, printed", [
    ("|- " + "(" * 20000 + "*" + ")" * 20000 + " : bot", "|- * : bot"),
    ("|- " + "close(" * 20000 + "*" + ")" * 20000, None),
    ("x : " + "(" * 20000 + "A" + ")" * 20000 + " |- x : A", "x : A |- x : A"),
], ids=["parens", "close", "type-parens"])
def test_twenty_thousand_parentheses_parse(tmp_path, text, printed):
    # each open parenthesis is a frame on the parser's own stack, in a term
    # and in a type
    deep = tmp_path / "deep.lamp"
    deep.write_text(text + "\n")
    r = run_cli("parse", str(deep))
    assert (r.returncode, r.stdout, r.stderr) == (0, (printed or text) + "\n", "")


def test_long_binder_chains_parse(tmp_path):
    # a chain of binder prefixes is read by a loop
    f = tmp_path / "chain.lamp"
    text = "|- close(" + " ".join(f"out x{k}." for k in range(3000)) + " *)"
    f.write_text(text + "\n")
    r = run_cli("parse", str(f))
    assert (r.returncode, r.stdout) == (0, text + "\n"), r.stderr


def test_deep_declared_type_checks(tmp_path):
    # the declaration and the entry parse as two equal 2,000-deep types:
    # unification and the axiom compare them without recursing in C
    ty = " par ".join(["bot"] * 2001)
    f = tmp_path / "deep_type.lamp"
    f.write_text(f"x : {ty} |- x : {ty}\n")
    r = run_cli("check", str(f))
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0] == f'(Ax "x : {ty} |- x : {ty}")'


def test_wide_programs_go_through(tmp_path):
    # | chains and applications are read with loops, and every walk over
    # the tree keeps its own stack
    f = tmp_path / "wide.lamp"
    text = "|- close((out x. *) * | x" + " | *" * 1998 + ")"
    f.write_text(text + "\n")
    r = run_cli("parse", str(f))
    assert (r.returncode, r.stdout) == (0, text + "\n"), r.stderr
    for args in (["run"], ["run", "--mode", "cbv"], ["enumerate"]):
        r = run_cli(args[0], str(f), *args[1:])
        assert r.returncode == 0, (args, r.stderr)
    assert r.stdout.endswith("close(" + " | ".join(["*"] * 2000) + ")\nCONFLUENT\n")
    app = tmp_path / "app.lamp"
    app.write_text("f : A, a : B |- f" + " a" * 1500 + " : C\n")
    assert run_cli("parse", str(app)).returncode == 0


def test_translate_to_mll(tmp_path):
    r = run_cli("translate", "corpus/excluded_middle.lamp",
                "--direction", "to-mll")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("(ParrR")
    # and back: feed the result into to-nmll
    mll_file = tmp_path / "em.mllsx"
    mll_file.write_text(r.stdout)
    r2 = run_cli("translate", str(mll_file), "--direction", "to-nmll")
    assert r2.returncode == 0, r2.stderr
    assert r2.stdout.startswith("(ParrI")


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_translate_round_trips_every_corpus_file(name, tmp_path):
    # to-nmll of what to-mll printed: the natural deduction it builds must
    # check, which the cyclic and client-server programs' once did not
    r = run_cli("translate", f"corpus/{name}.lamp", "--direction", "to-mll")
    assert r.returncode == 0, r.stderr
    mll_file = tmp_path / f"{name}.mllsx"
    mll_file.write_text(r.stdout)
    r = run_cli("translate", str(mll_file), "--direction", "to-nmll")
    assert r.returncode == 0, r.stderr


def test_translate_to_nmll_reports_the_first_bad_node(tmp_path):
    # the BotR below the root sits on a bottom axiom: its left side differs
    f = tmp_path / "bad.mllsx"
    f.write_text('(LolliR "|- A, A -o bot"\n'
                 '  (BotR "A |- A, bot"\n'
                 '    (AxBot "bot |-")))\n')
    r = run_cli("translate", str(f), "--direction", "to-nmll")
    _assert_one_line_error(r, 1)
    assert r.stderr == ("not a derivation: at node [0]: "
                        "bot-right must add one bot on the right\n")


def test_translate_to_nmll_rejects_a_well_formed_non_derivation(tmp_path):
    # the file parses as a sequent calculus tree, but its axiom is no
    # instance of AxId: the input is wrong, not lamp
    f = tmp_path / "ax.mllsx"
    f.write_text('(AxId "A |- B")\n')
    r = run_cli("translate", str(f), "--direction", "to-nmll")
    _assert_one_line_error(r, 1)
    assert r.stderr == "not a derivation: at node []: identity axiom must be  A |- A\n"


def test_translate_to_nmll_output_violation_stays_internal(tmp_path, monkeypatch, capsys):
    # a rule violation in what lamp built from a valid input is lamp's fault
    from lamp import cli, mll
    from lamp.derivations import Derivation, Rule
    from lamp.terms import Sequent
    f = tmp_path / "ax.mllsx"
    f.write_text('(AxId "A |- A")\n')
    monkeypatch.setattr(mll, "mll_to_nmll", lambda m: Derivation(Rule.AX, Sequent((), ())))
    assert cli.main(["translate", str(f), "--direction", "to-nmll"]) == 3
    assert capsys.readouterr().err.startswith("internal invariant violation: at node []: ")


def test_deep_ring_checks_runs_and_translates(tmp_path):
    # the parser no longer sets the limit: it reads any nesting with its
    # own stack.  The proof search costs one Python frame per rule, so the
    # bench's ring text at 240 components stays inside the default
    # recursion limit
    f = tmp_path / "ring.lamp"
    f.write_text(_INPUTS.ring_case(0, 240, random.Random(0)).text + "\n")
    for args in (["check"], ["run", "--mode", "concurrent"],
                 ["translate", "--direction", "to-mll"]):
        r = run_cli(args[0], str(f), *args[1:])
        assert r.returncode == 0, (args, r.stderr)


def test_props_command():
    r = run_cli("props", "--n", "10", "--seed", "3")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 7
    assert all("failures=0" in line for line in lines)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_props_rejects_a_node_budget_below_one(value):
    r = run_cli("props", "--n", "1", "--max-nodes", value)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1] == (
        f"lamp props: error: argument --max-nodes: invalid positive value: '{value}'")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, option", [
    (["props"], "--n"),
    (["enumerate", "corpus/excluded_middle.lamp"], "--budget"),
])
def test_counts_below_one_are_rejected(command, option, value):
    # a case count or state budget below one would check nothing, or stop
    # before the first state
    r = run_cli(*command, option, value)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.splitlines()[-1] == (
        f"lamp {command[0]}: error: argument {option}: "
        f"invalid positive value: '{value}'")


def test_color_toggle():
    r = run_cli("run", "corpus/cyclic.lamp", env_extra={"LAMP_COLOR": "1"})
    assert r.returncode == 0, r.stderr
    assert "\x1b[36m" in r.stdout
    r2 = run_cli("run", "corpus/cyclic.lamp")
    assert r2.returncode == 0, r2.stderr
    assert "\x1b" not in r2.stdout


# -- start-up: a command imports what it runs --------------------------------

# every name lamp's __init__ exported when it imported all of lamp, by module
_EXPORTS = {
    "terms": "App Atom BOT Bot Close DeltaEntry Dist Lolli Par ParT Send "
             "Sequent Term TypeExpr UNIT Unit Var flatten_par is_simple "
             "join_par occurrences print_sequent print_term print_type "
             "split_joined substitute",
    "parser": "DuplicateBinder LamWithoutOccurrence ParseError Program "
              "parse_program parse_term parse_type",
    "derivations": "Derivation LinearityError Rule RuleViolation "
                   "check_channel_linearity check_derivation",
    "reconstruct": "LinearityViolation TypecheckError UnificationFailure "
                   "UnsatisfiableSplit reconstruct",
    "metatheory": "BottomLike HeadVar NormalShape PreconditionViolation "
                  "ShapeViolation SubformulaCounterexample ValueShape "
                  "check_no_freaks check_subformula classify_normal "
                  "subst_derivation",
    "reduction": "BudgetExceeded Redex StaleRedex Trace apply_redex "
                 "cbv_trace comm_size enumerate_normal_forms find_redexes "
                 "is_value normalize",
    "mll": "MllDerivation MllRule MllRuleViolation MllSequent check_mll "
           "mll_to_nmll nmll_to_mll print_mll_sequent type_erasure",
    "runtime": "ChannelCell ChannelProtocolError DeadlockReport run_concurrent",
    "testlab": "GenConfig Report gen_derivation gen_mll run_property_suite",
}


def test_every_export_still_imports_from_lamp():
    # lamp imported by way of a submodule, lamp.testlab; the orders that
    # matter to lamp.reconstruct, which names both a module and the
    # function lamp exports, are pinned below
    r = run_python("-c", f"""
import importlib, json, lamp.testlab
exports = {_EXPORTS!r}
wrong = [f"{{m}}.{{n}}" for m, names in exports.items() for n in names.split()
         if getattr(lamp, n) is not getattr(importlib.import_module("lamp." + m), n)]
namespace = {{}}
exec("from lamp import *", namespace)
print(json.dumps([wrong, sorted(set(lamp.__all__) - set(namespace))]))
""")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[], []]
    exported = {n for names in _EXPORTS.values() for n in names.split()}
    r = run_python("-c", "import json, lamp; print(json.dumps(lamp.__all__))")
    assert set(json.loads(r.stdout)) == exported


@pytest.mark.parametrize("first", [
    "import lamp.reconstruct\nimport lamp",
    "import lamp\nread = lamp.reconstruct\nimport lamp.reconstruct",
    "from lamp import reconstruct as read\nimport lamp.reconstruct",
    "from lamp.reconstruct import reconstruct as read\nimport lamp",
])
def test_lamp_reconstruct_is_the_function_whichever_comes_first(first):
    r = run_python("-c", f"""
{first}
import sys
function = sys.modules["lamp.reconstruct"].reconstruct
print(lamp.reconstruct is function and globals().get("read", function) is function)
""")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "True\n"


# modules that none of the four commands below loads in its default mode
_NEVER = {"metatheory", "mll", "runtime", "testlab"}


@pytest.mark.parametrize("command,unused", [
    ("run", _NEVER | {"derivations", "reconstruct", "sexpr"}),
    ("check", _NEVER | {"reduction"}),
    ("parse", _NEVER | {"derivations", "reconstruct", "reduction", "sexpr"}),
    ("enumerate", _NEVER | {"derivations", "reconstruct", "sexpr"}),
])
def test_a_command_imports_only_what_it_runs(command, unused):
    # what the command brings in beyond what python's start-up did
    r = run_python("-c", f"""
import json, sys
before = set(sys.modules)
from lamp.cli import main
code = main([{command!r}, "corpus/cyclic.lamp"])
print(json.dumps([code, sorted(set(sys.modules) - before)]))
""")
    assert r.returncode == 0, r.stderr
    code, loaded = json.loads(r.stdout.splitlines()[-1])
    assert code == 0
    assert not {m.removeprefix("lamp.") for m in loaded if m.startswith("lamp.")} \
        & unused, loaded
    # dataclasses alone brought in inspect, ast, dis, tokenize and more
    assert not {"dataclasses", "inspect"} & set(loaded), loaded


def _errors():
    from lamp.derivations import LinearityError, RuleViolation
    from lamp.mll import MllRuleViolation
    from lamp.parser import DuplicateBinder, ParseError
    from lamp.reconstruct import TypecheckError, UnificationFailure
    from lamp.reduction import BudgetExceeded
    from lamp.runtime import ChannelProtocolError, DeadlockReport
    internal = "internal invariant violation: "
    return [
        (ParseError("p"), 2, "parse error: p"),
        (DuplicateBinder("d"), 2, "parse error: d"),
        (TypecheckError("t"), 1, "type error: t"),
        (UnificationFailure("u"), 1, "type error: u"),
        (LinearityError("x", 2, 0, True), 1,
         "type error: declared name 'x' occurs 2x as a variable and 0x as a binder"),
        (BudgetExceeded(3), 4, "budget exceeded: state budget exceeded after 3 states"),
        (RuleViolation((0,), "r"), 3, internal + "at node [0]: r"),
        (MllRuleViolation((), "m"), 3, internal + "at node []: m"),
        (DeadlockReport([1], ["x"]), 3,
         internal + "stuck: workers [1] blocked, channels ['x'] undelivered"),
        (ChannelProtocolError("c"), 3, internal + "c"),
        (FileNotFoundError("f"), 5, "error: f"),
        (RecursionError(), 4, "budget exceeded: input nested too deeply"),
    ]


def test_each_error_class_keeps_its_exit_code(monkeypatch, capsys):
    from lamp import cli
    for err, code, message in _errors():
        def fail(args, err=err):
            raise err
        monkeypatch.setattr(cli, "cmd_parse", fail)
        assert cli.main(["parse", "any.lamp"]) == code, err
        assert capsys.readouterr().err == message + "\n"
    monkeypatch.setattr(cli, "cmd_parse", lambda args: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.main(["parse", "any.lamp"])
