"""Program file grammar: sequents, sugar, annotations, rejection rules."""

import pytest

from lamp.parser import (
    DuplicateBinder, LamWithoutOccurrence, ParseError, parse_program,
    parse_term, parse_type,
)
from lamp.terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    UNIT, Var, print_sequent,
)


def test_axiom_sequent():
    prog = parse_program("x: A |- x : A")
    assert prog.sequent == Sequent(
        (("x", Atom("A")),), (DeltaEntry(Var("x"), Atom("A")),))


def test_excluded_middle_shape():
    prog = parse_program("|- x | out x. * : A par (A -o bot)")
    assert prog.sequent.delta == (
        DeltaEntry(Par(Var("x"), Send("x", UNIT)),
                   ParT(Atom("A"), Lolli(Atom("A"), BOT))),)


def test_lam_requires_occurrence():
    with pytest.raises(LamWithoutOccurrence):
        parse_program("|- lam x. * : A -o bot")


def test_duplicate_binder_rejected():
    with pytest.raises(DuplicateBinder):
        parse_program("|- (out x. *) (out x. *) : bot")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_program("x: A, x: B |- x : A")


def test_untyped_entry_must_be_close():
    with pytest.raises(ParseError):
        parse_program("x: A |- x")
    prog = parse_program("x: bot |- close(x)")
    assert prog.sequent.delta == (DeltaEntry(Close(Var("x")), None),)


def test_sync_input_sugar():
    t = parse_term("x(y). y")
    assert t == App(Send("y", Var("y")), Var("x"))


def test_sync_input_sugar_requires_use():
    with pytest.raises(LamWithoutOccurrence):
        parse_term("x(y). *")


def test_binder_chain_reports_its_innermost_failing_binder():
    # a chain is read whole, then wrapped innermost first: the innermost
    # binder without an occurrence is the one named, at its line:col
    for text, where in (("lam a. lam b. out c. a", "1:8: lam-bound 'b'"),
                        ("x(y). z(w).\n  y", "1:7: input-bound 'w'"),
                        ("lam a. x(y). lam b. a y", "1:14: lam-bound 'b'")):
        with pytest.raises(LamWithoutOccurrence) as info:
            parse_term(text)
        assert str(info.value).startswith(where)
    assert parse_term("out2 p q. lam a. x(y). out c. a y") == Dist(
        "p", "q", Send("a", App(Send("y", Send("c", App(Var("a"), Var("y")))),
                                Var("x"))))


def test_sugar_versus_application_lookahead():
    # without the trailing dot this is ordinary application
    assert parse_term("f (y)") == App(Var("f"), Var("y"))


def test_application_left_associative():
    assert parse_term("f a b") == App(App(Var("f"), Var("a")), Var("b"))


def test_par_right_associative_and_loosest():
    t = parse_term("out x. a | b")
    assert t == Par(Send("x", Var("a")), Var("b"))
    assert parse_term("a | b | c") == Par(Var("a"), Par(Var("b"), Var("c")))


def test_type_precedence():
    assert parse_type("A par A -o bot") == parse_type("A par (A -o bot)")
    assert parse_type("A -o B -o C") == Lolli(Atom("A"),
                                              Lolli(Atom("B"), Atom("C")))


def test_annotations_collected():
    prog = parse_program("|- (out x. * : A -o bot) | x : (A -o bot) par A")
    assert len(prog.annotations) == 1
    node, ty = prog.annotations[0]
    assert node == Send("x", UNIT)
    assert ty == Lolli(Atom("A"), BOT)


def test_comments_and_whitespace():
    prog = parse_program(
        "# a comment\nx: A  # trailing\n  |- x : A\n")
    assert print_sequent(prog.sequent) == "x : A |- x : A"


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_program("|- : A")
    assert exc.value.line == 1


def test_multi_entry_sequent():
    prog = parse_program("|- x : A, out x. * : A -o bot")
    assert len(prog.sequent.delta) == 2


def test_sequent_roundtrip_through_printer():
    text = "prod : String, cost : String -o Nat |- (out x. y) (lam a. lam b. a (b prod)) | x (out y. *) cost : Nat par bot"
    prog = parse_program(text)
    again = parse_program(print_sequent(prog.sequent))
    assert again.sequent == prog.sequent
