"""Program file grammar: sequents, sugar, annotations, rejection rules."""

import hashlib
import re

import pytest
from hypothesis import example, given, strategies as st

from lamp.parser import (
    DuplicateBinder, LamWithoutOccurrence, ParseError, _Reader, _line_col,
    parse_program, parse_term, parse_type, tokenize,
)
from lamp.terms import (
    App, Atom, BOT, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    UNIT, Unit, Var, children, is_free_in, nodes, print_sequent, print_term, print_type,
)
from lamp.testlab import GenConfig, gen_derivation
from tests.conftest import CORPUS_NAMES, corpus_text


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


# -- the tokenizer against the two-pattern scan it replaced -------------------

_OLD_SKIP, _OLD_TOKEN = r"\s+|\#[^\n]*", r"[A-Za-z_][A-Za-z0-9_]*|\|-|-o|[(),.:|*]"
# the longest prefix of a text that whitespace, comments and tokens spell
_OLD_SPELLED_RE = re.compile(f"(?:{_OLD_SKIP}|{_OLD_TOKEN})*")
# each token after what is skipped before it, then "" at the end
_OLD_TOKEN_RE = re.compile(f"(?:{_OLD_SKIP})*({_OLD_TOKEN}|\\Z)")


def _old_tokenize(text: str) -> list[str]:
    """text's tokens, then "" (twice if it ends in whitespace or a comment):
    one match checks the text, one findall with a skip group lists them."""
    end = _OLD_SPELLED_RE.match(text).end()
    if end < len(text):
        raise ParseError(f"unexpected character {text[end]!r}", *_line_col(text, end))
    return _OLD_TOKEN_RE.findall(text)


def _outcomes(text: str):
    """tokenize's and _old_tokenize's outcomes on text: the token list, or
    the error's text and line:col; for a list, also each token's line:col
    as _Reader.fail gives it and as the old scan's token group starts."""
    got = []
    for tokenizer in (tokenize, _old_tokenize):
        try:
            got.append(tokenizer(text))
        except ParseError as e:
            got.append((str(e), e.line, e.col))
    if isinstance(got[0], list):
        places = []
        for j in range(len(got[0])):
            with pytest.raises(ParseError) as info:
                _Reader(text).fail(j, "here")
            places.append((info.value.line, info.value.col))
        got[0] = (got[0], places)
        got[1] = (got[1], [_line_col(text, m.start(1))
                           for m in _OLD_TOKEN_RE.finditer(text)])
    return got


# identifiers, digits, every operator, a stray "-" and "|", characters no
# token spells, and whitespace that str.split and \s both know
_PIECES = ["x", "ab", "_q1", "o", "lam", "out2", "close", "bot", "par",
           "7", "42", "|-", "-o", "(", ")", ",", ".", ":", "|", "*", "-",
           "\u00e9", "\u03bb", "$", "\x00", " ", "  ", "\n", "\t", "\r", "\x0b",
           "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2003",
           "\u3000"]
_COMMENTS = st.builds("#{}{}".format, st.text(max_size=6), st.sampled_from(["", "\n"]))


@given(st.lists(st.one_of(st.sampled_from(_PIECES), _COMMENTS), max_size=14).map("".join))
@example("x : A#A")
@example("")
@example("# only a comment")
@example("|- x\u3000: A\x85")
def test_tokenize_agrees_with_the_two_pattern_scan(text):
    # the same tokens and trailing "", each at the same line:col, or the
    # same unexpected character at the same line:col
    new, old = _outcomes(text)
    assert new == old


# -- parse behaviour, pinned -------------------------------------------------

# SHA-256 of parse_program's outcome on each text of _digest_texts(), "\n\n"
# after each: for an accepted text, print_sequent of its sequent and, per
# annotation, its text and whether its node is in the tree by identity
# (reconstruct looks annotations up by id); for a rejected one, the
# exception's class name and text, line:col included.  Taken when the
# parser read tokens by recursive descent.
PARSE_DIGEST = \
    "3316d5f780f1b913fb5df0384fdf118afbce86238e550a60cb834304c6fef918"

_TOKEN = re.compile(r"\|-|-o|[A-Za-z_][A-Za-z0-9_]*|[(),.:|*]")


# texts the generator does not write: annotations, the sync-input sugar,
# comments, line breaks, parenthesized types and repeated binders
_HAND_WRITTEN = [
    "# a comment\nx : A  # trailing\n  |- x : A\n",
    "|- (out x. * : A -o bot) | x : (A -o bot) par A",
    "|- ((lam a. a : A -o A) (b : A) : A) : A",
    "b : A |- ((lam a. (a : A)) : A -o A) b : A",
    "f : (A -o B) -o C, g : A -o B |- f (lam a. g(h). h a) : C",
    "|- x(y).\n  y(z). z : bot, close(out2 p q. (p | (q : bot)))",
    "|- close(close((out x. *) (x : bot))) : bot",
    "|- (out x. *) (out x. *) : bot, close(out2 p p. (lam q. q))",
    "|- (lam a. x(a). a) (out b. out c. b) : bot, close(lam b. *)",
]


def _digest_texts():
    """The corpus files, then gen_derivation conclusions, printed, at
    max_nodes 12 and 36 for seeds 0-199, then _HAND_WRITTEN; for the
    first 40 generated texts and the hand-written ones, each text with
    one token deleted and each with one token written twice."""
    for name in CORPUS_NAMES:
        yield corpus_text(name)
    printed = [print_sequent(gen_derivation(GenConfig(seed=seed, max_nodes=m))
                             .conclusion)
               for m in (12, 36) for seed in range(200)]
    yield from printed
    yield from _HAND_WRITTEN
    for text in printed[:40] + _HAND_WRITTEN:
        for m in _TOKEN.finditer(text):
            s, e = m.span()
            yield text[:s] + text[e:]
            yield text[:e] + " " + text[s:e] + text[e:]


def _outcome(text: str) -> tuple[str, str]:
    """The class name of text's outcome (Program or an error's) and its
    printed form."""
    try:
        prog = parse_program(text)
    except ParseError as e:
        return type(e).__name__, str(e)
    in_tree = {id(n) for e in prog.sequent.delta for n in nodes(e.term, children)}
    lines = [print_sequent(prog.sequent)]
    lines += [f"{print_term(node)} : {print_type(ty)} {id(node) in in_tree}"
              for node, ty in prog.annotations]
    return "Program", "\n".join(lines)


def test_parse_behaviour_is_byte_stable():
    h = hashlib.sha256()
    kinds: dict[str, int] = {}
    for text in _digest_texts():
        kind, out = _outcome(text)
        kinds[kind] = kinds.get(kind, 0) + 1
        h.update(f"{kind}: {out}".encode())
        h.update(b"\n\n")
    assert kinds == {"Program": 695, "ParseError": 2374,
                     "LamWithoutOccurrence": 127, "DuplicateBinder": 4}
    assert h.hexdigest() == PARSE_DIGEST


_NODE_CLASSES = (App, Atom, Bot, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send,
                 Sequent, Unit, Var)


def _rebuilt(x):
    """x rebuilt through the public constructors: a node as its class
    called on its fields, rebuilt, and a tuple item by item."""
    if type(x) in _NODE_CLASSES:
        return type(x)(*map(_rebuilt, x[1:]))
    return tuple(map(_rebuilt, x)) if type(x) is tuple else x


def test_parsed_nodes_are_built_as_their_constructors_build_them():
    # the parser builds nodes straight through tuple.__new__: each node of
    # each accepted text (the sequent, entries, terms, types and
    # annotation pairs) must carry its class name as its tag and equal its
    # rebuild by the constructors, tags compared at every level
    count = pair_count = 0
    for text in _digest_texts():
        try:
            prog = parse_program(text)
        except ParseError:
            continue
        seq = prog.sequent
        trees = [ty for _, ty in seq.gamma] + [x for e in seq.delta for x in e[1:] if x]
        trees += [x for pair in prog.annotations for x in pair]
        for node in [seq, *seq.delta, *(n for t in trees for n in nodes(t, children))]:
            assert node[0] == type(node).__name__ and node == _rebuilt(node), text
            count += 1
        pairs = tuple(prog.annotations)
        assert pairs == _rebuilt(pairs), text
        pair_count += len(pairs)
    assert (count, pair_count) == (17818, 37)


def test_lam_chains_walk_no_body_unless_a_binder_repeats(monkeypatch):
    # a lam checks its name against the variable tokens read after its dot;
    # only a name bound more than once has its body walked by is_free_in
    calls = []
    monkeypatch.setattr("lamp.parser.is_free_in",
                        lambda x, t: calls.append(x) or is_free_in(x, t))
    n = 20000
    t = parse_term(" ".join(f"lam x{k}." for k in range(n)) + " "
                   + " ".join(f"x{k}" for k in range(n)))
    assert calls == []
    for k in range(n):
        assert type(t) is Send and t.chan == f"x{k}"
        t = t.body
    for k in reversed(range(1, n)):
        assert type(t) is App and t.arg == Var(f"x{k}")
        t = t.fun
    assert t == Var("x0")
    assert parse_term("lam a. (lam a. a) a") == Send(
        "a", App(Send("a", Var("a")), Var("a")))
    assert calls == ["a", "a"]
