"""Term syntax: representation, occurrences, substitution, parallel spines,
simple contexts, printing."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from lamp.mll import MllSequent
from lamp.reconstruct import MetaVar
from lamp.terms import (
    App, Atom, BOT, Bot, Close, DeltaEntry, Dist, InvalidPath, Lolli, Par,
    ParT, Send, Sequent, UNIT, Unit, Var, _Node, children, flatten_par,
    is_free_in, is_simple, join_par, occurrences, preorder, print_term,
    print_type, replace_at, split_joined, substitute, subterm_at,
)
from lamp.parser import parse_term, parse_type
from lamp.reduction import enumerate_normal_forms, find_redexes, normalize

A, B = Atom("A"), Atom("B")

# fields of one instance of each class on the shared tuple base
FIELDS = {
    Unit: (), Var: ("x",), App: (Var("f"), Var("a")), Send: ("x", Var("x")),
    Dist: ("x", "y", Par(Var("x"), Var("y"))), Par: (Var("a"), UNIT),
    Close: (UNIT,), Atom: ("A",), Bot: (), Lolli: (A, BOT), ParT: (A, B),
    DeltaEntry: (Var("x"), A), Sequent: ((("x", A),), (DeltaEntry(Var("x"), A),)),
    MllSequent: ((A,), (A, BOT)), MetaVar: ("?t0",),
}
NODE_CLASSES = sorted(_Node.__subclasses__(), key=lambda cls: cls.__name__)
by_name = pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)


# -- representation: (tag, *fields) tuples -------------------------------------

def test_every_node_class_is_covered():
    assert set(FIELDS) == set(NODE_CLASSES)
    assert len({cls.__name__ for cls in NODE_CLASSES}) == len(NODE_CLASSES)


def test_constructors_with_equal_fields_stay_apart():
    a, b = Var("a"), Var("b")
    for s, t in [(App(a, b), Par(a, b)), (Send("x", a), Close(a)),
                 (Var("x"), Atom("x")), (Lolli(A, B), ParT(A, B)),
                 (DeltaEntry(a, A), Sequent(a, A)),
                 (Sequent((), ()), MllSequent((), ()))]:
        assert s != t and t != s
        assert len({s, t}) == 2


@by_name
def test_fields_come_back_from_the_tuple_and_the_repr(cls):
    t = cls(*FIELDS[cls])
    assert t[0] == cls.__name__ and t[1:] == FIELDS[cls]
    assert tuple(getattr(t, name) for name in cls.__match_args__) == FIELDS[cls]
    fields = ", ".join(f"{k}={v!r}" for k, v in zip(cls.__match_args__, FIELDS[cls]))
    assert repr(t) == f"{cls.__name__}({fields})"


def test_repr_names_the_fields():
    assert repr(App(Var("x"), UNIT)) == "App(fun=Var(name='x'), arg=Unit())"
    assert repr(Dist("x", "y", Close(UNIT))) == \
        "Dist(chan1='x', chan2='y', body=Close(body=Unit()))"
    assert repr(DeltaEntry(UNIT, Lolli(A, BOT))) == \
        "DeltaEntry(term=Unit(), type=Lolli(arg=Atom(name='A'), res=Bot()))"


@by_name
def test_pickle_and_copy_round_trip(cls):
    t = cls(*FIELDS[cls])
    backs = [pickle.loads(pickle.dumps(t, proto))
             for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in backs + [copy.copy(t), copy.deepcopy(t)]:
        assert back == t and type(back) is type(t) and repr(back) == repr(t)


@by_name
def test_terms_are_immutable(cls):
    t = cls(*FIELDS[cls])
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(t, name, UNIT)
    with pytest.raises(AttributeError):
        t.extra = UNIT


def test_constructors_check_their_field_count():
    with pytest.raises(TypeError):
        App(UNIT)
    with pytest.raises(TypeError):
        Bot(A)


def test_hash_and_equality_are_tuples_own():
    for cls in NODE_CLASSES:
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        t = cls(*FIELDS[cls])
        assert hash(t) == hash(tuple(t)) and t == cls(*FIELDS[cls])


# -- the records of the other modules -----------------------------------------

_SEQ = Sequent((("x", A),), (DeltaEntry(Var("x"), A),))
_SEQ_TEXT = ("Sequent(gamma=(('x', Atom(name='A')),), "
             "delta=(DeltaEntry(term=Var(name='x'), type=Atom(name='A')),))")


def _records():
    """One instance of each record class, beside the repr it printed as a
    dataclass."""
    from lamp.derivations import Derivation, Rule
    from lamp.parser import Program
    from lamp.reduction import Redex, Trace
    ax = Derivation(Rule.AX, _SEQ)
    ax_text = f"Derivation(rule=<Rule.AX: 'Ax'>, conclusion={_SEQ_TEXT}, premises=())"
    return [
        (ax, ax_text),
        (Derivation(Rule.BOT_I, _SEQ, (ax,)),
         f"Derivation(rule=<Rule.BOT_I: 'BotI'>, conclusion={_SEQ_TEXT}, "
         f"premises=({ax_text},))"),
        (Redex("comm", (0,), ((1, 0),)),
         "Redex(kind='comm', activator=(0,), receivers=((1, 0),))"),
        (Redex("beta", (1,)), "Redex(kind='beta', activator=(1,), receivers=())"),
        (Program(_SEQ, []), f"Program(sequent={_SEQ_TEXT}, annotations=[])"),
        (Trace(UNIT, [("beta", UNIT)]),
         "Trace(initial=Unit(), steps=[('beta', Unit())])"),
    ]


def test_records_print_as_they_did():
    for record, text in _records():
        assert repr(record) == text


def test_records_compare_and_hash_by_their_fields():
    from lamp.derivations import Derivation, Rule
    from lamp.reduction import Redex
    assert Redex("beta", (1,)) == Redex("beta", (1,), ())
    assert Redex("beta", (1,)) != Redex("beta", (0,))
    assert len({Redex("comm", (0,), ((1,),)), Redex("comm", (0,), ((1,),))}) == 1
    assert hash(Derivation(Rule.AX, _SEQ)) == hash(Derivation(Rule.AX, _SEQ, ()))
    assert Derivation(Rule.AX, _SEQ) != Derivation(Rule.BOT_I, _SEQ)


def test_records_are_immutable():
    for record, _ in _records():
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_records_pickle_and_copy_round_trip():
    for record, text in _records():
        backs = [pickle.loads(pickle.dumps(record, proto))
                 for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in backs + [copy.copy(record), copy.deepcopy(record)]:
            assert back == record and type(back) is type(record)
            assert repr(back) == text


def test_gen_config_checks_its_bound():
    from lamp.testlab import GenConfig
    assert GenConfig() == GenConfig(0, 12) and GenConfig(seed=3).max_nodes == 12
    assert repr(GenConfig(1, 2)) == "GenConfig(seed=1, max_nodes=2)"
    with pytest.raises(ValueError):
        GenConfig(max_nodes=0)
    with pytest.raises(ValueError):
        GenConfig(5, -1)


def test_deadlock_report_keeps_its_fields_and_text():
    from lamp.runtime import DeadlockReport
    err = DeadlockReport([1, 2], ["x"])
    assert isinstance(err, Exception)
    assert (err.blocked_workers, err.pending_channels, err.out_of_rounds) \
        == ([1, 2], ["x"], False)
    assert str(err) == "stuck: workers [1, 2] blocked, channels ['x'] undelivered"
    assert str(DeadlockReport([], [], True)) \
        == "out of rounds: workers [] blocked, channels [] undelivered"
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is DeadlockReport and str(back) == str(err)


def test_occurrences_in_parallel_and_under_other_binder():
    t = Par(Var("x"), Send("y", Var("x")))
    assert occurrences(t, "x") == [(0,), (1, 0)]


def test_occurrences_bound_by_own_binder():
    assert occurrences(Send("x", Var("x")), "x") == []


def test_occurrences_absent():
    assert occurrences(App(Var("f"), Var("a")), "z") == []


def test_substitute_variable():
    assert substitute(Var("x"), "x", UNIT) == UNIT


def test_substitute_under_unrelated_binder():
    t = Send("x", App(Var("x"), Var("y")))
    assert substitute(t, "y", Var("v")) == Send("x", App(Var("x"), Var("v")))


def test_substitute_leaves_bound_occurrences():
    t = App(Send("x", Var("x")), Var("y"))
    assert substitute(t, "w", Var("q")) == t
    assert substitute(t, "y", Var("w")) == App(Send("x", Var("x")), Var("w"))


def test_substitute_does_not_enter_same_name_binder():
    t = Send("x", Var("x"))
    assert substitute(t, "x", UNIT) == t


def test_substitute_shares_subterms_without_the_name():
    left = Send("x", Var("x"))
    t = Par(left, Close(Var("y")))
    out = substitute(t, "y", UNIT)
    assert out == Par(left, Close(UNIT)) and out.left is left
    assert substitute(t, "z", UNIT) is t


def test_beta_under_five_thousand_closes():
    assert sys.getrecursionlimit() == 1000
    depth = 5000
    body = Var("x")
    for _ in range(depth):
        body = Close(body)
    t = App(Send("x", body), UNIT)  # (lam x. close^5000(x)) *
    trace = normalize(t)
    assert [desc for desc, _ in trace.steps] == ["Beta"]
    (nf,) = enumerate_normal_forms(t)
    # equal terms this deep are not compared with ==, which recurses in C
    for final in (trace.final, nf):
        assert subterm_at(final, (0,) * depth) == UNIT
        assert find_redexes(final) == []


def test_flatten_par_left_nested():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert flatten_par(Par(Par(a, b), c)) == [a, b, c]


def test_flatten_par_right_nested():
    a, b, c = Var("a"), Var("b"), Var("c")
    assert flatten_par(Par(a, Par(b, c))) == [a, b, c]


def test_flatten_par_single():
    assert flatten_par(Var("x")) == [Var("x")]


def test_split_joined_inverts_join():
    parts = [Var("a"), Par(Var("b"), Var("c")), UNIT]
    assert split_joined(join_par(parts), 3) == parts


def test_is_simple_no_par_above():
    t = Close(App(Var("h"), Var("v")))
    assert is_simple((0, 0), t)  # hole at h, under close and app


def test_is_simple_false_under_par():
    t = Par(Var("h"), Var("u"))
    assert not is_simple((0,), t)


def test_is_simple_at_root():
    assert is_simple((), Var("x"))


def test_is_simple_invalid_path():
    # what subterm_at and replace_at reject: a negative index, and one past
    # a leaf that sits under a Par
    for path, t in (((0, 5), Close(Var("x"))), ((-1,), Close(Var("x"))),
                    ((0, 9), Par(Var("a"), Var("b")))):
        for op in (lambda: subterm_at(t, path), lambda: is_simple(path, t),
                   lambda: replace_at(t, path, UNIT)):
            with pytest.raises(InvalidPath):
                op()


def test_print_lambda_when_bound_name_occurs():
    assert print_term(Send("x", Var("x"))) == "lam x. x"


def test_print_output_when_bound_name_absent():
    assert print_term(Send("x", UNIT)) == "out x. *"


def test_print_follows_binder_flip_after_substitution():
    t = Send("x", Send("z", Var("w")))
    assert print_term(t) == "out x. out z. w"
    # substitution moves a free x under the binder for x: now a lambda
    assert print_term(substitute(t, "w", Var("x"))) == "lam x. out z. x"
    # an inner binder for x takes the moved occurrence: the outer stays out
    shadowed = Send("x", Send("x", Var("w")))
    assert print_term(substitute(shadowed, "w", Var("x"))) == "out x. lam x. x"


def test_print_applied_output_parenthesized():
    assert print_term(App(Send("x", UNIT), Var("v"))) == "(out x. *) v"


def test_print_dist_and_close():
    t = Dist("x", "y", Par(Var("a"), Var("b")))
    assert print_term(t) == "out2 x y. (a | b)"
    assert print_term(Close(Var("x"))) == "close(x)"


# -- parse/print round trips over random terms -------------------------------

_names = st.sampled_from(["a", "b", "c", "f", "x", "y", "z", "w"])


def _terms(depth: int):
    if depth == 0:
        return st.one_of(st.just(UNIT), st.builds(Var, _names))
    sub = _terms(depth - 1)
    return st.one_of(
        st.just(UNIT),
        st.builds(Var, _names),
        st.builds(App, sub, sub),
        st.builds(Send, _names, sub),
        st.builds(Dist, _names, _names, sub),
        st.builds(Par, sub, sub),
        st.builds(Close, sub),
    )


@given(_terms(4))
def test_parse_print_roundtrip(t):
    assert parse_term(print_term(t)) == t


@given(_terms(3), _names)
def test_substitute_noop_when_not_free(t, x):
    if not occurrences(t, x):
        assert substitute(t, x, App(Var("q1"), Var("q2"))) is t


def _substituted(t, x, s):
    """substitute, written as the recursion over the grammar."""
    match t:
        case Var(y):
            return s if y == x else t
        case Send(y, _) if y == x:
            return t
        case Dist(y, z, _) if x in (y, z):
            return t
    return type(t)(*t[1:t._first], *(_substituted(k, x, s) for k in t[t._first:]))


@given(_terms(4), _names, _terms(1))
def test_substitute_matches_the_recursion(t, x, s):
    # names repeat and inner Send and Dist binders shadow outer ones here
    out = substitute(t, x, s)
    assert out == _substituted(t, x, s)
    if not is_free_in(x, t):
        assert out is t


def test_substitute_stops_at_send_and_dist_binders_for_the_name():
    send = Send("x", App(Var("x"), Var("y")))
    dist = Dist("y", "x", Par(Var("x"), Var("y")))
    t = Par(Par(Var("x"), send), Close(App(dist, Var("x"))))
    out = substitute(t, "x", UNIT)
    assert out == _substituted(t, "x", UNIT) \
        == Par(Par(UNIT, send), Close(App(dist, UNIT)))
    assert out.left.right is send and out.right.body.fun is dist


def _types(depth: int):
    atoms = st.one_of(st.just(BOT), st.builds(Atom, st.sampled_from("ABCD")))
    if depth == 0:
        return atoms
    sub = _types(depth - 1)
    return st.one_of(atoms, st.builds(Lolli, sub, sub), st.builds(ParT, sub, sub))


@given(_types(4))
def test_type_print_roundtrip(ty):
    assert parse_type(print_type(ty)) == ty


@given(_terms(4))
def test_flatten_preserves_components(t):
    parts = flatten_par(t)
    assert all(not isinstance(p, Par) for p in parts)
    assert flatten_par(join_par(parts)) == parts


@given(_terms(4))
def test_subterm_paths_consistent(t):
    for path, sub in preorder(t, children):
        assert subterm_at(t, path) == sub
