"""Derivation checking, reconstruction, linearity, grafting, normal shapes,
and the subformula audit."""

import hashlib
import importlib
import random

import pytest
from hypothesis import given

from lamp.derivations import (
    Derivation, LinearityError, Rule, RuleViolation, _replaced,
    check_channel_linearity, check_derivation, premises_of,
)
from lamp.metatheory import (
    BottomLike, FreakOccurrence, HeadVar, PreconditionViolation,
    ShapeViolation, SubformulaCounterexample, ValueShape, check_no_freaks,
    check_subformula, classify_normal, subst_derivation,
)
from lamp.parser import parse_program
from lamp.reconstruct import (
    LinearityViolation, TypecheckError, UnificationFailure, UnsatisfiableSplit,
    polarity_balance, reconstruct, tree_counts,
)
from lamp.sexpr import derivation_to_sexpr
from lamp.reduction import _reducts
from lamp.testlab import GenConfig, _walk, gen_derivation
from lamp.terms import (
    App, Atom, BOT, Close, DeltaEntry, Dist, Lolli, Par, ParT, Send, Sequent,
    UNIT, Var, _path, _scan, children, is_simple, nodes, occurrences,
    preorder, print_sequent, print_term, print_type, replace_at, subformulas,
)
from tests.conftest import CORPUS_NAMES, corpus_text
from tests.test_checker import _INPUTS
from tests.test_terms import _terms

A, B = Atom("A"), Atom("B")
# the package exports the function under the module's name
reconstruct_module = importlib.import_module("lamp.reconstruct")


def ax(name, ty):
    return Derivation(Rule.AX, Sequent(((name, ty),),
                                       (DeltaEntry(Var(name), ty),)))


def excluded_middle_tree():
    """The four-rule derivation of the linear excluded middle, exactly as
    displayed: axiom, bottom introduction, channel abstraction, par."""
    s_ax = Sequent((("x", A),), (DeltaEntry(Var("x"), A),))
    s_bot = Sequent((("x", A),),
                    (DeltaEntry(Var("x"), A), DeltaEntry(UNIT, BOT)))
    s_lolli = Sequent((), (DeltaEntry(Var("x"), A),
                           DeltaEntry(Send("x", UNIT), Lolli(A, BOT))))
    s_parr = Sequent((), (DeltaEntry(Par(Var("x"), Send("x", UNIT)),
                                     ParT(A, Lolli(A, BOT))),))
    return Derivation(
        Rule.PARR_I, s_parr,
        (Derivation(Rule.LOLLI_I, s_lolli,
                    (Derivation(Rule.BOT_I, s_bot,
                                (Derivation(Rule.AX, s_ax),)),)),))


# -- check_derivation ---------------------------------------------------------

def test_axiom_checks():
    check_derivation(ax("x", A))


def test_excluded_middle_tree_checks():
    check_derivation(excluded_middle_tree())


def test_abstraction_without_occurrence_rejected():
    # abstracting x over a body and context that never use it is weakening
    bad = Derivation(
        Rule.LOLLI_I,
        Sequent((("y", A),), (DeltaEntry(Send("x", Var("y")), Lolli(BOT, A)),)),
        (Derivation(Rule.AX, Sequent((("y", A), ("x", BOT)),
                                     (DeltaEntry(Var("y"), A),))),))
    with pytest.raises(RuleViolation):
        check_derivation(bad)


def test_shared_variable_premises_rejected():
    f = Lolli(A, A)
    bad = Derivation(
        Rule.LOLLI_E,
        Sequent((("x", f), ("x2", A)),
                (DeltaEntry(App(Var("x"), Var("x")), A),)),
        (ax("x", f), ax("x", A)))
    with pytest.raises(RuleViolation):
        check_derivation(bad)


def test_wrong_arity_rejected():
    with pytest.raises(RuleViolation):
        check_derivation(Derivation(Rule.BOT_I,
                                    Sequent((), (DeltaEntry(UNIT, BOT),))))


# -- reconstruct --------------------------------------------------------------

def test_reconstruct_excluded_middle_exact_tree():
    prog = parse_program(corpus_text("excluded_middle"))
    d = reconstruct(prog.sequent, prog.annotations)
    assert d == excluded_middle_tree()


def test_reconstruct_undeclared_variable():
    prog = parse_program("|- x : A")
    with pytest.raises(LinearityViolation):
        reconstruct(prog.sequent)


def test_a_linearity_failure_is_one_error_under_every_name():
    # reconstruct raises the checker's own LinearityError, which is also
    # reconstruct's LinearityViolation and a TypecheckError, with its text
    prog = parse_program("x : A, y : B |- x : A")
    with pytest.raises(LinearityError) as info:
        reconstruct(prog.sequent)
    err = info.value
    assert isinstance(err, LinearityViolation) and isinstance(err, TypecheckError)
    assert LinearityViolation is LinearityError
    assert str(err) == "declared name 'y' occurs 0x as a variable and 0x as a binder"
    assert (err.name, err.var_count, err.binder_count, err.declared) == ("y", 0, 0, True)


def test_reconstruct_type_mismatch():
    prog = parse_program("x: A |- x : B")
    with pytest.raises(UnificationFailure):
        reconstruct(prog.sequent)


@pytest.mark.parametrize("name", [
    "excluded_middle", "client_server_request", "client_server_dialogue",
    "cyclic", "channel_transmission",
])
def test_reconstruct_corpus_sound(name):
    prog = parse_program(corpus_text(name))
    d = reconstruct(prog.sequent, prog.annotations)
    check_derivation(d)
    assert d.conclusion == prog.sequent


def test_reconstruct_cyclic_matches_displayed_skeleton():
    # two par introductions at the root, then the client application whose
    # argument premise is the lone message constant
    prog = parse_program(corpus_text("cyclic"))
    d = reconstruct(prog.sequent, prog.annotations)
    assert d.rule is Rule.PARR_I
    inner = d.premises[0]
    assert inner.rule is Rule.PARR_I
    client = inner.premises[0]
    assert client.rule is Rule.LOLLI_E
    assert client.premises[1].conclusion.gamma == (("M", Atom("String")),)


def test_reconstruct_honors_annotations():
    good = parse_program("y: A |- (lam a. a : A -o A) y : A")
    d = reconstruct(good.sequent, good.annotations)
    check_derivation(d)
    bad = parse_program("y: A |- (lam a. a : B -o B) y : A")
    with pytest.raises(UnificationFailure):
        reconstruct(bad.sequent, bad.annotations)


def test_reconstruct_multi_entry():
    prog = parse_program("|- x : A, out x. * : A -o bot")
    d = reconstruct(prog.sequent, prog.annotations)
    check_derivation(d)
    assert d.rule is Rule.LOLLI_I


# -- linearity ----------------------------------------------------------------

def test_linearity_excluded_middle():
    prog = parse_program(corpus_text("excluded_middle"))
    check_channel_linearity(prog.sequent)


def test_linearity_duplicate_use():
    s = Sequent((), (DeltaEntry(Par(Var("x"), Var("x")), ParT(A, A)),))
    with pytest.raises(LinearityError):
        check_channel_linearity(s)


def test_linearity_declared_as_binder():
    s = Sequent((("x", A),), (DeltaEntry(Send("x", UNIT), Lolli(A, BOT)),))
    with pytest.raises(LinearityError):
        check_channel_linearity(s)


def test_linearity_lambda_counts_once_each_way():
    s = Sequent((), (DeltaEntry(Send("x", Var("x")), Lolli(A, A)),))
    check_channel_linearity(s)


# -- grafting ------------------------------------------------------------------

def test_graft_base_case_returns_left_derivation():
    d1 = ax("y", A)
    result = subst_derivation(d1, ax("x", A), "x")
    assert result is d1


def test_graft_through_bottom_elimination():
    ax_z = ax("z", Atom("C"))
    d1 = Derivation(
        Rule.BOT_I,
        Sequent((("z", Atom("C")),),
                (DeltaEntry(Var("z"), Atom("C")), DeltaEntry(UNIT, BOT))),
        (ax_z,))
    d2 = Derivation(
        Rule.BOT_E,
        Sequent((("x", BOT),), (DeltaEntry(Close(Var("x")), None),)),
        (ax("x", BOT),))
    result = subst_derivation(d1, d2, "x", entry_index=1)
    check_derivation(result)
    assert result.conclusion == Sequent(
        (("z", Atom("C")),),
        (DeltaEntry(Close(UNIT), None), DeltaEntry(Var("z"), Atom("C"))))


def test_graft_rejects_shared_variables():
    with pytest.raises(PreconditionViolation):
        subst_derivation(ax("x", A), ax("x", A), "x")


def test_graft_rejects_wrong_type():
    with pytest.raises(PreconditionViolation):
        subst_derivation(ax("y", Atom("B")), ax("x", A), "x")


def test_graft_rejects_an_index_without_a_typed_entry():
    closed = Derivation(Rule.BOT_E, Sequent((("y", BOT),),
                                            (DeltaEntry(Close(Var("y")), None),)),
                        (ax("y", BOT),))
    for d1, index in ((ax("y", A), 1), (closed, 0)):
        with pytest.raises(PreconditionViolation, match="no typed entry at the given index"):
            subst_derivation(d1, ax("x", A), "x", entry_index=index)


def test_graft_rejects_a_d2_whose_premises_lost_x():
    # a BotI concluding x : A |- x : A, * : bot over an axiom of z: not
    # a derivation, and the spine down to x's axiom breaks at it
    d2 = Derivation(Rule.BOT_I, Sequent((("x", A),), (DeltaEntry(Var("x"), A),
                                                      DeltaEntry(UNIT, BOT))),
                    (ax("z", A),))
    with pytest.raises(PreconditionViolation,
                       match="'x' vanished from the premises; d2 is not well formed"):
        subst_derivation(ax("y", A), d2, "x")


def test_graft_through_a_lolli_elimination_keeps_the_other_premise():
    # x's axiom is one premise of a LolliE; the other declares f, and the
    # graft keeps it as it is
    fun_ty = Lolli(A, B)
    d2 = Derivation(Rule.LOLLI_E, Sequent(
        (("f", fun_ty), ("x", A)), (DeltaEntry(App(Var("f"), Var("x")), B),)),
        (ax("f", fun_ty), ax("x", A)))
    check_derivation(d2)
    result = subst_derivation(ax("a", A), d2, "x")
    check_derivation(result)
    assert print_sequent(result.conclusion) == "f : A -o B, a : A |- f a : B"
    assert result.premises[0] is d2.premises[0]


# -- normal shapes -------------------------------------------------------------

def test_classify_output_value():
    shape = classify_normal(Send("x", UNIT), Lolli(A, BOT))
    assert shape == ValueShape("lambda-or-channel")


def test_classify_parallel_value():
    shape = classify_normal(Par(Var("u"), Var("v")), ParT(A, A))
    assert shape == ValueShape("parallel")


def test_classify_head_variable_stack():
    t = App(App(Var("y"), Var("a")), Var("b"))
    assert classify_normal(t, Atom("B")) == HeadVar("y", (Var("a"), Var("b")))


def test_classify_bottom_like():
    assert classify_normal(UNIT, BOT) == BottomLike()
    assert classify_normal(Close(Var("x")), None) == BottomLike()
    assert classify_normal(Dist("x", "y", Var("p")), BOT) == BottomLike()


def test_classify_value_at_wrong_type_is_a_bug_signal():
    with pytest.raises(ShapeViolation):
        classify_normal(Send("x", UNIT), BOT)
    with pytest.raises(ShapeViolation, match="^parallel value typed A -o A$"):
        classify_normal(Par(Var("u"), Var("v")), Lolli(A, A))


def test_classify_other_normal_term_at_a_non_bottom_type_is_a_bug_signal():
    # an application whose head is no variable, at an atom type
    with pytest.raises(ShapeViolation, match=r"^normal term \(lam x\. x\) y at non-bottom "
                                             r"type is neither a value nor a head-variable stack$"):
        classify_normal(App(Send("x", Var("x")), Var("y")), A)


def test_bottom_like_shapes_are_one_value():
    assert len({BottomLike(), BottomLike()}) == 1
    assert hash(BottomLike()) == hash(BottomLike())
    assert BottomLike() != HeadVar("y", ())
    assert repr(BottomLike()) == "BottomLike()"


def test_classify_generated_normal_forms():
    # every entry of a re-typechecked normal form falls into one of the
    # three shapes; a ShapeViolation would mean a metatheory bug
    from lamp.reduction import normalize
    from lamp.terms import split_joined
    from lamp.testlab import GenConfig, gen_derivation
    for seed in range(80):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=12))
        seq = d.conclusion
        final = normalize(seq.joined_term()).final
        parts = split_joined(final, len(seq.delta))
        nf = Sequent(seq.gamma, tuple(DeltaEntry(t, e.type)
                                      for t, e in zip(parts, seq.delta)))
        for e in reconstruct(nf).conclusion.delta:
            classify_normal(e.term, e.type)


# -- subformula audit ----------------------------------------------------------

def test_subformula_excluded_middle():
    check_subformula(excluded_middle_tree())


def test_subformula_axiom():
    check_subformula(ax("x", A))


def test_subformula_detects_redex_types():
    # a beta redex hides A -o A inside, which is no subformula of the
    # end-sequent  y : A |- (lam x. x) y : A
    prog = parse_program("y: A |- (lam x. x) y : A")
    d = reconstruct(prog.sequent)
    check_derivation(d)
    with pytest.raises(SubformulaCounterexample):
        check_subformula(d)


def _old_check_subformula(d):
    """check_subformula as it was: the end-sequent's subformulas as a set
    of types, each type of d looked up in it."""
    allowed = {BOT}
    root = d.conclusion
    for ty in [ty for _, ty in root.gamma] + [e.type for e in root.delta]:
        if ty is not None:
            allowed |= subformulas(ty)
    for path, node in preorder(d, premises_of):
        for ty in [ty for _, ty in node.conclusion.gamma] + [
                e.type for e in node.conclusion.delta]:
            if ty is not None and ty not in allowed:
                raise SubformulaCounterexample(path, ty)


def _subformula_outcome(check, d):
    try:
        check(d)
    except SubformulaCounterexample as err:
        return err.node_path, err.type, str(err)
    return None


def test_subformula_numbers_agree_with_the_set_of_types():
    # same counterexample, path and text as the set lookup, over the
    # redex-laden generated derivations, most of which have one
    found = 0
    for max_nodes in (12, 24):
        for seed in range(100):
            d = gen_derivation(GenConfig(seed, max_nodes))
            outcome = _subformula_outcome(check_subformula, d)
            assert outcome == _subformula_outcome(_old_check_subformula, d)
            found += outcome is not None
    assert found == 146
    d = reconstruct(parse_program("y: A |- (lam x. x) y : A").sequent)
    assert _subformula_outcome(check_subformula, d) == (
        (0,), Lolli(A, A),
        "type A -o A at node [0] is not a subformula of the end-sequent")


def test_subformula_of_normalized_corpus():
    from lamp.reduction import normalize
    from lamp.terms import split_joined
    prog = parse_program(corpus_text("cyclic"))
    seq = prog.sequent
    final = normalize(seq.joined_term()).final
    parts = split_joined(final, len(seq.delta))
    reduct = Sequent(seq.gamma,
                     tuple(DeltaEntry(t, e.type)
                           for t, e in zip(parts, seq.delta)))
    d = reconstruct(reduct)
    check_derivation(d)
    check_subformula(d)


# -- simple-context discipline ---------------------------------------------------

def test_no_freaks_on_corpus():
    for name in ["cyclic", "client_server_request", "channel_transmission"]:
        check_no_freaks(parse_program(corpus_text(name)).sequent)


def test_no_freaks_detects_self_communication():
    # z applied to its own output channel: both ends in one simple context
    s = Sequent((), (DeltaEntry(App(Var("z"), Send("z", UNIT)), BOT),))
    with pytest.raises(FreakOccurrence):
        check_no_freaks(s)


def _bound(t):
    """The channels bound in t, each once, in the order of their first
    binders in preorder."""
    return list(dict.fromkeys(x for n in nodes(t, children) if type(n) is not Var
                              for x in n[1:n._first]))


def _freaks_oracle(s):
    """check_no_freaks as first written: each position with no Par above
    it, in preorder, against the free occurrences of every channel bound
    inside it.  The first subterm whose channels occur free outside it,
    with those channels in the order of their first binders in preorder
    (the first version took them in set order), or None."""
    for e in s.delta:
        root = e.term
        for path, sub in preorder(root, children):
            if not path or not is_simple(path, root):
                continue
            out = [z for z in _bound(sub)
                   if any(occ[:len(path)] != path for occ in occurrences(root, z))]
            if out:
                return sub, out
    return None


def _same_freak(s):
    want = _freaks_oracle(s)
    if want is None:
        check_no_freaks(s)
        return False
    sub, channels = want
    with pytest.raises(FreakOccurrence) as err:
        check_no_freaks(s)
    assert str(err.value) == (f"channel {channels[0]!r} bound inside "
                              f"{print_term(sub)} occurs in its surrounding "
                              f"simple context"), print_sequent(s)
    return True


def _moved(s):
    """s with the free occurrence of a channel that s binds moved out of
    its place, in turn, to the top of every position of its entry: across
    a Par, out of one, into the binder's side or out of the entry."""
    for k, e in enumerate(s.delta):
        bound = _bound(e.term)
        for z, cells in _scan(e.term).free.items():
            if z not in bound:
                continue
            for c in cells:
                base = replace_at(e.term, _path(c), Var("moved"))
                for q, sub in preorder(base, children):
                    entry = DeltaEntry(replace_at(base, q, App(Var(z), sub)), e.type)
                    yield Sequent(s.gamma, _replaced(s.delta, k, entry))


def test_no_freaks_agrees_with_its_first_definition():
    # the corpus and every state the property suite's walk visits, with
    # its one-step reducts, then each with a channel's occurrence moved
    seqs = [parse_program(corpus_text(name)).sequent for name in CORPUS_NAMES]
    for max_nodes in (12, 24, 36):
        for seed in range(40):
            program = gen_derivation(GenConfig(seed, max_nodes)).conclusion
            for state, reducts in _walk(program, _reducts):
                seqs += [state, *reducts]
    assert not any(map(_same_freak, seqs))
    freaks = moved = 0
    for s in seqs:
        for m in _moved(s):
            moved += 1
            freaks += _same_freak(m)
    # what the test covers: states, mutants, and the mutants that are freaks
    assert (len(seqs), moved, freaks) == (2058, 3258, 707)


@given(_terms(4))
def test_no_freaks_agrees_with_its_first_definition_on_untyped_terms(t):
    # names repeat, binders shadow and Dist may bind one name twice here
    _same_freak(Sequent((), (DeltaEntry(t, None),)))


def test_no_freaks_names_the_first_binder_of_its_subterm():
    # y and x are both bound inside the function and occur free in its
    # argument, with no Par between: y's binder comes first
    t = App(Send("y", Send("x", UNIT)), App(Var("x"), Var("y")))
    with pytest.raises(FreakOccurrence) as err:
        check_no_freaks(Sequent((), (DeltaEntry(t, None),)))
    assert str(err.value) == ("channel 'y' bound inside out y. out x. * "
                              "occurs in its surrounding simple context")


def test_no_freaks_allows_a_par_above_the_meeting_point():
    # the same ends across a Par are a comm's, not a freak
    t = Par(Send("y", Send("x", UNIT)), App(Var("x"), Var("y")))
    check_no_freaks(Sequent((), (DeltaEntry(t, None),)))
    # but not a Par below it, in the binder's subterm
    t = App(Par(Send("y", UNIT), UNIT), Var("y"))
    with pytest.raises(FreakOccurrence) as err:
        check_no_freaks(Sequent((), (DeltaEntry(t, None),)))
    assert "bound inside out y. * | *" in str(err.value)


# -- error text is rendered only when read -----------------------------------

def _counting(monkeypatch, name):
    calls = []
    real = getattr(reconstruct_module, name)

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(reconstruct_module, name, counted)
    return calls


def _counting_solve(monkeypatch):
    calls = []
    real = reconstruct_module._Reconstructor.solve

    def counted(self, seq):
        calls.append(seq)
        return real(self, seq)

    monkeypatch.setattr(reconstruct_module._Reconstructor, "solve", counted)
    return calls


def _bot_pinned_leaf(d):
    """An annotation pinning to bot the variable of d's first axiom whose
    type is not bot: the goal stays balanced, so only the search, failing
    below the root, can reject it."""
    stack = [d]
    while stack:
        node = stack.pop()
        if node.rule is Rule.AX and node.conclusion.delta[0].type != BOT:
            return [(node.conclusion.delta[0].term, BOT)]
        stack.extend(node.premises)
    return None


def test_backtracking_renders_no_error_text(monkeypatch):
    # the typecheck workload's programs, their one-atom-swapped twins,
    # which the polarity pre-check rejects before any search, and each
    # program with a variable wrongly pinned to bot, which the search
    # must reject: every error the search throws away goes unprinted,
    # and a rejection is printed once, when read
    seqs = _counting(monkeypatch, "print_sequent")
    types = _counting(monkeypatch, "print_type")
    solves = _counting_solve(monkeypatch)
    rejected = searched = 0
    for seed in range(40):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=20))
        seq = d.conclusion
        reconstruct(seq)
        assert not seqs and not types
        goals = []
        sites = _INPUTS._atom_sites(seq)
        if sites:
            goals.append((_INPUTS.swap_atom(seq, sites[0]), ()))
        pinned = _bot_pinned_leaf(d)
        if pinned:
            goals.append((seq, pinned))
        for goal, annotations in goals:
            solves.clear()
            with pytest.raises(TypecheckError) as info:
                reconstruct(goal, annotations)
            assert not seqs and not types
            if annotations:
                assert solves  # balanced: the search is what rejects it
                searched += 1
            else:
                assert not solves
                rejected += 1
            text = str(info.value)
            assert text and str(info.value) == text  # rendered once, then kept
            assert len(seqs) <= 1 and len(types) <= 2
            seqs.clear()
            types.clear()
    assert rejected > 20 and searched > 20


def test_unification_error_shows_types_as_they_were_when_raised():
    # the message is rendered late, but from the types resolved when the
    # error was raised: backtracking unbinds ?t before anyone reads it
    rec = reconstruct_module._Reconstructor(())
    t = rec.fresh()
    snapshot = dict(rec.subst)
    rec.unify(t, A)
    with pytest.raises(UnificationFailure) as info:
        rec.unify(Lolli(t, B), ParT(A, B))
    rec.subst = snapshot
    assert str(info.value) == "cannot unify A -o B with A par B"


def test_unify_refuses_an_unknown_inside_its_own_solution():
    rec = reconstruct_module._Reconstructor(())
    m = rec.fresh()
    with pytest.raises(UnificationFailure) as info:
        rec.unify(m, Lolli(m, A))
    assert str(info.value) == "occurs check: ?t0 in ?t0 -o A"


def test_an_untyped_entry_must_be_a_close():
    # built here, since the parser refuses an entry without a type
    goal = Sequent((), (DeltaEntry(App(Send("x", Var("x")), UNIT), None),))
    with pytest.raises(UnsatisfiableSplit) as info:
        reconstruct(goal)
    assert str(info.value) == "untyped entry must be close(...): (lam x. x) *"


# -- reconstruct's output, pinned -------------------------------------------

# SHA-256 of what reconstruct gives the goals of _digest_goals(), "\n\n"
# after each, in two digests: derivation_to_sexpr of each accepted goal's
# derivation, and each rejected goal's error class name and text.  A search
# that only prunes failing branches keeps the first; it may change which
# failure a rejection reports.  The first was taken when solve and the
# placement loop were two nested backtracking loops, the second when the
# search began to drop placements by surplus
RECONSTRUCT_DERIVATIONS_DIGEST = \
    "ac1840bd3e6e0db4552cad8a8839e8c39e4b45ea68f54746cd9f144458a315a9"
RECONSTRUCT_REJECTIONS_DIGEST = \
    "06c766d0dca4d3152079c8caf22f3bee8a2b9ad0bd6ae1b3dc178faf5adc84dd"


def _digest_goals():
    """gen_derivation conclusions at max_nodes 18-22, each followed by its
    first-site atom-swapped twin and its bot-pinned variant, then the
    bench's ring and relay programs."""
    for seed in range(300):
        d = gen_derivation(GenConfig(seed=seed, max_nodes=18 + seed % 5))
        seq = d.conclusion
        yield seq, ()
        sites = _INPUTS._atom_sites(seq)
        if sites:
            yield _INPUTS.swap_atom(seq, sites[0]), ()
        pinned = _bot_pinned_leaf(d)
        if pinned:
            yield seq, pinned
    rng = random.Random(1)
    cases = [_INPUTS.ring_case(0, n, rng) for n in (8, 24, 48)]
    cases += [_INPUTS.relay_case(0, n, rng) for n in (8, 16, 24)]
    for c in cases:
        yield c.sequent, ()


def test_reconstruct_output_is_byte_stable():
    accepted, rejected = hashlib.sha256(), hashlib.sha256()
    verdicts = {True: 0, False: 0}
    for goal, annotations in _digest_goals():
        try:
            out = derivation_to_sexpr(reconstruct(goal, annotations))
            h = accepted
            verdicts[True] += 1
        except TypecheckError as e:
            out = f"{type(e).__name__}: {e}"
            h = rejected
            verdicts[False] += 1
        h.update(out.encode())
        h.update(b"\n\n")
    assert verdicts == {True: 306, False: 570}
    assert accepted.hexdigest() == RECONSTRUCT_DERIVATIONS_DIGEST
    assert rejected.hexdigest() == RECONSTRUCT_REJECTIONS_DIGEST


def test_equal_solved_types_are_one_object():
    # finalize interns each solved type by tag, names and child ids: every
    # axiom's declaration and entry share their type, and so does every
    # pair of equal types anywhere in the derivation, down to subtypes
    d = reconstruct(_INPUTS.ring_case(0, 48, random.Random(1)).sequent)
    axioms = [n.conclusion for n in nodes(d, premises_of) if n.rule is Rule.AX]
    assert len(axioms) == 98
    assert all(s.gamma[0][1] is s.delta[0].type for s in axioms)
    types = {id(ty): ty for n in nodes(d, premises_of)
             for ty in [ty for _, ty in n.conclusion.gamma]
             + [e.type for e in n.conclusion.delta if e.type is not None]
             for ty in nodes(ty, children)}
    assert len(types) == len({print_type(ty) for ty in types.values()}) == 52


def test_unary_rules_that_keep_declarations_share_their_tuple():
    # finalize resolves each declaration tuple once: a BotI, BotE or ParrI
    # node, whose rule leaves its declarations as they are, holds the very
    # tuple that its premise holds, not an equal copy
    goals = [_INPUTS.ring_case(0, 48, random.Random(1)).sequent,
             _INPUTS.relay_case(0, 24, random.Random(1)).sequent]
    goals += [gen_derivation(GenConfig(seed=seed, max_nodes=24)).conclusion
              for seed in range(100)]
    keeping = {Rule.BOT_I, Rule.BOT_E, Rule.PARR_I}
    # per such node with a declaration: whether it holds its premise's tuple
    held = [n.conclusion.gamma is n.premises[0].conclusion.gamma
            for goal in goals for n in nodes(reconstruct(goal), premises_of)
            if n.rule in keeping and n.conclusion.gamma]
    assert (held.count(True), held.count(False)) == (576, 0)


# -- polarity pre-check -----------------------------------------------------------

def _workload_twins(n=400):
    """gen_derivation conclusions at the typecheck workload's sizes, each
    with its one-atom-swapped twin (None if it has no atom to swap)."""
    sizes = _INPUTS.TYPECHECK_MAX_NODES
    for seed in range(n):
        seq = gen_derivation(
            GenConfig(seed=seed, max_nodes=sizes[seed % len(sizes)])).conclusion
        sites = _INPUTS._atom_sites(seq)
        twin = (_INPUTS.swap_atom(seq, random.Random(seed).choice(sites))
                if sites else None)
        yield seq, twin


def test_polarity_balance_matches_bench_statement():
    twins = 0
    for seq, twin in _workload_twins():
        assert polarity_balance(seq) == {} == _INPUTS.polarity_balance(seq)
        if twin is not None:
            assert polarity_balance(twin) == _INPUTS.polarity_balance(twin) != {}
            twins += 1
    assert twins > 350


def test_swapped_twins_are_rejected_before_the_search(monkeypatch):
    # count-based: no twin reaches _Reconstructor.solve, and each names the
    # axiom link that must fail
    solves = _counting_solve(monkeypatch)
    for _, twin in _workload_twins():
        if twin is None:
            continue
        with pytest.raises(UnificationFailure) as info:
            reconstruct(twin)
        assert not solves
        short, over = sorted(polarity_balance(twin).items(),
                             key=lambda item: item[1])
        assert (short[1], over[1]) == (-1, 1)
        assert str(info.value) == f"cannot unify {short[0]} with {over[0]}"


def test_search_alone_rejects_swapped_twins():
    # the pre-check only anticipates the search's verdict
    for _, twin in _workload_twins():
        if twin is None:
            continue
        with pytest.raises(TypecheckError):
            reconstruct_module._Reconstructor(()).solve(twin)


def test_unbalanced_message_names_every_atom():
    with pytest.raises(UnificationFailure) as info:
        reconstruct(parse_program("x : A |- x : A -o A").sequent)
    assert str(info.value) == (
        "atoms occur unbalanced (positive minus negative occurrences): A -1")
    with pytest.raises(UnificationFailure) as info:
        reconstruct(parse_program("x : A, y : C |- x y : B").sequent)
    assert str(info.value).endswith(": A -1, B +1, C -1")


# -- surplus: a derivation is one tree ----------------------------------------

def test_every_derivable_sequent_has_surplus_one():
    # Ax, LolliE and ParrE are the only rules with other than one premise,
    # and each is one variable, application or binary output of the terms
    derivations = [gen_derivation(GenConfig(seed=seed, max_nodes=size))
                   for size in (12, 36) for seed in range(200)]
    rng = random.Random(1)
    cases = [_INPUTS.ring_case(0, n, rng) for n in range(8, 49, 8)]
    cases += [_INPUTS.relay_case(0, n, rng) for n in range(8, 49, 8)]
    derivations += [reconstruct(c.sequent) for c in cases]
    checked = 0
    for d in derivations:
        for node in nodes(d, premises_of):
            v, a, b = tree_counts(e.term for e in node.conclusion.delta)
            assert v - a - 2 * b == 1
            checked += 1
    assert checked > 10_000


@pytest.mark.parametrize("k", range(2, 9))
def test_goals_that_need_mix_are_rejected_before_the_search(monkeypatch, k):
    # f_i : A -o B, a_i : A |- f_i a_i : B for i < k: each application
    # typechecks alone, but together they need the MIX rule.  Balanced, so
    # the polarity pre-check passes them; a search over their placements
    # grows exponentially in k
    solves = _counting_solve(monkeypatch)
    decls = ", ".join(f"f{i} : A -o B, a{i} : A" for i in range(k))
    entries = ", ".join(f"f{i} a{i} : B" for i in range(k))
    goal = parse_program(f"{decls} |- {entries}").sequent
    assert polarity_balance(goal) == {}
    with pytest.raises(UnsatisfiableSplit) as info:
        reconstruct(goal)
    assert not solves
    assert str(info.value) == (
        f"the entries make {k} proof trees, not 1: {2 * k} variables - {k}"
        " applications - 2 * 0 binary outputs; lamp has no MIX rule")


def test_surplus_check_counts_binary_outputs_and_units():
    with pytest.raises(UnsatisfiableSplit) as info:
        reconstruct(parse_program("|- * : bot").sequent)
    assert str(info.value) == (
        "the entries make 0 proof trees, not 1: 0 variables - 0 applications"
        " - 2 * 0 binary outputs; lamp has no MIX rule")
    # a binary output joins three trees: its body's and each channel's
    reconstruct(parse_program(
        "p : A par B |- out2 x y. p : bot, x : A, y : B").sequent)
    with pytest.raises(UnsatisfiableSplit) as info:
        reconstruct(parse_program(
            "p : A par B, q : C |- out2 x y. p : bot, x : A, y : B, q : C").sequent)
    assert str(info.value) == (
        "the entries make 2 proof trees, not 1: 4 variables - 0 applications"
        " - 2 * 1 binary outputs; lamp has no MIX rule")


def test_a_split_whose_every_placement_is_pruned_says_so(monkeypatch):
    # the root split leaves no floating component, so its one placement is
    # built although its function premise has surplus 2 (the argument's is
    # 0); inside it, g a's split floats x, and x in either premise leaves
    # that premise two trees
    goal = parse_program("g : A -o B, a : A |- (out x. g a) * : B, x : bot").sequent
    solves = _counting_solve(monkeypatch)
    with pytest.raises(UnsatisfiableSplit) as info:
        reconstruct(goal)
    assert str(info.value) == ("no placement makes each premise one tree: "
                               "g : A -o B, a : A, x : ?t0 |- g a : B, x : bot")
    # the root, the function premise and its LolliI premise
    assert len(solves) == 3


def _derivation_size(d):
    return sum(1 for _ in nodes(d, premises_of))


@pytest.mark.parametrize("sizes", [(12,), (18, 19, 20, 21, 22)])
def test_search_does_not_backtrack_on_generated_programs(monkeypatch, sizes):
    # each solve call builds one node of the derivation found: no placement
    # the search tries fails
    solves = _counting_solve(monkeypatch)
    for size in sizes:
        for seed in range(300):
            solves.clear()
            d = reconstruct(gen_derivation(GenConfig(seed=seed, max_nodes=size)).conclusion)
            assert len(solves) == _derivation_size(d), (size, seed)


def test_search_at_max_nodes_40_backtracks_47_times(monkeypatch):
    # the calls that fail sit under applications to * and binary outputs
    # with a * payload: a unit adds no tree, and most of these splits leave
    # no floating component, so their one placement is built untested.  A
    # lower count is progress: lower the pin
    solves = _counting_solve(monkeypatch)
    extra = 0
    for seed in range(300):
        solves.clear()
        d = reconstruct(gen_derivation(GenConfig(seed=seed, max_nodes=40)).conclusion)
        extra += len(solves) - _derivation_size(d)
    assert extra == 47
