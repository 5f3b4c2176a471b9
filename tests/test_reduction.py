"""Reduction engine: redex discovery, firing, normalization, exhaustive
enumeration, and the call-by-value discipline."""

import hashlib
import random
from itertools import count

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lamp import reduction, terms
from lamp.parser import parse_program, parse_term
from lamp.reconstruct import tree_counts
from lamp.reduction import (
    BudgetExceeded, Redex, StaleRedex, Trace, apply_redex, cbv_trace,
    comm_size, enumerate_normal_forms, find_redexes, is_value, normalize,
)
from lamp.runtime import run_concurrent
from lamp.terms import (
    App, Close, Dist, Par, Send, UNIT, Var, _scan, children, flatten_par,
    join_par, nodes, print_term,
)
from lamp.testlab import GenConfig, gen_derivation
from tests.conftest import corpus_text
from tests.test_checker import _INPUTS
from tests.test_index import _old_find_redexes, _reachable
from tests.test_terms import _terms

# sha256 over 400 generated programs of everything the reducers print:
# normalize's trace, each cbv step, three concurrent runs and, for small
# programs, every normal form; pins the behaviour of the reduction rules
REDUCTION_DIGEST = \
    "597a5565560ac3167505217058ded8b9d7172fbb5f7b531b2b505ba897d8c3f7"


def test_comm_size_unit():
    assert comm_size(UNIT) == 0


def test_comm_size_single_binder():
    assert comm_size(App(Send("x", Var("x")), Var("y"))) == 1


def test_comm_size_cyclic_corpus():
    prog = parse_program(corpus_text("cyclic"))
    assert comm_size(prog.sequent.joined_term()) == 3


def test_find_beta():
    t = App(Send("x", Var("x")), Var("y"))
    rs = find_redexes(t)
    assert [r.kind for r in rs] == ["beta"]


def test_find_comm_across_par():
    t = Par(App(Send("x", UNIT), Var("u")), Var("x"))
    rs = find_redexes(t)
    assert [r.kind for r in rs] == ["comm"]
    assert rs[0].receivers == ((1,),)


def test_orphan_dist_is_inert():
    t = Dist("x", "y", Par(Var("s"), Var("t")))
    assert find_redexes(t) == []


def test_receiver_inside_activator_not_offered():
    # the lone x sits in the argument of its own output: no par in between
    t = App(Send("x", UNIT), Var("x"))
    assert find_redexes(t) == []


def test_apply_comm():
    t = Par(App(Send("x", UNIT), Var("v")), Var("x"))
    r = find_redexes(t)[0]
    assert apply_redex(t, r) == Par(UNIT, Var("v"))


def test_apply_beta():
    t = App(Send("x", Var("x")), Var("y"))
    assert apply_redex(t, find_redexes(t)[0]) == Var("y")


def test_apply_dist():
    t = Par(Par(Var("x"), Dist("x", "y", Par(Var("s"), Var("t")))), Var("y"))
    r = find_redexes(t)[0]
    assert r.kind == "dist"
    assert apply_redex(t, r) == Par(Par(Var("s"), UNIT), Var("t"))


def test_stale_redex_rejected():
    t = Par(App(Send("x", UNIT), Var("v")), Var("x"))
    r = find_redexes(t)[0]
    t2 = apply_redex(t, r)
    with pytest.raises(StaleRedex):
        apply_redex(t2, r)


@pytest.mark.parametrize("t,r", [
    # the receiver is the lambda's own bound x, not a free occurrence
    (Par(App(Send("x", UNIT), Var("v")), Send("x", Var("x"))),
     Redex("comm", (0,), ((1, 0),))),
    (Par(Par(Dist("x", "y", Par(Var("s"), Var("t"))), Send("x", Var("x"))),
         Var("y")),
     Redex("dist", (0, 0), ((0, 1, 0), (1,)))),
    # the receiver sits across a Par but is bound by the lambda above both
    (Send("x", Par(App(Send("x", UNIT), Var("v")), Var("x"))),
     Redex("comm", (0, 0), ((0, 1),))),
])
def test_apply_redex_sends_only_to_a_free_receiver(t, r):
    assert find_redexes(t) == []
    with pytest.raises(StaleRedex):
        apply_redex(t, r)


def test_capture_both_orders_reach_same_form():
    # x sends y's future value; y sends x's occurrence back: reducing in
    # either order ends at  v | *  , one order via capture-as-rebinding
    t = Par(App(Send("x", Var("y")), Var("v")),
            App(Send("y", UNIT), Var("x")))
    forms = enumerate_normal_forms(t)
    assert forms == {Par(Var("v"), UNIT)}
    # the capture route: communicate along y first
    r_y = [r for r in find_redexes(t) if r.activator == (1,)][0]
    t2 = apply_redex(t, r_y)
    assert t2 == Par(App(Send("x", Var("x")), Var("v")), UNIT)
    assert find_redexes(t2)[0].kind == "beta"


def test_normalize_single_beta():
    tr = normalize(App(Send("x", Var("x")), Var("y")))
    assert tr.final == Var("y")
    assert len(tr.steps) == 1


@pytest.mark.parametrize("n", [32, 64, 128])
def test_normalize_rescans_only_the_components_a_step_changes(monkeypatch, n):
    # a count guard, not a timing guard: the first state is scanned once per
    # component, then each ring step rescans the two components it changed
    # (sender and receiver), and the normal form needs no scan of its own
    calls = 0

    def counted(t):
        nonlocal calls
        calls += 1
        return _scan(t)

    monkeypatch.setattr(reduction, "_scan", counted)
    case = _INPUTS.ring_case(0, n, random.Random(n))
    t = case.sequent.joined_term()
    trace = normalize(t)
    assert len(trace.steps) == n + 1
    assert calls == len(flatten_par(t)) + 2 * len(trace.steps)


@pytest.mark.parametrize("name,final_components,steps", [
    ("client_server_request", ["cost prod", "*"], 4),
    ("client_server_dialogue", ["*", "pay (cost prod)"], 8),
    ("cyclic", ["enc2 (enc1 M)", "*", "*"], 3),
    ("channel_transmission", ["print M", "*", "*"], 3),
    ("excluded_middle", ["x", "out x. *"], 0),
])
def test_corpus_traces(name, final_components, steps):
    prog = parse_program(corpus_text(name))
    t = prog.sequent.joined_term()
    tr = normalize(t)
    assert len(tr.steps) == steps
    assert len(tr.steps) == comm_size(t) - comm_size(tr.final)
    assert [print_term(c) for c in flatten_par(tr.final)] == final_components


def test_enumerate_simple():
    assert enumerate_normal_forms(App(Send("x", Var("x")), Var("y"))) \
        == {Var("y")}


def test_enumerate_corpus_confluent():
    for name in ["client_server_request", "cyclic", "channel_transmission"]:
        prog = parse_program(corpus_text(name))
        forms = enumerate_normal_forms(prog.sequent.joined_term())
        assert len(forms) == 1


def test_enumerate_budget():
    prog = parse_program(corpus_text("client_server_dialogue"))
    with pytest.raises(BudgetExceeded):
        enumerate_normal_forms(prog.sequent.joined_term(), max_states=3)


@pytest.mark.parametrize("text,forms", [
    # linear: the comm on x1 and the beta on f join in one step, yet firing
    # the comm first loses the first form, so a diamond licenses no pruning
    ("(out x1. *) x2 | (lam f. f x1) (out x2. *)",
     {"(out x1. *) x1 | *", "* | (out x2. *) x2"}),
    # linear: both ends of the comm on x are fixed, yet it carries y and so
    # disables y's, whose activator is not: its value is not one-sided
    ("(out x. *) y | x ((out y. w) u)", {"* | u w", "* | y ((out y. w) u)"}),
    # linear: the comm on y is not fixed, as its activator is in the value
    # that the comm on x carries into an App argument
    ("(out x. *) ((out y. *) *) | (out z. y) x",
     {"* | (out z. *) *", "* | (out z. y) ((out y. *) *)"}),
    # linear: the comm on x is not fixed, as its receiver is in the value
    # that the comm on y carries into the App of x's activator
    ("(out x. *) y | (out y. *) x", {"(out x. *) x | *", "* | (out y. *) y"}),
    # linear: the comm on x is not fixed, as the Dist that y's comm sends
    # into x's value would land in x d, where its d is not across a Par
    ("(x d | (out x. *) y) | (out y. e) (out2 d e. (* | *))",
     {"((out2 d e. (* | *)) d | *) | e", "(* * | *) | *"}),
    # linear: the comm on x is not fixed, as its value holds an output on
    # y whose receiver is in the process of x's receiver
    ("x y | (out x. *) ((out y. *) *)", {"(out y. *) * y | *", "* * | *"}),
    # linear: an x in an App argument is not pinned, as the comm on a
    # carries it out of the beta's body
    ("(lam x. (out a. *) x) b | (out b. *) a",
     {"(out a. *) a | *", "(out x. *) x | *", "* | (out b. *) b"}),
    # not linear: a beta that copies its argument is no persistent set
    ("(lam x. x x) ((out c. *) w) | c",
     {"(out c. *) w * | w", "* ((out c. *) w) | w", "* * | w"}),
])
def test_enumerate_finds_every_normal_form_of_a_race(text, forms):
    t = parse_term(text)
    assert {print_term(n) for n in enumerate_normal_forms(t)} == forms


def test_maximal_traces_same_length():
    # explore every maximal reduction sequence of a small program and check
    # they all have length cs(t) - cs(nf)
    prog = parse_program(corpus_text("cyclic"))
    t0 = prog.sequent.joined_term()
    want = comm_size(t0) - comm_size(normalize(t0).final)
    seen_lengths = set()

    def walk(t, depth):
        rs = find_redexes(t)
        if not rs:
            seen_lengths.add(depth)
            return
        for r in rs:
            walk(apply_redex(t, r), depth + 1)

    walk(t0, 0)
    assert seen_lengths == {want}


def test_is_value():
    assert is_value(Send("x", UNIT))
    assert is_value(Par(Var("u"), Var("v")))
    assert not is_value(UNIT)
    assert not is_value(Var("x"))


def test_cbv_three_step_synchrony():
    # the synchronous handshake: the sender may only transmit once the
    # receiver's evaluation exposes the input variable
    t0 = parse_term("(out x. *) (lam a. a) | (lam z. z (x(y). y)) (lam k. k)")
    steps = cbv_trace(flatten_par(t0))
    rendered = [(d, print_term(join_par(s))) for d, s in steps]
    assert rendered == [
        ("Beta", "(out x. *) (lam a. a) | (lam k. k) ((lam y. y) x)"),
        ("Comm x", "* | (lam k. k) ((lam y. y) (lam a. a))"),
        ("Beta", "* | (lam k. k) (lam a. a)"),
        ("Beta", "* | lam a. a"),
    ]
    # the displayed synchronization is the three-step suffix
    assert [d for d, _ in rendered[1:]] == ["Comm x", "Beta", "Beta"]


def test_cbv_bare_input_stuck():
    assert cbv_trace([parse_term("x(y). y")]) == []


def test_cbv_open_variable_stuck():
    assert cbv_trace([Var("x")]) == []


def test_cbv_receiver_must_be_free():
    # the only x at an evaluation position of the other component is bound
    # by its out2, so the output has no receiver
    sender = App(Send("x", UNIT), Send("v", Var("v")))
    assert cbv_trace([sender, Dist("x", "y", Var("x"))]) == []
    assert cbv_trace([sender, Dist("u", "y", Var("x"))]) \
        == [("Comm x", [UNIT, Dist("u", "y", Send("v", Var("v")))])]
    assert cbv_trace([]) == []


def test_cbv_sender_blocks_until_receiver_ready():
    # u | x(y).w: receiver is exposed immediately, handshake fires
    t = parse_term("(out x. out q. *) (lam a. a) | x(y). y")
    steps = cbv_trace(flatten_par(t))
    assert steps[0][0] == "Comm x"


def _cbv_fired(components, redexes=find_redexes):
    """Per cbv step from components, in cbv_trace's order, its description
    and the first of redexes(state before it) that apply_redex turns into
    the state after it; and the final state.  Fails if a step is none of
    the asynchronous redexes of its state."""
    state, fired = join_par(components), []
    for desc, parts in cbv_trace(components):
        after = join_par(parts)
        hits = [r for r in redexes(state) if apply_redex(state, r) == after]
        assert hits, desc
        fired.append((desc, hits[0]))
        state = after
    return fired, state


def test_cbv_sound_wrt_asynchronous_engine():
    # a stuck-free cbv run ends at the one normal form, and every cbv
    # transition is literally one of the asynchronous redexes of its state
    t0 = parse_term("(out x. *) (lam a. a) | (lam z. z (x(y). y)) (lam k. k)")
    fired, final = _cbv_fired(flatten_par(t0))
    assert [(d, r.kind) for d, r in fired] == [
        ("Beta", "beta"), ("Comm x", "comm"), ("Beta", "beta"), ("Beta", "beta")]
    assert final == normalize(t0).final


def test_cbv_sound_on_generated_programs():
    for seed in range(150):
        t0 = gen_derivation(GenConfig(seed=seed, max_nodes=12)) \
            .conclusion.joined_term()
        _, final = _cbv_fired(flatten_par(t0))
        if not find_redexes(final):  # ran to completion, not merely stuck
            assert flatten_par(final) == flatten_par(normalize(t0).final)


def test_redexes_leftmost_outermost_order():
    prog = parse_program(corpus_text("cyclic"))
    rs = find_redexes(prog.sequent.joined_term())
    assert [r.activator for r in rs] == sorted(r.activator for r in rs)


def test_reduction_behaviour_is_byte_stable():
    h = hashlib.sha256()
    for max_nodes in (12, 36):
        for seed in range(200):
            seq = gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)) \
                .conclusion
            t = seq.joined_term()
            lines = [normalize(t).render()]
            lines += [f"{desc} => {print_term(join_par(state))}"
                      for desc, state in cbv_trace(flatten_par(t))]
            lines += [print_term(join_par(run_concurrent(seq, seed=r)))
                      for r in range(3)]
            if comm_size(t) <= 6:
                lines += sorted(print_term(n) for n in enumerate_normal_forms(t))
            h.update(("\n".join(lines) + "\n").encode())
    assert h.hexdigest() == REDUCTION_DIGEST


# -- enumerate's pruned search, against the plain breadth-first search -------

def _bfs_normal_forms(t, limit=None):
    """The normal forms _reachable finds from t; None past limit states."""
    states = _reachable(t, limit)
    return None if states is None else \
        {s for s in states if not _old_find_redexes(s)}


def test_enumerate_matches_the_plain_search_on_generated_programs(monkeypatch):
    visited = 0
    real = reduction._reducts

    def counted(*args):
        nonlocal visited
        visited += 1
        return real(*args)

    monkeypatch.setattr(reduction, "_reducts", counted)
    programs, bfs_states = 0, 0
    for max_nodes in (12, 36):
        for seed in range(200):
            t = gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)) \
                .conclusion.joined_term()
            if comm_size(t) > 8:
                continue
            programs += 1
            states = _reachable(t)
            bfs_states += len(states)
            want = {s for s in states if not _old_find_redexes(s)}
            assert enumerate_normal_forms(t) == want, print_term(t)
    # a count guard: generated programs are linear, and their betas are
    # mostly pinned, so a search that stops pruning visits the 9,254
    assert (programs, bfs_states, visited) == (333, 9254, 1455)


@pytest.mark.parametrize("n", range(6, 13))
def test_enumerate_follows_one_order_through_ring(monkeypatch, n):
    # ring fires only comms, each fixed where it is first in redex order,
    # so the search visits one order's n + 2 states of the 2^(n+1)
    visited = 0
    real = reduction._reducts

    def counted(*args):
        nonlocal visited
        visited += 1
        return real(*args)

    monkeypatch.setattr(reduction, "_reducts", counted)
    t = _INPUTS.ring_case(0, n, random.Random(n)).sequent.joined_term()
    forms = enumerate_normal_forms(t)
    states = _reachable(t)
    assert (visited, len(states)) == (n + 2, 2 ** (n + 1))
    assert forms == {s for s in states if not _old_find_redexes(s)}


@given(_terms(4))
def test_enumerate_matches_the_plain_search_on_untyped_terms(t):
    # most of these bind or use a name twice and take the unpruned path;
    # a beta that copies may never stop, so the oracle is bounded
    want = _bfs_normal_forms(t, 2000)
    assume(want is not None)
    assert enumerate_normal_forms(t) == want


# (arity, build) of each shape _linear_terms draws, leaves first; an
# applied Send, a beta or a comm once named, is listed twice
_SHAPES = [
    (0, lambda: UNIT), (0, lambda: Var("?")),
    (2, lambda u, v: App(Send("?", u), v)), (2, lambda u, v: App(Send("?", u), v)),
    (2, Par), (2, App), (2, lambda s, t: Dist("?", "?", Par(s, t))), (1, Close),
]


@st.composite
def _linear_terms(draw):
    """Untyped terms with unique binders, each bound name used at most
    once: one to four top-level processes, each a shape of applied Sends,
    Pars, Apps, binary outputs and closes, whose binders are named apart in
    preorder.  Each variable takes a binder's name not yet used, most often
    its innermost enclosing one's, or a free name."""
    def shape(depth):
        arity, build = draw(st.sampled_from(_SHAPES if depth else _SHAPES[:2]))
        return build(*(shape(depth - 1) for _ in range(arity)))

    t = join_par([shape(draw(st.integers(1, 4)))
                  for _ in range(draw(st.integers(1, 4)))])
    names = iter(count())
    unused = [f"n{i}" for i in range(sum(
        len(s[1:s._first]) for s in nodes(t, children) if type(s) is not Var))]

    def named(s, scope):
        if type(s) is Var:
            mine = [x for x in scope if x in unused][-1:]
            x = draw(st.sampled_from(mine * 2 + unused + ["free"]))
            if x in unused:
                unused.remove(x)
            return Var(x)
        binds = [f"n{next(names)}" for _ in s[1:s._first]]
        return type(s)(*binds, *(named(k, scope + binds) for k in children(s)))

    return named(t, [])


# the plain search on four processes can take longer than hypothesis's
# deadline on a slow or busy machine, and a verdict must not depend on that
@settings(deadline=None)
@given(_linear_terms())
def test_enumerate_matches_the_plain_search_on_linear_terms(t):
    assert reduction._linear(t) is not None
    assert enumerate_normal_forms(t) == _bfs_normal_forms(t)


def _binder(t, r):
    """The name of the Send or the first name of the Dist that fires r."""
    node = terms.subterm_at(t, r.activator)
    return node[1] if type(node) is Dist else node[1][1]


def _fire_on(t, x):
    """t after its redex on binder x, or None if t has none."""
    for r in find_redexes(t):
        if _binder(t, r) == x:
            return apply_redex(t, r)
    return None


@settings(deadline=None)
@given(_linear_terms())
def test_redexes_on_distinct_binders_commute(t):
    # the third point of enumerate_normal_forms' argument: of two redexes
    # that each stay a redex after the other fires, both orders meet; a
    # pair where one disables the other is skipped
    binders = sorted({_binder(t, r) for r in find_redexes(t)})
    for k, x in enumerate(binders):
        for y in binders[k + 1:]:
            xy, yx = _fire_on(t, x), _fire_on(t, y)
            xy = xy and _fire_on(xy, y)
            yx = yx and _fire_on(yx, x)
            if xy is not None and yx is not None:
                assert xy == yx, (print_term(t), x, y)


# what each rule removes from a term's (variables, applications, binary
# outputs): beta and comm an App and the variable the value replaces, dist
# the Dist and its two receivers
_REMOVED = {"beta": (1, 1, 0), "comm": (1, 1, 0), "dist": (2, 0, 1)}


@settings(deadline=None)
@given(_linear_terms())
def test_each_reduct_keeps_the_surplus(t):
    # variables - applications - 2 * binary outputs counts a typed term's
    # proof trees (reconstruct.tree_counts), so reduction keeps it
    before = tree_counts([t])
    for r, u in zip(find_redexes(t), reduction._reducts(t), strict=True):
        after = tree_counts([u])
        assert tuple(b - a for b, a in zip(before, after)) == _REMOVED[r.kind]


def _old_linear(t):
    """reduction._linear as its own walk over t, before it read the name
    census: no name bound twice, by a Send or by either name of a Dist,
    and no bound name used twice as a variable."""
    bound, uses = [], {}
    for s in nodes(t, children):
        if type(s) is Var:
            uses[s[1]] = uses.get(s[1], 0) + 1
        elif type(s) is Send:
            bound.append(s[1])
        elif type(s) is Dist:
            bound += s[1:3]
    return len(set(bound)) == len(bound) and all(uses.get(x, 0) < 2 for x in bound)


@given(st.one_of(_terms(4), _linear_terms()))
def test_linear_reads_the_census_as_its_old_walk_did(t):
    assert (reduction._linear(t) is not None) == _old_linear(t)


def _old_pinned(lam):
    """reduction._pinned as a walk of lam's body, before it climbed from
    the occurrences _scan finds: whether lam x. u has an x reached from u
    through no App argument and no Dist body.  It ignores binders for x
    inside u, which a linear term has none of."""
    x, stack = lam[1], [lam[2]]
    while stack:
        s = stack.pop()
        cls = type(s)
        if cls is Var:
            if s[1] == x:
                return True
        elif cls is App:
            stack.append(s[1])
        elif cls is Par:
            stack += s[1:]
        elif cls is Send or cls is Close:
            stack.append(s[-1])
    return False


# a lambda whose variable sits in a Dist body, and one whose variable is
# an App argument, inside its body
@example(App(Send("a", Dist("b", "c", Par(Var("a"), Var("b")))), UNIT))
@example(App(Send("a", App(Var("f"), Var("a"))), UNIT))
@settings(deadline=None)
@given(_linear_terms())
def test_pinned_climb_agrees_with_the_body_walk(t):
    # every lambda activator of every state reachable from t
    for s in _reachable(t):
        scan = _scan(s)
        for act in scan.acts:
            lam = act[2][1]
            if type(lam) is Send and id(lam) in scan.lams:
                assert reduction._pinned(lam, scan.lams[id(lam)]) == _old_pinned(lam), \
                    print_term(s)


# -- states as components, against the per-channel oracle --------------------

SIZES = range(8, 49, 8)


def _programs():
    """The 400 generated programs, then ring(n) and relay(n), n = 8..48."""
    for max_nodes in (12, 36):
        for seed in range(200):
            yield gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)) \
                .conclusion.joined_term()
    rng = random.Random(2)
    for make in (_INPUTS.ring_case, _INPUTS.relay_case):
        for n in SIZES:
            yield make(0, n, rng).sequent.joined_term()


def _render_alone(trace):
    """Trace.render's lines, each state printed on its own without a memo."""
    return [print_term(trace.initial)] + [
        f"step {k}: {desc} => {print_term(t)}"
        for k, (desc, t) in enumerate(trace.steps, start=1)]


def _check_against_oracle(t):
    """Every normalize step fires the oracle's first redex of its state,
    every cbv step one of the oracle's redexes, and both traces render
    as their states print alone."""
    trace = normalize(t)
    state = t
    for desc, nxt in trace.steps:
        first = _old_find_redexes(state)[0]
        assert (desc, nxt) == (first.describe(state), apply_redex(state, first))
        state = nxt
    assert _old_find_redexes(state) == []
    assert trace.render().split("\n") == _render_alone(trace)

    comps = flatten_par(t)
    cbv = Trace(t, [])
    for desc, after in cbv_trace(comps):
        joined, nxt = join_par(comps), join_par(after)
        assert any((r.describe(joined), apply_redex(joined, r)) == (desc, nxt)
                   for r in _old_find_redexes(joined)), print_term(joined)
        cbv.steps.append((desc, nxt))
        comps = after
    assert cbv.render().split("\n") == _render_alone(cbv)
    return len(trace.steps) + len(cbv.steps)


def test_every_step_matches_the_per_channel_oracle():
    steps = sum(map(_check_against_oracle, _programs()))
    assert steps > 2000


# hand-made states: (term, the lines its normalize trace renders)
EDGE_SHAPES = {
    # component 0 turns into a Par, whose halves then communicate
    "component 0 is a Par": (
        Par(App(Send("x", Par(App(Send("y", UNIT), Var("w")), Var("y"))),
                Var("v")), Var("x")),
        ["(out x. ((out y. *) w | y)) v | x",
         "step 1: Comm x => ((out y. *) w | y) | v",
         "step 2: Comm y => (* | w) | v"]),
    # a right-hand component nested to the right, as the parser nests
    "a right-hand component is a Par": (
        Par(App(Send("x", UNIT), Var("v")), Par(Var("u"), Var("x"))),
        ["(out x. *) v | u | x", "step 1: Comm x => * | u | v"]),
    # sender and receiver meet at a Par inside one component
    "receiver in the activator's own component": (
        Par(Var("u"), Close(Par(App(Send("x", UNIT), Var("v")), Var("x")))),
        ["u | close((out x. *) v | x)", "step 1: Comm x => u | close(* | v)"]),
    "a Dist with receivers in two other components": (
        join_par([Dist("x", "y", Par(Var("s"), Var("t"))), Close(Var("x")),
                  App(Var("f"), Var("y"))]),
        ["(out2 x y. (s | t) | close(x)) | f y",
         "step 1: Dist x y => (* | close(s)) | f t"]),
    # the Send over z is rebuilt, and z occurs only in f z, which state 0
    # printed: its lam comes from the component's scan, not the memo
    "a rebuilt Send bound in an unchanged subtree": (
        Par(App(Send("x", UNIT), Var("v")),
            Send("z", App(App(Var("f"), Var("z")), Var("x")))),
        ["(out x. *) v | lam z. f z x", "step 1: Comm x => * | lam z. f z v"]),
    # x is asked about while its occurrence sits beside its output, not
    # across a Par; the Comm y moves it into component 1, where x reaches it
    "a channel whose occurrence moves to another component": (
        Par(App(Send("x", UNIT), App(Send("y", UNIT), Var("x"))), Var("y")),
        ["(out x. *) ((out y. *) x) | y", "step 1: Comm y => (out x. *) * | x",
         "step 2: Comm x => * | *"]),
    # the receiver's value turns its binder from an output into a lambda
    "a binder that flips": (
        Par(App(Send("y", UNIT), Var("x")), App(Send("x", Var("y")), Var("v"))),
        ["(out y. *) x | (out x. y) v", "step 1: Comm y => * | (lam x. x) v",
         "step 2: Beta => * | v"]),
    # a race: x is free in two other components, and the first receives;
    # the value lets cbv fire it too
    "a channel free in two other components": (
        join_par([App(Send("x", UNIT), Send("a", Var("a"))), Var("x"), Var("x")]),
        ["((out x. *) (lam a. a) | x) | x", "step 1: Comm x => (* | lam a. a) | x"]),
}


@pytest.mark.parametrize("name", EDGE_SHAPES)
def test_edge_shapes_reduce_and_render_as_the_oracle_says(name):
    t, lines = EDGE_SHAPES[name]
    _check_against_oracle(t)
    assert normalize(t).render().split("\n") == lines


def test_cbv_with_a_par_as_component_0():
    # cbv keeps the components it is given: a Par component is one value
    # and the handshake into component 1 still fires
    comps = [Par(Var("u"), Var("w")), App(Send("x", UNIT), Send("a", Var("a"))),
             App(Send("k", Var("k")), Var("x"))]
    steps = cbv_trace(comps)
    assert [(d, [print_term(c) for c in s]) for d, s in steps] == [
        ("Comm x", ["u | w", "*", "(lam k. k) (lam a. a)"]),
        ("Beta", ["u | w", "*", "lam a. a"])]
    # each step is one of the per-channel oracle's redexes of its state
    _cbv_fired(comps, _old_find_redexes)


# -- work counters, not wall time ----------------------------------------------

def _work(monkeypatch, t):
    """The nodes _scan visits and the nodes _print prints anew (a node the
    memo holds is copied, not printed) over normalize(t).render()."""
    scanned = printed = 0
    scan, print_ = terms._scan, terms._print

    def counted_scan(u):
        nonlocal scanned
        scanned += sum(1 for _ in nodes(u, children))
        return scan(u)

    def counted_print(u, memo, lams):
        nonlocal printed
        stack = [u]
        while stack:
            s = stack.pop()
            if memo is None or len(s) == s._first or id(s) not in memo:
                printed += 1
                stack.extend(children(s))
        return print_(u, memo, lams)

    monkeypatch.setattr(terms, "_scan", counted_scan)
    monkeypatch.setattr(reduction, "_scan", counted_scan)
    monkeypatch.setattr(terms, "_print", counted_print)
    trace = normalize(t)
    trace.render()
    return scanned, printed, len(trace.steps)


def test_relay_work_grows_linearly(monkeypatch):
    # each relay step changes one or two small components
    small = _work(monkeypatch, _INPUTS.relay_case(0, 64, random.Random(0))
                  .sequent.joined_term())
    big = _work(monkeypatch, _INPUTS.relay_case(0, 128, random.Random(0))
                .sequent.joined_term())
    assert big[0] <= 2.2 * small[0] and big[1] <= 2.2 * small[1], (small, big)


def test_ring_work_is_a_fraction_of_rescanning_every_state(monkeypatch):
    # ring forwards a value that grows with n, so the component receiving
    # it is rescanned whole each step and ring stays quadratic; printing
    # copies that value from the memo
    t = _INPUTS.ring_case(0, 256, random.Random(0)).sequent.joined_term()
    scanned, printed, steps = _work(monkeypatch, t)
    whole = steps * sum(1 for _ in nodes(t, children))
    assert scanned <= whole / 3 and printed <= whole / 3, (scanned, printed, whole)
