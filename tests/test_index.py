"""The free-occurrence index against the per-name walks it replaced.

``terms._scan`` finds every name's free occurrences in one pass (its
``free`` index); redex search, the runtime, the printer, ``substitute``
and ``is_free_in`` read it.  The oracles below are the walks lamp used
before: one ``occurrences`` walk per name, and a ``find_redexes`` that
walks the term once per channel.  Both must agree with the index on every
state normalize reaches, and on every state reachable at comm_size <= 6,
for 400 generated programs.  On the same states, the reducts that
enumerate and normalize build from one scan must be the ones
``apply_redex`` builds from each redex's paths.  ``substitute`` and
``is_free_in`` must agree with the one-name walk they used before,
``_old_free_cells``.
"""

from functools import lru_cache
from itertools import product

from hypothesis import example, given

from lamp.parser import parse_program, parse_term
from lamp.reduction import (
    Redex, _reducts, apply_redex, comm_size, find_redexes, normalize,
)
from lamp.terms import (
    App, Close, Dist, Par, Send, UNIT, Var, _path, _put, _scan, children,
    equal, flatten_par, is_free_in, occurrences, preorder, print_term,
    substitute, subterm_at, var_names,
)
from lamp.testlab import GenConfig, gen_derivation
from tests.test_terms import _names, _terms

DEPTH = 10_000


def _index(t):
    """The paths of every name's free occurrences in t, off one _scan."""
    return {x: [_path(c) for c in cells] for x, cells in _scan(t).free.items()}


# -- oracles: the per-name walks --------------------------------------------

def _old_subterms(t, prefix=()):
    yield prefix, t
    for i, c in enumerate(children(t)):
        yield from _old_subterms(c, prefix + (i,))


def _old_occurrences(t, x):
    found = []

    def walk(s, prefix):
        match s:
            case Var(y) if y == x:
                found.append(prefix)
            case Send(y, b):
                if y != x:
                    walk(b, prefix + (0,))
            case Dist(y, z, b):
                if x not in (y, z):
                    walk(b, prefix + (0,))
            case _:
                for i, c in enumerate(children(s)):
                    walk(c, prefix + (i,))

    walk(t, ())
    return found


def _old_free_cells(t, x):
    """The cells of the free occurrences of x in t, in preorder, by a walk
    of its own that makes a cell per node it enters and skips every binder
    for x: what substitute put at and is_free_in stopped at before both
    read _scan's index."""
    stack = [(None, 0, t)]
    while stack:
        c = stack.pop()
        s = c[2]
        cls = type(s)
        if cls is Var:
            if s[1] == x:
                yield c
        elif cls is Send:
            if s[1] != x:
                stack.append((c, 2, s[2]))
        elif cls is Dist:
            if s[1] != x and s[2] != x:
                stack.append((c, 3, s[3]))
        else:  # Unit has no children, App, Par and Close have them from 1
            for k in range(len(s) - 1, 0, -1):
                stack.append((c, k, s[k]))


def _old_lca_is_par(root, a, b):
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return isinstance(subterm_at(root, a[:n]), Par)


def _old_find_redexes(t):
    out = []
    for path, node in _old_subterms(t):
        match node:
            case App(Send(x, u), _):
                if _old_occurrences(u, x):
                    out.append(Redex("beta", path))
                    continue
                kind, chans = "comm", (x,)
            case Dist(x, y, Par()):
                kind, chans = "dist", (x, y)
            case _:
                continue
        choices = [[occ for occ in _old_occurrences(t, c)
                    if _old_lca_is_par(t, path, occ)] for c in chans]
        out.extend(Redex(kind, path, recv) for recv in product(*choices))
    out.sort(key=lambda r: (r.activator, r.receivers))
    return out


# -- the states both are compared on ----------------------------------------

def _reachable(t, limit=None):
    """Every state reachable from t, by a plain breadth-first search over
    every redex of every state: the oracle for enumerate_normal_forms,
    which follows one beta where it may.  None once more than limit
    states are found."""
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for s in frontier:
            for r in _old_find_redexes(s):
                s2 = apply_redex(s, r)
                if s2 not in seen:
                    seen.add(s2)
                    if limit is not None and len(seen) > limit:
                        return None
                    nxt.append(s2)
        frontier = nxt
    return seen


@lru_cache(maxsize=1)
def _states():
    """The 400 generated programs, every state normalize passes through,
    and, at comm_size <= 6, every state enumerate visits."""
    programs, states = [], []
    for max_nodes in (12, 36):
        for seed in range(200):
            t = gen_derivation(GenConfig(seed=seed, max_nodes=max_nodes)) \
                .conclusion.joined_term()
            programs.append(t)
            states.append(t)
            states += [s for _, s in normalize(t).steps]
            if comm_size(t) <= 6:
                states += _reachable(t)
    return programs, states


def test_free_index_matches_per_name_walk():
    _, states = _states()
    assert len(states) > 1000
    for t in states:
        index = _index(t)
        for x in var_names(t):
            assert index.get(x, []) == _old_occurrences(t, x), (print_term(t), x)
        assert set(index) <= var_names(t)


def test_find_redexes_matches_per_channel_search():
    _, states = _states()
    kinds = set()
    for t in states:
        redexes = find_redexes(t)
        assert redexes == _old_find_redexes(t), print_term(t)
        kinds |= {r.kind for r in redexes}
    assert kinds == {"beta", "comm", "dist"}


@given(_terms(4))
def test_free_index_matches_walk_on_untyped_terms(t):
    # names repeat, binders shadow and Dist may bind one name twice here
    index = _index(t)
    for x in var_names(t):
        assert index.get(x, []) == _old_occurrences(t, x)
    assert find_redexes(t) == _old_find_redexes(t)


@given(_terms(4))
def test_is_free_in_matches_index_on_untyped_terms(t):
    # is_free_in against the index, on t and on every subterm; Dist may
    # bind one name twice and inner binders shadow outer ones
    for _, s in preorder(t, children):
        index = _index(s)
        for x in var_names(t) | {"fresh"}:
            assert is_free_in(x, s) == (x in index), (print_term(s), x)


def test_is_free_in_respects_a_dist_binding_one_name_twice():
    t = Dist("x", "x", Par(Var("x"), Var("y")))
    assert not is_free_in("x", t) and "x" not in _index(t)
    assert is_free_in("y", t) and "y" in _index(t)
    t = Par(Var("x"), Dist("x", "x", Var("x")))
    assert is_free_in("x", t) and _index(t)["x"] == [(0,)]


# a Dist that binds one name twice, one that binds it second, and a Send
# rebound inside its own body, each beside a free occurrence of the name
@example(Par(Close(Var("x")), Dist("x", "x", Par(Var("x"), Var("x")))), "x", Var("q"))
@example(Par(Close(Var("x")), Dist("y", "x", Par(Var("x"), Var("y")))), "x", Var("q"))
@example(Par(Var("x"), Send("x", App(Send("x", Var("x")), Var("x")))), "x", Var("q"))
@given(_terms(4), _names, _terms(1))
def test_substitute_and_is_free_in_agree_with_the_free_cells_walk(t, x, s):
    cells = list(_old_free_cells(t, x))
    assert [_path(c) for c in _scan(t).free.get(x, ())] == [_path(c) for c in cells]
    for _, u in preorder(t, children):
        assert is_free_in(x, u) == (next(_old_free_cells(u, x), None) is not None)
    out = substitute(t, x, s)
    if cells:
        assert out == _put([(c, s) for c in cells])
    else:
        assert out is t


def _check_reducts_from_one_scan(t, normalizes=True):
    # what enumerate_normal_forms builds for t, in its order, where it
    # follows every redex
    redexes = find_redexes(t)
    assert list(_reducts(t)) == [apply_redex(t, r) for r in redexes], print_term(t)
    if not normalizes:
        return
    # normalize's first step and its text
    steps = normalize(t).steps
    if redexes:
        assert steps[0] == (redexes[0].describe(t), apply_redex(t, redexes[0]))
    else:
        assert steps == []


def test_reducts_from_one_scan_match_apply_redex():
    _, states = _states()
    for t in states:
        _check_reducts_from_one_scan(t)


@given(_terms(4))
def test_reducts_from_one_scan_match_apply_redex_on_untyped_terms(t):
    # several receivers per channel, and receivers that meet below the
    # activator's Par, only occur here; normalize runs only where no name
    # occurs twice, since a beta that copies may never terminate
    names = [s.name for _, s in preorder(t, children) if type(s) is Var]
    _check_reducts_from_one_scan(t, normalizes=len(names) == len(set(names)))


def test_print_parse_round_trip_on_generated_programs():
    programs, _ = _states()
    for t in programs:
        assert parse_term(print_term(t)) == t


# -- hand-built cases ---------------------------------------------------------

def test_index_follows_a_binder_flip():
    # out x. y  receives x in place of y along channel y: the binder for x
    # now binds the occurrence that was free, and prints as a lambda
    t = Par(App(Send("x", Var("y")), Var("v")),
            App(Send("y", UNIT), Var("x")))
    assert _index(t) == {"y": [(0, 0, 0)], "v": [(0, 1)], "x": [(1, 1)]}
    assert print_term(t) == "(out x. y) v | (out y. *) x"
    (r_y,) = [r for r in find_redexes(t) if r.activator == (1,)]
    t2 = apply_redex(t, r_y)
    assert t2 == Par(App(Send("x", Var("x")), Var("v")), UNIT)
    assert _index(t2) == {"v": [(0, 1)]}
    assert print_term(t2) == "(lam x. x) v | *"
    assert [r.kind for r in find_redexes(t2)] == ["beta"]


def test_index_lists_both_occurrences_of_a_non_linear_name():
    # one sender, two receivers: the race test_cli's enumerate reports
    t = parse_program("|- (out x. *) v | x | x : bot par (A par A)\n") \
        .sequent.joined_term()
    assert _index(t)["x"] == [(1, 0), (1, 1)]
    assert find_redexes(t) == [Redex("comm", (0,), ((1, 0),)),
                               Redex("comm", (0,), ((1, 1),))]
    assert find_redexes(t) == _old_find_redexes(t)


def test_receiver_beside_the_output_needs_a_par_between():
    # untypable: the output and its receiver meet at an application
    t = App(Var("x"), App(Send("x", UNIT), Var("v")))
    assert _index(t)["x"] == [(0,)]
    assert find_redexes(t) == _old_find_redexes(t) == []
    t = Par(Var("x"), App(Send("x", UNIT), Var("v")))
    assert find_redexes(t) == [Redex("comm", (1,), ((0,),))]


def test_dist_whose_body_is_not_a_par_is_no_activator():
    # out2 fires only on a parallel body; a Par under a Close or an App
    # does not count, and its channels' occurrences get no redex
    for body in (Var("z"), Close(Par(Var("u"), Var("v"))),
                 App(Par(Var("u"), Var("v")), UNIT)):
        t = Par(Dist("x", "y", body), Par(Var("x"), Var("y")))
        assert find_redexes(t) == _old_find_redexes(t) == []
    # a Dist with a Par body beside one without: only the first fires
    t = Par(Par(Dist("x", "y", Par(UNIT, UNIT)), Dist("u", "w", Var("z"))),
            Par(Par(Var("x"), Var("y")), Par(Var("u"), Var("w"))))
    assert find_redexes(t) == _old_find_redexes(t) \
        == [Redex("dist", (0, 0), ((1, 0, 0), (1, 0, 1)))]


def test_dist_receivers_that_meet_below_the_activators_par():
    # both receivers sit across the root Par from the activator, and their
    # paths meet at (1,), whose one rebuild must take both values
    t = Par(Dist("x", "y", Par(Var("s"), Var("u"))),
            Par(Var("x"), Close(Var("y"))))
    assert find_redexes(t) == [Redex("dist", (0,), ((1, 0), (1, 1, 0)))]
    want = Par(UNIT, Par(Var("s"), Close(Var("u"))))
    assert normalize(t).final == want
    assert list(_reducts(t)) == [want]


def test_inner_binder_for_the_same_name_shadows():
    assert _index(Send("x", Send("x", Var("x")))) == {}
    t = Send("x", Dist("x", "y", Par(Var("x"), Var("y"))))
    assert _index(t) == {}
    assert not is_free_in("x", t.body)
    assert print_term(t) == "out x. out2 x y. (x | y)"


# -- depth --------------------------------------------------------------------

def test_traversals_survive_a_term_ten_thousand_deep():
    deep = Var("x")
    for _ in range(DEPTH):
        deep = Close(deep)
    # one output whose receiver sits DEPTH closes down the other side
    t = Par(App(Send("x", UNIT), Var("v")), deep)
    receiver = (1,) + (0,) * DEPTH
    assert sum(1 for _ in preorder(t, children)) == DEPTH + 6
    assert _index(t) == {"v": [(0, 1)], "x": [receiver]}
    assert occurrences(t, "x") == [receiver]
    assert comm_size(t) == 1
    assert print_term(t) == "(out x. *) v | " + "close(" * DEPTH + "x" + ")" * DEPTH
    assert flatten_par(t) == [t.left, deep]
    assert find_redexes(t) == [Redex("comm", (0,), (receiver,))]
    trace = normalize(t)
    assert [desc for desc, _ in trace.steps] == ["Comm x"]
    assert subterm_at(trace.final, (0,)) == UNIT
    assert subterm_at(trace.final, receiver) == Var("v")
    assert find_redexes(trace.final) == []

    nested = Var("n0")
    for i in range(DEPTH):
        nested = Send(f"n{i}", nested)
    assert _index(nested) == {}
    assert comm_size(nested) == DEPTH
    assert find_redexes(nested) == []


def test_substitute_on_a_term_ten_thousand_deep():
    def chain(leaf):
        # closes and outputs on other names, DEPTH of them over leaf
        for i in range(DEPTH):
            leaf = Close(leaf) if i % 2 else Send(f"n{i}", leaf)
        return leaf

    # x free down one side, and bound by a Send at the top of the other
    t = Par(chain(Var("x")), Send("x", chain(Var("x"))))
    out = substitute(t, "x", UNIT)
    assert equal(out, Par(chain(UNIT), t.right)) and out.right is t.right
    assert is_free_in("x", t) and not is_free_in("x", out)
    assert substitute(out, "x", Var("y")) is out
