"""preorder and fold, the two walks over every tree in lamp, and what they
buy: terms, types and derivations of any depth at the default recursion
limit, and no function in src/lamp that calls itself outside a short list
of searches and bounded generators.  Beside them, a guard that the node
builders listed are the only code that makes a node from new fields, and
one that no function keeps a local it never reads."""

import ast
import sys

from lamp.derivations import (
    Derivation, Rule, check_derivation, premises_of,
)
from lamp.metatheory import check_subformula
from lamp.mll import (
    MllDerivation, MllRule, MllSequent, check_mll, mll_to_nmll, nmll_to_mll,
    type_erasure,
)
from lamp.parser import parse_term, parse_type
from lamp.reduction import comm_size, enumerate_normal_forms
from lamp.terms import (
    App, Atom, BOT, Close, DeltaEntry, Par, Send, Sequent, UNIT, Var,
    children, flatten_par, fold, nodes, print_term, print_type, subformulas,
)
from tests.conftest import SRC

A = Atom("A")
DEPTH = 2500


def test_fold_leaves_children_first_left_to_right():
    t = parse_term("(a | b) c")
    seen = []

    def leave(node, values):
        seen.append(node)
        return f"{node[0]}({','.join(values)})"

    assert fold(t, children, leave) == "App(Par(Var(),Var()),Var())"
    assert [print_term(n) for n in seen] == ["a", "b", "a | b", "c", "(a | b) c"]


# -- no recursion outside the searches and the bounded generators -----------

# the backward proof search, and two type generators whose depth is at
# most 2
ALLOWED = {"_Reconstructor.solve", "_Gen.leaf_type", "_MllGen._type"}


def _calls_itself(fn: ast.FunctionDef) -> bool:
    """Whether fn reads its own name, or self's attribute of that name: a
    call, or a reference passed on, as in map(self.solve, ...)."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == fn.name \
                and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == fn.name \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.value, ast.Name) and node.value.id == "self":
            return True
    return False


def _src_nodes():
    """Every AST node of src/lamp, after the names of its module and of
    the classes and functions around it (its own, if it is one)."""
    for path in sorted((SRC / "lamp").glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), (path.stem,))]
        while stack:
            node, scope = stack.pop()
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = scope + (child.name,)
                yield inner, child
                stack.append((child, inner))


def test_no_function_calls_itself():
    found = {".".join(scope[1:]) for scope, node in _src_nodes()
             if isinstance(node, ast.FunctionDef) and _calls_itself(node)}
    assert found <= ALLOWED, sorted(found - ALLOWED)


# -- the node builders: the only code that makes a node from new fields -----

# _Node's generated constructor; _put, which rebuilds a term around its
# edited positions; the parser's reader; reconstruct's finalize, which
# builds each solved entry, sequent and node; and intern, which rebuilds a
# type whose children interned to other objects
TUPLE_NEW_CALLERS = {
    "terms._Node.__init_subclass__.__new__", "terms._put", "terms.intern.leave",
    "parser._Reader.type_", "parser._Reader.term", "parser._Reader.sequent",
    "reconstruct._Reconstructor.finalize", "reconstruct._Reconstructor.finalize.entry",
    "reconstruct._Reconstructor.finalize.fix_seq",
}


def _is_tuple_new(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "__new__" \
        and isinstance(node.value, ast.Name) and node.value.id == "tuple"


def test_only_the_node_builders_call_tuple_new():
    # a call of tuple.__new__, or of a module-level name bound to it
    aliases = {(scope[0], target.id) for scope, node in _src_nodes()
               if len(scope) == 1 and isinstance(node, ast.Assign)
               and _is_tuple_new(node.value) for target in node.targets}
    found = {".".join(scope) for scope, node in _src_nodes()
             if isinstance(node, ast.Call) and (_is_tuple_new(node.func) or (
                 isinstance(node.func, ast.Name) and (scope[0], node.func.id) in aliases))}
    assert {"parser._new", "reconstruct._new"} <= {".".join(a) for a in aliases}
    assert found == TUPLE_NEW_CALLERS, sorted(found ^ TUPLE_NEW_CALLERS)


# -- no dead stores: every local a function assigns is read ----------------

def _unread_locals(fn: ast.FunctionDef) -> set[str]:
    """The names fn (or a function inside it) assigns and never reads,
    but for those starting with _; a nonlocal or global name counts as
    read, since its value outlives the call."""
    stored, read = set(), set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            (stored if isinstance(node.ctx, ast.Store) else read).add(node.id)
        elif isinstance(node, (ast.Nonlocal, ast.Global)):
            read.update(node.names)
    return {name for name in stored - read if not name.startswith("_")}


def test_no_function_assigns_a_local_it_never_reads():
    found = {f"{'.'.join(scope)}: {name}" for scope, node in _src_nodes()
             if isinstance(node, ast.FunctionDef)
             for name in _unread_locals(node)}
    assert not found, sorted(found)


# -- any depth at the default recursion limit ---------------------------------

def test_long_chains_parse_print_and_flatten():
    assert sys.getrecursionlimit() == 1000
    text = " | ".join(["*"] * 10_000)
    t = parse_term(text)
    assert print_term(t) == text
    assert flatten_par(t) == [UNIT] * 10_000
    assert comm_size(t) == 0
    for op in (" -o ", " par "):
        text = op.join(["A"] * 2000)
        assert print_type(parse_type(text)) == text


def test_deep_types_hash_print_and_yield_subformulas():
    assert sys.getrecursionlimit() == 1000
    for leaf, op in (("bot", " par "), ("A", " -o ")):
        text = op.join([leaf] * (2000 + 1))
        ty = parse_type(text)
        assert hash(ty) == hash(parse_type(text))
        assert print_type(ty) == text
        subs = subformulas(ty)
        assert len(subs) == 2000 + 1 and ty in subs
        # the declaration and the entry share the one type object
        check_subformula(Derivation(
            Rule.AX, Sequent((("x", ty),), (DeltaEntry(Var("x"), ty),))))


def test_deep_equal_types_pass_the_subformula_audit():
    # the declaration and the entry are two equal, distinct objects: the
    # audit numbers each once instead of comparing them whole
    assert sys.getrecursionlimit() == 1000
    for depth in (2000, 4000):
        text = " par ".join(["bot"] * (depth + 1))
        check_subformula(Derivation(Rule.AX, Sequent(
            (("x", parse_type(text)),), (DeltaEntry(Var("x"), parse_type(text)),))))


def test_enumerate_meets_one_copy_of_a_deep_state():
    # the comms on a and b, fired in either order, would rebuild the close
    # spine as equal, distinct objects, which the search's set compares
    # level by level; each state's first comm is fixed, so one order is
    # followed and no two such states meet
    assert sys.getrecursionlimit() == 1000
    deep = App(Send("b", UNIT), UNIT)
    for _ in range(2000):
        deep = Close(deep)
    t = Par(Par(App(Send("a", UNIT), UNIT), Var("a")), Par(deep, Var("b")))
    want = "(* | *) | " + "close(" * 2000 + "*" + ")" * 2000 + " | *"
    assert [print_term(n) for n in enumerate_normal_forms(t)] == [want]


def _nd_chain(n):
    """An axiom under n nodes, BotI and BotE in turn: each BotI adds
    * : bot, each BotE closes it."""
    star, closed = DeltaEntry(UNIT, BOT), DeltaEntry(Close(UNIT), None)
    d = Derivation(Rule.AX, Sequent((("x", A),), (DeltaEntry(Var("x"), A),)))
    for k in range(n):
        c = d.conclusion
        if k % 2 == 0:
            d = Derivation(Rule.BOT_I, Sequent(c.gamma, c.delta + (star,)), (d,))
        else:
            d = Derivation(Rule.BOT_E,
                           Sequent(c.gamma, c.delta[:-1] + (closed,)), (d,))
    return d


def test_natural_deduction_chain_checks_and_translates():
    assert sys.getrecursionlimit() == 1000
    d = _nd_chain(DEPTH)
    check_derivation(d)
    assert sum(1 for _ in nodes(d, premises_of)) == DEPTH + 1
    check_subformula(d)
    m = nmll_to_mll(d)
    check_mll(m)
    assert m.conclusion == type_erasure(d.conclusion)


def _mll_chain(n, cut):
    """An identity axiom under n nodes: BotR adds bot on the right; with
    cut, every second node cuts that bot against the bottom axiom."""
    m = MllDerivation(MllRule.AX_ID, MllSequent((A,), (A,)))
    axbot = MllDerivation(MllRule.AX_BOT, MllSequent((BOT,), ()))
    for k in range(n):
        c = m.conclusion
        if cut and k % 2:
            m = MllDerivation(MllRule.CUT, MllSequent(c.left, c.right[:-1]),
                              (m, axbot))
        else:
            m = MllDerivation(MllRule.BOT_R,
                              MllSequent(c.left, c.right + (BOT,)), (m,))
    return m


def test_sequent_chains_check_and_translate():
    assert sys.getrecursionlimit() == 1000
    for cut in (False, True):
        m = _mll_chain(DEPTH, cut)
        check_mll(m)
        d = mll_to_nmll(m)
        assert type_erasure(d.conclusion) == m.conclusion
        check_derivation(d)
