"""S-expression serialization for derivations: ``(Rule "sequent" premise*)``.

Sequents are embedded as quoted strings in the program-file grammar (types
only, for sequent calculus derivations).  The writer indents one premise
per line so golden files diff cleanly; the reader accepts any whitespace.
"""

from __future__ import annotations

import re
from operator import itemgetter

from .derivations import Derivation, Rule
from .parser import ParseError, parse_sequent, parse_type_sides
from .terms import fold, nodes, print_sequent

# the MLL writer and reader import mll themselves: lamp check, which uses
# neither, then never compiles it
_NMLL_TAGS = {r.value: r for r in Rule}


def _write(d, sequent_text) -> str:
    """One line per node, indented two spaces per level; a node's closing
    parenthesis ends the line of the last node of its subtree.  Works for
    both derivation kinds, at any depth."""
    lines = []
    stack = [(d, 0, 1)]  # node, depth, parentheses closing after its subtree
    while stack:
        node, depth, closing = stack.pop()
        text = _quote(sequent_text(node.conclusion))
        line = f"{'  ' * depth}({node.rule.value} {text}"
        last = len(node.premises) - 1
        if last < 0:
            lines.append(line + ")" * closing)
            continue
        lines.append(line)
        for k in range(last, -1, -1):
            stack.append((node.premises[k], depth + 1, closing + 1 if k == last else 1))
    return "\n".join(lines)


def derivation_to_sexpr(d: Derivation) -> str:
    # nodes share their unchanged entries, and entries their subterms and
    # subtypes: through one span memo each shared object is printed once
    memo: dict = {}
    return _write(d, lambda s: print_sequent(s, memo))


def mll_to_sexpr(d: Derivation) -> str:
    # nodes share their unchanged types: through one span memo each shared
    # type is printed once
    from .mll import print_mll_sequent
    memo: dict = {}
    return _write(d, lambda s: print_mll_sequent(s, memo))


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# -- reading ----------------------------------------------------------------

_SEXPR_TOKEN = re.compile(r'\s+|[()]|"([^"\\]*(?:\\.[^"\\]*)*)"|[^\s()"]+', re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _lex(text: str) -> list[str]:
    """Parentheses, atoms, and quoted strings with their escapes undone,
    kept as '"' plus their content."""
    toks: list[str] = []
    pos = 0
    for m in _SEXPR_TOKEN.finditer(text):
        if m.start() != pos:
            break  # only a '"' starts no token: its string never closes
        pos = m.end()
        tok = m.group()
        if tok[0] == '"':
            toks.append('"' + _ESCAPE.sub(r"\1", m.group(1)))
        elif not tok[0].isspace():
            toks.append(tok)
    if pos < len(text):
        raise ParseError("unterminated string in s-expression")
    return toks


_PREMISES = itemgetter(2)  # of a node that _read_all returns


def _read_all(text: str):
    """The tree of (tag, sequent text, premises) nodes that text spells,
    read with an explicit stack of open nodes."""
    toks = _lex(text)
    pos = 0
    open_nodes: list[tuple[str, str, list]] = []
    while True:
        if pos >= len(toks) or toks[pos] != "(":
            raise ParseError("expected '(' in s-expression")
        pos += 1
        # a tag is an atom: neither a parenthesis nor a quoted string
        if pos >= len(toks) or toks[pos][0] in '()"':
            raise ParseError("expected rule tag")
        tag = toks[pos]
        pos += 1
        if pos >= len(toks) or not toks[pos].startswith('"'):
            raise ParseError("expected quoted sequent")
        open_nodes.append((tag, toks[pos][1:], []))
        pos += 1
        # close every node that ends before the next premise starts
        while pos >= len(toks) or toks[pos] != "(":
            if pos >= len(toks) or toks[pos] != ")":
                raise ParseError("expected ')' in s-expression")
            pos += 1
            node = open_nodes.pop()
            if not open_nodes:
                if pos < len(toks):
                    raise ParseError(f"trailing input {toks[pos]!r} after s-expression")
                return node
            open_nodes[-1][2].append(node)


def parse_mll_sequent_text(text: str) -> MllSequent:
    """Types separated by ',', then '|-', then types; a side may be empty."""
    from .mll import MllSequent
    return MllSequent(*parse_type_sides(text))


def _build(text: str, tags: dict, parse_sequent) -> Derivation:
    """The derivation text spells.  Tags and sequents are checked in
    preorder, the order a reader meets them."""
    tree = _read_all(text)
    parsed = {}
    for node in nodes(tree, _PREMISES):
        tag, seq_text, _ = node
        if tag not in tags:
            raise ParseError(f"unknown rule tag {tag!r}")
        parsed[id(node)] = tags[tag], parse_sequent(seq_text)
    return fold(tree, _PREMISES,
                lambda node, subs: Derivation(*parsed[id(node)], tuple(subs)))


def sexpr_to_derivation(text: str) -> Derivation:
    return _build(text, _NMLL_TAGS, parse_sequent)


def sexpr_to_mll(text: str) -> Derivation:
    from .mll import MllRule
    return _build(text, {r.value: r for r in MllRule}, parse_mll_sequent_text)
