"""S-expression serialization for derivations: ``(Rule "sequent" premise*)``.

Sequents are embedded as quoted strings in the program-file grammar (types
only, for sequent calculus derivations).  The writer indents one premise
per line so golden files diff cleanly; the reader accepts any whitespace.
"""

from __future__ import annotations

from .derivations import Derivation, Rule
from .mll import MllDerivation, MllRule, MllSequent, print_mll_sequent
from .parser import ParseError, _Parser
from .terms import Sequent, print_sequent

_NMLL_TAGS = {r.value: r for r in Rule}
_MLL_TAGS = {r.value: r for r in MllRule}


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
    # nodes share their unchanged entries: each is printed once
    memo: dict[int, str] = {}
    return _write(d, lambda s: print_sequent(s, memo))


def mll_to_sexpr(d: MllDerivation) -> str:
    return _write(d, print_mll_sequent)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


# -- reading ----------------------------------------------------------------

def _lex(text: str) -> list[str]:
    toks: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            toks.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            buf = []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= len(text):
                raise ParseError("unterminated string in s-expression")
            toks.append('"' + "".join(buf))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            toks.append(text[i:j])
            i = j
    return toks


def _read_tree(toks: list[str], pos: int):
    if pos >= len(toks) or toks[pos] != "(":
        raise ParseError("expected '(' in s-expression")
    pos += 1
    if pos >= len(toks) or toks[pos] in '()':
        raise ParseError("expected rule tag")
    tag = toks[pos]
    pos += 1
    if pos >= len(toks) or not toks[pos].startswith('"'):
        raise ParseError("expected quoted sequent")
    seq_text = toks[pos][1:]
    pos += 1
    premises = []
    while pos < len(toks) and toks[pos] == "(":
        sub, pos = _read_tree(toks, pos)
        premises.append(sub)
    if pos >= len(toks) or toks[pos] != ")":
        raise ParseError("expected ')' in s-expression")
    return (tag, seq_text, premises), pos + 1


def _read_all(text: str):
    toks = _lex(text)
    tree, pos = _read_tree(toks, 0)
    if pos < len(toks):
        raise ParseError(f"trailing input {toks[pos]!r} after s-expression")
    return tree


def parse_sequent_text(text: str) -> Sequent:
    p = _Parser(text)
    s = p.sequent()
    return s


def parse_mll_sequent_text(text: str) -> MllSequent:
    if "|-" not in text:
        raise ParseError("missing |- in sequent")
    left_text, right_text = text.split("|-", 1)
    from .parser import parse_type

    def types(part: str):
        part = part.strip()
        if not part:
            return ()
        return tuple(parse_type(p.strip()) for p in _split_types(part))

    return MllSequent(types(left_text), types(right_text))


def _split_types(part: str) -> list[str]:
    # commas never occur inside the type grammar, so a plain split is safe
    return part.split(",")


def sexpr_to_derivation(text: str) -> Derivation:
    tree = _read_all(text)

    def build(node) -> Derivation:
        tag, seq_text, premises = node
        if tag not in _NMLL_TAGS:
            raise ParseError(f"unknown rule tag {tag!r}")
        return Derivation(_NMLL_TAGS[tag], parse_sequent_text(seq_text),
                          tuple(build(p) for p in premises))

    return build(tree)


def sexpr_to_mll(text: str) -> MllDerivation:
    tree = _read_all(text)

    def build(node) -> MllDerivation:
        tag, seq_text, premises = node
        if tag not in _MLL_TAGS:
            raise ParseError(f"unknown rule tag {tag!r}")
        return MllDerivation(_MLL_TAGS[tag], parse_mll_sequent_text(seq_text),
                             tuple(build(p) for p in premises))

    return build(tree)
