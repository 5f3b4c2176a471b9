"""Bounded exhaustive completeness probe for the typechecker.

Forward-close the typing rules over all derivable sequents up to a small
size bound (names canonicalized so each sequent is counted once), then
assert that reconstruction succeeds on every single one.  Completeness of
the backward strategy is not proved, so this is the strongest evidence the
artifact can offer: below the bound there are no counterexamples at all.
"""

import hashlib

from lamp.derivations import Rule, axiom
from lamp.reconstruct import reconstruct
from lamp.terms import Atom, BOT, Dist, Sequent, children, nodes, print_sequent
from lamp.testlab import FORWARD, _canonical, _size, closure

TYPES = [Atom("A"), BOT]
MAX_SIZE = 7

# sha256 of the sorted print_sequent lines, joined by newlines, of every
# sequent the probe checks; pins the set so a change to the rules or to the
# closure cannot shrink it unnoticed
DIGEST = "697820ee1f5f87367a275f49a941badaaaa119e9891e71347f2a0cb61ed668f6"


def _dist_layer(seen):
    """One binary-output elimination over every par-typed entry, receiving
    into two fresh axioms, plus the close of the resulting bot entry, both
    in place and moved to the front."""
    parr_e, bot_e = FORWARD[Rule.PARR_E], FORWARD[Rule.BOT_E]
    out = set()
    for s in seen:
        for j in parr_e.premises[0](s, None):
            e = s.delta[j]
            # canonical names all start with n, so r0 and r1 are fresh
            con = parr_e.conclusion(
                (s, axiom("r0", e.type.left), axiom("r1", e.type.right)),
                (j, 0, 0))
            out.add(_canonical(con))
            out.add(_canonical(bot_e.conclusion((con,), (j,))))
            front = Sequent(con.gamma,
                            (con.delta[j],) + con.delta[:j] + con.delta[j + 1:])
            out.add(_canonical(bot_e.conclusion((front,), (0,))))
    return out


def test_reconstruct_complete_up_to_bound():
    seen = closure(TYPES, MAX_SIZE)
    extra = _dist_layer(seen)
    assert (len(seen), len(extra), len(seen | extra)) == (579, 603, 1182)
    assert any(isinstance(sub, Dist)
               for s in extra for e in s.delta for sub in nodes(e.term, children))
    lines = sorted(print_sequent(s) for s in seen | extra)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
    for s in sorted(seen | extra, key=_size):
        d = reconstruct(s)
        assert d.conclusion == s
