"""Concurrent execution of a typed program over one-shot channels.

Each top-level parallel component runs as a worker.  A worker repeatedly:

1. fires a redex local to its own term (beta steps and communications whose
   sender and receiver both live inside the component);
2. otherwise fires an applied output or binary output with a receiver in
   another component: its value fills that channel's cell, while a receiver
   in the same component gets its value in place;
3. otherwise consumes a filled cell for any channel occurring free in its
   term, substituting the delivered value.

Linearity makes every channel single use, so a cell is filled exactly once
and consumed exactly once; any second fill or consume aborts the run.  The
scheduler is a seeded simulation: worker order is reshuffled every round,
and any interleaving must produce the same final component multiset as the
sequential normalizer, which the test suite checks across many seeds.
Workers transmit asynchronously, exactly like the term-level rules: a
strictly blocking discipline could not run programs whose messages are
inert applications such as a pending function call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .reduction import _lca_is_par, apply_redex, comm_size, find_redexes, fire
from .terms import (
    Sequent, Term, flatten_par, free_index, replace_at, substitute, subterms,
)


class ChannelProtocolError(Exception):
    pass


@dataclass
class ChannelCell:
    name: str
    state: str = "empty"  # empty -> filled -> consumed
    value: Optional[Term] = None

    def fill(self, value: Term) -> None:
        if self.state != "empty":
            raise ChannelProtocolError(f"channel {self.name!r} filled twice")
        self.state = "filled"
        self.value = value

    def consume(self) -> Term:
        if self.state != "filled":
            raise ChannelProtocolError(
                f"channel {self.name!r} consumed while {self.state}")
        self.state = "consumed"
        value = self.value
        self.value = None
        return value


@dataclass
class DeadlockReport(Exception):
    blocked_workers: list[int]
    pending_channels: list[str]
    out_of_rounds: bool = False

    def __str__(self) -> str:
        how = "out of rounds" if self.out_of_rounds else "stuck"
        return (f"{how}: workers {self.blocked_workers} blocked, "
                f"channels {self.pending_channels} undelivered")


@dataclass
class _Worker:
    index: int
    term: Term

    def local_step(self) -> bool:
        redexes = find_redexes(self.term)
        if redexes:
            self.term = apply_redex(self.term, redexes[0])
            return True
        return False

    def send_step(self, cells: dict[str, ChannelCell]) -> bool:
        index = None
        for path, node in subterms(self.term):
            firing = fire(node)
            if firing is None or firing[0] == "beta":
                continue  # local_step has fired every beta redex
            if index is None:
                index = free_index(self.term)
            _, cont, sends = firing
            local = [index.get(x) for x, _ in sends]
            if all(local) or any(occ and not _lca_is_par(self.term, path, occ[0])
                                 for occ in local):
                continue  # fully local, so a redex; or not yet deliverable
            term = replace_at(self.term, path, cont)
            for (x, v), occ in zip(sends, local):
                if occ:
                    term = replace_at(term, occ[0], v)
                else:
                    cells.setdefault(x, ChannelCell(x)).fill(v)
            self.term = term
            return True
        return False

    def receive_step(self, cells: dict[str, ChannelCell]) -> bool:
        ready = [x for x in free_index(self.term)
                 if x in cells and cells[x].state == "filled"]
        if not ready:
            return False
        name = min(ready)
        self.term = substitute(self.term, name, cells[name].consume())
        return True


def run_concurrent(program: Sequent, seed: int = 0) -> list[Term]:
    """Run the program's top-level components concurrently and return the
    final component list (parallel spines flattened, worker order).

    The caller is expected to have typechecked the program; on typed input
    a DeadlockReport is unreachable and signals a bug."""
    term = program.joined_term()
    components = flatten_par(term)
    workers = [_Worker(i, t) for i, t in enumerate(components)]
    cells: dict[str, ChannelCell] = {}
    rng = random.Random(seed)
    # A round that progresses takes at least one step.  A linear program
    # takes at most 3 * comm_size steps: each Send or Dist node is removed
    # once, by a local step or a send step; each removal fills at most one
    # cell per Send and two per Dist; and each fill is consumed once.  Only
    # a program that copies a channel, which typechecking rules out, can
    # outrun the budget.
    rounds_left = 3 * comm_size(term) + 1

    while True:
        order = list(range(len(workers)))
        rng.shuffle(order)
        progressed = False
        for i in order:
            w = workers[i]
            if w.local_step() or w.send_step(cells) or w.receive_step(cells):
                progressed = True
        if not progressed:
            break
        rounds_left -= 1
        if rounds_left < 0:
            raise DeadlockReport(
                blocked_workers=[w.index for w in workers
                                 if find_redexes(w.term)],
                pending_channels=[c.name for c in cells.values()
                                  if c.state == "filled"],
                out_of_rounds=True)

    pending = [c.name for c in cells.values() if c.state == "filled"]
    stuck = [w.index for w in workers if find_redexes(w.term)]
    if pending or stuck:
        raise DeadlockReport(blocked_workers=stuck, pending_channels=pending)
    out: list[Term] = []
    for w in workers:
        out.extend(flatten_par(w.term))
    return out
