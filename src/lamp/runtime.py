"""Concurrent execution of a typed program over one-shot channels.

Each top-level parallel component runs as a worker.  A worker repeatedly:

1. fires a redex local to its own term (beta steps and communications whose
   sender and receiver both live inside the component);
2. otherwise fires an applied output or binary output with a receiver in
   another component: its value fills that channel's cell, while a receiver
   in the same component gets its value in place;
3. otherwise consumes a filled cell for any channel occurring free in its
   term, putting the delivered value at that channel's free occurrences,
   which the poll's scan already holds.

A poll reads the worker's term as a reduction state of one component (see
``reduction._State``), so local redexes are found by the same search
normalize uses.  Every poll scans the term afresh: nearly every poll
follows a step of its worker, which changed the term, and a scan kept
through sleep and wake-up served 10 of 3,391 polls on one pass of the
bench's ring programs.

Linearity makes every channel single use, so a cell is filled exactly once
and consumed exactly once; any second fill or consume aborts the run.  The
scheduler is a seeded simulation: worker order is reshuffled every round,
and any interleaving must produce the same final component multiset as the
sequential normalizer, which the test suite checks across many seeds.
A worker whose poll makes no progress sleeps until a cell for a name free
in its term is filled: nothing else can change what a poll of that term
finds, so the schedule is the same as if it were polled every round
(workers that never sleep are polled 30,804 times on that ring pass).
Workers transmit asynchronously, exactly like the term-level rules: a
strictly blocking discipline could not run programs whose messages are
inert applications such as a pending function call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .reduction import (
    _State, _changed, _receivers, _redexes, comm_size, fire,
)
from .terms import Sequent, Term, _put, _scan, flatten_par


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
    # set while a poll has made no progress and no cell for a name free
    # in term has been filled since: polling it again would do nothing
    asleep: bool = False

    def poll(self, cells: dict[str, ChannelCell],
             fill: Callable[[str, Term, int], None]) -> Optional[list[str]]:
        """Take one step if the worker can; return None if it did, else the
        names free in its term, whose fills are what can wake it."""
        state = _State([self.term])
        first = next(_redexes(state), None)
        if first is not None:
            self.term = _changed(*first)[0]
            return None
        scan = state.scans[0]
        if self.send_step(state, fill):
            return None
        ready = [x for x in scan.free
                 if x in cells and cells[x].state == "filled"]
        if ready:
            name = min(ready)
            value = cells[name].consume()
            self.term = _put([(c, value) for c in scan.free[name]])
            return None
        return list(scan.free)

    def send_step(self, state: _State, fill: Callable[[str, Term, int], None]) -> bool:
        """Fire an activator of state, the poll's one-component state of
        term, with a receiver in another component (poll has fired every
        redex, betas too): its value fills that channel's cell, while a
        channel free in term gets its value at the first receiver
        _receivers gives, and with none the activator waits."""
        scan = state.scans[0]
        for act in scan.acts:
            kind, cont, sends = fire(act[2], scan.lams)
            here = [_receivers(state, 0, act, x) if x in scan.free else None
                    for x, _ in sends]
            if [] in here:
                continue  # not yet deliverable
            sent = [s for s, recv in zip(sends, here) if recv]
            self.term = _changed(0, act, (kind, cont, sent), [r[0] for r in here if r])[0]
            for (x, v), recv in zip(sends, here):
                if recv is None:
                    fill(x, v, self.index)
            return True
        return False


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

    # per channel, the workers that fell asleep with that name free
    sleepers: dict[str, list[_Worker]] = {}
    # per channel, the worker whose send filled its cell
    senders: dict[str, int] = {}

    def fill(x: str, v: Term, sender: int) -> None:
        cells.setdefault(x, ChannelCell(x)).fill(v)
        senders[x] = sender
        for w in sleepers.pop(x, ()):
            w.asleep = False

    declared = {x for x, _ in program.gamma}

    def report(out_of_rounds: bool = False) -> DeadlockReport:
        # blocked: a worker whose sent value sits in an undelivered cell,
        # that still holds an activator, or whose term has a free name that
        # no declaration binds (a channel whose value never came)
        pending = [c.name for c in cells.values() if c.state == "filled"]
        blocked = {senders[x] for x in pending}
        for w in workers:
            scan = _scan(w.term)
            if scan.acts or any(x not in declared for x in scan.free):
                blocked.add(w.index)
        return DeadlockReport(sorted(blocked), pending, out_of_rounds)

    while True:
        order = list(range(len(workers)))
        rng.shuffle(order)
        progressed = False
        for i in order:
            w = workers[i]
            if w.asleep:
                continue
            waits_on = w.poll(cells, fill)
            if waits_on is None:
                progressed = True
                continue
            w.asleep = True
            for x in waits_on:
                sleepers.setdefault(x, []).append(w)
        if not progressed:
            break
        rounds_left -= 1
        if rounds_left < 0:
            raise report(out_of_rounds=True)

    # the last round made no progress, so no worker has a redex left; what
    # is reported is a value sent and never received
    if any(c.state == "filled" for c in cells.values()):
        raise report()
    out: list[Term] = []
    for w in workers:
        out.extend(flatten_par(w.term))
    return out
