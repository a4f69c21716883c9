"""Protocol models for the checker.

State layout (both models):

``(ranks, coord, mailboxes, outboxes)`` where

* ``ranks[i] = (pc, it, mode, owe, ex2, frozen)`` — program counter, loop
  iteration, protocol mode ('n'ormal / 'p're-ckpt / '1' replied-in-phase-1),
  deferred-reply owed, exited-phase-2 flag, frozen flag;

Mode '1' is the *revision rule* (see repro.mana.protocol): a rank whose last
reply was ``in-phase-1`` and that subsequently commits into phase 2 sends an
unsolicited revision ``('v',)``; the coordinator clears its reply slot and
waits for the deferred ``exit-phase-2``.  Without this rule the checker
finds a genuine violation: the rank's reply goes stale between the round's
completion and do-ckpt delivery.
* ``coord = (phase, replies, acks, started)`` — coordinator phase ('idle',
  'round', 'ckpt', 'done'), per-rank reply slots, freeze acks, whether the
  one modeled checkpoint has begun;
* ``mailboxes[i]`` — FIFO of control messages to rank ``i`` ('I'ntend,
  'E'xtra-iteration, 'D'o-ckpt, 'R'esume);
* ``outboxes[i]`` — at most one in-flight message to the coordinator:
  ``('s', report)`` state replies or ``('f',)`` freeze acks.

Program counters: 'C' computing, 'G' held at wrapper entry, 'P1' in the
trivial barrier, 'P2' in the real collective, 'X' finished.  The naive model
replaces the wrapper with a bare collective ('CC').
"""

from __future__ import annotations

from typing import Iterable, Hashable

from repro.modelcheck.checker import Model

READY = ("r",)
EXIT2 = ("x",)


def _rank(pc, it, mode="n", owe=0, ex2=0, frozen=0):
    return (pc, it, mode, owe, ex2, frozen)


class TwoPhaseModel(Model):
    """Algorithm 2 with the trivial-barrier commit rule, one communicator."""

    def __init__(self, n_ranks: int = 2, n_iters: int = 2) -> None:
        self.n = n_ranks
        self.k = n_iters

    # ------------------------------------------------------------ lifecycle

    def initial_states(self) -> Iterable[Hashable]:
        """The model's initial state set."""
        ranks = tuple(_rank("C", 0) for _ in range(self.n))
        coord = ("idle", (None,) * self.n, 0, 0)
        empty = ((),) * self.n
        return [(ranks, coord, empty, (None,) * self.n)]

    def is_terminal(self, state) -> bool:
        """True for states where the protocol has fully completed."""
        ranks, coord, mail, out = state
        return (
            all(r[0] == "X" for r in ranks)
            and coord[0] == "done"
            and all(not m for m in mail)
            and all(o is None for o in out)
        )

    def invariants(self):
        """Named predicates that must hold in every reachable state."""
        return {
            # Theorem 1: processing do-ckpt never finds a rank in phase 2.
            # We flag it in the transition by freezing INTO a poisoned pc.
            "no-rank-in-phase2-at-ckpt": lambda s: not any(
                r[0] == "VIOLATION" for r in s[0]
            ),
            # Algorithm 2 writes only after the GLOBAL drain: the abstract
            # write happens in the resume transition, which records the ack
            # count it fired at — a done-state with fewer than n acks would
            # mean an image was cut before every rank had frozen.
            "write-after-global-drain": lambda s: (
                s[1][0] != "done" or s[1][2] == self.n
            ),
        }

    # ---------------------------------------------------------- successors

    def successors(self, state):
        """Enabled (action, next-state) transitions from ``state``."""
        ranks, coord, mail, out = state
        n, k = self.n, self.k
        phase, replies, acks, started = coord

        def with_rank(i, newr, newmail=None, newout=None, newcoord=None):
            rs = ranks[:i] + (newr,) + ranks[i + 1:]
            return (
                rs,
                newcoord if newcoord is not None else coord,
                newmail if newmail is not None else mail,
                newout if newout is not None else out,
            )

        def entered_barrier(i, rs):
            it_i = rs[i][1]
            return all(
                r[1] > it_i or (r[1] == it_i and r[0] in ("P1", "PV", "P2"))
                for r in rs
            )

        def all_in_p2(i, rs):
            it_i = rs[i][1]
            return all(
                r[1] > it_i or (r[1] == it_i and r[0] == "P2")
                for r in rs
            )

        for i, (pc, it, mode, owe, ex2, frozen) in enumerate(ranks):
            if frozen:
                pass  # frozen ranks only react to mailbox messages (below)
            else:
                # 1. arrive at the wrapper
                if pc == "C":
                    if mode == "n":
                        yield (f"r{i}:enter-p1",
                               with_rank(i, _rank("P1", it, mode, owe, ex2)))
                    else:
                        yield (f"r{i}:held-at-entry",
                               with_rank(i, _rank("G", it, mode, owe, ex2)))
                # 2. gate release happens via 'R' processing (mode back to n)
                if pc == "G" and mode == "n":
                    yield (f"r{i}:gate-release",
                           with_rank(i, _rank("P1", it, mode, owe, ex2)))
                # 3. barrier commit (the revision rule: a rank that reported
                # in-phase-1 must revise SYNCHRONOUSLY — it parks in 'PV'
                # until the coordinator acknowledges, so no round can ever
                # complete against a stale in-phase-1 reply)
                if pc == "P1" and entered_barrier(i, ranks):
                    if mode == "1":
                        if out[i] is None:
                            nout = out[:i] + (("v",),) + out[i + 1:]
                            yield (f"r{i}:revise-park",
                                   with_rank(i, _rank("PV", it, "p", 1, ex2),
                                             newout=nout))
                    else:
                        yield (f"r{i}:commit-p2",
                               with_rank(i, _rank("P2", it, mode, owe, ex2)))
                # 4. collective exit
                if pc == "P2" and all_in_p2(i, ranks):
                    nit = it + 1
                    npc = "X" if nit == k else "C"
                    if owe:
                        if out[i] is None:
                            nout = out[:i] + (("s", EXIT2),) + out[i + 1:]
                            yield (f"r{i}:exit-p2-deferred-reply",
                                   with_rank(i, _rank(npc, nit, mode, 0, 0),
                                             newout=nout))
                    else:
                        nex2 = 1 if mode == "p" else 0
                        yield (f"r{i}:exit-p2",
                               with_rank(i, _rank(npc, nit, mode, 0, nex2)))

            # 5. process mailbox head
            if mail[i]:
                msg, rest = mail[i][0], mail[i][1:]
                nmail = mail[:i] + (rest,) + mail[i + 1:]
                if msg in ("I", "E"):
                    if pc in ("P2", "PV"):
                        yield (f"r{i}:recv-{msg}-defer",
                               with_rank(i, _rank(pc, it, "p", 1, ex2, frozen),
                                         newmail=nmail))
                    elif out[i] is None:
                        nmode = "p"
                        if ex2:
                            report, nex2 = EXIT2, 0
                        elif pc == "P1":
                            report, nex2 = ("1",), ex2
                            nmode = "1"  # remember: reply may need revising
                        else:
                            report, nex2 = READY, ex2
                        nout = out[:i] + (("s", report),) + out[i + 1:]
                        yield (f"r{i}:recv-{msg}-reply",
                               with_rank(i, _rank(pc, it, nmode, owe, nex2, frozen),
                                         newmail=nmail, newout=nout))
                elif msg == "D":
                    npc = "VIOLATION" if pc == "P2" else pc
                    if out[i] is None:
                        nout = out[:i] + (("f",),) + out[i + 1:]
                        yield (f"r{i}:recv-D-freeze",
                               with_rank(i, _rank(npc, it, mode, owe, ex2, 1),
                                         newmail=nmail, newout=nout))
                elif msg == "R":
                    yield (f"r{i}:recv-R-resume",
                           with_rank(i, _rank(pc, it, "n", owe, 0, 0),
                                     newmail=nmail))
                elif msg == "A":
                    # revision acknowledged: commit into phase 2
                    if pc != "PV":
                        raise AssertionError("A outside PV")
                    yield (f"r{i}:ack-commit-p2",
                           with_rank(i, _rank("P2", it, mode, owe, ex2, frozen),
                                     newmail=nmail))

            # 6. deliver outbox to coordinator
            if out[i] is not None:
                kind = out[i][0]
                nout = out[:i] + (None,) + out[i + 1:]
                if kind == "s" and phase == "round" and replies[i] is None:
                    nrep = replies[:i] + (out[i][1],) + replies[i + 1:]
                    yield (f"c:recv-reply-r{i}",
                           (ranks, (phase, nrep, acks, started), mail, nout))
                elif kind == "v" and phase == "round":
                    # revision: clear the stale reply slot and acknowledge
                    nrep = replies[:i] + (None,) + replies[i + 1:]
                    nmail2 = mail[:i] + (mail[i] + ("A",),) + mail[i + 1:]
                    yield (f"c:recv-revise-r{i}",
                           (ranks, (phase, nrep, acks, started), nmail2, nout))
                elif kind == "f" and phase == "ckpt":
                    yield (f"c:recv-ack-r{i}",
                           (ranks, (phase, replies, acks + 1, started), mail, nout))

        # 7. coordinator starts the (single) checkpoint
        if phase == "idle" and not started:
            nmail = tuple(m + ("I",) for m in mail)
            yield ("c:intend", (ranks, ("round", (None,) * n, 0, 1), nmail, out))

        # 8. round complete
        if phase == "round" and all(r is not None for r in replies):
            if self._needs_extra(replies):
                nmail = tuple(m + ("E",) for m in mail)
                yield ("c:extra-iteration",
                       (ranks, ("round", (None,) * n, 0, 1), nmail, out))
            else:
                nmail = tuple(m + ("D",) for m in mail)
                yield ("c:do-ckpt",
                       (ranks, ("ckpt", (None,) * n, 0, 1), nmail, out))

        # 9. all frozen: write happens here (abstracted), then resume —
        # the done-state keeps the ack count so "write-after-global-drain"
        # is checkable as a state predicate.
        if phase == "ckpt" and acks == n:
            nmail = tuple(m + ("R",) for m in mail)
            yield ("c:resume", (ranks, ("done", replies, acks, 1), nmail, out))

    def _needs_extra(self, replies) -> bool:
        # Algorithm 2 line 7, plus the fully-entered-barrier clause
        # (Challenge I): if every member reports in-phase-1, the barrier is
        # complete (or completing) and revisions may still be in flight —
        # do-ckpt now could land inside phase 2, so iterate instead.
        if any(r == EXIT2 for r in replies):
            return True
        return all(r == ("1",) for r in replies)


class NaiveModel(TwoPhaseModel):
    """The strawman: no trivial barrier, no intent rounds — the coordinator
    sends do-ckpt directly.  The checker finds the phase-2 violation."""

    def successors(self, state):
        """Enabled (action, next-state) transitions from ``state``."""
        ranks, coord, mail, out = state
        n, k = self.n, self.k
        phase, replies, acks, started = coord

        def with_rank(i, newr, newmail=None, newout=None):
            rs = ranks[:i] + (newr,) + ranks[i + 1:]
            return (
                rs, coord,
                newmail if newmail is not None else mail,
                newout if newout is not None else out,
            )

        def all_entered(i, rs):
            it_i = rs[i][1]
            return all(
                r[1] > it_i or (r[1] == it_i and r[0] == "CC")
                for r in rs
            )

        for i, (pc, it, mode, owe, ex2, frozen) in enumerate(ranks):
            if not frozen:
                if pc == "C":
                    yield (f"r{i}:enter-coll",
                           with_rank(i, _rank("CC", it)))
                if pc == "CC" and all_entered(i, ranks):
                    nit = it + 1
                    npc = "X" if nit == k else "C"
                    yield (f"r{i}:exit-coll", with_rank(i, _rank(npc, nit)))
            if mail[i]:
                msg, rest = mail[i][0], mail[i][1:]
                nmail = mail[:i] + (rest,) + mail[i + 1:]
                if msg == "D" and out[i] is None:
                    npc = "VIOLATION" if pc == "CC" else pc
                    nout = out[:i] + (("f",),) + out[i + 1:]
                    yield (f"r{i}:recv-D-freeze",
                           with_rank(i, _rank(npc, it, mode, owe, ex2, 1),
                                     newmail=nmail, newout=nout))
                elif msg == "R":
                    yield (f"r{i}:recv-R-resume",
                           with_rank(i, _rank(pc, it, "n", owe, 0, 0),
                                     newmail=nmail))
            if out[i] is not None and out[i][0] == "f" and phase == "ckpt":
                nout = out[:i] + (None,) + out[i + 1:]
                yield (f"c:recv-ack-r{i}",
                       (ranks, (phase, replies, acks + 1, started), mail, nout))

        if phase == "idle" and not started:
            nmail = tuple(m + ("D",) for m in mail)
            yield ("c:do-ckpt", (ranks, ("ckpt", replies, 0, 1), nmail, out))
        if phase == "ckpt" and acks == n:
            nmail = tuple(m + ("R",) for m in mail)
            yield ("c:resume", (ranks, ("done", replies, acks, 1), nmail, out))


class TopoSortModel(Model):
    """The topological-sort protocol (v2) on a ring + collective scenario.

    The model is the 3-rank shape the differential harness stresses: every
    rank sends one p2p message to its ring successor — the sends form the
    dependency **cycle** that forces the bounded-local-drain fallback — and
    then enters one two-phase collective.  The coordinator runs protocol
    v2 (see :class:`repro.mana.protocol_engine.TopoSortProtocol`): a single
    ``topo-intent`` round, per-communicator laggard classification, and a
    per-rank drain → write with **no global barrier between them** — a rank
    is written the moment its own expected receives have landed, which is
    exactly the "write-after-local-drain" invariant this model checks.

    State: ``(ranks, net, coord, mailboxes, outboxes)`` where

    * ``ranks[i] = (pc, mode, owe, frozen, drained, written)`` — program
      counter ('C' computing, 'S' sent, 'G' held at entry, 'P1' trivial
      barrier, 'PV' revision parked, 'P2' real collective, 'X' done, or a
      ``V:``-prefixed poison), protocol mode ('n'/'p'/'1' as in
      :class:`TwoPhaseModel`), deferred-reply owed, frozen (gates compute
      and send only — wrapper transitions keep running, matching the real
      runtime where ``driver.quiesce()`` stops the app but not the
      collective state machine), drained, written;
    * ``net[i]`` — status of rank ``i``'s one message to ``(i+1) % n``:
      'u'nsent, in-'f'light, 'd'elivered;
    * ``coord = (phase, slots, started)`` — phase 'idle' / 'collect' /
      'drain' / 'done'; ``slots[i]`` is None before rank ``i``'s
      ``topo-state`` reply, then its class ('r'/'p1'/'p2'/'x2'), then its
      pipeline status ('L' laggard awaiting exit, 'D' drain sent,
      'DR' drained + write sent, 'W' written);
    * mailboxes carry 'T'(opo-intent), 'A'(revise-ack), 'D'(rain),
      'W'(rite), 'R'(esume); outboxes carry ``('s', class)`` state
      replies, ``('v',)`` revisions, ``('x',)`` deferred exits,
      ``('dr',)`` drained, ``('w',)`` write-done.
    """

    def __init__(self, n_ranks: int = 3, n_iters: int = 1) -> None:
        self.n = n_ranks
        # the scenario has one collective; n_iters kept for CLI symmetry
        self.k = n_iters

    # ------------------------------------------------------------ lifecycle

    def initial_states(self):
        """The model's initial state set."""
        ranks = tuple(("C", "n", 0, 0, 0, 0) for _ in range(self.n))
        coord = ("idle", (None,) * self.n, 0)
        empty = ((),) * self.n
        return [(ranks, ("u",) * self.n, coord, empty, (None,) * self.n)]

    def is_terminal(self, state) -> bool:
        """True for states where the protocol has fully completed."""
        ranks, net, coord, mail, out = state
        return (
            all(r[0] == "X" for r in ranks)
            and coord[0] == "done"
            and all(m == () for m in mail)
            and all(o is None for o in out)
            and all(s != "f" for s in net)
        )

    def invariants(self):
        """Named predicates that must hold in every reachable state."""
        return {
            # a rank is written only after ITS drain completed (the v2
            # property — there is no global drain barrier to hide behind)
            "write-after-local-drain": lambda s: not any(
                r[0] == "V:write-before-drain" for r in s[0]
            ),
            # never cut an image of a rank inside the real collective
            "no-write-in-phase-2": lambda s: not any(
                r[0] == "V:write-in-p2" for r in s[0]
            ),
            # a rank the classification settled never revises afterwards
            # (the engine raises on this; here it must be unreachable)
            "no-settled-revision": lambda s: not any(
                r[0] == "V:settled-revised" for r in s[0]
            ),
        }

    # ---------------------------------------------------------- successors

    def successors(self, state):
        """Enabled (action, next-state) transitions from ``state``."""
        ranks, net, coord, mail, out = state
        n = self.n
        phase, slots, started = coord

        def mk(rs=None, nt=None, co=None, ml=None, ot=None):
            return (
                rs if rs is not None else ranks,
                nt if nt is not None else net,
                co if co is not None else coord,
                ml if ml is not None else mail,
                ot if ot is not None else out,
            )

        def with_rank(i, newr, **kw):
            return mk(rs=ranks[:i] + (newr,) + ranks[i + 1:], **kw)

        def entered(rs):
            return all(r[0] in ("P1", "PV", "P2", "X") for r in rs)

        def all_p2(rs):
            return all(r[0] in ("P2", "X") for r in rs)

        def push(box, i, msg):
            return box[:i] + (box[i] + (msg,),) + box[i + 1:]

        def setout(i, msg):
            return out[:i] + (msg,) + out[i + 1:]

        def setslot(i, v):
            ns = slots[:i] + (v,) + slots[i + 1:]
            return (phase, ns, started)

        for i, (pc, mode, owe, frozen, drained, written) in enumerate(ranks):
            # ---- app transitions (frozen gates compute/send, not wrapper)
            if pc == "C" and not frozen and net[i] == "u":
                yield (f"r{i}:send",
                       with_rank(i, ("S", mode, owe, 0, drained, written),
                                 nt=net[:i] + ("f",) + net[i + 1:]))
            if pc == "S" and not frozen:
                npc = "P1" if mode == "n" else "G"
                yield (f"r{i}:enter" if npc == "P1" else f"r{i}:held",
                       with_rank(i, (npc, mode, owe, 0, drained, written)))
            if pc == "G" and mode == "n" and not frozen:
                yield (f"r{i}:gate-release",
                       with_rank(i, ("P1", mode, owe, 0, drained, written)))
            # barrier commit: a rank whose reply said in-phase-1 revises
            # synchronously and parks until the ack (as in TwoPhaseModel)
            if pc == "P1" and entered(ranks):
                if mode == "1":
                    if out[i] is None:
                        yield (f"r{i}:revise-park",
                               with_rank(i, ("PV", "p", 1, frozen, drained,
                                             written),
                                         ot=setout(i, ("v",))))
                else:
                    yield (f"r{i}:commit-p2",
                           with_rank(i, ("P2", mode, owe, frozen, drained,
                                         written)))
            # collective exit; under a pending checkpoint the rank parks
            # frozen and sends its deferred exit reply
            if pc == "P2" and all_p2(ranks):
                if mode == "n":
                    yield (f"r{i}:exit",
                           with_rank(i, ("X", mode, 0, frozen, drained,
                                         written)))
                elif owe and out[i] is None:
                    yield (f"r{i}:exit-deferred-reply",
                           with_rank(i, ("X", mode, 0, 1, drained, written),
                                     ot=setout(i, ("x",))))
                elif not owe:
                    yield (f"r{i}:exit-parked",
                           with_rank(i, ("X", mode, 0, 1, drained, written)))

            # ---- network delivery (always enabled: draining receives)
            if net[i] == "f":
                yield (f"net:deliver-{i}",
                       mk(nt=net[:i] + ("d",) + net[i + 1:]))

            # ---- mailbox processing
            if mail[i]:
                msg, rest = mail[i][0], mail[i][1:]
                nmail = mail[:i] + (rest,) + mail[i + 1:]
                if msg == "T" and out[i] is None:
                    if pc in ("P2", "PV"):
                        cls, nmode, nowe, nfro = "p2", "p", 1, frozen
                    elif pc == "P1":
                        cls, nmode, nowe, nfro = "p1", "1", owe, 1
                    else:
                        cls, nmode, nowe, nfro = "r", "p", owe, 1
                    yield (f"r{i}:recv-T",
                           with_rank(i, (pc, nmode, nowe, nfro, drained,
                                         written),
                                     ml=nmail, ot=setout(i, ("s", cls))))
                elif msg == "A":
                    if pc == "PV":
                        yield (f"r{i}:ack-commit-p2",
                               with_rank(i, ("P2", mode, owe, frozen, drained,
                                             written), ml=nmail))
                elif msg == "D":
                    # local drain: complete once the one message destined
                    # to this rank is no longer in flight
                    if net[(i - 1) % n] != "f":
                        if out[i] is None:
                            yield (f"r{i}:drained",
                                   with_rank(i, (pc, mode, owe, frozen, 1,
                                                 written),
                                             ml=nmail, ot=setout(i, ("dr",))))
                elif msg == "W":
                    if out[i] is None:
                        if pc == "P2":
                            npc = "V:write-in-p2"
                        elif not drained:
                            npc = "V:write-before-drain"
                        else:
                            npc = pc
                        yield (f"r{i}:write",
                               with_rank(i, (npc, mode, owe, frozen, drained,
                                             1),
                                         ml=nmail, ot=setout(i, ("w",))))
                elif msg == "R":
                    yield (f"r{i}:resume",
                           with_rank(i, (pc, "n", owe, 0, drained, written),
                                     ml=nmail))

            # ---- outbox delivery to the coordinator
            if out[i] is not None:
                kind = out[i][0]
                nout = setout(i, None)
                if kind == "s" and phase == "collect" and slots[i] is None:
                    nco = setslot(i, out[i][1])
                    yield (f"c:recv-state-r{i}", mk(co=nco, ot=nout))
                elif kind == "v":
                    # revision: pre-classification it upgrades the reply;
                    # during drain it is legal only from a laggard; after
                    # the checkpoint is done it is a benign post-resume
                    # straggler (the rank committed before processing its
                    # own RESUME) — ack and ignore
                    if phase == "collect":
                        nco = setslot(i, "p2")
                        yield (f"c:recv-revise-r{i}",
                               mk(co=nco, ml=push(mail, i, "A"), ot=nout))
                    elif slots[i] == "L" or phase == "done":
                        yield (f"c:recv-revise-r{i}",
                               mk(ml=push(mail, i, "A"), ot=nout))
                        if phase == "done" and mail[i]:
                            # the ack is sent after the RESUME broadcast but
                            # on a shorter delay, so it may overtake it: the
                            # rank then commits still paused and owes an
                            # exit-phase-2 reply to the finished round
                            ahead = mail[:i] + (("A",) + mail[i],) + mail[i + 1:]
                            yield (f"c:recv-revise-r{i}:overtakes-resume",
                                   mk(ml=ahead, ot=nout))
                    else:
                        yield (f"c:recv-revise-r{i}",
                               with_rank(i, ("V:settled-revised",) + ranks[i][1:],
                                         ot=nout))
                elif kind == "x":
                    if phase == "collect":
                        # exited before classification: remember it so the
                        # classifier drains it immediately
                        nco = setslot(i, "x2")
                        yield (f"c:recv-exit-r{i}", mk(co=nco, ot=nout))
                    elif slots[i] == "L":
                        nco = setslot(i, "D")
                        yield (f"c:recv-exit-r{i}",
                               mk(co=nco, ml=push(mail, i, "D"), ot=nout))
                    elif phase == "done":
                        # the post-resume straggler's exit: the round it
                        # answers is over, so take it and ignore it
                        yield (f"c:recv-exit-r{i}:after-done", mk(ot=nout))
                elif kind == "dr" and slots[i] == "D":
                    # the v2 step: write THIS rank now — no global barrier
                    nco = setslot(i, "DR")
                    yield (f"c:recv-drained-r{i}",
                           mk(co=nco, ml=push(mail, i, "W"), ot=nout))
                elif kind == "w" and slots[i] == "DR":
                    ns = slots[:i] + ("W",) + slots[i + 1:]
                    if all(v == "W" for v in ns):
                        nmail2 = mail
                        for j in range(n):
                            nmail2 = push(nmail2, j, "R")
                        yield (f"c:recv-write-done-r{i}",
                               mk(co=("done", ns, started), ml=nmail2,
                                  ot=nout))
                    else:
                        yield (f"c:recv-write-done-r{i}",
                               mk(co=(phase, ns, started), ot=nout))

        # ---- coordinator: the single topo-intent round
        if phase == "idle" and not started:
            nmail = mail
            for j in range(n):
                nmail = push(nmail, j, "T")
            yield ("c:topo-intent",
                   mk(co=("collect", (None,) * n, 1), ml=nmail))

        # ---- classification: one round collected; partition and drain
        if phase == "collect" and all(v is not None for v in slots):
            reporting = set(slots) <= {"p1", "p2", "x2"}
            lag = {
                i for i, v in enumerate(slots)
                if v in ("p2", "x2") or (v == "p1" and reporting)
            }
            nslots = []
            nmail = mail
            for j, v in enumerate(slots):
                if j in lag:
                    if v == "x2":
                        nslots.append("D")
                        nmail = push(nmail, j, "D")
                    else:
                        nslots.append("L")
                else:
                    nslots.append("D")
                    nmail = push(nmail, j, "D")
            yield ("c:classify",
                   mk(co=("drain", tuple(nslots), 1), ml=nmail))
