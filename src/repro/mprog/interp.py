"""The interpreter: executes a program tree with a picklable continuation.

The interpreter itself performs no I/O and owns no clock — it is a pure
state machine exposing :meth:`Interpreter.next_action` ("what leaf comes
next?") and :meth:`Interpreter.leaf_done` ("that leaf finished; advance").
Rank drivers (native or MANA) own the scheduling policy: they decide when to
execute the returned leaves against the simulation engine, which is what
lets a checkpoint helper freeze a rank *between* those decisions.

Continuations are stacks of :class:`Frame` records.  A snapshot holds node
paths and counters only — ``snapshot()`` / ``restore()`` round-trip through
pickle; a live frame also holds its node, so stepping is O(1) per leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.mprog.ast import Node, Program, ProgramError


class ProgramState(dict):
    """Application state: a plain dict with attribute sugar.

    Everything stored here must be picklable; under MANA the state lives on
    the upper-half heap and is part of the checkpoint image.
    """

    def __getattr__(self, name: str) -> Any:
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value: Any) -> None:
        self[name] = value


class Frame:
    """One continuation frame.  ``kind`` is the node type short name.

    Only ``path`` and the counters persist (:meth:`Interpreter.snapshot`);
    ``node`` is the program node at ``path``, resolved once when the frame
    opens or is restored, so stepping never re-walks the tree, and
    ``paths`` holds its children's paths.  Leaf frames carry no counters and
    a seq frame only ``idx``, which is 0 again once the seq is done, so one
    frame per path of either kind is reused (a leaf together with its
    prebuilt ``action``), pass after pass of an enclosing loop.
    """

    __slots__ = ("path", "kind", "node", "idx", "iters", "count", "branch",
                 "kids", "paths", "action")

    def __init__(self, path: tuple[int, ...], kind: str, node: Node,
                 idx: int = 0, iters: int = 0, count: int = 0,
                 branch: int = -1) -> None:
        self.path = path
        self.kind = kind             # "seq" | "loop" | "while" | "if" | "leaf"
        self.node = node
        self.idx = idx               # seq: next child
        self.iters = iters           # loop/while: completed passes
        self.count = count           # loop: evaluated bound
        self.branch = branch         # if: -1 undecided, 0 then, 1 else, 2 done
        #: seq: the node's children; leaf: the Action handed to the driver
        self.kids: tuple[Node, ...] = node.children if kind == "seq" else ()
        #: the path of each child: a seq's children, a loop or while body
        #: (child 0), an if's branches (children 0 and 1)
        width = len(self.kids) if kind == "seq" else _CHILD_SLOTS[kind]
        self.paths: tuple[tuple[int, ...], ...] = tuple(
            [path + (i,) for i in range(width)])
        self.action: Optional[Action] = (
            Action(node.kind, node, path) if kind == "leaf" else None
        )


@dataclass(frozen=True)
class Action:
    """What the driver should do next."""

    kind: str                    # "compute" | "call" | "done"
    node: Optional[Node] = None
    path: tuple[int, ...] = ()


#: returned once the program has run to completion
_DONE = Action(kind="done")

#: child paths a frame of each non-seq kind holds
_CHILD_SLOTS = {"loop": 1, "while": 1, "if": 2, "leaf": 0}

#: node kind -> frame kind
_FRAME_KINDS = {"seq": "seq", "loop": "loop", "while": "while", "if": "if",
                "compute": "leaf", "call": "leaf"}


class Interpreter:
    """Drives one rank's program; the continuation is fully serializable."""

    def __init__(self, program: Program, state: Optional[ProgramState] = None) -> None:
        self.program = program
        self.state = state if state is not None else ProgramState()
        #: leaf and seq frames by path, reused pass after pass (see Frame)
        self._reused: dict[tuple[int, ...], Frame] = {}
        self.stack: list[Frame] = [self._open_frame((), program.root)]
        self.finished = False
        #: number of leaves completed (diagnostics / progress reporting)
        self.leaves_done = 0

    # ----------------------------------------------------------- execution

    def next_action(self) -> Action:
        """The next leaf to execute (idempotent until :meth:`leaf_done`)."""
        stack = self.stack
        state = self.state
        while stack:
            frame = stack[-1]
            kind = frame.kind
            if kind == "leaf":
                return frame.action
            node = frame.node
            if kind == "seq":
                idx = frame.idx
                if idx >= len(frame.kids):
                    frame.idx = 0  # ready for the next pass
                    self._pop()
                    continue
                child = frame.kids[idx]
            elif kind == "loop":
                if frame.iters >= frame.count:
                    self._pop()
                    continue
                if node.var is not None:
                    state[node.var] = frame.iters
                idx, child = 0, node.body
            elif kind == "while":
                if not node.cond(state):
                    self._pop()
                    continue
                idx, child = 0, node.body
            else:  # "if"
                if frame.branch == -1:
                    frame.branch = 0 if node.cond(state) else 1
                idx = frame.branch
                if idx == 2 or (idx == 1 and node.orelse is None):
                    self._pop()
                    continue
                child = node.then if idx == 0 else node.orelse
            path = frame.paths[idx]
            reused = self._reused.get(path)
            stack.append(reused if reused is not None
                         else self._open_frame(path, child))
        self.finished = True
        return _DONE

    def leaf_done(self) -> None:
        """The current leaf finished; advance past it."""
        if not self.stack or self.stack[-1].kind != "leaf":
            raise ProgramError("leaf_done with no leaf in progress")
        self.leaves_done += 1
        self._pop()

    # --------------------------------------------------------- persistence

    def snapshot(self) -> dict:
        """Picklable continuation (the state dict travels separately)."""
        return {
            "stack": [
                (f.path, f.kind, f.idx, f.iters, f.count, f.branch)
                for f in self.stack
            ],
            "finished": self.finished,
            "leaves_done": self.leaves_done,
        }

    def restore(self, snap: dict) -> None:
        """Install a continuation captured by :meth:`snapshot`.

        The program tree must be the same text (same shape); paths are
        validated against it.
        """
        stack = []
        for path, kind, idx, iters, count, branch in snap["stack"]:
            path = tuple(path)
            node = self.program.node_at(path)  # validates
            stack.append(Frame(path, kind, node, idx, iters, count, branch))
        self.stack = stack
        self._reused = {}
        self.finished = bool(snap["finished"])
        self.leaves_done = int(snap["leaves_done"])

    # ------------------------------------------------------------ internals

    def _open_frame(self, path: tuple[int, ...], node: Node) -> Frame:
        kind = _FRAME_KINDS.get(node.kind)
        if kind is None:
            raise ProgramError(f"unknown node type {type(node).__name__}")
        frame = Frame(path, kind, node)
        if kind == "loop":
            frame.count = node.eval_count(self.state)
            if node.var is not None:
                self.state[node.var] = 0
        elif kind == "leaf" or kind == "seq":
            self._reused[path] = frame
        return frame

    def _pop(self) -> None:
        stack = self.stack
        stack.pop()
        if not stack:
            return
        parent = stack[-1]
        kind = parent.kind
        if kind == "seq":
            parent.idx += 1
        elif kind == "loop" or kind == "while":
            parent.iters += 1
        elif kind == "if":
            parent.branch = 2
