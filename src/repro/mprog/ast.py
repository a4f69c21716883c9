"""Program-tree nodes.

Nodes are immutable program *text*: they hold Python callables (compute
kernels, MPI call builders, loop bounds, conditions) and are addressed by
*paths* — tuples of child indices from the root — so that interpreter
continuations can reference them without serializing them.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union


class ProgramError(RuntimeError):
    """Malformed program trees or invalid paths."""


class Node:
    """Base class; subclasses define ``children`` (possibly empty) and
    ``kind``, the short type name the interpreter dispatches on."""

    label: str = ""
    kind: str = ""

    @property
    def children(self) -> tuple["Node", ...]:
        """Child nodes, in execution order."""
        return ()

    def describe(self) -> str:
        """Short human-readable label for traces and errors."""
        return f"{type(self).__name__}({self.label})"


class Seq(Node):
    """Run children in order."""

    kind = "seq"

    def __init__(self, *children: Node, label: str = "") -> None:
        if not children:
            raise ProgramError("Seq needs at least one child")
        for c in children:
            if not isinstance(c, Node):
                raise ProgramError(f"Seq child {c!r} is not a program node")
        self._children = tuple(children)
        self.label = label

    @property
    def children(self) -> tuple[Node, ...]:
        """Child nodes, in execution order."""
        return self._children


class Loop(Node):
    """Run ``body`` a fixed or state-dependent number of times.

    ``count`` may be an int or a callable ``f(state) -> int`` evaluated once
    at loop entry (the evaluated bound becomes part of the continuation, so
    restarts see the same trip count).  The current iteration index is
    published in ``state[var]`` if ``var`` is set.
    """

    kind = "loop"

    def __init__(
        self,
        count: Union[int, Callable[[Any], int]],
        body: Node,
        var: Optional[str] = None,
        label: str = "",
    ) -> None:
        if not isinstance(body, Node):
            raise ProgramError("Loop body must be a program node")
        self.count = count
        self.body = body
        self.var = var
        self.label = label

    @property
    def children(self) -> tuple[Node, ...]:
        """Child nodes, in execution order."""
        return (self.body,)

    def eval_count(self, state: Any) -> int:
        """Evaluate the loop bound against the state (once, at entry)."""
        n = self.count(state) if callable(self.count) else self.count
        if n < 0:
            raise ProgramError(f"Loop count evaluated to {n}")
        return int(n)


class While(Node):
    """Run ``body`` while ``cond(state)`` is true (checked before each pass)."""

    kind = "while"

    def __init__(self, cond: Callable[[Any], bool], body: Node, label: str = "") -> None:
        if not callable(cond):
            raise ProgramError("While cond must be callable")
        if not isinstance(body, Node):
            raise ProgramError("While body must be a program node")
        self.cond = cond
        self.body = body
        self.label = label

    @property
    def children(self) -> tuple[Node, ...]:
        """Child nodes, in execution order."""
        return (self.body,)


class If(Node):
    """Run ``then`` or ``orelse`` depending on ``cond(state)``."""

    kind = "if"

    def __init__(
        self,
        cond: Callable[[Any], bool],
        then: Node,
        orelse: Optional[Node] = None,
        label: str = "",
    ) -> None:
        if not callable(cond):
            raise ProgramError("If cond must be callable")
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.label = label

    @property
    def children(self) -> tuple[Node, ...]:
        """Child nodes, in execution order."""
        if self.orelse is None:
            return (self.then,)
        return (self.then, self.orelse)


class Compute(Node):
    """A local computation: ``fn(state)`` mutating application state.

    ``cost`` models the simulated wall time of the kernel — a float or a
    callable ``f(state) -> float`` (seconds of reference-node work).
    """

    kind = "compute"

    def __init__(
        self,
        fn: Callable[[Any], None],
        cost: Union[float, Callable[[Any], float]] = 0.0,
        label: str = "",
    ) -> None:
        if not callable(fn):
            raise ProgramError("Compute fn must be callable")
        self.fn = fn
        self.cost = cost
        self.label = label or getattr(fn, "__name__", "compute")

    def eval_cost(self, state: Any) -> float:
        """Evaluate the kernel's modeled duration against the state."""
        c = self.cost(state) if callable(self.cost) else self.cost
        if c < 0:
            raise ProgramError(f"Compute cost evaluated to {c}")
        return float(c)


class Call(Node):
    """An MPI call site: ``fn(state, api)`` returning a Completion.

    The interpreter parks until the completion resolves; the resolved value
    is stored into ``state[store]`` if ``store`` is given.  Under MANA, the
    ``api`` is the interposed wrapper layer; natively it is a thin adapter
    over the raw endpoint — the program text is identical either way.
    """

    kind = "call"

    def __init__(
        self,
        fn: Callable[[Any, Any], Any],
        store: Optional[str] = None,
        label: str = "",
    ) -> None:
        if not callable(fn):
            raise ProgramError("Call fn must be callable")
        self.fn = fn
        self.store = store
        self.label = label or getattr(fn, "__name__", "call")


class Program:
    """A rooted program tree with path-based node addressing."""

    def __init__(self, root: Node, name: str = "program") -> None:
        if not isinstance(root, Node):
            raise ProgramError("Program root must be a node")
        self.root = root
        self.name = name

    def node_at(self, path: Sequence[int]) -> Node:
        """Resolve a child-index path from the root."""
        node: Node = self.root
        for i in path:
            kids = node.children
            if not 0 <= i < len(kids):
                raise ProgramError(
                    f"invalid path {tuple(path)} at {node.describe()}"
                )
            node = kids[i]
        return node

    def count_nodes(self) -> int:
        """Total node count of the tree (diagnostics)."""
        def walk(n: Node) -> int:
            return 1 + sum(walk(c) for c in n.children)

        return walk(self.root)
