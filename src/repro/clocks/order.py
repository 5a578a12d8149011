"""One structural BDD variable order per design.

Every BDD of the pipeline is built over per-signal variables: the clock
algebra's presence/value pair ``p·x`` / ``v·x``, the compiled and symbolic
engines' event/data pair ``e·x`` / ``d·x`` and, for boolean registers, the
current/next pair ``s·r`` / ``s'·r``.  How large those BDDs get depends on
the order of the variables, and a good order follows the structure of the
design: variables that one equation relates should sit close together.

:func:`structural_order` computes that order once from the equations alone,
by DFS fan-in ordering (Malik, Wang, Brayton, Sangiovanni-Vincentelli,
ICCAD 1988):

* **Components** come in depth-first order over the signal-sharing graph:
  the search starts from the components whose outputs no component reads
  and follows every read to the component that defines the signal.  A
  binary tree of arbiters thus orders each arbiter before its two subtrees,
  each subtree in one block, and a chain orders its stages one after the
  other.
* **Inside a component** each signal comes after the signals it reads: a
  depth-first search from the outputs follows each signal's defining
  equation to its operands and emits a signal once they are done (post
  order), so a chain of equations is laid out link by link.  A delay's
  target is a leaf of that search (a register cuts the combinational
  fan-in, as a latch does in a circuit), so the registers sit next to the
  signals that read them; the signals a clock constraint relates are
  visited right after each other.
* Each signal's variables are contiguous: presence, value, and for a
  register its current and next variables (:meth:`VariableOrder.variables`).

A standalone process is the one-component case.  The order is a function
of the equations, in tuple order; it never depends on the iteration order
of a set, so it is the same under any ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.lang.normalize import ClockEquation, DelayEquation, NormalizedProcess

#: a naming scheme maps a signal name to the name of one of its BDD variables
Naming = Callable[[str], str]

Node = TypeVar("Node", bound=Hashable)


@dataclass(frozen=True)
class VariableOrder:
    """Signals in structural order, with what each one needs declared.

    ``signals`` is the order; ``booleans`` (the signals that carry a value
    variable) and ``registers`` (the boolean delay targets, which carry a
    current and a next variable) are kept sorted.
    """

    signals: Tuple[str, ...]
    booleans: Tuple[str, ...]
    registers: Tuple[str, ...]

    def variables(
        self, presence: Naming, value: Naming, register: Sequence[Naming] = ()
    ) -> Tuple[str, ...]:
        """The BDD variables of one naming scheme, in order.

        Every signal contributes its ``presence`` variable, then its
        ``value`` variable when it is boolean, then — when it is a register
        — one variable per ``register`` naming.
        """
        booleans: FrozenSet[str] = frozenset(self.booleans)
        registers: FrozenSet[str] = frozenset(self.registers)
        names: List[str] = []
        for signal in self.signals:
            names.append(presence(signal))
            if signal in booleans:
                names.append(value(signal))
            if signal in registers:
                names.extend(naming(signal) for naming in register)
        return tuple(names)


def _depth_first(
    roots: Iterable[Node],
    successors: Mapping[Node, Sequence[Node]],
    postorder: bool = False,
) -> List[Node]:
    """Depth-first traversal from ``roots``, each node once, in pre-order
    (a node before its successors) or post-order (after them).

    Iterative (the chains of a large design are deeper than Python's
    recursion limit); successors are visited in the order listed.
    """
    visited: List[Node] = []
    seen: Set[Node] = set()
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        if not postorder:
            visited.append(root)
        stack = [(root, iter(successors.get(root, ())))]
        while stack:
            node, pending = stack[-1]
            for child in pending:
                if child not in seen:
                    seen.add(child)
                    if not postorder:
                        visited.append(child)
                    stack.append((child, iter(successors.get(child, ()))))
                    break
            else:
                stack.pop()
                if postorder:
                    visited.append(node)
    return visited


def _walk(
    process: NormalizedProcess,
) -> Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]:
    """One pass over a process's equations: its signals in DFS fan-in order
    from its outputs (each signal after the signals it reads), the signals
    it defines, and its delay targets."""
    successors: Dict[str, Tuple[str, ...]] = {}
    peers: Dict[str, List[str]] = {}
    delayed: List[str] = []
    targets: List[str] = []
    for equation in process.equations:
        target = equation.defined_signal()
        if target is None:
            if isinstance(equation, ClockEquation):
                related = equation.read_signals()
                for name in related:
                    peers.setdefault(name, []).extend(related)
            continue
        if isinstance(equation, DelayEquation):
            targets.append(target)
        if target not in successors:
            if isinstance(equation, DelayEquation):
                # a register's source is read at the previous instant: the
                # delay target is a leaf of the combinational fan-in
                successors[target] = ()
                delayed.append(equation.source)
            else:
                successors[target] = equation.read_signals()
    defined = tuple(successors)
    for name, related in peers.items():
        successors[name] = successors.get(name, ()) + tuple(sorted(set(related) - {name}))
    read = {name for reads in successors.values() for name in reads}
    outputs = tuple(process.outputs)
    # every signal is an interface signal, a local, defined, clock-related or
    # a delay source, so these roots reach all of them
    roots = [name for name in outputs if name not in read]
    roots.extend(outputs)
    roots.extend(process.inputs)
    roots.extend(process.locals)
    roots.extend(successors)
    roots.extend(delayed)
    return tuple(_depth_first(roots, successors, postorder=True)), defined, tuple(targets)


def structural_order(components: Sequence[NormalizedProcess]) -> VariableOrder:
    """The structural variable order of a design's components.

    Components are ordered depth-first over the signal-sharing graph from
    the components whose outputs no other component reads (see the module
    docstring), each contributing its own signals in DFS fan-in order; a
    signal two components share is placed with the first of them.
    """
    components = tuple(components)
    walks = [_walk(component) for component in components]
    definer: Dict[str, int] = {}
    for index, (_signals, defined, _delays) in enumerate(walks):
        for target in defined:
            definer.setdefault(target, index)
    read = {name for component in components for name in component.inputs}
    indices = range(len(components))
    roots = [
        index
        for index in indices
        if not any(name in read for name in components[index].outputs)
    ] + list(indices)

    feeders: Dict[int, List[int]] = {}
    for index in indices:
        inputs = set(components[index].inputs)
        feeders[index] = [
            definer[name]
            for name in walks[index][0]
            if name in inputs and definer.get(name, index) != index
        ]
    signals: Dict[str, None] = {}
    for index in _depth_first(roots, feeders):
        for name in walks[index][0]:
            signals.setdefault(name)
    booleans = {
        name
        for component in components
        for name, kind in component.types.items()
        if kind == "bool"
    }
    registers = {
        target for _signals, _defined, delays in walks for target in delays if target in booleans
    }
    return VariableOrder(tuple(signals), tuple(sorted(booleans)), tuple(sorted(registers)))
