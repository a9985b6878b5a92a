"""The graph searches behind every finite walk in the package: a
breadth-first search with a back-pointer per state, for shortest
labelled paths (Holzmann, *The SPIN Model Checker*, 2003), and strongly
connected components, sinks first."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar

S = TypeVar("S", bound=Hashable)


def explore(
    starts: Iterable[S], successors: Callable[[S], Iterable[tuple[object, S]]]
) -> dict[S, Optional[tuple[S, object]]]:
    """Every state reachable from `starts`, where `successors(state)`
    yields (label, state) pairs, in discovery order, each mapped to the
    (parent, label) that first reached it and each start to None.
    `successors` is called once per reached state, in that order."""
    parents: dict[S, Optional[tuple[S, object]]] = dict.fromkeys(starts)
    queue = list(parents)
    for s in queue:
        for label, t in successors(s):
            if t not in parents:
                parents[t] = (s, label)
                queue.append(t)
    return parents


def path(parents: dict, state: S) -> tuple:
    """The labels along the shortest path `explore` found to `state`."""
    labels = []
    while parents[state] is not None:
        state, label = parents[state]
        labels.append(label)
    return tuple(reversed(labels))


def components(succ: Sequence[Sequence[int]]) -> list[list[int]]:
    """Strongly connected components of the graph with edges i -> succ[i]
    on ids 0..n-1, sinks first: every edge leads into its own component
    or an earlier one.  Tarjan's algorithm, run without recursion (a
    graph may be deeper than Python's recursion limit) from the ids in
    increasing order, so the order depends on no hash; each component's
    ids are sorted."""
    n = len(succ)
    # Discovery index: -1 until visited, n once in a listed component.
    order = [-1] * n
    low = [0] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    seen = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = seen
        seen += 1
        stack.append(root)
        work = [(root, 0)]  # (id, next successor to look at)
        while work:
            v, k = work[-1]
            if k < len(succ[v]):
                work[-1] = (v, k + 1)
                w = succ[v][k]
                if order[w] < 0:
                    order[w] = low[w] = seen
                    seen += 1
                    stack.append(w)
                    work.append((w, 0))
                elif order[w] < low[v]:  # w is on the stack
                    low[v] = order[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == order[v]:
                comp = []
                while True:
                    w = stack.pop()
                    order[w] = n
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps
