"""Bounded breadth-first exploration over canonical states: the one search
behind LTS fragments, divergence, weak barbs, tau-reachability and inert
closures.  Callers supply the successor function and so keep their own
costs and caches.  The module imports nothing from the package, so every
layer can use it."""

from __future__ import annotations


class Exploration:
    """Breadth-first exploration from `roots`, grown one level at a time.

    `successors(state)` returns the (label, target) moves of a state, or
    None when the state cannot be expanded.  States are numbered in BFS
    order, the roots first, in their order and each once; `dist[i]` is the
    distance of state i from the nearest root, `out[i]` its moves as
    (label, target index) and `index` maps a state to its number.  States
    at distance `bound` are never expanded: they and the states that could
    not be expanded form the `horizon`, in BFS order.
    """

    def __init__(self, roots, successors, bound: int):
        self.states = list(dict.fromkeys(roots))
        self.index = {root: i for i, root in enumerate(self.states)}
        self.dist = [0] * len(self.states)
        self.out = [[] for _ in self.states]
        self.horizon = []
        self.bound = bound
        self._successors = successors
        self._level = list(range(len(self.states)))

    def grow(self) -> bool:
        """Expand the deepest level; False once no level is left to expand."""
        level, self._level = self._level, []
        if not level:
            return False
        d = self.dist[level[0]] + 1
        if d > self.bound:
            self.horizon.extend(level)
            return False
        states, index, out = self.states, self.index, self.out
        for i in level:
            moves = self._successors(states[i])
            if moves is None:
                self.horizon.append(i)
                continue
            edges = out[i]
            for label, t in moves:
                j = index.get(t)
                if j is None:
                    j = len(states)
                    states.append(t)
                    index[t] = j
                    self.dist.append(d)
                    out.append([])
                    self._level.append(j)
                edges.append((label, j))
        return True


def explore(root, successors, bound: int) -> Exploration:
    """The exploration of every state within `bound` steps of `root`."""
    ex = Exploration((root,), successors, bound)
    while ex.grow():
        pass
    return ex


def unlabelled(step):
    """A successor function from `step(state)`, which returns bare targets."""
    return lambda state: [(None, t) for t in step(state)]
