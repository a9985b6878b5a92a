"""Specification automata for two-process test-and-set.

FA1 is the sequential two-process object (states = owner of the 0-bit).
FA2 is the wait-free single-process interface over the events
sTas / tas0 / tas1 / fTas0 / fTas1 / rstOp.
FA3 is their composition: 20 reachable product states, conventionally
labeled `a` through `t`.
FA4 is FA3 with the internal occurrence events tas0/tas1 turned into
epsilon-moves; nondeterministic sets of FA4 states are kept in a canonical
form that drops states whose outgoing moves are epsilon-moves only.
`Fa3` also compiles FA4 into a 16-state DFA over the 8 B-events, FA3
into integer move tables, and the DFA into witness back-pointers, for the
trace checker.
"""

from __future__ import annotations

import functools
from enum import Enum
from typing import Iterable, NamedTuple, Optional

from .core import Event
from .search import explore, path


class Owner(Enum):
    BOT = "bot"
    P0 = "p0"
    P1 = "p1"

    __hash__ = object.__hash__  # identity, as for RegValue

    def __repr__(self) -> str:
        return f"Owner.{self.name}"


class Fa2State(Enum):
    I1 = "i1"  # idle, local bit 1
    S = "s"    # after sTas
    T0 = "t0"  # after the tas0 occurrence
    T1 = "t1"  # after the tas1 occurrence
    I0 = "i0"  # idle, holding the 0

    __hash__ = object.__hash__  # identity, as for RegValue

    def __repr__(self) -> str:
        return f"Fa2State.{self.name}"


class Fa3State(NamedTuple):
    owner: Owner
    p0: Fa2State
    p1: Fa2State

    def _key(self) -> tuple[str, str, str]:
        return (self.owner.value, self.p0.value, self.p1.value)

    def __lt__(self, other: "Fa3State") -> bool:
        return self._key() < other._key()

    def comp(self, pid: int) -> Fa2State:
        return self.p0 if pid == 0 else self.p1

    def with_comp(self, pid: int, v: Fa2State, owner: Optional[Owner] = None) -> "Fa3State":
        o = self.owner if owner is None else owner
        if pid == 0:
            return Fa3State(o, v, self.p1)
        return Fa3State(o, self.p0, v)

    def mirror(self) -> "Fa3State":
        o = {Owner.BOT: Owner.BOT, Owner.P0: Owner.P1, Owner.P1: Owner.P0}[self.owner]
        return Fa3State(o, self.p1, self.p0)

    def __repr__(self) -> str:
        return f"({self.owner.value},{self.p0.value},{self.p1.value})"


FA3_INITIAL = Fa3State(Owner.BOT, Fa2State.I1, Fa2State.I1)


def _owner_of(pid: int) -> Owner:
    return Owner.P0 if pid == 0 else Owner.P1


def fa3_enabled(s: Fa3State, e: Event) -> Optional[Fa3State]:
    """Successor of FA3 state `s` under event `e`, or None if disabled."""
    pid = e.pid
    me = s.comp(pid)
    if e.kind == "sTas":
        if me is Fa2State.I1:
            return s.with_comp(pid, Fa2State.S)
    elif e.kind == "tas0":
        if s.owner is Owner.BOT and me is Fa2State.S:
            return s.with_comp(pid, Fa2State.T0, owner=_owner_of(pid))
    elif e.kind == "tas1":
        if s.owner is _owner_of(1 - pid) and me is Fa2State.S:
            return s.with_comp(pid, Fa2State.T1)
    elif e.kind == "fTas0":
        if me is Fa2State.T0:
            return s.with_comp(pid, Fa2State.I0)
    elif e.kind == "fTas1":
        if me is Fa2State.T1:
            return s.with_comp(pid, Fa2State.I1)
    elif e.kind == "rstOp":
        if s.owner is _owner_of(pid) and me is Fa2State.I0:
            return s.with_comp(pid, Fa2State.I1, owner=Owner.BOT)
    return None


ALL_EVENTS = tuple(
    Event(kind, pid)
    for kind in ("sTas", "tas0", "tas1", "fTas0", "fTas1", "rstOp")
    for pid in (0, 1)
)
EPS_EVENTS = tuple(e for e in ALL_EVENTS if e.is_eps)
B_EVENTS = tuple(e for e in ALL_EVENTS if not e.is_eps)
# Column of each B-event in the integer move tables.
B_EVENT_ID = {e: i for i, e in enumerate(B_EVENTS)}


def _ids(S: int) -> list[int]:
    """The state ids in mask S, in increasing order."""
    ids = []
    while S:
        low = S & -S
        ids.append(low.bit_length() - 1)
        S ^= low
    return ids


def _union(rows: tuple[int, ...], S: int) -> int:
    """The union of the masks rows[x] over the state ids x in mask S."""
    T = 0
    while S:
        low = S & -S
        T |= rows[low.bit_length() - 1]
        S ^= low
    return T


class Fa3:
    """The reachable product automaton (FA3) and its FA4 view.

    Sets of FA3 states are computed as int bit masks, bit x standing
    for `by_id[x]`; the methods on frozensets convert at the boundary."""

    def __init__(self) -> None:
        init = FA3_INITIAL
        moves: dict[tuple[Fa3State, Event], Fa3State] = {}

        def enabled(s: Fa3State) -> list[tuple[Event, Fa3State]]:
            out = [(e, t) for e in ALL_EVENTS if (t := fa3_enabled(s, e)) is not None]
            moves.update(((s, e), t) for e, t in out)
            return out

        self.initial = init
        self.states = frozenset(explore([init], enabled))
        self.moves = moves

        # Integer tables for the trace checker.  FA3 state ids follow
        # sorted order; -1 marks a disabled move.
        self.by_id = tuple(sorted(self.states))
        ids = {s: i for i, s in enumerate(self.by_id)}
        self._bit = {s: 1 << i for s, i in ids.items()}
        self.initial_id = ids[init]
        # Epsilon-successors in EPS_EVENTS order, as (event, state id).
        self.eps_moves = tuple(
            tuple((e, ids[moves[(s, e)]]) for e in EPS_EVENTS if (s, e) in moves)
            for s in self.by_id
        )
        # The B-move of each state under each B_EVENTS column.
        self.b_moves = tuple(
            tuple(ids[moves[(s, e)]] if (s, e) in moves else -1 for e in B_EVENTS)
            for s in self.by_id
        )
        # Mask tables, per state id: its epsilon-closure, that closure
        # canonical, its mirror, and (per B_EVENTS column) the canonical
        # image of its closure.
        n = len(self.by_id)
        trees = [explore([x], self.eps_moves.__getitem__) for x in range(n)]
        self._closure = tuple(sum(1 << y for y in t) for t in trees)
        eps_only = sum(1 << x for x in range(n) if self.eps_moves[x] and max(self.b_moves[x]) < 0)
        self._eps_only = self.states_of(eps_only)
        self._canon = tuple(c & ~eps_only for c in self._closure)
        self._mirror = tuple(self._bit[s.mirror()] for s in self.by_id)
        # Per column, the canonical closure of each state's move.
        moved = [tuple(self._canon[z] if z >= 0 else 0 for z in col) for col in zip(*self.b_moves)]
        self._after = tuple(tuple(_union(row, c) for c in self._closure) for row in moved)
        # FA4 as a DFA over the B_EVENTS columns: its states are the
        # non-empty canonical sets reachable from fa4_initial(), numbered
        # in breadth-first order (0 is the initial set); -1 is the empty
        # set, which rejects.
        after: dict[int, list[int]] = {}

        def step(S: int) -> list[tuple[Event, int]]:
            after[S] = [_union(rows, S) for rows in self._after]
            return [(e, T) for e, T in zip(B_EVENTS, after[S]) if T]

        sets = tuple(explore([self._canon[self.initial_id]], step))
        set_ids = {S: q for q, S in enumerate(sets)}
        self.fa4_sets = tuple(map(self.states_of, sets))
        self.fa4_dfa = tuple(tuple(set_ids.get(T, -1) for T in after[S]) for S in sets)
        # Witness back-pointers.  fa4_pred[q][col] maps each state id y
        # in the epsilon-closure of the col-image of C = closure(
        # fa4_sets[q]) to (x, eps): x in C has a col-move, and eps is the
        # shortest epsilon-event path from that move's target to y (the
        # smallest x on ties).  fa4_end[q] is the smallest id in C with
        # no epsilon-move, where a run after q may end.
        closures = [_ids(_union(self._closure, S)) for S in sets]
        eps_paths = [{y: path(t, y) for y in t} for t in trees]
        pred: list[tuple[dict[int, tuple[int, tuple[Event, ...]]], ...]] = []
        for c in closures:
            cells = []
            for col in range(len(B_EVENTS)):
                back: dict[int, tuple[int, tuple[Event, ...]]] = {}
                for x in c:
                    z = self.b_moves[x][col]
                    for y, eps in eps_paths[z].items() if z >= 0 else ():
                        if y not in back or len(eps) < len(back[y][1]):
                            back[y] = (x, eps)
                cells.append(back)
            pred.append(tuple(cells))
        self.fa4_pred = tuple(pred)
        self.fa4_end = tuple(min(y for y in c if not self.eps_moves[y]) for c in closures)

    # -- FA4 machinery: on masks, and on frozensets at the boundary -----

    def mask(self, S: Iterable[Fa3State]) -> int:
        bit = self._bit
        m = 0
        for s in S:
            m |= bit[s]
        return m

    def states_of(self, S: int) -> frozenset[Fa3State]:
        return frozenset(map(self.by_id.__getitem__, _ids(S)))

    def canonical_mask(self, S: int) -> int:
        return _union(self._canon, S)

    def step_mask(self, S: int, col: int) -> int:
        """The canonical FA4 successor of S under B_EVENTS[col]."""
        return _union(self._after[col], S)

    def mirror_mask(self, S: int) -> int:
        return _union(self._mirror, S)

    def eps_closure(self, S: Iterable[Fa3State]) -> frozenset[Fa3State]:
        return self.states_of(_union(self._closure, self.mask(S)))

    def eps_only_states(self) -> frozenset[Fa3State]:
        return self._eps_only

    def canonical(self, S: Iterable[Fa3State]) -> frozenset[Fa3State]:
        """Epsilon-closure minus states with only epsilon-moves out."""
        return self.states_of(self.canonical_mask(self.mask(S)))

    def fa4_step(self, S: Iterable[Fa3State], e: Event) -> frozenset[Fa3State]:
        return self.states_of(self.step_mask(self.mask(S), B_EVENT_ID[e]))

    def fa4_initial(self) -> frozenset[Fa3State]:
        return self.canonical({self.initial})


@functools.cache
def fa3_build() -> Fa3:
    return Fa3()


# -- Display labels ----------------------------------------------------

LETTERS = "abcdefghijklmnopqrst"

# Letter ranges by owner of the 0-bit.
OWNER_RANGE = {Owner.BOT: set("abcdefgh"), Owner.P1: set("ijklmn"), Owner.P0: set("opqrst")}

# Fixed letter identities, pinned by the worked examples of the
# verification table (initial state d; the (me,rst) set {g,p}; the (me,me)
# set {i,m,o,q}; the epsilon-only state h; the (tst0,rst) singleton s).
ANCHORS: dict[str, Fa3State] = {
    "d": Fa3State(Owner.BOT, Fa2State.I1, Fa2State.I1),
    "g": Fa3State(Owner.BOT, Fa2State.S, Fa2State.I1),
    "h": Fa3State(Owner.BOT, Fa2State.S, Fa2State.S),
    "p": Fa3State(Owner.P0, Fa2State.T0, Fa2State.I1),
    "q": Fa3State(Owner.P0, Fa2State.T0, Fa2State.S),
    "o": Fa3State(Owner.P0, Fa2State.T0, Fa2State.T1),
    "m": Fa3State(Owner.P1, Fa2State.S, Fa2State.T0),
    "i": Fa3State(Owner.P1, Fa2State.T1, Fa2State.T0),
}


class NoConsistentBijection(Exception):
    pass


class LabelAssignment(NamedTuple):
    """Letter -> FA3 state mapping plus the unresolved equivalence
    classes; `inverse` is `mapping` read from state to letter."""

    mapping: dict[str, Fa3State]
    ambiguous: list[tuple[tuple[str, ...], tuple[Fa3State, ...]]]
    inverse: dict[Fa3State, str]

    def letters_for(self, S: frozenset[Fa3State]) -> str:
        inv = self.inverse
        missing = [s for s in S if s not in inv]
        if missing:
            raise NoConsistentBijection(f"unlabeled states in set: {missing}")
        return "".join(sorted(inv[s] for s in S))


def assign_labels(cells: dict, rep_sets: dict) -> LabelAssignment:
    """Solve the letter bijection against the golden table.

    `cells` maps configuration -> set of letters (golden table);
    `rep_sets` maps the same configurations -> computed frozenset of FA3
    states.  A letter appears in a cell iff its state is in the computed
    set, which together with the owner ranges and the anchors determines
    the bijection up to the letters that occur in no cell.
    """
    fa3 = fa3_build()
    states = fa3.by_id
    # Per letter, the mask of the states it can still stand for.
    candidates = {
        l: fa3.mask(s for s in states if l in OWNER_RANGE[s.owner]) for l in LETTERS
    }
    for l, s in ANCHORS.items():
        bit = fa3.mask((s,))
        if not candidates[l] & bit:
            raise NoConsistentBijection(f"anchor {l} outside its owner range")
        candidates[l] = bit
    for cfg, letters in cells.items():
        if cfg not in rep_sets:
            raise NoConsistentBijection(f"golden cell {cfg} not reachable")
        S = rep_sets[cfg]
        if len(letters) != len(S):
            raise NoConsistentBijection(
                f"cell {cfg}: {len(letters)} letters vs {len(S)} states"
            )
        S = fa3.mask(S)
        for l in LETTERS:
            candidates[l] &= S if l in letters else ~S
            if not candidates[l]:
                raise NoConsistentBijection(f"letter {l} eliminated at {cfg}")
    # Propagate singletons.
    changed = True
    while changed:
        changed = False
        for l in LETTERS:
            bit = candidates[l]
            if bit & (bit - 1) == 0:
                for m in LETTERS:
                    if m != l and candidates[m] & bit:
                        candidates[m] &= ~bit
                        if not candidates[m]:
                            raise NoConsistentBijection(
                                f"letter {m} eliminated by pinning {l}"
                            )
                        changed = True
    mapping = {
        l: states[c.bit_length() - 1] for l, c in candidates.items() if c & (c - 1) == 0
    }
    # Group the rest into equivalence classes by candidate set.
    ambiguous: dict[int, list[str]] = {}
    for l in LETTERS:
        if l not in mapping:
            ambiguous.setdefault(candidates[l], []).append(l)
    classes = []
    for c, ls in sorted(ambiguous.items(), key=lambda kv: kv[1]):
        key = tuple(sorted(fa3.states_of(c)))
        if len(ls) != len(key):
            raise NoConsistentBijection(
                f"letters {ls} share candidate states {key}"
            )
        classes.append((tuple(ls), key))
    # Every state must be covered exactly once.
    used = list(mapping.values()) + [s for _, sts in classes for s in sts]
    if tuple(sorted(used)) != states:
        raise NoConsistentBijection("mapping does not cover all 20 states")
    return LabelAssignment(mapping, classes, {v: k for k, v in mapping.items()})


def fa3_dump(labels: Optional[LabelAssignment]) -> dict:
    """JSON-serializable description of FA3 (states, labels, transitions);
    `labels` is None when the letter bijection failed."""
    fa3 = fa3_build()
    eps_only = fa3.eps_only_states()
    inv: dict[Fa3State, str] = {}
    if labels is not None:
        inv = dict(labels.inverse)
        for ls, sts in labels.ambiguous:
            for s in sts:
                inv[s] = "/".join(ls)
    def name(s: Fa3State) -> str:
        return f"{s.owner.value},{s.p0.value},{s.p1.value}"
    return {
        "initial": name(fa3.initial),
        "states": [
            {
                "state": name(s),
                "label": inv.get(s),
                "eps_only": s in eps_only,
            }
            for s in fa3.by_id
        ],
        "transitions": sorted(
            (
                {
                    "from": name(s),
                    "event": repr(e),
                    "to": name(t),
                    "eps": e.is_eps,
                }
                for (s, e), t in fa3.moves.items()
            ),
            key=lambda d: (d["from"], d["event"]),
        ),
    }
