"""The 11-state chart of one process: transitions and event classification.

States fall into 4 groups named after the value the process's own register
holds while in them.  Inter-group transitions are writes of the new group
value; intra-group transitions are reads of the other register.  The single
randomized branch is the read of CHOOSE performed from the CHOOSE state,
which resolves a fair coin: true heads for ME (via TOME), false for HE
(via TOHE).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

from .core import Event, RegValue


class ProcState(Enum):
    RST = "rst"
    TST0 = "tst0"
    NOTME = "notme"
    ME = "me"
    TOME = "tome"
    CHOOSE = "choose"
    TOHE = "tohe"
    HE = "he"
    NOTHE = "nothe"
    TST1 = "tst1"
    FREE = "free"

    def __repr__(self) -> str:
        return f"ProcState.{self.name}"


S = ProcState

# Own-register value implied by each state.
GROUP: dict[ProcState, RegValue] = {
    S.RST: RegValue.RST,
    S.ME: RegValue.ME,
    S.NOTME: RegValue.ME,
    S.TST0: RegValue.ME,
    S.CHOOSE: RegValue.CHOOSE,
    S.TOME: RegValue.CHOOSE,
    S.TOHE: RegValue.CHOOSE,
    S.HE: RegValue.HE,
    S.NOTHE: RegValue.HE,
    S.TST1: RegValue.HE,
    S.FREE: RegValue.HE,
}

# The idle (doubly circled) states, where no operation is in progress,
# and the operation each starts when invoked.  TST0 means the process
# holds the 0 and its only next operation is the reset.
IDLE_OP: dict[ProcState, str] = {S.RST: "tas", S.TST1: "tas", S.TST0: "reset"}

# Write transitions: state -> (written value, successor).
_WRITES: dict[ProcState, tuple[RegValue, ProcState]] = {
    S.RST: (RegValue.ME, S.ME),
    S.TST0: (RegValue.RST, S.RST),
    S.FREE: (RegValue.ME, S.ME),
    S.NOTME: (RegValue.CHOOSE, S.CHOOSE),
    S.NOTHE: (RegValue.CHOOSE, S.CHOOSE),
    S.TOME: (RegValue.ME, S.ME),
    S.TOHE: (RegValue.HE, S.HE),
}

class ProtocolError(Exception):
    pass


class MissingObservation(ProtocolError):
    pass


class MissingCoin(ProtocolError):
    pass


class SpuriousCoin(ProtocolError):
    pass


def enabled_access(s: ProcState):
    """The unique access a process performs from state `s`.

    Returns ("w", value) or ("r",).  Total on all 11 states; for idle
    states this is the first access of the operation they start when
    invoked.
    """
    if s in _WRITES:
        value, _ = _WRITES[s]
        return ("w", value)
    return ("r",)


def needs_coin(s: ProcState, observed: RegValue) -> bool:
    return s is S.CHOOSE and observed is RegValue.CHOOSE


def step(
    s: ProcState,
    observed: Optional[RegValue] = None,
    coin: Optional[bool] = None,
) -> ProcState:
    """The unique successor of `s` given the observation and coin."""
    if s in _WRITES:
        if observed is not None:
            raise ProtocolError(f"{s.value}: write step takes no observation")
        if coin is not None:
            raise SpuriousCoin(f"{s.value}: write step takes no coin")
        return _WRITES[s][1]
    if observed is None:
        raise MissingObservation(f"{s.value}: read step needs an observation")
    if needs_coin(s, observed):
        if coin is None:
            raise MissingCoin("reading choose from choose resolves a coin")
    elif coin is not None:
        raise SpuriousCoin(f"{s.value} observing {observed.value}: no coin here")
    if s is S.ME:
        return S.NOTME if observed is RegValue.ME else S.TST0
    if s is S.CHOOSE:
        if observed is RegValue.HE:
            return S.TOME
        if observed is RegValue.CHOOSE:
            return S.TOME if coin else S.TOHE
        # me or rst: head for HE
        return S.TOHE
    if s is S.HE:
        return S.NOTHE if observed is RegValue.HE else S.TST1
    # TST1: stay until the other process is seen reset
    return S.FREE if observed is RegValue.RST else S.TST1


_B_CLASS: dict[tuple[ProcState, ProcState], tuple[str, ...]] = {
    (S.RST, S.ME): ("sTas",),
    (S.TST1, S.FREE): ("sTas",),
    # The one-access test-and-set: the single read both starts and
    # finishes the operation returning 1.
    (S.TST1, S.TST1): ("sTas", "fTas1"),
    (S.ME, S.TST0): ("fTas0",),
    (S.HE, S.TST1): ("fTas1",),
    (S.TST0, S.RST): ("rstOp",),
}


def classify(pre: ProcState, post: ProcState, pid: int) -> tuple[Event, ...]:
    """B-events carried by the access realizing the (pre, post) transition;
    none for a transition `_B_CLASS` does not list."""
    return tuple(Event(kind, pid) for kind in _B_CLASS.get((pre, post), ()))


def returns_value(post: ProcState) -> Optional[int]:
    """Return value delivered on entering `post`, if any.

    Entering TST0 finishes a test-and-set with 0; entering TST1 (from HE,
    or via the TST1 self-loop) finishes one with 1.
    """
    if post is S.TST0:
        return 0
    if post is S.TST1:
        return 1
    return None


def finishes_op(pre: ProcState, post: ProcState) -> bool:
    """Whether the (pre, post) access finishes the current operation."""
    return bool(set(_B_CLASS.get((pre, post), ())) & {"fTas0", "fTas1", "rstOp"})


class Move(NamedTuple):
    """One chart transition compiled for stepping: what the access
    records and where it leads."""

    action: str  # "w" or "r"
    value: RegValue  # written by a write, observed by a read
    post: ProcState
    pre_name: str
    post_name: str
    events: tuple[tuple[Event, ...], tuple[Event, ...]]  # when P0 / P1 acts
    finishes: bool


Chart = dict[tuple[ProcState, Optional[RegValue], Optional[bool]], Move]


def compile_chart(step_fn: Callable[..., ProcState] = step) -> Chart:
    """Every access of the chart `step_fn` defines, keyed like `step`'s
    arguments: (state, observed value or None for a write, coin or None).
    A read has a coinless entry exactly when it resolves no coin.  A
    transition outside the chart (a mutated `step_fn`) carries no
    B-events and finishes no operation."""
    chart = {}
    for s in ProcState:
        kind = enabled_access(s)
        if kind[0] == "w":
            keys = [(None, None, kind[1])]
        else:
            keys = [
                (v, coin, v)
                for v in RegValue
                for coin in ((False, True) if needs_coin(s, v) else (None,))
            ]
        for observed, coin, value in keys:
            post = step_fn(s, observed, coin)
            chart[(s, observed, coin)] = Move(
                kind[0],
                value,
                post,
                s.value,
                post.value,
                (classify(s, post, 0), classify(s, post, 1)),
                finishes_op(s, post),
            )
    return chart


def branches(
    chart: Chart, s: ProcState, observed: RegValue
) -> tuple[tuple[Optional[bool], Move], ...]:
    """The (coin, Move) entries of the access a process in `s` performs
    when the other register holds `observed`: one for a write (which
    ignores `observed`) or a plain read, and for a read that resolves a
    coin its two outcomes, heads first."""
    move = chart.get((s, None, None)) or chart.get((s, observed, None))
    if move is not None:
        return ((None, move),)
    return ((True, chart[(s, observed, True)]), (False, chart[(s, observed, False)]))


CHART = compile_chart()
