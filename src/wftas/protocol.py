"""The 11-state chart of one process: transitions and their B-events.

States fall into 4 groups named after the value the process's own register
holds while in them.  Inter-group transitions are writes of the new group
value; intra-group transitions are reads of the other register, and
`compile_chart` refuses a read that changes group.  The single
randomized branch is the read of CHOOSE performed from the CHOOSE state,
which resolves a fair coin: true heads for ME (via TOME), false for HE
(via TOHE).

An operation starts when its process leaves an idle state and finishes
when it enters one, and a reset is one access.  `compile_chart` derives
every access's B-events from that alone, for the chart and for any mutant
of it, and refuses the two transitions it cannot label: a test-and-set
that enters RST (no return value) and a reset that enters a non-idle state.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Optional

from .core import SHARED_EVENTS, Event, RegValue


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

    __hash__ = object.__hash__  # identity, as for RegValue

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

# Write transitions: state -> successor, whose group value is written.
_WRITES: dict[ProcState, ProcState] = {
    S.RST: S.ME,
    S.TST0: S.RST,
    S.FREE: S.ME,
    S.NOTME: S.CHOOSE,
    S.NOTHE: S.CHOOSE,
    S.TOME: S.ME,
    S.TOHE: S.HE,
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
        return ("w", GROUP[_WRITES[s]])
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
        return _WRITES[s]
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


def _event_kinds(pre: ProcState, post: ProcState) -> tuple[str, ...]:
    """The B-events of the access from `pre` to `post`, derived from the
    idle states: leaving one starts its operation (`sTas`, or `rstOp` for
    the one-access reset), and a test-and-set entering one finishes with
    `fTas{returns_value(post)}`.  A transition that rule cannot label is
    a ProtocolError."""
    if IDLE_OP.get(pre) == "reset":
        if post in IDLE_OP:
            return ("rstOp",)
        raise ProtocolError(
            f"{pre.value} -> {post.value}: a reset takes one access, "
            f"so it must enter an idle state"
        )
    start = ("sTas",) if pre in IDLE_OP else ()
    if post not in IDLE_OP:
        return start
    ret = returns_value(post)
    if ret is None:
        raise ProtocolError(
            f"{pre.value} -> {post.value}: a test-and-set cannot finish "
            f"in {post.value}, which returns no value"
        )
    return (*start, f"fTas{ret}")


class Move(NamedTuple):
    """One chart transition compiled for stepping: what the access
    records and where it leads."""

    action: str  # "w" or "r"
    value: RegValue  # written by a write, observed by a read
    post: ProcState
    pre_name: str
    post_name: str
    events: tuple[tuple[Event, ...], tuple[Event, ...]]  # when P0 / P1 acts
    finishes: bool  # the access enters an idle state


Chart = dict[tuple[ProcState, Optional[RegValue], Optional[bool]], Move]


def compile_chart(step_fn: Callable[..., ProcState] = step) -> Chart:
    """Every access of the chart `step_fn` defines, keyed like `step`'s
    arguments: (state, observed value or None for a write, coin or None).
    A read has a coinless entry exactly when it resolves no coin.  Each
    entry carries the B-events `_event_kinds` derives and finishes its
    operation exactly when it enters an idle state, for `step` and any
    mutant `step_fn` alike; a transition `_event_kinds` refuses raises
    ProtocolError.  So does a read that enters another group: a register
    cannot be read and written in one access.  A write records the group
    value of the state it enters."""
    chart = {}
    for s in ProcState:
        if enabled_access(s)[0] == "w":
            keys = [(None, None)]
        else:
            keys = [
                (v, coin)
                for v in RegValue
                for coin in ((False, True) if needs_coin(s, v) else (None,))
            ]
        for observed, coin in keys:
            post = step_fn(s, observed, coin)
            kinds = _event_kinds(s, post)
            if observed is None:
                action, value = "w", GROUP[post]
            elif GROUP[post] is GROUP[s]:
                action, value = "r", observed
            else:
                raise ProtocolError(
                    f"{s.value} -> {post.value}: a read cannot leave group {GROUP[s].value}")
            chart[(s, observed, coin)] = Move(
                action,
                value,
                post,
                s.value,
                post.value,
                tuple(tuple(SHARED_EVENTS[k, pid] for k in kinds) for pid in (0, 1)),
                post in IDLE_OP,
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
