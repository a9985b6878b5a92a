import pytest
from hypothesis import given
from hypothesis import strategies as st

from wftas import protocol
from wftas.core import RegValue
from wftas.protocol import (
    CHART,
    GROUP,
    IDLE_OP,
    MissingCoin,
    MissingObservation,
    ProcState,
    ProtocolError,
    SpuriousCoin,
    branches,
    compile_chart,
    enabled_access,
    needs_coin,
    returns_value,
    step,
)

S = ProcState


def test_eleven_states():
    assert len(list(ProcState)) == 11


def test_idle_states_and_ops():
    assert set(IDLE_OP) == {S.RST, S.TST0, S.TST1}
    assert IDLE_OP == {S.RST: "tas", S.TST1: "tas", S.TST0: "reset"}


def test_groups_partition():
    # Own-register value per state; each register value has some state.
    assert set(GROUP.values()) == set(RegValue)
    assert GROUP[S.RST] is RegValue.RST
    assert GROUP[S.ME] is RegValue.ME
    assert GROUP[S.CHOOSE] is RegValue.CHOOSE
    assert GROUP[S.HE] is RegValue.HE
    assert GROUP[S.TST0] is RegValue.ME


def test_enabled_access_total():
    for s in ProcState:
        kind = enabled_access(s)
        assert kind[0] in ("r", "w")
        if kind[0] == "w":
            assert isinstance(kind[1], RegValue)


def test_write_steps():
    assert step(S.RST) is S.ME
    assert step(S.FREE) is S.ME
    assert step(S.NOTME) is S.CHOOSE
    assert step(S.TOME) is S.ME
    assert step(S.TOHE) is S.HE
    assert step(S.NOTHE) is S.CHOOSE
    assert step(S.TST0) is S.RST


def test_read_steps():
    assert step(S.ME, RegValue.ME) is S.NOTME
    assert step(S.ME, RegValue.RST) is S.TST0
    assert step(S.CHOOSE, RegValue.HE) is S.TOME
    assert step(S.CHOOSE, RegValue.ME) is S.TOHE
    assert step(S.CHOOSE, RegValue.RST) is S.TOHE
    assert step(S.CHOOSE, RegValue.CHOOSE, coin=True) is S.TOME
    assert step(S.CHOOSE, RegValue.CHOOSE, coin=False) is S.TOHE
    assert step(S.HE, RegValue.HE) is S.NOTHE
    assert step(S.HE, RegValue.ME) is S.TST1
    assert step(S.TST1, RegValue.RST) is S.FREE
    assert step(S.TST1, RegValue.ME) is S.TST1


def test_coin_contract():
    assert needs_coin(S.CHOOSE, RegValue.CHOOSE)
    assert not needs_coin(S.CHOOSE, RegValue.ME)
    with pytest.raises(MissingCoin):
        step(S.CHOOSE, RegValue.CHOOSE)
    with pytest.raises(SpuriousCoin):
        step(S.ME, RegValue.ME, coin=True)
    with pytest.raises(MissingObservation):
        step(S.ME)


# The six transitions that carry B-events, with their kinds, as the
# chart's figure labels them; every other transition carries none.  An
# access finishes its operation when it carries fTas0, fTas1 or rstOp.
_LABELLED = {
    (S.RST, S.ME): ("sTas",),
    (S.TST1, S.FREE): ("sTas",),
    (S.TST1, S.TST1): ("sTas", "fTas1"),  # the one-access tas
    (S.ME, S.TST0): ("fTas0",),
    (S.HE, S.TST1): ("fTas1",),
    (S.TST0, S.RST): ("rstOp",),
}


def _kinds(move, pid):
    return [e.kind for e in move.events[pid]]


def test_classify_events():
    assert _kinds(CHART[(S.RST, None, None)], 0) == ["sTas"]
    assert _kinds(CHART[(S.ME, RegValue.RST, None)], 0) == ["fTas0"]
    assert _kinds(CHART[(S.HE, RegValue.ME, None)], 1) == ["fTas1"]
    assert _kinds(CHART[(S.TST1, RegValue.ME, None)], 0) == ["sTas", "fTas1"]
    assert _kinds(CHART[(S.TST0, None, None)], 0) == ["rstOp"]
    assert CHART[(S.ME, RegValue.ME, None)].events == ((), ())
    assert all(e.pid == pid for m in CHART.values() for pid in (0, 1) for e in m.events[pid])


def test_returns_and_finishes():
    assert returns_value(S.TST0) == 0
    assert returns_value(S.TST1) == 1
    assert returns_value(S.ME) is None
    assert CHART[(S.ME, RegValue.RST, None)].finishes
    assert CHART[(S.HE, RegValue.ME, None)].finishes
    assert CHART[(S.TST1, RegValue.ME, None)].finishes  # one-access losing tas
    assert not CHART[(S.TST1, RegValue.RST, None)].finishes
    assert CHART[(S.TST0, None, None)].finishes  # reset completes in one access


@given(st.sampled_from(list(ProcState)), st.sampled_from(list(RegValue)),
       st.booleans())
def test_step_total_on_reads(s, observed, coin):
    """Every read state accepts every observable value, and the chart
    labels the transition as the figure does."""
    if enabled_access(s)[0] != "r":
        return
    c = coin if needs_coin(s, observed) else None
    post = step(s, observed, c)
    assert isinstance(post, ProcState)
    m = CHART[(s, observed, c)]
    assert (m.post, _kinds(m, 0)) == (post, list(_LABELLED.get((s, post), ())))


def test_chart_table_matches_step():
    """CHART has an entry exactly where `step` is defined, and each entry
    is what step and the figure's labels say of that access."""
    entries = 0
    for s in ProcState:
        kind = enabled_access(s)
        for observed in (None, *RegValue):
            for coin in (None, False, True):
                key = (s, observed, coin)
                try:
                    post = step(s, observed, coin)
                except ProtocolError:
                    assert key not in CHART
                    continue
                entries += 1
                m = CHART[key]
                assert m.action == kind[0]
                assert m.value is (kind[1] if kind[0] == "w" else observed)
                assert (m.post, m.pre_name, m.post_name) == (post, s.value, post.value)
                kinds = _LABELLED.get((s, post), ())
                assert (tuple(_kinds(m, 0)), tuple(_kinds(m, 1))) == (kinds, kinds)
                assert m.finishes == bool({"fTas0", "fTas1", "rstOp"} & set(kinds))
    assert len(CHART) == entries == 24


def test_branches():
    coin_read = branches(CHART, S.CHOOSE, RegValue.CHOOSE)
    assert [(coin, m.post) for coin, m in coin_read] == [(True, S.TOME), (False, S.TOHE)]
    assert coin_read[0][1] is CHART[(S.CHOOSE, RegValue.CHOOSE, True)]
    for v in RegValue:
        assert branches(CHART, S.RST, v) == ((None, CHART[(S.RST, None, None)]),)
    assert branches(CHART, S.ME, RegValue.HE) == ((None, CHART[(S.ME, RegValue.HE, None)]),)


def test_compile_chart_illegal_transition():
    """A step function leaving the legal chart gets the events the idle
    states imply: rst -> tst0 starts a tas and finishes it with 0, and
    the write records the group value of tst0."""
    def mutated(s, observed=None, coin=None):
        return S.TST0 if s is S.RST else step(s, observed, coin)

    chart = compile_chart(mutated)
    m = chart[(S.RST, None, None)]
    assert (m.action, m.value, m.post) == ("w", RegValue.ME, S.TST0)
    assert [_kinds(m, 0), _kinds(m, 1)] == [["sTas", "fTas0"]] * 2
    assert m.finishes
    assert chart[(S.HE, RegValue.ME, None)] == CHART[(S.HE, RegValue.ME, None)]


def test_compile_chart_follows_the_register_rule():
    """A read cannot change the own register, so a read that enters
    another group does not compile; a write records the group value of
    the state it enters."""
    def tst1_reads_into_tst0(s, observed=None, coin=None):
        return S.TST0 if s is S.TST1 else step(s, observed, coin)

    with pytest.raises(ProtocolError, match="^tst1 -> tst0: a read cannot leave group he$"):
        compile_chart(tst1_reads_into_tst0)

    def tohe_writes_into_choose(s, observed=None, coin=None):
        return S.CHOOSE if s is S.TOHE else step(s, observed, coin)

    m = compile_chart(tohe_writes_into_choose)[(S.TOHE, None, None)]
    assert (m.action, m.value, m.post) == ("w", RegValue.CHOOSE, S.CHOOSE)
    for key, move in CHART.items():
        assert GROUP[move.post] is (move.value if key[1] is None else GROUP[key[0]])


@pytest.mark.parametrize("state, post, message", [
    (S.HE, S.RST, "he -> rst: a test-and-set cannot finish in rst"),
    (S.RST, S.RST, "rst -> rst: a test-and-set cannot finish in rst"),
    (S.TST1, S.RST, "tst1 -> rst: a test-and-set cannot finish in rst"),
    (S.TST0, S.ME, "tst0 -> me: a reset takes one access"),
])
def test_compile_chart_refuses_unlabelled_transitions(state, post, message):
    """A tas that enters rst returns no value, and a reset that enters a
    non-idle state would take more than one access: neither compiles."""
    def mutated(s, observed=None, coin=None):
        return post if s is state else step(s, observed, coin)

    with pytest.raises(ProtocolError, match=f"^{message}"):
        compile_chart(mutated)
