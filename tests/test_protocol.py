import pytest
from hypothesis import given
from hypothesis import strategies as st

from wftas import protocol
from wftas.core import RegValue
from wftas.protocol import (
    CHART,
    GROUP,
    IDLE_OP,
    IDLE_STATES,
    MissingCoin,
    MissingObservation,
    ProcState,
    ProtocolError,
    SpuriousCoin,
    classify,
    enabled_access,
    finishes_op,
    needs_coin,
    returns_value,
    step,
)

S = ProcState


def test_eleven_states():
    assert len(list(ProcState)) == 11


def test_idle_states_and_ops():
    assert IDLE_STATES == {S.RST, S.TST0, S.TST1}
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


def test_classify_events():
    assert [e.kind for e in classify(S.RST, S.ME, 0)] == ["sTas"]
    assert [e.kind for e in classify(S.ME, S.TST0, 0)] == ["fTas0"]
    assert [e.kind for e in classify(S.HE, S.TST1, 1)] == ["fTas1"]
    assert [e.kind for e in classify(S.TST1, S.TST1, 0)] == ["sTas", "fTas1"]
    assert [e.kind for e in classify(S.TST0, S.RST, 0)] == ["rstOp"]
    assert classify(S.ME, S.NOTME, 0) == ()


def test_returns_and_finishes():
    assert returns_value(S.TST0) == 0
    assert returns_value(S.TST1) == 1
    assert returns_value(S.ME) is None
    assert finishes_op(S.ME, S.TST0)
    assert finishes_op(S.HE, S.TST1)
    assert finishes_op(S.TST1, S.TST1)  # one-access losing tas
    assert not finishes_op(S.TST1, S.FREE)
    assert finishes_op(S.TST0, S.RST)  # reset completes in one access


@given(st.sampled_from(list(ProcState)), st.sampled_from(list(RegValue)),
       st.booleans())
def test_step_total_on_reads(s, observed, coin):
    """Every read state accepts every observable value."""
    if enabled_access(s)[0] != "r":
        return
    c = coin if needs_coin(s, observed) else None
    post = step(s, observed, c)
    assert isinstance(post, ProcState)
    # classify accepts every legal transition
    classify(s, post, 0)


def test_chart_table_matches_step():
    """CHART has an entry exactly where `step` is defined, and each entry
    is what step, classify and finishes_op say of that access."""
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
                assert m.events == (classify(s, post, 0), classify(s, post, 1))
                assert m.finishes == finishes_op(s, post)
    assert len(CHART) == entries == 24
