import pytest

from wftas import automata
from wftas.automata import B_EVENTS, EPS_EVENTS, Fa2State, Fa3State, Owner, fa3_build
from wftas.core import Event


@pytest.fixture(scope="module")
def fa3():
    return fa3_build()


def test_twenty_states(fa3):
    assert len(fa3.states) == 20


def test_owner_partition(fa3):
    by_owner = {o: 0 for o in Owner}
    for s in fa3.states:
        by_owner[s.owner] += 1
    assert by_owner[Owner.BOT] == 8
    assert by_owner[Owner.P0] == 6
    assert by_owner[Owner.P1] == 6


def test_unique_eps_only_state(fa3):
    eps_only = fa3.eps_only_states()
    assert eps_only == {Fa3State(Owner.BOT, Fa2State.S, Fa2State.S)}


def test_mirror_involution(fa3):
    for s in fa3.states:
        assert s.mirror().mirror() == s
        assert s.mirror() in fa3.states


def test_initial_state(fa3):
    assert fa3.initial == Fa3State(Owner.BOT, Fa2State.I1, Fa2State.I1)
    init = fa3.fa4_initial()
    assert fa3.initial in init


def test_closure_and_canonical(fa3):
    init = {fa3.initial}
    clo = fa3.eps_closure(init)
    assert clo >= frozenset(init)
    canon = fa3.canonical(clo)
    assert not (canon & fa3.eps_only_states())
    # canonical is idempotent
    assert fa3.canonical(canon) == canon


def test_fa4_step_accepts_solo_win(fa3):
    S = fa3.fa4_initial()
    for e in [Event("sTas", 0), Event("fTas0", 0), Event("rstOp", 0)]:
        S = fa3.fa4_step(S, e)
        assert S, f"died at {e}"


def test_fa4_rejects_unstarted_finish(fa3):
    S = fa3.fa4_initial()
    assert not fa3.fa4_step(S, Event("fTas0", 0))


def test_fa4_rejects_double_win(fa3):
    S = fa3.fa4_initial()
    seq = [Event("sTas", 0), Event("sTas", 1), Event("fTas0", 0),
           Event("fTas0", 1)]
    for e in seq[:-1]:
        S = fa3.fa4_step(S, e)
        assert S
    assert not fa3.fa4_step(S, seq[-1])


def test_fa4_dfa_has_16_states(fa3):
    assert len(fa3.fa4_dfa) == len(fa3.fa4_sets) == 16
    assert fa3.fa4_sets[0] == fa3.fa4_initial()
    assert all(fa3.fa4_sets)


def test_fa4_dfa_matches_subset_construction(fa3):
    """Every B-event sequence up to length 6 gets the same verdict, with
    the same first empty prefix, from the DFA and from fa4_step.  Once a
    prefix empties, both stay empty, so the walk stops extending it."""
    assert not fa3.fa4_step(frozenset(), B_EVENTS[0])
    sequences = 0

    def walk(S, q, depth):
        nonlocal sequences
        for i, e in enumerate(B_EVENTS):
            sequences += 1
            after = fa3.fa4_step(S, e)
            nq = fa3.fa4_dfa[q][i]
            assert (nq >= 0) == bool(after)
            if nq >= 0:
                assert fa3.fa4_sets[nq] == after
                if depth > 1:
                    walk(after, nq, depth - 1)

    walk(fa3.fa4_initial(), 0, 6)
    assert sequences > 8**2


def test_integer_move_tables(fa3):
    assert fa3.by_id[fa3.initial_id] == fa3.initial
    for x, s in enumerate(fa3.by_id):
        assert [(e, fa3.by_id[y]) for e, y in fa3.eps_moves[x]] == [
            (e, fa3.moves[(s, e)]) for e in EPS_EVENTS if (s, e) in fa3.moves
        ]
        for i, e in enumerate(B_EVENTS):
            y = fa3.b_moves[x][i]
            assert (fa3.by_id[y] if y >= 0 else None) == fa3.moves.get((s, e))


def test_fa4_pred_table(fa3):
    """Each back-pointer leads from a state of the DFA state's closure,
    by its B-move and then its epsilon path, to the state it is keyed
    by; every state of the next DFA state's closure has one."""
    closures = [{fa3.by_id.index(s) for s in fa3.eps_closure(S)} for S in fa3.fa4_sets]
    entries = 0
    for q, closure in enumerate(closures):
        assert fa3.fa4_end[q] in closure and not fa3.eps_moves[fa3.fa4_end[q]]
        for col, nq in enumerate(fa3.fa4_dfa[q]):
            back = fa3.fa4_pred[q][col]
            entries += len(back)
            for y, (x, eps) in back.items():
                assert x in closure
                z = fa3.b_moves[x][col]
                for e in eps:
                    z = dict(fa3.eps_moves[z])[e]
                assert z == y
            assert nq < 0 or closures[nq] <= back.keys()
    assert entries == 78


def test_label_assignment(check_report):
    labels = check_report.labels
    assert labels is not None
    used = set(labels.mapping)
    # Two letters remain indistinguishable by cell membership.
    amb_letters = {l for ls, _ in labels.ambiguous for l in ls}
    assert amb_letters == {"b", "f"}
    assert len(used) + len(amb_letters) == 20
    assert set("abcdefghijklmnopqrst") == used | amb_letters


def test_anchor_letters(check_report, fa3):
    labels = check_report.labels
    assert labels.mapping["d"] == fa3.initial


# Non-anchor states: two of the 0-bit-free owner and one of P0's.
_BOT_I1_S = Fa3State(Owner.BOT, Fa2State.I1, Fa2State.S)
_BOT_I1_T1 = Fa3State(Owner.BOT, Fa2State.I1, Fa2State.T1)
_P0_I0_I1 = Fa3State(Owner.P0, Fa2State.I0, Fa2State.I1)
_D, _G = automata.ANCHORS["d"], automata.ANCHORS["g"]


@pytest.mark.parametrize("anchors, cells, rep_sets, message", [
    pytest.param({"d": _P0_I0_I1}, {}, {},
                 "anchor d outside its owner range", id="anchor"),
    pytest.param(None, {"x": frozenset("d")}, {},
                 "golden cell x not reachable", id="unreachable"),
    pytest.param(None, {"x": frozenset("d")}, {"x": frozenset()},
                 "cell x: 1 letters vs 0 states", id="count"),
    pytest.param(None, {"x": frozenset("d")}, {"x": frozenset({_G})},
                 "letter d eliminated at x", id="eliminated"),
    # a, like the anchor d, can only be d's state, the one it shares with P0's
    pytest.param(None, {"x": frozenset("ad")}, {"x": frozenset({_D, _P0_I0_I1})},
                 "letter d eliminated by pinning a", id="pinning"),
    # three letters with only two states of their owner in the cell
    pytest.param(None, {"x": frozenset("abc")},
                 {"x": frozenset({_BOT_I1_S, _BOT_I1_T1, _P0_I0_I1})},
                 f"letters ['a', 'b', 'c'] share candidate states {(_BOT_I1_S, _BOT_I1_T1)}",
                 id="share"),
])
def test_assign_labels_names_each_inconsistency(monkeypatch, anchors, cells, rep_sets, message):
    """Each input reaches one `NoConsistentBijection` first, and its
    message names what is inconsistent."""
    if anchors is not None:
        monkeypatch.setattr(automata, "ANCHORS", anchors)
    with pytest.raises(automata.NoConsistentBijection) as exc:
        automata.assign_labels(cells, rep_sets)
    assert str(exc.value) == message


def test_fa3_dump_shape(check_report, fa3):
    dump = automata.fa3_dump(check_report.labels)
    assert len(dump["states"]) == 20
    assert dump["initial"] == "bot,i1,i1"
    labels = [s["label"] for s in dump["states"]]
    assert all(l is not None for l in labels)
    assert sum(s["eps_only"] for s in dump["states"]) == 1
