import pytest

from wftas import automata, checker, protocol
from wftas.automata import B_EVENTS, EPS_EVENTS, Fa2State, Fa3State, Owner, fa3_build
from wftas.core import Event, RegValue
from wftas.protocol import ProcState


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


# -- A frozenset oracle for the mask kernel ------------------------------
# The plain set algebra of FA4, written over `fa3.moves` alone, against
# which the bit-mask tables of `Fa3` are checked.


def _closure(fa3, S):
    """The epsilon-closure of S: a depth-first search over fa3.moves."""
    out, todo = set(S), list(S)
    while todo:
        s = todo.pop()
        for e in EPS_EVENTS:
            t = fa3.moves.get((s, e))
            if t is not None and t not in out:
                out.add(t)
                todo.append(t)
    return frozenset(out)


def _eps_only(fa3):
    """The states whose outgoing moves are all epsilon-moves (and exist)."""
    return {s for s in fa3.states if {e.is_eps for t, e in fa3.moves if t == s} == {True}}


def _canonical(fa3, S):
    return _closure(fa3, S) - _eps_only(fa3)


def _step(fa3, S, e):
    return _canonical(fa3, {fa3.moves[(s, e)] for s in _closure(fa3, S) if (s, e) in fa3.moves})


def _mutant_rep_sets(state, value, post):
    """The representative sets of the chart with the read of `value`
    from `state` redirected to `post`."""

    def step(s, observed=None, coin=None):
        return post if s is state and observed is value else protocol.step(s, observed, coin)

    return checker.representative_sets(checker.compile_model(protocol.compile_chart(step)))


def test_mask_kernel_matches_frozenset_oracle(fa3, rep_sets):
    """Closure, canonical form, mirror and every B-step agree with the
    oracle on every FA4 state, every representative set of the chart
    and of the two mutants whose induction test_checker walks, and every
    single FA3 state (the epsilon-only one is in no canonical set)."""
    assert fa3.eps_only_states() == _eps_only(fa3)
    sets = set(fa3.fa4_sets) | set(rep_sets.values()) | {frozenset({s}) for s in fa3.states}
    for mutant in ((ProcState.HE, RegValue.HE, ProcState.TST1),
                   (ProcState.ME, RegValue.ME, ProcState.TST0)):
        sets |= set(_mutant_rep_sets(*mutant).values())
    assert len(sets) > len(fa3.fa4_sets)
    for S in sets:
        assert fa3.eps_closure(S) == _closure(fa3, S)
        assert fa3.canonical(S) == _canonical(fa3, S)
        assert fa3.states_of(fa3.mirror_mask(fa3.mask(S))) == {s.mirror() for s in S}
        for e in B_EVENTS:
            assert fa3.fa4_step(S, e) == _step(fa3, S, e)


def test_fa4_tables_match_frozenset_rebuild(fa3):
    """The subset construction, rebuilt breadth-first on the oracle's
    frozensets, gives the same DFA states, moves, back-pointers (each
    shortest epsilon path found breadth-first in EPS_EVENTS order, the
    smallest source id on ties) and end states."""
    sets, dfa = [_canonical(fa3, {fa3.initial})], []
    for S in sets:  # grows while it is read: a breadth-first search
        row = []
        for e in B_EVENTS:
            T = _step(fa3, S, e)
            if T and T not in sets:
                sets.append(T)
            row.append(sets.index(T) if T else -1)
        dfa.append(tuple(row))
    assert fa3.fa4_sets == tuple(sets)
    assert fa3.fa4_dfa == tuple(dfa)

    ids = {s: x for x, s in enumerate(fa3.by_id)}
    pred, end = [], []
    for S in sets:
        closure = sorted(_closure(fa3, S), key=ids.__getitem__)
        cells = []
        for e in B_EVENTS:
            back = {}
            for s in closure:
                if (s, e) not in fa3.moves:
                    continue
                paths = {fa3.moves[(s, e)]: ()}
                queue = list(paths)
                for t in queue:
                    for eps in EPS_EVENTS:
                        u = fa3.moves.get((t, eps))
                        if u is not None and u not in paths:
                            paths[u] = paths[t] + (eps,)
                            queue.append(u)
                for t, p in paths.items():
                    if ids[t] not in back or len(p) < len(back[ids[t]][1]):
                        back[ids[t]] = (ids[s], p)
            cells.append(back)
        pred.append(tuple(cells))
        end.append(min(ids[s] for s in closure
                       if not any((s, eps) in fa3.moves for eps in EPS_EVENTS)))
    assert fa3.fa4_pred == tuple(pred)
    assert fa3.fa4_end == tuple(end)


# -- FA4 against the sequential specification ---------------------------
# Restated here, not imported from linearize, so that one bug cannot hide
# in both: from the free object (owner None) a test-and-set returns 0 and
# takes the object, under the other process's ownership it returns 1,
# and a reset by the owner frees the object.

_ILLEGAL = "illegal"


def _seq_spec(owner, pid, kind, ret=None):
    if kind == "reset":
        return None if owner == pid else _ILLEGAL
    if ret == 0:
        return pid if owner is None else _ILLEGAL
    return owner if owner not in (None, pid) else _ILLEGAL


def _linearize(states):
    """Close a set of (owner, status of P0, status of P1) under
    linearizing a pending test-and-set ("pending") with either return
    value allowed from its owner, recorded as that value."""
    out, todo = set(states), list(states)
    while todo:
        owner, *status = todo.pop()
        for pid in (0, 1):
            if status[pid] != "pending":
                continue
            for ret in (0, 1):
                after = _seq_spec(owner, pid, "tas", ret)
                if after != _ILLEGAL:
                    t = (after, *(ret if p == pid else status[p] for p in (0, 1)))
                    if t not in out:
                        out.add(t)
                        todo.append(t)
    return frozenset(out)


def _spec_move(states, e, holder_resets):
    """The specification DFA's move on B-event e: sTas invokes a
    test-and-set, fTas0/fTas1 return a linearized one with that value,
    and rstOp is a whole reset.  With `holder_resets`, a process that
    holds the 0 cannot start a test-and-set before its reset."""
    out = set()
    for owner, *status in states:
        pid, owner_after, me = e.pid, owner, status[e.pid]
        if e.kind == "sTas" and me == "idle" and not (holder_resets and owner == pid):
            status[pid] = "pending"
        elif e.kind in ("fTas0", "fTas1") and me == int(e.kind[-1]):
            status[pid] = "idle"
        elif e.kind == "rstOp" and me == "idle" and _seq_spec(owner, pid, "reset") != _ILLEGAL:
            owner_after = None
        else:
            continue
        out.add((owner_after, *status))
    return _linearize(out)


def _spec_product(fa3, holder_resets):
    """The reachable pairs of (FA4 DFA state, specification DFA state),
    and the (pair, event) moves on which exactly one of them rejects."""
    start = (0, _linearize({(None, "idle", "idle")}))
    pairs, disagreements = [start], []
    for q, A in pairs:
        for col, e in enumerate(B_EVENTS):
            nq, B = fa3.fa4_dfa[q][col], _spec_move(A, e, holder_resets)
            if (nq >= 0) != bool(B):
                disagreements.append((q, A, e, nq >= 0))
            elif B and (nq, B) not in pairs:
                pairs.append((nq, B))
    return pairs, disagreements


def test_fa4_is_the_sequential_specification_with_holder_resets(fa3):
    """FA4's DFA and the specification DFA, with the rule that a holder
    of the 0 resets before its next test-and-set, pair up one to one on
    16 states and accept or reject every B-event together."""
    pairs, disagreements = _spec_product(fa3, holder_resets=True)
    assert disagreements == []
    assert len(pairs) == 16
    assert {q for q, _ in pairs} == set(range(len(fa3.fa4_dfa)))
    assert len({A for _, A in pairs}) == 16


def test_fa4_refuses_only_a_holders_test_and_set(fa3):
    """Without the rule, the two first differ at exactly 4 moves, one
    from each FA4 state with an idle holder of the 0: a test-and-set
    started by that holder, which FA4 rejects and the plain
    specification accepts (the operation stays pending, never
    linearizable).  The pairs reached are those of the rule."""
    pairs, disagreements = _spec_product(fa3, holder_resets=False)
    assert pairs == _spec_product(fa3, holder_resets=True)[0]
    assert sorted((q, str(e)) for q, _, e, _ in disagreements) == [
        (4, "sTas(0)"), (5, "sTas(1)"), (6, "sTas(0)"), (7, "sTas(1)")]
    for q, A, e, fa4_accepts in disagreements:
        assert not fa4_accepts
        assert {(owner, status[e.pid]) for owner, *status in A} == {(e.pid, "idle")}


def test_label_assignment(check_report):
    labels = check_report.labels
    assert labels is not None
    used = set(labels.mapping)
    # Two letters remain indistinguishable by cell membership.
    amb_letters = {l for ls, _ in labels.ambiguous for l in ls}
    assert amb_letters == {"b", "f"}
    assert len(used) + len(amb_letters) == 20
    assert set("abcdefghijklmnopqrst") == used | amb_letters


def test_label_inverse(check_report, rep_sets):
    """`inverse` reads `mapping` backwards, and `letters_for` still
    refuses a set holding a state that only an ambiguous class names."""
    labels = check_report.labels
    assert labels.inverse == {s: l for l, s in labels.mapping.items()}
    (_, unlabeled), = labels.ambiguous
    with pytest.raises(automata.NoConsistentBijection, match="unlabeled states in set"):
        labels.letters_for(frozenset(unlabeled))
    assert labels.letters_for(rep_sets[(ProcState.RST, ProcState.RST)]) == "d"


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
