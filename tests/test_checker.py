from fractions import Fraction

import pytest

from wftas import checker, cli, expectation, protocol
from wftas.automata import Fa2State, Fa3State, Owner, fa3_build
from wftas.checker import INITIAL_CONFIG, model
from wftas.core import RegValue
from wftas.protocol import GROUP, IDLE_OP, ProcState as S


def test_initial_config():
    assert INITIAL_CONFIG == (S.RST, S.RST)


def test_reachable_count():
    assert len(model()) == len(model().configs) == 98


def test_edges_probabilities():
    m = model()
    assert len(m.branches) == 2 * len(m.configs)
    for branches in m.branches:
        # One branch, or the two outcomes of a coin read.
        assert len(branches) in (1, 2)
    # With no absorbing branch, every action's successors carry mass 1.
    for _, succ, exits in expectation._actions(m, lambda pid, move: (0, False)):
        assert not exits
        assert sum(p for _, p in succ) == 1
    # Under each solver's branch function, the absorbing branches carry
    # exactly the rest.
    for cost in (
        expectation._access_cost,
        expectation._choose_entry_reward,
        expectation._choose_visit_cost,
    ):
        for tracked in (0, 1):
            fn = cost(tracked)
            for k, (_, succ, exits) in enumerate(expectation._actions(m, fn)):
                branches = m.branches[k]
                absorbed = sum(
                    Fraction(1, len(branches))
                    for _, _, move in branches
                    if fn(k % 2, move)[1]
                )
                assert sum(p for _, p in succ) + absorbed == 1
                assert exits == (absorbed > 0)


def test_coin_branch_at_choose_choose():
    m = model()
    branches = m.branches[2 * m.index[(S.CHOOSE, S.CHOOSE)]]
    assert [coin for _, coin, _ in branches] == [True, False]
    assert [m.configs[d][0] for d, _, _ in branches] == [S.TOME, S.TOHE]


def _reachable():
    """The configurations reachable from (rst, rst), by a plain search
    over the compiled chart."""
    seen = {INITIAL_CONFIG}
    stack = [INITIAL_CONFIG]
    while stack:
        c = stack.pop()
        for pid in (0, 1):
            for _, move in protocol.branches(protocol.CHART, c[pid], GROUP[c[1 - pid]]):
                d = (move.post, c[1]) if pid == 0 else (c[0], move.post)
                if d not in seen:
                    seen.add(d)
                    stack.append(d)
    return seen


def test_model_conforms_to_chart():
    m = model()
    assert m is model(protocol.step)
    assert m.configs[0] == (S.RST, S.RST)
    assert set(m.configs) == _reachable() and len(_reachable()) == 98
    assert m.index == {c: i for i, c in enumerate(m.configs)}
    coin_reads = 0
    for i, c in enumerate(m.configs):
        for pid in (0, 1):
            other = c[1 - pid]
            want = [
                ((move.post, other) if pid == 0 else (other, move.post), coin, move)
                for coin, move in protocol.branches(protocol.CHART, c[pid], GROUP[other])
            ]
            got = [(m.configs[d], coin, move) for d, coin, move in m.branches[2 * i + pid]]
            assert got == want
            coins = [coin for _, coin, _ in got]
            if len(got) == 2:
                coin_reads += 1
                assert c[pid] is S.CHOOSE and coins == [True, False]
            else:
                assert coins == [None]
    assert coin_reads > 0


def test_verify_against_table(check_report):
    assert check_report.ok, check_report.mismatches
    assert check_report.verified_cells == 98
    assert check_report.verified_unreachable == 23


def test_claim_induction(rep_sets):
    assert checker.claim_induction_check(rep_sets) == []


def test_claim_induction_names_underivable_state(rep_sets):
    me_me = (S.ME, S.ME)
    # P0 booked as having returned 0 and gone idle, yet still in ME.
    extra = Fa3State(Owner.P0, Fa2State.I0, Fa2State.I1)
    assert extra not in fa3_build().eps_only_states()
    assert extra not in rep_sets[me_me]
    forged = {**rep_sets, me_me: rep_sets[me_me] | {extra}}
    problems = checker.claim_induction_check(forged)
    assert f"(rst,me) -> (me,me): state {extra!r} not derivable" in problems
    assert all(p.endswith(f"-> (me,me): state {extra!r} not derivable")
               for p in problems)


def test_step_fn_called_once_per_chart_entry():
    calls = 0

    def counting_step(s, observed=None, coin=None):
        nonlocal calls
        calls += 1
        return protocol.step(s, observed, coin)

    report = checker.verify_against_table(step_fn=counting_step)
    assert report.ok
    assert calls == len(protocol.CHART) == 24
    # The graph of a step function is built once.
    checker.verify_against_table(step_fn=counting_step)
    assert calls == 24


def test_representative_sets_nonempty(rep_sets):
    assert len(rep_sets) == 98
    assert all(rep for rep in rep_sets.values())


def test_representative_set_mirror(rep_sets):
    for (s0, s1), rep in rep_sets.items():
        mirrored = frozenset(x.mirror() for x in rep)
        assert rep_sets[(s1, s0)] == mirrored


def test_op_outcomes():
    m = model()
    # Both outcomes are open in the symmetric race.
    assert checker.op_outcomes(m, m.index[(S.ME, S.ME)], 0) == frozenset({0, 1})
    # A process in HE facing a winner can only lose.
    assert checker.op_outcomes(m, m.index[(S.HE, S.TST0)], 0) == frozenset({1})


def test_solo_returns_one():
    m = model()
    # From TST1 the one-access tas returns 1 without the peer moving.
    assert checker.solo_returns_one(m, m.index[(S.TST1, S.ME)], 0)
    # From RST a solo run wins; it cannot return 1 on its own.
    assert not checker.solo_returns_one(m, m.index[(S.ME, S.RST)], 0)


def _mutant(state, value, post):
    """The protocol step with the read of `value` from `state` redirected
    to `post`."""
    orig = protocol.step

    def step(s, observed=None, coin=None):
        if s is state and observed is value:
            return post
        return orig(s, observed, coin)

    return step


def test_step_table_finishes_iff_idle(monkeypatch):
    """Every branch of the chart finishes its operation exactly when it
    enters an idle state, so the table's entries follow the model; the
    table compiler refuses a chart where the two differ."""
    m = model()
    table = checker.step_table()
    assert len(table) == len(m.branches)
    for i, c in enumerate(m.configs):
        for pid in (0, 1):
            op, starts, b = table[2 * i + pid]
            assert (op, starts) == (IDLE_OP.get(c[pid], "tas"), c[pid] in IDLE_OP)
            assert [d for d, _ in b] == [d for d, _, _ in m.branches[2 * i + pid]]
            for _, _, move in m.branches[2 * i + pid]:
                assert move.finishes == (move.post in IDLE_OP)
    # he reading he enters rst: an idle state, by an access that, outside
    # the legal chart, finishes nothing.
    mutated = model(_mutant(S.HE, RegValue.HE, S.RST))
    monkeypatch.setattr(checker, "model", lambda: mutated)
    with pytest.raises(AssertionError, match="he -> rst"):
        checker.step_table.__wrapped__()


def test_mutation_sensitivity():
    rep = checker.verify_against_table(step_fn=_mutant(S.HE, RegValue.HE, S.TST1))
    assert not rep.ok
    assert len(rep.mismatches) >= 1


def test_mutation_report_lists_each_mismatch_once():
    rep = checker.verify_against_table(step_fn=_mutant(S.HE, RegValue.HE, S.TST1))
    assert "cell ('tst1', 'tst1'): reachable but '*' in table" in rep.mismatches
    assert len(rep.mismatches) == len(set(rep.mismatches))


def _reference_families(m):
    """forward_families on FA4 state sets: subset steps, then canonical."""
    fa3 = fa3_build()
    fam = {INITIAL_CONFIG: {fa3.fa4_initial()}}
    frontier = [(INITIAL_CONFIG, fa3.fa4_initial())]
    while frontier:
        c, S_ = frontier.pop()
        for pid in (0, 1):
            for d, _, move in m.branches[2 * m.index[c] + pid]:
                T = S_
                for ev in move.events[pid]:
                    T = fa3.fa4_step(T, ev)
                T = fa3.canonical(T)
                dst = m.configs[d]
                if T not in fam.setdefault(dst, set()):
                    fam[dst].add(T)
                    frontier.append((dst, T))
    return fam


@pytest.mark.parametrize(
    "step_fn, empty_configs",
    [
        (protocol.step, 0),
        (_mutant(S.CHOOSE, RegValue.RST, S.TOME), 0),
        (_mutant(S.ME, RegValue.ME, S.TST0), 9),
    ],
    ids=["chart", "choose-reads-rst-tome", "me-reads-me-tst0"],
)
def test_forward_families_match_subset_construction(step_fn, empty_configs):
    m = model(step_fn)
    fam = checker.forward_families(m)
    assert fam == _reference_families(m)
    assert sum(frozenset() in sets for sets in fam.values()) == empty_configs


def test_default_graph_built_once(monkeypatch):
    checker._model.cache_clear()
    compiled = []
    orig = protocol.compile_chart

    def counting(step_fn=protocol.step):
        compiled.append(step_fn)
        return orig(step_fn)

    monkeypatch.setattr(protocol, "compile_chart", counting)
    assert cli.main(["check", "--json"]) == 0
    assert cli.main(["expect", "--verify", "--policy"]) == 0
    assert compiled == [protocol.step]


def _reference_induction(rep, step_fn):
    """claim_induction_check by stepping the compiled chart of `step_fn`
    directly, without the model."""
    fa3 = fa3_build()
    chart = protocol.compile_chart(step_fn)
    problems = []
    for c in sorted(rep, key=checker._cfg_key):
        for pid in (0, 1):
            for _, move in protocol.branches(chart, c[pid], GROUP[c[1 - pid]]):
                T = rep[c]
                for ev in move.events[pid]:
                    T = fa3.fa4_step(T, ev)
                T = fa3.canonical(T)
                dst = (move.post, c[1]) if pid == 0 else (c[0], move.post)
                problems += [
                    f"{checker._cfg_name(c)} -> {checker._cfg_name(dst)}: "
                    f"state {y!r} not derivable"
                    for y in rep[dst]
                    if y not in T
                ]
    return problems


@pytest.mark.parametrize(
    "step_fn",
    [_mutant(S.HE, RegValue.HE, S.TST1), _mutant(S.ME, RegValue.ME, S.TST0)],
    ids=["he-reads-he-tst1", "me-reads-me-tst0"],
)
def test_claim_induction_walks_the_mutant_model(step_fn):
    rep = checker.representative_sets(step_fn)
    # Each mutant reaches a configuration the default model lacks, so
    # only the mutant's own model can step its sets.
    extra = sorted(set(rep) - set(model().configs), key=checker._cfg_key)
    assert extra
    assert checker.claim_induction_check(rep, step_fn) == []
    assert _reference_induction(rep, step_fn) == []
    # Plant a state in the first mutant-only configuration: the edges
    # into it, which only the mutant has, must now be reported.
    planted = dict(rep)
    planted[extra[0]] = fa3_build().fa4_initial()
    problems = checker.claim_induction_check(planted, step_fn)
    assert problems == _reference_induction(planted, step_fn)
    into = f"-> {checker._cfg_name(extra[0])}: "
    assert problems and all(into in p for p in problems)
