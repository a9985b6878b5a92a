from fractions import Fraction

import pytest

from wftas import checker, cli, protocol
from wftas.automata import Fa2State, Fa3State, Owner, fa3_build
from wftas.checker import INITIAL_CONFIG, edge_map
from wftas.core import RegValue
from wftas.protocol import ProcState as S


def test_initial_config():
    assert INITIAL_CONFIG == (S.RST, S.RST)


def test_reachable_count():
    assert len(edge_map()) == 98


def test_edges_probabilities():
    for cfg, out in edge_map().items():
        for pid in (0, 1):
            edges = [e for e in out if e.pid == pid]
            assert sum(e.prob for e in edges) == Fraction(1)
            for e in edges:
                assert e.src == cfg


def test_coin_branch_at_choose_choose():
    edges = [e for e in edge_map()[(S.CHOOSE, S.CHOOSE)] if e.pid == 0]
    assert sorted(e.coin for e in edges) == [False, True]
    assert all(e.prob == Fraction(1, 2) for e in edges)
    assert {e.dst[0] for e in edges} == {S.TOME, S.TOHE}


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
    emap = edge_map()
    # Both outcomes are open in the symmetric race.
    assert checker.op_outcomes(emap, (S.ME, S.ME), 0) == frozenset({0, 1})
    # A process in HE facing a winner can only lose.
    assert checker.op_outcomes(emap, (S.HE, S.TST0), 0) == frozenset({1})


def test_solo_returns_one():
    emap = edge_map()
    # From TST1 the one-access tas returns 1 without the peer moving.
    assert checker.solo_returns_one(emap, (S.TST1, S.ME), 0)
    # From RST a solo run wins; it cannot return 1 on its own.
    assert not checker.solo_returns_one(emap, (S.ME, S.RST), 0)


def _mutant(state, value, post):
    """The protocol step with the read of `value` from `state` redirected
    to `post`."""
    orig = protocol.step

    def step(s, observed=None, coin=None):
        if s is state and observed is value:
            return post
        return orig(s, observed, coin)

    return step


def test_mutation_sensitivity():
    rep = checker.verify_against_table(step_fn=_mutant(S.HE, RegValue.HE, S.TST1))
    assert not rep.ok
    assert len(rep.mismatches) >= 1


def test_mutation_report_lists_each_mismatch_once():
    rep = checker.verify_against_table(step_fn=_mutant(S.HE, RegValue.HE, S.TST1))
    assert "cell ('tst1', 'tst1'): reachable but '*' in table" in rep.mismatches
    assert len(rep.mismatches) == len(set(rep.mismatches))


def _reference_families(emap):
    """forward_families on FA4 state sets: subset steps, then canonical."""
    fa3 = fa3_build()
    fam = {INITIAL_CONFIG: {fa3.fa4_initial()}}
    frontier = [(INITIAL_CONFIG, fa3.fa4_initial())]
    while frontier:
        c, S_ = frontier.pop()
        for e in emap[c]:
            T = S_
            for ev in e.events:
                T = fa3.fa4_step(T, ev)
            T = fa3.canonical(T)
            if T not in fam.setdefault(e.dst, set()):
                fam[e.dst].add(T)
                frontier.append((e.dst, T))
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
    emap = edge_map(step_fn)
    fam = checker.forward_families(emap)
    assert fam == _reference_families(emap)
    assert sum(frozenset() in sets for sets in fam.values()) == empty_configs


def test_default_graph_built_once(monkeypatch):
    checker._edge_map.cache_clear()
    compiled = []
    orig = protocol.compile_chart

    def counting(step_fn=protocol.step):
        compiled.append(step_fn)
        return orig(step_fn)

    monkeypatch.setattr(protocol, "compile_chart", counting)
    assert cli.main(["check", "--json"]) == 0
    assert cli.main(["expect", "--verify", "--policy"]) == 0
    assert compiled == [protocol.step]
