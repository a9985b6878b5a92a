from fractions import Fraction

from wftas import checker, protocol
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


def test_step_fn_called_once_per_branch():
    calls = 0

    def counting_step(s, observed=None, coin=None):
        nonlocal calls
        calls += 1
        return protocol.step(s, observed, coin)

    report = checker.verify_against_table(step_fn=counting_step)
    assert report.ok
    assert calls == sum(len(edges) for edges in edge_map().values())


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


def _mutated_step():
    orig = protocol.step

    def step(s, observed=None, coin=None):
        if s is S.HE and observed is RegValue.HE:
            return S.TST1
        return orig(s, observed, coin)

    return step


def test_mutation_sensitivity():
    rep = checker.verify_against_table(step_fn=_mutated_step())
    assert not rep.ok
    assert len(rep.mismatches) >= 1
