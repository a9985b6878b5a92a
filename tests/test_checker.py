import re

import pytest

from wftas import checker, cli, expectation, protocol
from wftas.automata import Fa2State, Fa3State, Owner, fa3_build
from wftas.checker import INITIAL_CONFIG, compile_model, model
from wftas.core import RegValue
from wftas.protocol import GROUP, IDLE_OP, ProcState as S, ProtocolError


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
    # Weights are doubled probabilities.  With no absorbing branch, every
    # action's successors carry weight 2.
    for actions in expectation._actions(m, lambda move: (0, False), 0):
        for _, succ, exits in actions:
            assert not exits
            assert sum(w for _, w in succ) == 2
    # Under each solver's objective, the absorbing branches of the
    # tracked pid's action 0 carry exactly the rest; the other pid's
    # action 1 never absorbs.
    for objective in (
        expectation._access_cost,
        expectation._choose_entry_reward,
        expectation._choose_visit_cost,
    ):
        for tracked in (0, 1):
            for i, actions in enumerate(expectation._actions(m, objective, tracked)):
                for pid, (_, succ, exits) in zip((tracked, 1 - tracked), actions, strict=True):
                    branches = m.branches[2 * i + pid]
                    absorbed = sum(
                        2 // len(branches)
                        for _, _, move in branches
                        if pid == tracked and objective(move)[1]
                    )
                    assert sum(w for _, w in succ) + absorbed == 2
                    assert exits == (absorbed > 0)


def test_coin_branch_at_choose_choose():
    m = model()
    branches = m.branches[2 * m.index[(S.CHOOSE, S.CHOOSE)]]
    assert [fields[3] for _, fields, _ in branches] == [True, False]
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
    assert m is model()
    # `model()` is the chart's compile, kept; `compile_model` compiles afresh.
    fresh = compile_model(protocol.CHART)
    assert fresh is not m
    assert (fresh.configs, fresh.index, fresh.branches, fresh.ops) == (
        m.configs, m.index, m.branches, m.ops)
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
            got = [(m.configs[d], fields[3], move) for d, fields, move in m.branches[2 * i + pid]]
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
    assert checker.claim_induction_check(rep_sets, model()) == []


def test_claim_induction_names_underivable_state(rep_sets):
    me_me = (S.ME, S.ME)
    # P0 booked as having returned 0 and gone idle, yet still in ME.
    extra = Fa3State(Owner.P0, Fa2State.I0, Fa2State.I1)
    assert extra not in fa3_build().eps_only_states()
    assert extra not in rep_sets[me_me]
    forged = {**rep_sets, me_me: rep_sets[me_me] | {extra}}
    problems = checker.claim_induction_check(forged, model())
    assert f"(rst,me) -> (me,me): state {extra!r} not derivable" in problems
    assert all(p.endswith(f"-> (me,me): state {extra!r} not derivable")
               for p in problems)


def test_claim_induction_lists_underivable_states_in_order(rep_sets):
    """Three forged P0 states in (me,me) are named on every edge into
    it, in `Fa3State` order, whatever order the forged set iterates in."""
    me_me = (S.ME, S.ME)
    extras = {Fa3State(Owner.P0, Fa2State.I0, x) for x in (Fa2State.S, Fa2State.T1, Fa2State.I1)}
    assert not extras & rep_sets[me_me]
    forged = {**rep_sets, me_me: rep_sets[me_me] | extras}
    by_repr = {repr(s): s for s in extras}
    per_edge = {}
    for p in checker.claim_induction_check(forged, model()):
        edge, state = re.fullmatch(r"(.* -> \(me,me\)): state (.*) not derivable", p).groups()
        per_edge.setdefault(edge, []).append(by_repr[state])
    assert len(per_edge) == 6
    assert all(states == sorted(extras) for states in per_edge.values())


def test_step_fn_called_once_per_chart_entry():
    calls = 0

    def counting_step(s, observed=None, coin=None):
        nonlocal calls
        calls += 1
        return protocol.step(s, observed, coin)

    report = checker.verify_against_table(step_fn=counting_step)
    assert report.ok
    assert calls == len(protocol.CHART) == 24


def test_representative_sets_nonempty(rep_sets):
    assert len(rep_sets) == 98
    assert all(rep for rep in rep_sets.values())


def test_representative_set_mirror(rep_sets):
    for (s0, s1), rep in rep_sets.items():
        mirrored = frozenset(x.mirror() for x in rep)
        assert rep_sets[(s1, s0)] == mirrored


def test_op_outcomes():
    m = model()
    out = checker._outcomes(m, 0, (0, 1))
    # Both outcomes are open in the symmetric race.
    assert out[m.index[(S.ME, S.ME)]] == {0, 1}
    # A process in HE facing a winner can only lose.
    assert out[m.index[(S.HE, S.TST0)]] == {1}


def test_solo_returns_one():
    m = model()
    solo = checker._outcomes(m, 0, (0,))
    # From TST1 the one-access tas returns 1 without the peer moving.
    assert 1 in solo[m.index[(S.TST1, S.ME)]]
    # From RST a solo run wins; it cannot return 1 on its own.
    assert 1 not in solo[m.index[(S.ME, S.RST)]]


def _forward_outcomes(m, c, pid, actors):
    """The return values of pid's pending operation from configuration
    id `c`, by a forward search over every schedule of `actors`."""
    seen, stack, out = {c}, [c], set()
    while stack:
        c = stack.pop()
        for actor in actors:
            for d, _, move in m.branches[2 * c + actor]:
                if actor == pid and move.finishes:
                    out.add(protocol.returns_value(move.post))
                elif d not in seen:
                    seen.add(d)
                    stack.append(d)
    return out


def _model_of(step_fn):
    """The model of the chart `step_fn` defines, compiled afresh."""
    return compile_model(protocol.compile_chart(step_fn))


def _mutant(state, value, post):
    """The protocol step with the read of `value` from `state` redirected
    to `post`."""
    orig = protocol.step

    def step(s, observed=None, coin=None):
        if s is state and observed is value:
            return post
        return orig(s, observed, coin)

    return step


def test_model_ops_finish_iff_idle():
    """Every branch of the chart finishes its operation exactly when it
    enters an idle state, so the model's ops follow its configurations:
    the access after one that finishes starts the next operation.  A
    chart with an access that enters an idle state and cannot finish
    there does not compile."""
    m = model()
    assert len(m.ops) == len(m.branches)
    for i, c in enumerate(m.configs):
        for pid in (0, 1):
            assert m.ops[2 * i + pid] == (IDLE_OP.get(c[pid], "tas"), c[pid] in IDLE_OP)
            for d, _, move in m.branches[2 * i + pid]:
                assert m.configs[d][pid] is move.post
                assert move.finishes == (move.post in IDLE_OP) == m.ops[2 * d + pid][1]
    # he reading he enters rst: an idle state, in the middle of a tas
    # that then has no return value.
    with pytest.raises(ProtocolError, match="^he -> rst: "):
        _model_of(_mutant(S.HE, RegValue.HE, S.RST))


@pytest.mark.parametrize("step_fn", [
    protocol.step,
    _mutant(S.HE, RegValue.HE, S.TST1),
], ids=["chart", "he-reads-he-tst1"])
def test_branch_fields_follow_the_move(step_fn):
    """Each branch's fields are the access its Move and pid record: a
    write to pid's own register or a read of the other one, the action,
    value, coin (heads, then tails), state names and pid's events."""
    m = _model_of(step_fn)
    for k, b in enumerate(m.branches):
        pid = k % 2
        coins = (True, False) if len(b) == 2 else (None,)
        for (_, fields, move), coin in zip(b, coins, strict=True):
            reg = pid if move.action == "w" else 1 - pid
            assert fields == (reg, move.action, move.value, coin, move.pre_name,
                              move.post_name, move.events[pid])


def _rule(pre, post):
    """The B-event kinds of the access from `pre` to `post`, restated
    from the idle states, or None where they give none: leaving
    rst/tst1 starts a tas and leaving tst0 is the whole reset, which
    must enter an idle state; a tas entering tst0 or tst1 returns 0 or
    1, and one entering rst returns nothing."""
    if pre is S.TST0:
        return ("rstOp",) if post in IDLE_OP else None
    if post is S.RST:
        return None
    start = ("sTas",) if pre in IDLE_OP else ()
    return start + {S.TST0: ("fTas0",), S.TST1: ("fTas1",)}.get(post, ())


def _register_legal(key, post):
    """Registers can run the access: a write (no observed value), or a
    read that stays in its group, since it leaves the own register as
    it is."""
    return key[1] is None or GROUP[post] is GROUP[key[0]]


def _entry_mutants():
    """Every single-entry mutant of the chart: each of its 24 entries
    redirected to each of the other 10 states."""
    for key, move in protocol.CHART.items():
        for post in S:
            if post is not move.post:

                def step(s, observed=None, coin=None, key=key, post=post):
                    if (s, observed, coin) == key:
                        return post
                    return protocol.step(s, observed, coin)

                yield key, post, step


def test_single_entry_mutant_census():
    """Each single-entry mutant either compiles, register-legal with
    every access labelled by the rule, or is refused with a
    ProtocolError naming the mutated transition; each one that compiles
    gets a model and its history families, and some of those reach the
    empty FA4 set."""
    chart_model = model()
    compiled = empty = 0
    refused = {"register": 0, "tas": 0, "reset": 0}
    for key, post, step_fn in _entry_mutants():
        legal = _register_legal(key, post)
        expected = _rule(key[0], post)
        try:
            chart = protocol.compile_chart(step_fn)
        except ProtocolError as exc:
            assert not legal or expected is None
            assert str(exc).startswith(f"{key[0].value} -> {post.value}: ")
            refused["register" if not legal else IDLE_OP.get(key[0], "tas")] += 1
            continue
        assert legal and expected is not None
        for (s, observed, _), move in chart.items():
            kinds = _rule(s, move.post)
            assert move.events == tuple(
                tuple(protocol.SHARED_EVENTS[k, pid] for k in kinds) for pid in (0, 1)
            )
            assert move.finishes == (move.post in IDLE_OP)
            assert move.value is (GROUP[move.post] if observed is None else observed)
        compiled += 1
        fam = checker.forward_families(compile_model(chart))
        empty += any(frozenset() in sets for sets in fam.values())
    assert (compiled, refused, empty) == (98, {"register": 128, "tas": 6, "reset": 8}, 38)
    # The chart's model outlives the census.
    assert model() is chart_model and model() is model()
    assert model.cache_info().currsize == 1


@pytest.mark.parametrize("step_fn", [
    protocol.step,
    _mutant(S.CHOOSE, RegValue.RST, S.TOME),  # the benchmark's mutant
], ids=["chart", "choose-reads-rst-tome"])
def test_claim_futures_computed_once_per_config_and_pid(monkeypatch, step_fn):
    """One `representative_sets` call runs the outcome searches once per
    pid and actor set, all pids or the pid alone: every configuration's
    futures come from those four tables."""
    log = []
    orig = checker._outcomes

    def counted(m, pid, actors):
        log.append((pid, actors))
        return orig(m, pid, actors)

    monkeypatch.setattr(checker, "_outcomes", counted)
    m = _model_of(step_fn)
    for calls in (1, 2):
        rep = checker.representative_sets(m)
        assert sorted(log) == sorted([(0, (0, 1)), (1, (0, 1)), (0, (0,)), (1, (1,))] * calls)
        assert all(rep.values())


@pytest.mark.parametrize("step_fn", [
    protocol.step,
    _mutant(S.CHOOSE, RegValue.RST, S.TOME),
    _mutant(S.ME, RegValue.ME, S.TST0),
], ids=["chart", "choose-reads-rst-tome", "me-reads-me-tst0"])
def test_outcome_searches_match_forward_search(step_fn):
    """The backward searches give every mid-operation process the values
    a forward search from its configuration finds."""
    m = _model_of(step_fn)
    for pid in (0, 1):
        for actors in ((0, 1), (pid,)):
            out = checker._outcomes(m, pid, actors)
            for c, config in enumerate(m.configs):
                if config[pid] not in IDLE_OP:
                    assert out[c] == _forward_outcomes(m, c, pid, actors)


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
    m = _model_of(step_fn)
    fam = checker.forward_families(m)
    assert fam == _reference_families(m)
    assert sum(frozenset() in sets for sets in fam.values()) == empty_configs


def test_default_graph_built_once(monkeypatch):
    """After import, `check` then `expect` compile no chart and one
    model: that of `protocol.CHART`."""
    checker.model.cache_clear()
    charts, models = [], []
    orig_chart, orig_model = protocol.compile_chart, checker.compile_model

    def counting_chart(step_fn=protocol.step):
        charts.append(step_fn)
        return orig_chart(step_fn)

    def counting_model(chart):
        models.append(chart)
        return orig_model(chart)

    monkeypatch.setattr(protocol, "compile_chart", counting_chart)
    monkeypatch.setattr(checker, "compile_model", counting_model)
    assert cli.main(["check", "--json"]) == 0
    assert cli.main(["expect", "--verify", "--policy"]) == 0
    assert charts == []
    assert len(models) == 1 and models[0] is protocol.CHART


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
    m = _model_of(step_fn)
    rep = checker.representative_sets(m)
    # Each mutant reaches a configuration the default model lacks, so
    # only the mutant's own model can step its sets.
    extra = sorted(set(rep) - set(model().configs), key=checker._cfg_key)
    assert extra
    assert checker.claim_induction_check(rep, m) == []
    assert _reference_induction(rep, step_fn) == []
    # Plant a state in the first mutant-only configuration: the edges
    # into it, which only the mutant has, must now be reported.
    planted = dict(rep)
    planted[extra[0]] = fa3_build().fa4_initial()
    problems = checker.claim_induction_check(planted, m)
    assert problems == _reference_induction(planted, step_fn)
    into = f"-> {checker._cfg_name(extra[0])}: "
    assert problems and all(into in p for p in problems)
