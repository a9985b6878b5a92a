"""The nine acceptance criteria, one test and one printed verdict line
each.  Tolerances and budgets are stated inline; nothing is loosened.
"""

import math
import subprocess
import sys
import time

import pytest

from wftas import (
    automata,
    checker,
    expectation,
    harness,
    linearize,
    protocol,
    tournament,
)
from wftas.core import Access, Event, RegValue, Trace
from wftas.harness import Workload
from wftas.protocol import ProcState as S


# An `Access`'s field names, in the order of its `fields` tuple.
_ACCESS_FIELDS = ("reg", "action", "value", "coin", "pre", "post", "events")


def _replace(record, **changes):
    """`record` rebuilt from its fields, with `changes` applied; an
    `Access`'s `fields` tuple is rebuilt from its field names."""
    if type(record) is Access:
        changes["fields"] = tuple(changes.pop(f, getattr(record, f)) for f in _ACCESS_FIELDS)
    return type(record)(**{f: getattr(record, f) for f in record.__slots__} | changes)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_table_letters(capsys):
    t0 = time.perf_counter()
    rep = checker.verify_against_table()
    dt = time.perf_counter() - t0
    ok = (
        rep.ok
        and rep.verified_cells == 98
        and rep.verified_unreachable == 23
        and dt < 1.0
    )
    report(
        capsys, 1, ok,
        f"98 letter cells exact, 23 unreachable, {dt:.2f}s "
        f"({len(rep.mismatches)} mismatches)",
    )


def test_criterion_2_table_values(capsys):
    t0 = time.perf_counter()
    result = expectation.solve(0)
    problems = expectation.verify_values(result)
    dt = time.perf_counter() - t0
    tst1_row = [v for (s0, _), v in result.values.items() if s0 is S.TST1]
    tst0_row = [v for (s0, _), v in result.values.items() if s0 is S.TST0]
    ok = (
        problems == []
        and result.max_value == 11
        and max(tst1_row) == 11
        and set(tst0_row) == {1}
        and dt < 1.0
    )
    report(
        capsys, 2, ok,
        f"98 exact rational values, max=11 on tst1 row, tst0 row all 1, "
        f"{dt:.2f}s",
    )


def test_criterion_3_fa3_structure(capsys):
    fa3 = automata.fa3_build()
    by_owner = {}
    for s in fa3.states:
        by_owner[s.owner] = by_owner.get(s.owner, 0) + 1
    from wftas.automata import Fa2State, Fa3State, Owner

    counts = (
        by_owner.get(Owner.BOT, 0),
        by_owner.get(Owner.P0, 0),
        by_owner.get(Owner.P1, 0),
    )
    eps_only = fa3.eps_only_states()
    ok = (
        len(fa3.states) == 20
        and counts == (8, 6, 6)
        and eps_only == {Fa3State(Owner.BOT, Fa2State.S, Fa2State.S)}
    )
    report(capsys, 3, ok, f"20 states split {counts}, unique eps-only state")


def test_criterion_4_linearizable_positive(capsys):
    t0 = time.perf_counter()
    runs = [("round-robin", harness.round_robin(), 0),
            ("optimal", harness.optimal(), 0)]
    runs += [(f"random[{s}]", harness.random_adversary(s), s)
             for s in (1, 2, 3, 4, 5)]
    checked = 0
    all_ok = True
    for name, adv, seed in runs:
        trace, _, stats = harness.run(Workload((5000, 5000)), adv, seed=seed)
        v = linearize.check_two_process(trace)
        all_ok &= v.ok and not stats.truncated
        checked += len(stats.per_op)
    dt = time.perf_counter() - t0
    ok = all_ok and dt < 30.0
    report(
        capsys, 4, ok,
        f"{len(runs)} adversaries x 10,000 tas ops all linearizable "
        f"({checked} ops incl. resets), {dt:.1f}s < 30s",
    )


def _mutated_step():
    orig = protocol.step

    def step(s, observed=None, coin=None):
        if s is S.CHOOSE and observed is RegValue.RST:
            return S.TOME
        return orig(s, observed, coin)

    return step


def test_criterion_5_negative(capsys):
    # A replay-consistent corrupted trace (winner's finish forged to
    # return 1, so both concurrent operations return 1) must be rejected.
    trace, _, _ = harness.run(Workload((5, 5)), harness.round_robin(), seed=1)
    accesses = []
    forged = False
    for a in trace:
        if not forged and any(e.kind == "fTas0" for e in a.events):
            a = _replace(
                a,
                events=tuple(
                    Event("fTas1", e.pid) if e.kind == "fTas0" else e
                    for e in a.events
                ),
            )
            forged = True
        accesses.append(a)
    verdict = linearize.check_two_process(Trace(accesses))
    # The same protocol mutation must also perturb the verified table.
    rep = checker.verify_against_table(step_fn=_mutated_step())
    ok = forged and not verdict.ok and len(rep.mismatches) >= 1
    report(
        capsys, 5, ok,
        f"corrupted trace rejected at prefix {verdict.rejected_prefix}; "
        f"choose-reads-rst mutation: {len(rep.mismatches)} table mismatches",
    )


def test_criterion_6_loop_geometry(capsys):
    from fractions import Fraction

    problems = expectation.loop_probability_check()
    lp = expectation.loop_probabilities()
    exact_ok = (
        problems == []
        and lp.values[(S.CHOOSE, S.CHOOSE)] == Fraction(1, 2)
    )
    exp = harness.loop_experiment(min_visits=100_000, seed=2)
    ok = exact_ok and exp.within_3_sigma
    report(
        capsys, 6, ok,
        f"analytic loop prob <= 1/2 everywhere, = 1/2 at (choose,choose); "
        f"MC {exp.empirical_frequency:.4f} vs {exp.analytic_frequency:.4f} "
        f"over {exp.n} visits (3 sigma = {3 * exp.sigma:.4f})",
    )


def test_criterion_7_wait_freedom(capsys):
    n = 10_000
    counts = harness.measure_from_config((S.TST1, S.RST), n, seed=4)
    mean = sum(counts) / n
    var = sum((c - mean) ** 2 for c in counts) / (n - 1)
    half_ci = 2.5758 * math.sqrt(var / n)  # 99% CI
    ci_ok = abs(mean - 11) <= half_ci
    resets_ok = True
    for seed in range(3):
        _, _, stats = harness.run(
            Workload((200, 200)), harness.random_adversary(seed), seed=seed
        )
        resets_ok &= stats.resets_all_one_access
    ok = ci_ok and resets_ok and max(counts) <= 10**6
    report(
        capsys, 7, ok,
        f"mean {mean:.3f} within 99% CI of 11 (+/- {half_ci:.3f}) over "
        f"{n} ops; every reset = 1 access: {resets_ok}",
    )


def test_criterion_8_tournament_failure(capsys):
    t0 = time.perf_counter()
    rep = tournament.find_violation(n=3, budget=2000, seed=0)
    dt = time.perf_counter() - t0
    nodes_ok = bool(rep.node_verdicts) and all(rep.node_verdicts.values())
    lints_ok = all(
        linearize.lint(rep.tree.node_trace(v)).ok
        for v in rep.tree.nodes
        if len(rep.tree.node_trace(v))
    )
    n2_clean = False
    try:
        tournament.find_violation(n=2, budget=2000, seed=0)
    except tournament.BudgetExceeded:
        n2_clean = True
    ok = (not rep.verdict.ok) and nodes_ok and lints_ok and n2_clean and dt < 60.0
    report(
        capsys, 8, ok,
        f"n=3 non-linearizable history in {dt:.1f}s < 60s, per-node "
        f"projections linearizable, n=2 clean under the same budget",
    )


def test_criterion_9_determinism(capsys):
    cmds = [
        ["simulate", "--ops", "200", "--adversary", "random", "--seed", "13"],
        ["simulate", "--ops", "100", "--adversary", "optimal", "--seed", "1"],
        ["check", "--json"],
        ["expect", "--verify", "--policy"],
        ["tournament", "--n", "3", "--budget", "10"],
        ["dump-fa3"],
    ]
    code = "from wftas.cli import main; import sys; sys.exit(main(sys.argv[1:]))"
    ok = True
    for cmd in cmds:
        outs = [
            subprocess.run(
                [sys.executable, "-c", code] + cmd,
                capture_output=True, check=False,
            ).stdout
            for _ in range(2)
        ]
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
    report(capsys, 9, ok, f"{len(cmds)} CLI invocations byte-identical on rerun")
