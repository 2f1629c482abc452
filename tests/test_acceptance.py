"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
inline; every criterion is also an ordinary assertion, so a plain pytest run
fails loudly on any regression.  Seeds are fixed; the whole module is meant
to finish in well under a minute.
"""

import random
import sys
import time

import pytest

from rbatl import (
    Semantics,
    box_strategy,
    coverable,
    find_witness,
    model_check,
    parse_formula,
    rb_atl_label,
    reduce_to_model,
    until_strategy,
    validate_witness,
    with_bound,
)
from rbatl.checker import SearchStats, label_all, node0
from rbatl.formula import CoalitionAlways, CoalitionUntil, sub_ordered, sub_plus
from rbatl.vectors import all_inf

import modelgen
from certfuzz import corrupt_variants
from ladder import ladder_always, ladder_until

QUERY_TIME_LIMIT = 60.0
_slowest = 0.0


def _timed(fn, *args, **kw):
    global _slowest
    t0 = time.monotonic()
    out = fn(*args, **kw)
    dt = time.monotonic() - t0
    _slowest = max(_slowest, dt)
    assert dt < QUERY_TIME_LIMIT, f"query exceeded {QUERY_TIME_LIMIT}s"
    return out


def _verdict(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_running_example(fig1):
    expectations = [
        ("<{a1}: 3,1> (true U p)", True),
        ("<{a1,a2}: 0,1> (true U p)", True),
        ("<{a1}: 2,1> (true U p)", False),
        ("<{a1}: 3,0> (true U p)", False),
        ("<{a1}: 0,0> (true U p)", False),
        ("<{a1,a2}: 0,0> (true U p)", False),
    ]
    ok = True
    for text, expect in expectations:
        f = parse_formula(text)
        labels = _timed(model_check, fig1, f)
        ok = ok and (("s_I" in labels[f]) == expect)
    _verdict(1, "running example suite", ok)


def test_criterion_2_petri_differential():
    rng = random.Random(9001)
    total, agree = 0, 0
    for _ in range(220):
        net, target = modelgen.random_net(rng)
        cov = _timed(coverable, net, target)
        model, query = reduce_to_model(net, target)
        chk = "start" in _timed(model_check, model, query)[query]
        total += 1
        agree += cov == chk
    _verdict(2, f"coverability differential {agree}/{total}", agree == total)


def test_criterion_3_engine_equivalence():
    rng = random.Random(9002)
    total, agree = 0, 0
    for _ in range(110):
        m = modelgen.random_consumption_model(rng)
        f = modelgen.random_formula(rng, m, modal_depth=2, max_bound=3)
        tree_labels = _timed(model_check, m, f)
        sym_labels = _timed(rb_atl_label, m, f)
        # every variant of the paper's bound ladder, on the same credits
        ladder_labels = _timed(label_all, m, sub_plus(f), Semantics.RBATL,
                               SearchStats())
        # both engines read credits; the split ladder shares no code with them
        ladder = {**ladder_until(m, f, ladder_labels, Semantics.RBATL),
                  **ladder_always(m, f, ladder_labels, Semantics.RBATL)}
        total += 1
        agree += (all(tree_labels[g] == sym_labels[g] == ladder_labels[g]
                      for g in sub_ordered(f))
                  and all(ladder_labels[g] == x for g, x in ladder.items()))
    _verdict(3, f"engine equivalence {agree}/{total}", agree == total)


def test_criterion_4_unbounded_agreement():
    rng = random.Random(9003)
    total, agree = 0, 0
    for _ in range(50):
        m = modelgen.random_model(rng)  # production allowed
        top = all_inf(m.r)
        A = modelgen.random_coalition(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        for f in (CoalitionUntil(A, top, hold, goal),
                  CoalitionAlways(A, top, hold)):
            labels = _timed(model_check, m, f)
            run = (until_strategy if isinstance(f, CoalitionUntil)
                   else box_strategy)
            got = frozenset(s for s in m.states
                            if run(m, node0(s, top), f, labels))
            total += 1
            agree += got == labels[f]
    _verdict(4, f"all-inf bound agreement {agree}/{total}", agree == total)


def test_criterion_5_bound_monotonicity():
    rng = random.Random(9004)
    total, good = 0, 0
    for _ in range(120):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        b = modelgen.random_bound(rng, m)
        bigger = tuple(x + rng.randint(0, 2) for x in b)
        scheme = rng.choice(("U", "G", "X"))
        if scheme == "U":
            f = CoalitionUntil(A, b, hold, goal)
        elif scheme == "G":
            f = CoalitionAlways(A, b, hold)
        else:
            from rbatl.formula import CoalitionNext
            f = CoalitionNext(A, b, hold)
        low = _timed(model_check, m, f)[f]
        high = _timed(model_check, m, with_bound(f, bigger))[with_bound(f, bigger)]
        total += 1
        good += low <= high
    _verdict(5, f"bound monotonicity {good}/{total}", good == total)


def test_criterion_6_witness_integrity(fig1):
    rng = random.Random(9005)
    validated, mutants_rejected, mutants_total = 0, 0, 0

    def exercise(m, f):
        nonlocal validated, mutants_rejected, mutants_total
        labels = _timed(model_check, m, f)
        for s in sorted(labels[f]):
            tree = find_witness(m, f, s, labels=labels)
            assert tree is not None
            if isinstance(f, CoalitionUntil):
                phi, psi = labels[f.hold], labels[f.goal]
                ok = validate_witness(m, tree, phi_states=phi, psi_states=psi)
            else:
                psi = frozenset()
                ok = validate_witness(m, tree, phi_states=labels[f.child])
            assert ok
            validated += 1
            for mutant in corrupt_variants(m, tree, psi):
                mutants_total += 1
                if isinstance(f, CoalitionUntil):
                    rejected = not validate_witness(
                        m, mutant, phi_states=labels[f.hold],
                        psi_states=labels[f.goal])
                else:
                    rejected = not validate_witness(
                        m, mutant, phi_states=labels[f.child])
                mutants_rejected += rejected

    exercise(fig1, parse_formula("<{a1,a2}: 0,1> (true U p)"))
    exercise(fig1, parse_formula("<{a1}: 3,1> (true U p)"))
    exercise(fig1, parse_formula("<{a1,a2}: 0,0> G true"))
    for _ in range(12):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        b = modelgen.random_bound(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        f = (CoalitionUntil(A, b, hold, goal) if rng.random() < 0.6
             else CoalitionAlways(A, b, hold))
        exercise(m, f)
    ok = (validated >= 20 and mutants_total >= 50
          and mutants_rejected == mutants_total)
    _verdict(
        6,
        f"witness integrity: {validated} certificates, "
        f"{mutants_rejected}/{mutants_total} mutants rejected",
        ok,
    )


def test_criterion_7_single_resource_depth():
    rng = random.Random(9006)
    ok = True
    for _ in range(40):
        m = modelgen.random_model(rng, r=1)
        f = modelgen.random_formula(rng, m, modal_depth=1, max_bound=3)
        stats = SearchStats()
        _timed(model_check, m, f, stats=stats)
        ok = ok and stats.max_depth <= 2 * len(m.states) + 1
    _verdict(7, "single-resource depth bound", ok)


def test_criterion_8_semantics_modes(fig4):
    rng = random.Random(9007)
    ok = True
    for _ in range(60):
        m = modelgen.random_model(rng, total=True)
        f = modelgen.random_formula(rng, m)
        a = _timed(model_check, m, f, Semantics.RBATL)
        b = _timed(model_check, m, f, Semantics.NT)
        ok = ok and all(a[g] == b[g] for g in sub_ordered(f))
    f = parse_formula("<{a,b}: 0> X p")
    ok = ok and "s" in model_check(fig4, f, Semantics.RBATL)[f]
    ok = ok and "s" in model_check(fig4, f, Semantics.NT)[f]
    ok = ok and "s" not in model_check(fig4, f, Semantics.RAL_FINITE)[f]
    _verdict(8, "semantics-mode checks", ok)


def test_criterion_9_termination_guard():
    # runs last: every timed query above already stayed under the limit;
    # finish with a fresh mixed corpus under explicit timing
    rng = random.Random(9008)
    for _ in range(30):
        m = modelgen.random_model(rng, cost_lo=-3, cost_hi=3)
        f = modelgen.random_formula(rng, m, modal_depth=2, max_bound=3)
        _timed(model_check, m, f)
    ok = _slowest < QUERY_TIME_LIMIT
    _verdict(9, f"termination guard (slowest query {_slowest:.2f}s)", ok)
