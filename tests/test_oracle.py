import random

import pytest

from rbatl import EngineError, Semantics, UNKNOWN, bounded_search, model_check
from rbatl import eval_propositional
from rbatl.formula import CoalitionAlways, CoalitionUntil
from rbatl.parser import parse_formula

import modelgen


def test_root_goal_is_immediate(fig1):
    psi = fig1.state_set()
    assert bounded_search(fig1, ("a1",), (0, 0), "until", 1, state="s_I",
                          phi_states=fig1.state_set(), psi_states=psi) is True


def test_two_step_witness(fig1):
    phi = fig1.state_set()
    psi = fig1.proposition_states("p")
    assert bounded_search(fig1, ("a1",), (3, 1), "until", 4, state="s_I",
                          phi_states=phi, psi_states=psi) is True
    assert bounded_search(fig1, ("a1",), (3, 1), "until", 1, state="s_I",
                          phi_states=phi, psi_states=psi) is UNKNOWN


def test_loop_witness_depth_threshold(fig1):
    # the grand-coalition loop witness needs seven producing/trading steps
    # plus the final expensive move: exactly eight edges
    phi = fig1.state_set()
    psi = fig1.proposition_states("p")

    def run(depth):
        return bounded_search(fig1, ("a1", "a2"), (0, 1), "until", depth,
                              state="s_I", phi_states=phi, psi_states=psi)

    assert run(3) is UNKNOWN
    assert run(7) is UNKNOWN
    assert run(8) is True
    assert run(12) is True


def test_monotone_in_depth(fig1):
    phi = fig1.state_set()
    psi = fig1.proposition_states("p")
    seen_true = False
    for depth in range(1, 12):
        res = bounded_search(fig1, ("a1", "a2"), (0, 1), "until", depth,
                             state="s_I", phi_states=phi, psi_states=psi)
        if seen_true:
            assert res is True
        seen_true = seen_true or res is True
    assert seen_true


def test_box_oracle(drain):
    phi = drain.proposition_states("p")
    assert bounded_search(drain, ("a",), (3,), "box", 8, state="u",
                          phi_states=phi) is UNKNOWN
    assert bounded_search(drain, ("a",), (0,), "box", 3, state="v",
                          phi_states=drain.state_set()) is True


def test_depth_contract():
    with pytest.raises(EngineError):
        bounded_search(None, (), (), "until", 0, state="u", phi_states=())


def test_oracle_true_implies_checker_true():
    rng = random.Random(99)
    agreed = 0
    for _ in range(30):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        b = modelgen.random_bound(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        kind = rng.choice(("U", "G"))
        phi = eval_propositional(m, hold)
        psi = eval_propositional(m, goal)
        if kind == "U":
            f = CoalitionUntil(A, b, hold, goal)
            oracle = lambda s: bounded_search(
                m, A, b, "until", 2 * len(m.states) + 4, state=s,
                phi_states=phi, psi_states=psi)
        else:
            f = CoalitionAlways(A, b, hold)
            oracle = lambda s: bounded_search(
                m, A, b, "box", 2 * len(m.states) + 4, state=s,
                phi_states=phi)
        labels = model_check(m, f)
        for s in m.states:
            if oracle(s) is True:
                agreed += 1
                assert s in labels[f], (kind, s)
    assert agreed > 10  # the corpus actually exercises the oracle


def test_eval_propositional_rejects_modalities(fig1):
    with pytest.raises(Exception):
        eval_propositional(fig1, parse_formula("<{a1}: 1,1> X p"))
