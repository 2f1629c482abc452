import random

import pytest

import rbatl.model
from rbatl import (IDLE, JointAction, Model, ModelError, Semantics,
                   model_check, parse_formula, rb_atl_label, validate_model)
from rbatl.atl import step_costs

import modelgen


def ja(agents, actions):
    return JointAction(tuple(agents), tuple(actions))


def net_cost(m, state, joint):
    return step_costs(m, state, joint, Semantics.RBATL)[0]


def test_fig1_is_well_formed(fig1):
    assert validate_model(fig1) == []


def test_duplicate_names_reported_once_each_in_sorted_order():
    m = Model(agents=["b", "a", "b"], resources=["r", "r"],
              states=["t", "s", "t", "s", "t"], labels={}, actions={},
              transitions={}, total=False)
    dupes = [e for e in validate_model(m) if "duplicate" in e]
    assert dupes == ["duplicate state name 's'", "duplicate state name 't'",
                     "duplicate agent name 'b'", "duplicate resource name 'r'"]


def test_cost_joint_examples(fig1):
    grand_idle = ja(["a1", "a2"], ["idle", "idle"])
    assert net_cost(fig1, "s_I", grand_idle) == (0, 0)
    assert net_cost(fig1, "s_I", ja(["a1"], ["alpha"])) == (-2, 1)
    assert net_cost(fig1, "s", ja(["a1", "a2"], ["gamma", "beta"])) == (6, -1)
    assert net_cost(fig1, "s", ja([], [])) == (0, 0)


def test_cost_joint_unavailable(fig1):
    with pytest.raises(ModelError, match="a2.*s_I|s_I.*a2"):
        net_cost(fig1, "s_I", ja(["a2"], ["beta"]))


def test_outcomes_examples(fig1):
    # grand coalition: a single successor
    assert fig1.outcomes("s", ja(["a1", "a2"], ["gamma", "beta"])) == ["s_prime"]
    # the producing move is uncontested regardless of the other agent
    assert fig1.outcomes("s_I", ja(["a1"], ["alpha"])) == ["s"]
    # idling at s leaves the other agent the choice
    assert fig1.outcomes("s", ja(["a1"], ["idle"])) == ["s_I", "s"]


def test_outcomes_empty_only_without_totality(fig4):
    assert fig4.outcomes("t", ja([], [])) == []
    assert fig4.outcomes("s", ja(["a"], ["alpha"])) == ["t"]


def test_coalition_actions(fig1):
    assert fig1.coalition_actions("s", []) == [ja([], [])]
    combos = fig1.coalition_actions("s", ["a2", "a1"])
    assert [c.actions for c in combos] == [
        ("idle", "idle"), ("idle", "beta"), ("gamma", "idle"), ("gamma", "beta")
    ]
    assert all(c.agents == ("a1", "a2") for c in combos)
    # enumeration order is stable across calls
    assert combos == fig1.coalition_actions("s", ["a1", "a2"])


def test_coalition_actions_empty_menu(fig4):
    assert fig4.coalition_actions("t", ["a", "b"]) == []


def test_unknown_agent_rejected(fig1):
    with pytest.raises(ModelError):
        fig1.coalition_actions("s", ["zz"])


def test_validate_total_missing_idle(fig1):
    broken = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels=fig1.labels,
        actions={
            **fig1.actions,
            "s_prime": {"a1": {"wait": (0, 0)}, "a2": {"idle": (0, 0)}},
        },
        transitions=fig1.transitions,
        total=True,
    )
    errs = validate_model(broken)
    assert any("idle missing" in e for e in errs)


def test_validate_unavailable_action_in_transition(fig1):
    broken = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels=fig1.labels, actions=fig1.actions,
        transitions={
            **fig1.transitions,
            "s_I": {**fig1.transitions["s_I"], ("gamma", "idle"): "s"},
        },
        total=True,
    )
    errs = validate_model(broken)
    assert any("unavailable" in e for e in errs)


def test_validate_nonzero_idle_cost(fig1):
    actions = {s: {a: dict(menu) for a, menu in per.items()}
               for s, per in fig1.actions.items()}
    actions["s"]["a2"][IDLE] = (1, 0)
    broken = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels=fig1.labels, actions=actions, transitions=fig1.transitions,
        total=True,
    )
    assert any("non-zero cost" in e for e in validate_model(broken))


def test_validate_missing_transition_and_unknown_state(fig1):
    broken = Model(
        agents=fig1.agents, resources=fig1.resources, states=fig1.states,
        labels={"p": ["nowhere"]},
        actions=fig1.actions,
        transitions={
            **fig1.transitions,
            "s": {("idle", "idle"): "s"},
        },
        total=True,
    )
    errs = validate_model(broken)
    assert any("unknown state" in e for e in errs)
    assert any("no transition" in e for e in errs)


def test_degenerate_zero_resource_model():
    m = Model(
        agents=["a"], resources=[], states=["u"], labels={},
        actions={"u": {"a": {IDLE: ()}}},
        transitions={"u": {(IDLE,): "u"}},
        total=True,
    )
    assert validate_model(m) == []
    assert net_cost(m, "u", ja(["a"], [IDLE])) == ()


def test_random_generators_produce_valid_models():
    rng = random.Random(5)
    for _ in range(25):
        assert validate_model(modelgen.random_model(rng)) == []
        assert validate_model(modelgen.random_model(rng, total=False)) == []


def test_total_models_never_have_empty_outcomes():
    rng = random.Random(6)
    for _ in range(10):
        m = modelgen.random_model(rng)
        for s in m.states:
            for coalition in ([], [m.agents[0]], list(m.agents)):
                for move in m.coalition_actions(s, coalition):
                    assert m.outcomes(s, move)


def test_validation_runs_once_per_model(fig1, monkeypatch):
    runs = []
    build = rbatl.model._fill
    monkeypatch.setattr(rbatl.model, "_fill",
                        lambda m, *args, **kw: runs.append(m) or build(m, *args, **kw))
    broken = Model(agents=fig1.agents, resources=fig1.resources,
                   states=fig1.states, labels=fig1.labels,
                   actions={**fig1.actions, "s": {"a1": {}, "a2": {}}},
                   transitions=fig1.transitions, total=True)
    first = validate_model(broken)
    assert first
    first.clear()
    assert validate_model(broken) and validate_model(broken) is not first
    for _ in range(2):
        with pytest.raises(ModelError):
            model_check(broken, parse_formula("p"))
        with pytest.raises(ModelError):
            rb_atl_label(broken, parse_formula("p"))
    assert runs == [broken]
