import json
import random

import pytest

from rbatl import (
    PetriError,
    PetriNet,
    coverable,
    dump_net,
    enabled,
    fire,
    model_check,
    net_from_dict,
    net_to_dict,
    reduce_to_model,
    validate_model,
)
from rbatl.cli import main

import modelgen


@pytest.fixture
def doubling():
    """Take one token, give two back."""
    return PetriNet(places=("p1",), transitions=("t",),
                    arcs_in={("p1", "t"): 1}, arcs_out={("t", "p1"): 2},
                    marking=(1,))


def test_fire_examples(doubling):
    assert enabled(doubling, (1,), "t")
    assert fire(doubling, (1,), "t") == (2,)
    assert not enabled(doubling, (0,), "t")
    with pytest.raises(PetriError):
        fire(doubling, (0,), "t")


def test_zero_arc_transition_is_noop():
    net = PetriNet(places=("p1",), transitions=("t",), arcs_in={},
                   arcs_out={}, marking=(0,))
    assert enabled(net, (0,), "t")
    assert fire(net, (5,), "t") == (5,)


def test_fire_preserves_nonnegativity():
    rng = random.Random(51)
    for _ in range(30):
        net, _ = modelgen.random_net(rng)
        marking = net.marking
        for _ in range(10):
            ts = [t for t in net.transitions if enabled(net, marking, t)]
            if not ts:
                break
            marking = fire(net, marking, rng.choice(ts))
            assert all(x >= 0 for x in marking)


def test_coverable_examples(doubling):
    assert coverable(doubling, (1,))  # the empty sequence suffices
    assert coverable(doubling, (3,))  # fire twice: 1 -> 2 -> 3
    assert coverable(doubling, (50,))  # the pump accelerates to omega
    empty = PetriNet(places=("p1",), transitions=(), arcs_in={}, arcs_out={},
                     marking=(1,))
    assert not coverable(empty, (2,))
    assert coverable(empty, (0,))


def test_coverable_needs_matching_length(doubling):
    with pytest.raises(PetriError):
        coverable(doubling, (1, 2))


def test_reduction_structure(doubling):
    model, query = reduce_to_model(doubling, (3,))
    assert len(model.states) == 4  # start, one transition, goal, sink
    assert set(model.actions["start"]["1"]) == {"idle", "good", "t-"}
    assert model.actions["start"]["1"]["good"] == (3,)
    assert model.actions["start"]["1"]["t-"] == (1,)
    assert model.actions["t"]["1"]["t+"] == (-2,)
    assert validate_model(model) == []
    assert query.bound == (1,)
    assert model.transitions["start"][("idle",)] == "sink"
    assert model.transitions["t"][("idle",)] == "sink"
    assert model.transitions["goal"][("idle",)] == "goal"


def test_reduction_no_transitions_degenerates_to_dominance():
    net = PetriNet(places=("p1", "p2"), transitions=(), arcs_in={},
                   arcs_out={}, marking=(2, 1))
    model, query = reduce_to_model(net, (1, 1))
    assert len(model.states) == 3  # start, goal, sink
    labels = model_check(model, query)
    assert "start" in labels[query]
    harder, query2 = reduce_to_model(net, (3, 0))
    assert "start" not in model_check(harder, query2)[query2]


def test_reduction_agrees_with_oracle(doubling):
    model, query = reduce_to_model(doubling, (3,))
    assert "start" in model_check(model, query)[query]
    assert coverable(doubling, (3,))


def test_reduction_differential_random():
    rng = random.Random(52)
    for _ in range(60):
        net, target = modelgen.random_net(rng)
        model, query = reduce_to_model(net, target)
        assert validate_model(model) == []
        got = "start" in model_check(model, query)[query]
        assert got == coverable(net, target)


def test_net_serialization_round_trip(doubling):
    data = net_to_dict(doubling)
    back = net_from_dict(data)
    assert net_to_dict(back) == data
    assert "arcs" in dump_net(doubling)


@pytest.mark.parametrize("arcs", [5, None])
def test_arcs_that_are_not_a_list_are_a_load_error(doubling, arcs, tmp_path,
                                                   capsys):
    data = dict(net_to_dict(doubling), arcs=arcs)
    with pytest.raises(PetriError, match="arcs must be a list"):
        net_from_dict(data)
    path = tmp_path / "net.json"
    path.write_text(json.dumps(data))
    assert main(["petri", str(path), "--target", "1"]) == 2
    err = capsys.readouterr().err
    assert "arcs must be a list" in err and "Traceback" not in err


def test_net_from_dict_errors(doubling):
    with pytest.raises(PetriError):
        net_from_dict({"format_version": 99})
    with pytest.raises(PetriError, match="format_version True"):
        net_from_dict(dict(net_to_dict(doubling), format_version=True))
    with pytest.raises(PetriError):
        net_from_dict({
            "format_version": 1, "places": ["p"], "transitions": ["p"],
            "arcs": [], "marking": [0],
        })
    with pytest.raises(PetriError):
        net_from_dict({
            "format_version": 1, "places": ["p"], "transitions": ["t"],
            "arcs": [{"from": "p", "to": "p", "weight": 1}], "marking": [0],
        })
