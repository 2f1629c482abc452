"""The benchmark's reference answers accept known answers and reject
planted wrong ones.  Run with pytest, or directly: python3 bench/test_reference.py
"""

import copy
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import corpus  # noqa: E402
import reference  # noqa: E402

TRUE, P, Q = corpus.TRUE, corpus.prop("p"), corpus.prop("q")


def exact_labels(game, f):
    """Reference labels for every subformula of f, computed bottom-up."""
    labels = {}
    for g in sorted(corpus.closure(f), key=corpus.size):
        lower, upper = game.label(g, labels)
        assert lower == upper
        labels[g] = lower
    return labels


def test_chain_matches_closed_form():
    n = 12
    game = reference.Game(corpus.chain(n, 1))
    for b in (0, 3, 11, None):
        f = ("U", ("a",), (b,), TRUE, P)
        got = exact_labels(game, f)[f]
        want = {f"c{i}" for i in range(n) if corpus.chain_wins(n, 1, (b,), i)}
        assert got == want


def test_drift_chain_always_fails_everywhere():
    game = reference.Game(corpus.chain(8, 1, drift=True))
    f = ("G", ("a",), (None,), ("not", P))
    assert exact_labels(game, f)[f] == frozenset()
    g = ("G", ("a",), (2,), TRUE)
    assert exact_labels(game, g)[g] == frozenset(game.states)


def test_fig1_bracket_contains_closed_form():
    k = 10
    game = reference.Game(corpus.fig1(k))
    for coalition, bound in ((("a1", "a2"), (0, 1)), (("a1",), (8, 1)),
                             (("a1",), (7, 1))):
        f = ("U", coalition, bound, TRUE, P)
        args = {TRUE: frozenset(game.states), P: frozenset({"s_prime"})}
        lower, upper = game.label(f, args)
        verdict = corpus.fig1_wins(k, coalition, bound)
        assert ("s_I" in lower) <= verdict <= ("s_I" in upper)


def test_check_labels_accepts_exact_and_rejects_planted():
    rng = random.Random(5)
    for _ in range(10):
        game = reference.Game(corpus.random_game(rng, 5, cost_lo=0, cost_hi=2))
        f = ("U", ("a0",), (2, 1), ("not", Q), P)
        labels = exact_labels(game, f)
        assert reference.check_labels(game, f, labels.__getitem__) == []
        wrong = dict(labels)
        wrong[f] = labels[f] ^ {"s0"}
        problems = reference.check_labels(game, f, wrong.__getitem__)
        assert len(problems) == 1 and "U p" in problems[0]
        missing = dict(labels)
        del missing[corpus.inf_variant(f)]
        assert reference.check_labels(game, f, missing.__getitem__)


def test_ladder_checks_every_lower_bound_variant():
    rng = random.Random(6)
    game = reference.Game(corpus.random_game(rng, 6, cost_lo=0, cost_hi=2))
    f = ("G", ("a0", "a1"), (2, 2), Q)
    labels = exact_labels(game, f)
    labels.update(game.ladder_labels(f, labels))
    assert len(labels) == len(corpus.ladder(f))
    assert reference.check_labels(game, f, labels.__getitem__,
                                  ladder=True) == []
    wrong = dict(labels)
    variant = corpus.with_bound(f, (1, 0))
    wrong[variant] = labels[variant] ^ {"s1"}
    problems = reference.check_labels(game, f, wrong.__getitem__, ladder=True)
    assert len(problems) == 1 and "1,0" in problems[0]


def test_bracket_rejects_labels_outside_it():
    model = corpus.fig1(6)
    game = reference.Game(model)
    f = ("U", ("a1",), (3, 1), TRUE, P)
    labels = {TRUE: frozenset(game.states), P: frozenset({"s_prime"})}
    lower, upper = game.label(f, labels)
    assert lower < upper  # the loop through s leaves room
    labels[corpus.inf_variant(f)] = upper
    for planted in (lower - {"s_prime"}, upper | {"s_absent"}):
        labels[f] = planted
        assert reference.check_labels(game, f, labels.__getitem__)
    labels[f] = lower
    assert reference.check_labels(game, f, labels.__getitem__) == []


def test_coverable_known_nets():
    net = {"places": ["a", "b"], "transitions": ["t"],
           "arcs": [{"from": "a", "to": "t", "weight": 1},
                    {"from": "t", "to": "b", "weight": 2}],
           "marking": [1, 0]}
    assert reference.coverable(net, [0, 2])
    assert not reference.coverable(net, [0, 3])
    assert not reference.coverable(net, [1, 1])
    pump = {"places": ["a", "b"], "transitions": ["t"],
            "arcs": [{"from": "a", "to": "t", "weight": 1},
                     {"from": "t", "to": "a", "weight": 1},
                     {"from": "t", "to": "b", "weight": 1}],
            "marking": [1, 0]}
    assert reference.coverable(pump, [1, 40])
    assert not reference.coverable(pump, [2, 0])


def test_coverable_agrees_with_the_program_on_random_nets():
    from rbatl import coverable, net_from_dict

    rng = random.Random(7)
    for _ in range(60):
        net, target = corpus.random_net(rng, max_places=4, max_transitions=4)
        assert (reference.coverable(net, target)
                == coverable(net_from_dict(net), tuple(target)))


def chain_certificate():
    """A hand-written certificate for <{a}: 2> (true U p) at c0 of chain(3, 1)."""
    def node(state, avail, kind="internal", action=None, children=None):
        return {"state": state, "entry_avail": [avail], "avail": [avail],
                "kind": kind,
                "action": None if action is None else
                {"agents": ["a"], "actions": [action]},
                "children": children or {}, "pumped": {}}
    leaf = node("c2", 0, "psi-leaf")
    return {"format_version": 1, "kind": "until", "coalition": ["a"],
            "bound": [2], "mode": "rbatl", "formula": "<{a}: 2> (true U p)",
            "root": node("c0", 2, action="go",
                         children={"c1": node("c1", 1, action="go",
                                              children={"c2": leaf})})}


def replay_chain(cert):
    game = reference.Game(corpus.chain(3, 1))
    return reference.replay_certificate(
        game, cert, state="c0", formula=("U", ("a",), (2,), TRUE, P),
        hold=frozenset(game.states), goal=frozenset({"c2"}))


def test_replay_accepts_hand_written_certificate():
    problems, nodes, depth = replay_chain(chain_certificate())
    assert problems == [] and nodes == 3 and depth == 3


def test_replay_rejects_corrupted_certificates():
    def corrupt(fn):
        cert = chain_certificate()
        fn(cert)
        return replay_chain(cert)[0]

    c1 = lambda c: c["root"]["children"]["c1"]  # noqa: E731
    assert corrupt(lambda c: c["root"].update(entry_avail=[1], avail=[1]))
    assert corrupt(lambda c: c1(c).update(entry_avail=[2], avail=[2]))
    assert corrupt(lambda c: c1(c)["children"]["c2"].update(kind="internal"))
    assert corrupt(lambda c: c1(c)["action"].update(actions=["idle"]))
    assert corrupt(lambda c: c["root"]["children"].clear())
    assert corrupt(lambda c: c["root"].update(pumped={"0": 0}))
    assert corrupt(lambda c: c.update(bound=[3]))


def test_replay_program_certificate_and_its_mutants():
    from rbatl import (concretize_until_witness, dump_witness, find_witness,
                       loads_model, model_check, parse_formula)

    model = corpus.fig1(7)
    m = loads_model(json.dumps(model))
    f = ("U", ("a1", "a2"), (0, 1), TRUE, P)
    pf = parse_formula(corpus.render(f))
    labels = model_check(m, pf)
    tree = find_witness(m, pf, "s_I", labels=labels)
    tree = concretize_until_witness(m, tree, phi_states=labels[pf.hold],
                                    psi_states=labels[pf.goal])
    cert = json.loads(dump_witness(tree))
    game = reference.Game(model)
    kw = dict(state="s_I", formula=f, hold=frozenset(game.states),
              goal=frozenset({"s_prime"}))
    problems, nodes, _ = reference.replay_certificate(game, cert, **kw)
    assert problems == [] and nodes > 5
    stack, internal = [cert["root"]], []
    while stack:
        node = stack.pop()
        if node["kind"] == "internal":
            internal.append(node)
        stack.extend(node["children"].values())
    for i in range(len(internal)):
        for mutate in ("avail", "child"):
            bad = copy.deepcopy(cert)
            stack, seen = [bad["root"]], []
            while stack:
                node = stack.pop()
                if node["kind"] == "internal":
                    seen.append(node)
                stack.extend(node["children"].values())
            node = seen[i]
            if mutate == "avail":
                node["entry_avail"][0] -= 1
                node["avail"][0] -= 1
            else:
                node["children"].popitem()
            assert reference.replay_certificate(game, bad, **kw)[0]


def test_render_parses_back_to_the_same_shape():
    from rbatl import format_formula, parse_formula

    rng = random.Random(8)
    for i in range(200):
        f = corpus.game_formula(rng, "XGU"[i % 3],
                                corpus.COALITIONS[i % 4])
        text = corpus.render(f)
        assert parse_formula(format_formula(parse_formula(text))) == \
            parse_formula(text)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()
            print(f"ok {name}")
