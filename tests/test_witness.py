import json
import random

import pytest

from certfuzz import corrupt_variants

from rbatl import (
    INF,
    Model,
    Semantics,
    WitnessError,
    concretize_until_witness,
    dump_witness,
    find_witness,
    load_witness,
    model_check,
    parse_formula,
    validate_witness,
    witness_from_dict,
    witness_to_dict,
)
from rbatl.model import JointAction
from rbatl.witness import (
    INTERNAL,
    LOOPBACK_LEAF,
    PSI_LEAF,
    WitnessNode,
    WitnessTree,
    iter_nodes,
)

import modelgen


def until_setup(m, text, state, mode=Semantics.RBATL):
    f = parse_formula(text)
    labels = model_check(m, f, mode)
    tree = find_witness(m, f, state, mode, labels=labels)
    return f, labels, tree


def test_no_infinity_witness_returned_unchanged(fig1):
    f, labels, tree = until_setup(fig1, "<{a1}: 3,1> (true U p)", "s_I")
    phi, psi = labels[f.hold], labels[f.goal]
    assert tree is not None
    assert {n.kind for n in iter_nodes(tree.root)} == {INTERNAL, PSI_LEAF}
    assert concretize_until_witness(fig1, tree, phi_states=phi,
                                    psi_states=psi) is tree
    assert validate_witness(fig1, tree, phi_states=phi, psi_states=psi)


def test_pumped_witness_unrolls_to_four_traversals(fig1):
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    phi, psi = labels[f.hold], labels[f.goal]
    assert validate_witness(fig1, tree, phi_states=phi, psi_states=psi)
    alphas = sum(
        1 for n in iter_nodes(tree.root)
        if n.action is not None and "alpha" in n.action.actions
    )
    assert alphas == 4
    # the expensive move fires exactly once, from availability (5, 0)
    gammas = [n for n in iter_nodes(tree.root)
              if n.action is not None and "gamma" in n.action.actions]
    assert len(gammas) == 1 and gammas[0].avail == (5, 0)


def test_deep_certificates_build_and_validate(fig1):
    # both trees are thousands of nodes deep: building and checking them
    # must not recurse once per level
    cases = [(modelgen.fig1_with_gamma(fig1, 1000),
              "<{a1,a2}: 0,1> (true U p)", "s_I"),
             (modelgen.zero_cost_chain(2000), "<{a}: 0> (true U p)", "c0")]
    for m, text, state in cases:
        f, labels, tree = until_setup(m, text, state)
        assert max(_depths(tree.root)) >= 1999
        assert validate_witness(m, tree, phi_states=labels[f.hold],
                                psi_states=labels[f.goal])
        back = witness_from_dict(witness_to_dict(tree))
        assert _flat(back.root) == _flat(tree.root)
        text = dump_witness(tree)
        assert text.startswith('{"format_version":1,"kind":"until",')
        assert text.endswith('"pumped":{}}}\n')


def assert_stdlib_bytes(tree):
    """dump_witness writes what the stdlib's compact json.dumps writes."""
    want = json.dumps(witness_to_dict(tree), separators=(",", ":")) + "\n"
    assert dump_witness(tree) == want
    return want


def test_certificate_text_grows_linearly_with_depth(fig1):
    # fig1's certificate is about 2 * gamma nodes deep; text indented by
    # depth would grow with its square (24.9 times from 200 to 1000)
    sizes = {}
    for gamma in (200, 1000):
        m = modelgen.fig1_with_gamma(fig1, gamma)
        _, _, tree = until_setup(m, "<{a1,a2}: 0,1> (true U p)", "s_I")
        sizes[gamma] = len(dump_witness(tree))
    assert sizes[1000] < 6 * sizes[200]


@pytest.mark.parametrize("gamma, size", [(25, None), (200, 63_300)])
def test_fig1_dump_matches_the_stdlib_encoder(fig1, gamma, size):
    m = modelgen.fig1_with_gamma(fig1, gamma)
    _, _, tree = until_setup(m, "<{a1,a2}: 0,1> (true U p)", "s_I")
    text = assert_stdlib_bytes(tree)
    assert size is None or len(text) == size


def test_hand_built_dumps_match_the_stdlib_encoder():
    def node(state, avail, kind=INTERNAL, action=None, children=(),
             **extra):
        return WitnessNode(state=state, avail=avail, kind=kind, action=action,
                           children={c.state: c for c in children}, **extra)

    odd = 'say "hi"\\ é ∞ \n'  # quotes, backslash, non-ASCII, control
    go = JointAction(("a",), ("go",))
    loop = node("u", (1, INF), action=go, children=[
        node("v", (0, INF), kind=LOOPBACK_LEAF, loopback=0),
        node(odd, (INF, 0), action=JointAction(("a",), ("ü",)), children=[
            node("w", (INF, INF), kind=PSI_LEAF)])])
    trees = [
        WitnessTree("box", ("a",), (1, INF), Semantics.NT, "<{a}: 1,inf> G q",
                    loop),
        WitnessTree("until", (), (), Semantics.RAL_FINITE, "<{}: > (q U p)",
                    node(odd, (), kind=PSI_LEAF)),
        WitnessTree("until", (), (0,), Semantics.RBATL, "",
                    node("s", (0,), action=JointAction((), ()))),
    ]
    for tree in trees:
        assert_stdlib_bytes(tree)


def _flat(root):
    # node by node, since == on the dataclasses recurses once per level
    return [(n.state, n.avail, n.kind, n.action, n.loopback,
             list(n.children)) for n in iter_nodes(root)]


def _depths(root):
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        yield depth
        stack.extend((c, depth + 1) for c in node.children.values())


def pump_loop_model():
    """One self-loop producing two units; the exit move is free."""
    return Model(
        agents=["a"], resources=["e"], states=["u", "v"],
        labels={"p": ["v"]},
        actions={
            "u": {"a": {"idle": (0,), "prod": (-2,), "fin": (0,)}},
            "v": {"a": {"idle": (0,)}},
        },
        transitions={
            "u": {("idle",): "u", ("prod",): "u", ("fin",): "v"},
            "v": {("idle",): "v"},
        },
        total=True,
    )


def cross_branch_model(dead=False):
    """At s, a's work pays 1 and leads to o1 or o2 as b chooses; both idle
    back to s.  go costs 3 and reaches the p-state t.  With dead, a also
    has a move costing 2 that has no transition, so the model is not total.

    From s under budget 0 the pumping search pumps once in each branch of
    work, both against the root, so each loop's requirement needs the
    other's."""
    idle = {"idle": (0,)}
    menu = {"idle": (0,), "work": (-1,), "go": (3,)}
    if dead:
        menu["dead"] = (2,)
    return Model(
        agents=["a", "b"], resources=["e"], states=["s", "o1", "o2", "t"],
        labels={"p": ["t"]},
        actions={"s": {"a": menu, "b": {"idle": (0,), "x": (0,)}},
                 "o1": {"a": idle, "b": idle}, "o2": {"a": idle, "b": idle},
                 "t": {"a": idle, "b": idle}},
        transitions={
            "s": {("idle", "idle"): "s", ("idle", "x"): "s",
                  ("work", "idle"): "o1", ("work", "x"): "o2",
                  ("go", "idle"): "t", ("go", "x"): "t"},
            "o1": {("idle", "idle"): "s"}, "o2": {("idle", "idle"): "s"},
            "t": {("idle", "idle"): "t"},
        },
        total=not dead,
    )


@pytest.mark.parametrize("dead, mode", [(False, Semantics.RBATL),
                                        (True, Semantics.NT)])
def test_cross_branch_loops_fall_back_to_replay_search(dead, mode):
    m = cross_branch_model(dead)
    f, labels, tree = until_setup(m, "<{a}: 0> (true U p)", "s", mode)
    assert validate_witness(m, tree, phi_states=labels[f.hold],
                            psi_states=labels[f.goal])
    # under nt a play may not end on a move without outcomes
    assert all(n.children for n in iter_nodes(tree.root)
               if n.kind == INTERNAL)


def test_zero_target_skips_repetitions():
    # fin needs no credit, so the certificate never takes the gaining loop
    m = pump_loop_model()
    f, labels, tree = until_setup(m, "<{a}: 1> (true U p)", "u")
    assert validate_witness(m, tree, phi_states=labels[f.hold],
                            psi_states=labels[f.goal])
    prods = sum(1 for n in iter_nodes(tree.root)
                if n.action is not None and "prod" in n.action.actions)
    assert prods == 0


def test_box_witness_loopbacks(fig1):
    f = parse_formula("<{a1,a2}: 0,0> G true")
    labels = model_check(fig1, f)
    tree = find_witness(fig1, f, "s_I", labels=labels)
    assert tree is not None and tree.kind == "box"
    kinds = {n.kind for n in iter_nodes(tree.root)}
    assert kinds <= {INTERNAL, LOOPBACK_LEAF}
    assert validate_witness(fig1, tree, phi_states=labels[f.child])


def test_dead_end_move_counts_only_under_rbatl():
    # the free move "dead" has no outcomes: a vacuous certificate for
    # <{a}: 0> G true under rbatl, and no certificate under nt or ral-finite
    m = modelgen.dead_end_always_game()
    data = {
        "format_version": 1, "kind": "box", "coalition": ["a"], "bound": [0],
        "formula": "<{a}: 0> G true",
        "root": {"state": "s", "entry_avail": [0], "avail": [0],
                 "kind": INTERNAL,
                 "action": {"agents": ["a"], "actions": ["dead"]},
                 "children": {}, "pumped": {}},
    }
    for mode in Semantics:
        tree = witness_from_dict(dict(data, mode=mode.value))
        assert validate_witness(m, tree, phi_states={"s"}) == (
            mode is Semantics.RBATL), mode


def test_find_witness_returns_none_on_failure(fig1):
    f = parse_formula("<{a1}: 2,1> (true U p)")
    assert find_witness(fig1, f, "s_I") is None


def test_witness_serialization_round_trip(fig1):
    f, labels, tree = until_setup(fig1, "<{a1}: inf,1> (true U p)", "s_I")
    data = witness_to_dict(tree)
    back = witness_from_dict(data)
    assert witness_to_dict(back) == data
    assert "inf" in dump_witness(tree)  # INF components serialize readably


def test_loader_rejects_non_integer_indices(fig1):
    def nodes(node):
        yield node
        for c in node["children"].values():
            yield from nodes(c)

    g = parse_formula("<{a1,a2}: 0,0> G true")
    box = witness_to_dict(find_witness(fig1, g, "s_I"))
    leaf = next(n for n in nodes(box["root"]) if n["kind"] == LOOPBACK_LEAF)
    assert leaf["loopback"] == 0
    for bad in (False, 0.0):
        leaf["loopback"] = bad
        with pytest.raises(WitnessError):
            witness_from_dict(box)

    # a format version that only compares equal to 1
    for bad in (True, 1.0):
        with pytest.raises(WitnessError):
            witness_from_dict(dict(box, format_version=bad))

    # format v1 pumping records, as older versions wrote them, are refused
    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    until = witness_to_dict(tree)
    below = until["root"]["children"]["s"]
    for bad in (0, 0.9, True):
        below["pumped"] = {"0": bad}
        with pytest.raises(WitnessError, match="'s'"):
            witness_from_dict(until)


def test_loader_rejects_names_that_are_not_strings(fig1):
    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    mutants = [
        lambda d: d.update(coalition=5),
        lambda d: d.update(coalition=[["a1"], "a2"]),
        lambda d: d["root"].update(state=["s_I"]),
        lambda d: d["root"]["action"].update(actions=[["alpha"], "idle"]),
    ]
    for mutate in mutants:
        data = witness_to_dict(tree)
        mutate(data)
        with pytest.raises(WitnessError):
            witness_from_dict(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d["root"]["action"].update(actions=["alpha"]),
    lambda d: d["root"]["action"].update(actions=["alpha", "idle", "idle"]),
    lambda d: d.pop("bound"),
    lambda d: d.pop("coalition"),
    lambda d: d.update(formula=5),
    lambda d: d.update(formula=None),
], ids=["fewer-actions", "more-actions", "no-bound", "no-coalition",
        "formula-int", "formula-null"])
def test_loader_rejects_malformed_top_level_and_actions(fig1, mutate):
    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    data = witness_to_dict(tree)
    assert len(data["root"]["action"]["agents"]) == 2
    mutate(data)
    with pytest.raises(WitnessError):
        witness_from_dict(data)


def test_loader_rejects_an_unknown_mode(fig1):
    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    for bad in ("bogus", 5, None):
        data = witness_to_dict(tree)
        data["mode"] = bad
        with pytest.raises(WitnessError):
            witness_from_dict(data)


def test_loader_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b'\xff\xfe{"format_version": 1}')
    with pytest.raises(WitnessError):
        load_witness(path)


def test_corrupted_certificates_rejected(fig1):
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    phi, psi = labels[f.hold], labels[f.goal]
    assert validate_witness(fig1, tree, phi_states=phi, psi_states=psi)
    mutants = corrupt_variants(fig1, tree, psi)
    assert len(mutants) >= 20
    for mutant in mutants:
        assert not validate_witness(fig1, mutant, phi_states=phi,
                                    psi_states=psi)


def test_box_loopback_corruption_rejected(drain):
    f = parse_formula("<{a}: 0> G true")
    labels = model_check(drain, f)
    tree = find_witness(drain, f, "u", labels=labels)
    assert tree is not None
    phi = labels[f.child]
    assert validate_witness(drain, tree, phi_states=phi)
    data = witness_to_dict(tree)

    def leaves(node):
        if node["kind"] == LOOPBACK_LEAF:
            yield node
        for c in node["children"].values():
            yield from leaves(c)

    for leaf in leaves(data["root"]):
        leaf["avail"] = [x - 1 if x != "inf" and x > 0 else x
                         for x in leaf["avail"]]
    # on the all-zero budget nothing can drop, so instead raise the ancestor
    # comparison by lifting the recorded loopback out of range
    for leaf in leaves(data["root"]):
        leaf["loopback"] = 99
    assert not validate_witness(drain, witness_from_dict(data),
                                phi_states=phi)


def test_concretize_rejects_box_trees(fig1):
    f = parse_formula("<{a1}: 0,0> G true")
    labels = model_check(fig1, f)
    tree = find_witness(fig1, f, "s", labels=labels)
    with pytest.raises(WitnessError):
        concretize_until_witness(fig1, tree, phi_states=labels[f.child],
                                 psi_states=frozenset())


def test_random_corpus_witness_integrity():
    rng = random.Random(31)
    from rbatl.formula import CoalitionAlways, CoalitionUntil

    checked = 0
    for _ in range(25):
        m = modelgen.random_model(rng)
        A = modelgen.random_coalition(rng, m)
        b = modelgen.random_bound(rng, m)
        hold = modelgen.random_propositional(rng)
        goal = modelgen.random_propositional(rng)
        until = rng.random() < 0.6
        f = (CoalitionUntil(A, b, hold, goal) if until
             else CoalitionAlways(A, b, hold))
        labels = model_check(m, f)
        for s in sorted(labels[f]):
            tree = find_witness(m, f, s, labels=labels)
            assert tree is not None
            if until:
                phi, psi = labels[f.hold], labels[f.goal]
                assert validate_witness(m, tree, phi_states=phi,
                                        psi_states=psi)
            else:
                assert validate_witness(m, tree, phi_states=labels[f.child])
            assert_stdlib_bytes(tree)
            checked += 1
    assert checked >= 30


def test_loader_rejects_pumping_records_and_legacy_leaves(fig1):
    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    # pumping records of older versions, in and out of the resource range,
    # an all-infinity leaf and an entry availability above the availability
    # are refused rather than replayed
    mutants = [lambda below: below.update(pumped={"7": 0}),
               lambda below: below.update(pumped={"0": 0}),
               lambda below: below.update(kind="all-infinity-leaf",
                                          action=None, children={}),
               lambda below: below["entry_avail"].__setitem__(0, 9)]
    for mutate in mutants:
        data = witness_to_dict(tree)
        mutate(data["root"]["children"]["s"])
        with pytest.raises(WitnessError, match="'s'"):
            witness_from_dict(data)
