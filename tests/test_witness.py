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
    model_check,
    parse_formula,
    validate_witness,
    witness_from_dict,
    witness_to_dict,
)
from rbatl.witness import (
    ALL_INF_LEAF,
    INTERNAL,
    LOOPBACK_LEAF,
    PSI_LEAF,
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
    assert all(not n.pumped and n.kind != ALL_INF_LEAF
               for n in iter_nodes(tree.root))
    assert concretize_until_witness(fig1, tree, phi_states=phi,
                                    psi_states=psi) is tree
    assert validate_witness(fig1, tree, phi_states=phi, psi_states=psi)


def test_pumped_witness_unrolls_to_four_traversals(fig1):
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    phi, psi = labels[f.hold], labels[f.goal]
    assert any(n.pumped for n in iter_nodes(tree.root))
    assert not validate_witness(fig1, tree, phi_states=phi, psi_states=psi)
    conc = concretize_until_witness(fig1, tree, phi_states=phi, psi_states=psi)
    assert validate_witness(fig1, conc, phi_states=phi, psi_states=psi)
    alphas = sum(
        1 for n in iter_nodes(conc.root)
        if n.action is not None and "alpha" in n.action.actions
    )
    assert alphas == 4
    # the expensive move fires exactly once, from availability (5, 0)
    gammas = [n for n in iter_nodes(conc.root)
              if n.action is not None and "gamma" in n.action.actions]
    assert len(gammas) == 1 and gammas[0].avail == (5, 0)


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

    From s under budget 0 the search pumps once in each branch of work,
    both against the root, so each loop's requirement needs the other's."""
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
def test_cross_branch_loops_fall_back_to_replay_search(monkeypatch, dead,
                                                       mode):
    import rbatl.witness

    calls = []
    research = rbatl.witness._research_until

    def counted(*args, **kwargs):
        calls.append(args)
        return research(*args, **kwargs)

    monkeypatch.setattr(rbatl.witness, "_research_until", counted)
    m = cross_branch_model(dead)
    f, labels, tree = until_setup(m, "<{a}: 0> (true U p)", "s", mode)
    phi, psi = labels[f.hold], labels[f.goal]
    conc = concretize_until_witness(m, tree, phi_states=phi, psi_states=psi)
    assert len(calls) == 1
    assert validate_witness(m, conc, phi_states=phi, psi_states=psi)
    # under nt the replay may not end a play on a move without outcomes
    assert all(n.children for n in iter_nodes(conc.root)
               if n.kind == INTERNAL)


def test_repetition_count_matches_ceiling_formula():
    # gain 2 per iteration, availability 3 at the pumped node, target 8:
    # h = ceil((8 - 3) / 2) = 3 extra repetitions on top of the original one
    m = pump_loop_model()
    f, labels, tree = until_setup(m, "<{a}: 1> (true U p)", "u")
    phi, psi = labels[f.hold], labels[f.goal]
    conc = concretize_until_witness(m, tree, phi_states=phi, psi_states=psi,
                                    targets=(8,))
    assert validate_witness(m, conc, phi_states=phi, psi_states=psi)
    prods = sum(1 for n in iter_nodes(conc.root)
                if n.action is not None and "prod" in n.action.actions)
    assert prods == 1 + 3
    leaves = [n for n in iter_nodes(conc.root) if n.kind == PSI_LEAF]
    assert leaves and all(n.avail >= (8,) for n in leaves)


def test_zero_target_skips_repetitions():
    m = pump_loop_model()
    f, labels, tree = until_setup(m, "<{a}: 1> (true U p)", "u")
    phi, psi = labels[f.hold], labels[f.goal]
    conc = concretize_until_witness(m, tree, phi_states=phi, psi_states=psi)
    assert validate_witness(m, conc, phi_states=phi, psi_states=psi)
    prods = sum(1 for n in iter_nodes(conc.root)
                if n.action is not None and "prod" in n.action.actions)
    assert prods == 1  # only the original pass; h = 0


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
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    data = witness_to_dict(tree)
    back = witness_from_dict(data)
    assert witness_to_dict(back) == data
    assert "inf" in dump_witness(tree)  # pumped components serialize readably


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

    _, _, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    until = witness_to_dict(tree)
    pumped = next(n for n in nodes(until["root"]) if n["pumped"])
    res = next(iter(pumped["pumped"]))
    for bad in (pumped["pumped"][res] + 0.9, True):
        pumped["pumped"][res] = bad
        with pytest.raises(WitnessError):
            witness_from_dict(until)


def test_corrupted_certificates_rejected(fig1):
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    phi, psi = labels[f.hold], labels[f.goal]
    conc = concretize_until_witness(fig1, tree, phi_states=phi, psi_states=psi)
    assert validate_witness(fig1, conc, phi_states=phi, psi_states=psi)
    mutants = corrupt_variants(fig1, conc, psi)
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
                tree = concretize_until_witness(m, tree, phi_states=phi,
                                                psi_states=psi)
                assert validate_witness(m, tree, phi_states=phi,
                                        psi_states=psi)
            else:
                assert validate_witness(m, tree, phi_states=labels[f.child])
            checked += 1
    assert checked >= 30


def test_concretize_rejects_pumping_outside_the_resources(fig1):
    f, labels, tree = until_setup(fig1, "<{a1,a2}: 0,1> (true U p)", "s_I")
    data = witness_to_dict(tree)
    stack = [data["root"]]
    while stack:
        node = stack.pop()
        stack.extend(node["children"].values())
        if node["pumped"]:
            node["pumped"] = {"7": depth for depth in node["pumped"].values()}
    with pytest.raises(WitnessError):
        concretize_until_witness(fig1, witness_from_dict(data),
                                 phi_states=labels[f.hold],
                                 psi_states=labels[f.goal])
