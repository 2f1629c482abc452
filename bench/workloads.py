"""The three workloads as seeded input specs.

A spec holds only data the program has not seen: model and net JSON text,
formula text, and what the benchmark knows about each query (its formula
tuple, any closed-form answer).  Loading the spec through the program is
the timed set-up; running its operations is one pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import corpus

# games: random total games with production, 3 to 7 states, three queries
# each (top-level X, G and U), plus Petri coverability questions on nets of
# up to 3 places and 3 transitions (at 4 and 4, single questions take 14 s,
# see CHANGES.md).  Certificates and command lines come from a further set
# of 3- and 4-state games that does not depend on the seed: certificate
# sizes range over two orders of magnitude, so a seeded slice swung with
# the seed.  Certificates are for its always queries, which never pump;
# pumped until certificates are the certs workload's subject.
GAME_MODELS = 1200
GAME_NETS = 100
NET_PLACES = 3
NET_TRANSITIONS = 3
GAME_SLICE_SEED = 0
GAME_SLICE_MODELS = 200
GAME_CERTS = 180
GAME_CLI = 200

# fixpoints: long-diameter consumption-only models, plus small random
# consumption-only games whose until is swept over bounds b,b through the
# symbolic engine (its bounded always is left out: it is wrong on some
# seeds, see CHANGES.md).  The sweep games have a fixed shape: a pass's 90th
# percentile falls among their b = 3 queries, and with seeded shapes the
# cost of those has a tail long enough to swing that percentile by 0.13
# (IQR over median) from seed to seed.
CHAIN_STATES = 100
GADGETS = 24
SWEEP_MODELS = 96
SWEEP_STATES = 12
SWEEP_BOUNDS = (1, 2, 3)
FIX_CERTS = 30
FIX_CLI = 24

# certs: the running example with gamma costing K, plus games-style models
FIG1_COSTS = (25, 50, 100, 200)
CERT_GAME_MODELS = 1000
CERT_GAME_CERTS = 40
CERT_CLI_GAMES = 10

@dataclass
class Query:
    """One labelling: formula `formula` (a corpus tuple) on model `model`
    (an index into Spec.models), through `engine` ("tree" or "symbolic")."""

    name: str
    model: int
    formula: tuple
    engine: str = "tree"
    closed: list = field(default_factory=list)  # [(state, expected verdict)]
    net: int | None = None  # index into Spec.nets for Petri questions


@dataclass
class CertPick:
    """How to choose certificate queries once labels are known: the fixed
    (query, state) pairs, then the first `count` (query, satisfying state)
    pairs among `queries`, in query and then state order."""

    count: int = 0
    queries: list = field(default_factory=list)
    fixed: list = field(default_factory=list)


@dataclass
class CliCall:
    query: int  # index into Spec.queries
    state: str
    witness: bool = False
    known_fault: str | None = None  # expected stderr text of a known fault


@dataclass
class Spec:
    name: str
    models: list = field(default_factory=list)  # model dicts
    nets: list = field(default_factory=list)  # (net dict, target)
    queries: list = field(default_factory=list)
    certs: CertPick = field(default_factory=CertPick)
    cli: list = field(default_factory=list)

    def model_texts(self):
        return [json.dumps(m) for m in self.models]

    def net_texts(self):
        return [(json.dumps(net), target) for net, target in self.nets]


def _add_games(spec, rng, n_models, prefix, sizes=(3, 4, 5, 6, 7)):
    """Random games with three queries each, state counts cycling through
    `sizes`; returns the query indices."""
    out = []
    for i in range(n_models):
        spec.models.append(corpus.random_game(rng, sizes[i % len(sizes)]))
        for j, outer in enumerate(("X", "G", "U")):
            coalition = corpus.COALITIONS[(3 * i + j) % len(corpus.COALITIONS)]
            f = corpus.game_formula(rng, outer, coalition)
            out.append(len(spec.queries))
            spec.queries.append(
                Query(f"{prefix}{i}.{outer}", len(spec.models) - 1, f))
    return out


def games(seed: int) -> Spec:
    rng = random.Random(seed)
    spec = Spec("games")
    _add_games(spec, rng, GAME_MODELS, "game")
    for i in range(GAME_NETS):
        net, target = corpus.random_net(rng, max_places=NET_PLACES,
                                        max_transitions=NET_TRANSITIONS)
        spec.nets.append((net, target))
        f = ("U", ("1",), tuple(net["marking"]), corpus.TRUE, corpus.prop("p"))
        spec.queries.append(Query(f"net{i}", -1, f, net=i))
    fixed = _add_games(spec, random.Random(GAME_SLICE_SEED),
                       GAME_SLICE_MODELS, "slice", sizes=(3, 4))
    spec.certs = CertPick(GAME_CERTS, [q for q in fixed
                                       if spec.queries[q].formula[0] == "G"])
    spec.cli = [CliCall(q, spec.models[spec.queries[q].model]["states"][0])
                for q in fixed[:GAME_CLI]]
    return spec


def fixpoints(seed: int) -> Spec:
    rng = random.Random(seed)
    spec = Spec("fixpoints")
    inf, zero = (None,), (0,)
    true, p, q = corpus.TRUE, corpus.prop("p"), corpus.prop("q")
    n = CHAIN_STATES

    def add(name, model, f, engine, closed=()):
        spec.queries.append(Query(name, model, f, engine, list(closed)))

    spec.models.append(corpus.chain(n, 0))
    wins = [(f"c{i}", True) for i in range(n)]
    add("chain.inf.U", 0, ("U", ("a",), inf, true, p), "tree", wins)
    add("chain.0.U", 0, ("U", ("a",), zero, true, p), "symbolic", wins)
    spec.models.append(corpus.chain(n, 1, drift=True))
    drift = [(f"c{i}", False) for i in range(n)]  # idling moves on, too
    add("drift.inf.G", 1, ("G", ("a",), inf, ("not", p)), "tree", drift)
    add("drift.inf.G.sym", 1, ("G", ("a",), inf, ("not", p)), "symbolic",
        drift)
    spec.models.append(corpus.gadget_chain(rng, GADGETS))
    add("gadgets.inf.U", 2, ("U", ("a0",), inf, true, p), "tree")
    add("gadgets.0.U", 2, ("U", ("a0",), zero, true, p), "symbolic")
    sweep = []
    for i in range(SWEEP_MODELS):
        spec.models.append(corpus.random_game(rng, SWEEP_STATES, cost_lo=0,
                                              cost_hi=2, fixed_shape=True))
        coalition = corpus.COALITIONS[1 + i % 3]
        for b in SWEEP_BOUNDS:
            f = ("U", coalition, (b, b), ("not", q), p)
            sweep.append(len(spec.queries))
            add(f"sweep{i}.U.{b}", len(spec.models) - 1, f, "symbolic")
    # a short unit-cost chain whose certificate walks the whole chain
    spec.models.append(corpus.chain(60, 1))
    budget = (59,)
    add("chain60.U", len(spec.models) - 1, ("U", ("a",), budget, true, p),
        "tree", [(f"c{i}", corpus.chain_wins(60, 1, budget, i))
                 for i in range(60)])
    chain60 = len(spec.queries) - 1
    spec.certs = CertPick(FIX_CERTS, sweep,
                          [(chain60, f"c{i}") for i in range(0, 60, 2)])
    spec.cli = [CliCall(chain60, "c0", witness=True)]
    spec.cli += [CliCall(q, spec.models[spec.queries[q].model]["states"][0])
                 for q in sweep[:FIX_CLI]]
    return spec


def long_formula(width=60):
    """A formula longer than a file name may be: the until of fig1 with its
    goal written as p | p | ... | p."""
    goal = corpus.prop("p")
    for _ in range(width - 1):
        goal = ("or", goal, corpus.prop("p"))
    return ("U", ("a1", "a2"), (0, 1), corpus.TRUE, goal)


def certs(seed: int) -> Spec:
    rng = random.Random(seed)
    spec = Spec("certs")
    fixed, cli = [], []
    for k in FIG1_COSTS:
        spec.models.append(corpus.fig1(k))
        model = len(spec.models) - 1
        for coalition, bound in ((("a1", "a2"), (0, 1)),
                                 (("a1",), (k - 2, 1)),
                                 (("a1",), (k - 3, 1))):
            f = ("U", coalition, bound, corpus.TRUE, corpus.prop("p"))
            verdict = corpus.fig1_wins(k, coalition, bound)
            spec.queries.append(Query(f"fig1.{k}.{','.join(coalition)}."
                                      f"{bound[0]}", model, f,
                                      closed=[("s_I", verdict)]))
            if verdict:
                fixed.append((len(spec.queries) - 1, "s_I"))
        cli.append(CliCall(len(spec.queries) - 3, "s_I", witness=True))
    picked = [q for q in _add_games(spec, rng, CERT_GAME_MODELS, "game")
              if spec.queries[q].formula[0] != "X"]
    spec.certs = CertPick(CERT_GAME_CERTS, picked, fixed)
    cli += [CliCall(q, spec.models[spec.queries[q].model]["states"][0],
                    witness=True) for q in picked[:CERT_CLI_GAMES]]
    # a fixed query whose formula text is longer than a file name: the
    # command line reads it as a path first and fails
    spec.queries.append(Query("fig1.long", 0, long_formula(),
                              closed=[("s_I", True)]))
    cli.append(CliCall(len(spec.queries) - 1, "s_I", witness=True,
                       known_fault="File name too long"))
    spec.cli = cli
    return spec


BUILDERS = {"games": games, "fixpoints": fixpoints, "certs": certs}
