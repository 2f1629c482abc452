"""Seeded benchmark for rbatl: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload games|fixpoints|certs --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The program is imported from `src/` of the
same checkout; nothing needs installing.  A run builds the workload's
inputs from the seed, loads them through the program (the timed set-up,
repeated after every pass), runs one warm-up pass whose every label,
certificate and command-line verdict is checked against the reference
answers in `reference.py`, then repeats whole passes for about S seconds,
starting none that would end past them.  Each later pass must reproduce
the warm-up's checked outputs.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 1 the passes rebuild each labelling from the program's public
per-layer calls instead and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import corpus
import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

clock = time.perf_counter


def _load_program():
    if not (ROOT / "src" / "rbatl" / "__init__.py").is_file():
        raise SystemExit(f"bench: no rbatl sources under {ROOT / 'src'}; "
                         "run from the root of a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import rbatl  # noqa: F401  (fail here, before any work, if it is broken)


class OperationError(Exception):
    """An operation raised instead of answering; names the operation."""


class Trace:
    """Per-layer accumulators for one pass: seconds and counts by name."""

    TIMES = ("modelio.load_s", "model.validate_s", "parser.parse_s",
             "petri.reduce_s", "formula.closure_s", "symbolic.label_s",
             "atl.fixpoint_s", "atl.pre_s", "checker.until_s",
             "checker.box_s", "witness.find_s", "witness.concretize_s",
             "witness.validate_s", "witness.dump_s", "witness.load_s",
             "cli.main_s")
    COUNTS = ("formula.closure_size", "formula.ladder_size",
              "symbolic.split_pairs", "atl.pre_calls", "checker.nodes",
              "checker.max_depth", "checker.pumps", "checker.cache_hits",
              "witness.nodes", "witness.depth")

    def __init__(self):
        self.v = dict.fromkeys(self.TIMES + self.COUNTS, 0)


# -- set-up ---------------------------------------------------------------


class Loaded:
    """The workload's inputs as program values."""

    def __init__(self, models, formulas, reduced):
        self.models = models
        self.formulas = formulas  # per query; None for Petri questions
        self.reduced = reduced  # per net: (model, query)

    def target(self, spec, i):
        q = spec.queries[i]
        if q.net is not None:
            return self.reduced[q.net]
        return self.models[q.model], self.formulas[i]


def load(spec, model_texts, formula_texts, net_texts, tr=None):
    """The timed set-up: load, validate, parse and reduce every input."""
    from rbatl import (ModelError, loads_model, net_from_dict, parse_formula,
                       reduce_to_model, validate_model)

    t = clock()
    models = [loads_model(text) for text in model_texts]
    t1 = clock()
    for i, m in enumerate(models):
        problems = validate_model(m)
        if problems:
            raise ModelError(f"model {i}: {problems[0]}")
    t2 = clock()
    formulas = [None if text is None else parse_formula(text)
                for text in formula_texts]
    t3 = clock()
    reduced = [reduce_to_model(net_from_dict(json.loads(text)), tuple(target))
               for text, target in net_texts]
    t4 = clock()
    if tr is not None:
        tr.v["modelio.load_s"] += t1 - t
        tr.v["model.validate_s"] += t2 - t1
        tr.v["parser.parse_s"] += t3 - t2
        tr.v["petri.reduce_s"] += t4 - t3
    return Loaded(models, formulas, reduced), t4 - t


# -- passes ---------------------------------------------------------------


def interleave(*phases):
    """Run phases, each a (generator, n) pair whose generator yields after
    each of its n operations, with their operations spread evenly over one
    pass: the k-th operation of a phase runs (k + 1/2)/n of the way through.
    So every phase's times sample the machine over the whole pass, not over
    one stretch of it.  Returns the generators' return values."""
    order = sorted(((k + 0.5) / n, i) for i, (_, n) in enumerate(phases)
                   for k in range(n))
    for _, i in order:
        next(phases[i][0])
    return [_result(gen) for gen, _ in phases]


def _result(gen):
    try:
        next(gen)
    except StopIteration as stop:
        return stop.value
    raise RuntimeError("a phase has more operations than it was run for")


def check_pass(spec, loaded):
    """Label every query; returns ([seconds], [labels]) per query."""
    from rbatl import model_check, rb_atl_label

    times, labels = [], []
    for i, q in enumerate(spec.queries):
        m, f = loaded.target(spec, i)
        t = clock()
        try:
            if q.engine == "symbolic":
                lab = rb_atl_label(m, f)
            else:
                lab = model_check(m, f)
        except Exception as exc:
            raise OperationError(f"{q.name}: {exc!r}") from exc
        times.append(clock() - t)
        labels.append(lab)
        yield
    return times, labels


def check_pass_traced(spec, loaded, want, tr, probe):
    """Rebuild every labelling from the per-layer calls, in sub_ordered
    order, and require it to equal the checked labels `want`.  Returns
    ([problems], seconds spent)."""
    problems = []
    seconds = 0.0
    for i, q in enumerate(spec.queries):
        start = clock()
        with probe:
            labels = _traced_query(loaded.target(spec, i), q.engine, tr)
        seconds += clock() - start
        if labels != want[i]:
            problems.append(f"{q.name}: traced labels differ from the "
                            "checked labels")
        yield
    return problems, seconds


def _traced_query(target, engine, tr):
    """One query's labels, built layer by layer, with each layer's share
    of the time and work added to `tr`."""
    from rbatl import (CoalitionNext, CoalitionUntil, SearchStats, atl_label,
                       box_strategy, node0, rb_atl_label, split, sub_ordered,
                       sub_plus, until_strategy)
    import rbatl.atl
    from rbatl.formula import is_modal
    from rbatl.vectors import INF, is_all_inf

    m, f = target
    if engine == "symbolic":
        t = clock()
        order = sub_plus(f)
        tr.v["formula.closure_s"] += clock() - t
        tr.v["formula.ladder_size"] += len(order)
        tr.v["symbolic.split_pairs"] += sum(
            len(split(g.bound)) for g in order
            if is_modal(g) and not isinstance(g, CoalitionNext)
            and not all(x is INF or x == 0 for x in g.bound))
        t = clock()
        labels = rb_atl_label(m, f)
        tr.v["symbolic.label_s"] += clock() - t
    else:
        t = clock()
        order = sub_ordered(f)
        tr.v["formula.closure_s"] += clock() - t
        tr.v["formula.closure_size"] += len(order)
        stats = SearchStats()
        labels = {}
        for g in order:
            t = clock()
            if not is_modal(g) or is_all_inf(g.bound):
                labels[g] = atl_label(m, g, labels)
                tr.v["atl.fixpoint_s"] += clock() - t
            elif isinstance(g, CoalitionNext):
                labels[g] = rbatl.atl.pre(m, g.coalition, labels[g.child],
                                          g.bound)
            elif isinstance(g, CoalitionUntil):
                labels[g] = frozenset(
                    s for s in m.states
                    if until_strategy(m, node0(s, g.bound), g, labels,
                                      stats=stats))
                tr.v["checker.until_s"] += clock() - t
            else:
                labels[g] = frozenset(
                    s for s in m.states
                    if box_strategy(m, node0(s, g.bound), g, labels,
                                    stats=stats))
                tr.v["checker.box_s"] += clock() - t
        tr.v["checker.nodes"] += stats.nodes
        tr.v["checker.max_depth"] = max(tr.v["checker.max_depth"],
                                        stats.max_depth)
        tr.v["checker.pumps"] += stats.pumps
        tr.v["checker.cache_hits"] += stats.cache_hits
    return labels


class PreProbe:
    """Counts and times `pre` where atl, checker, symbolic and witness bind
    it, into `self.trace`; installed around traced queries only."""

    def __init__(self):
        import rbatl.atl
        import rbatl.checker
        import rbatl.symbolic
        import rbatl.witness

        self.trace = None
        self.original = original = rbatl.atl.pre
        self.modules = [mod for mod in (rbatl.atl, rbatl.checker,
                                        rbatl.symbolic, rbatl.witness)
                        if getattr(mod, "pre", None) is original]

        def probe(*args, **kwargs):
            t = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.trace.v["atl.pre_s"] += clock() - t
                self.trace.v["atl.pre_calls"] += 1

        self.probe = probe

    def __enter__(self):
        for mod in self.modules:
            mod.pre = self.probe
        return self

    def __exit__(self, *exc):
        for mod in self.modules:
            mod.pre = self.original


def cert_pass(spec, loaded, labels, picks, tr=None):
    """Build, concretize, validate, serialize and reload one certificate
    per pick.  Returns ([seconds per certificate], [(validated, json text,
    reloaded dict)])."""
    out = []
    times = []
    for qi, state in picks:
        try:
            ok, text, back, steps = _certificate(loaded.target(spec, qi),
                                                 labels[qi], state)
        except Exception as exc:
            raise OperationError(f"certificate {spec.queries[qi].name}@"
                                 f"{state}: {exc!r}") from exc
        times.append(sum(steps))
        if tr is not None:
            for key, dt in zip(("witness.find_s", "witness.concretize_s",
                                "witness.validate_s", "witness.dump_s",
                                "witness.load_s"), steps):
                tr.v[key] += dt
        out.append((ok, text, back))
        yield
    return times, out


def _certificate(target, lab, state):
    """find_witness -> concretize -> validate -> dump -> reload, each timed."""
    from rbatl import (CoalitionUntil, concretize_until_witness, dump_witness,
                       find_witness, validate_witness, witness_from_dict,
                       witness_to_dict)

    m, f = target
    t0 = clock()
    tree = find_witness(m, f, state, labels=lab)
    t1 = clock()
    if isinstance(f, CoalitionUntil):
        phi, psi = lab[f.hold], lab[f.goal]
        tree = concretize_until_witness(m, tree, phi_states=phi,
                                        psi_states=psi)
        t2 = clock()
        ok = validate_witness(m, tree, phi_states=phi, psi_states=psi)
    else:
        t2 = clock()
        ok = validate_witness(m, tree, phi_states=lab[f.child])
    t3 = clock()
    text = dump_witness(tree)
    t4 = clock()
    back = witness_from_dict(json.loads(text))
    t5 = clock()
    return ok, text, witness_to_dict(back), (t1 - t0, t2 - t1, t3 - t2,
                                             t4 - t3, t5 - t4)


def cli_pass(argvs, tr=None):
    """Run every command line in-process; returns ([seconds per call],
    [(exit code, stdout, stderr)])."""
    from rbatl.cli import main as cli_main

    out = []
    times = []
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            t = clock()
            try:
                code = cli_main(list(argv))
            except Exception as exc:
                raise OperationError(f"cli {' '.join(argv[2:4])}: {exc!r}"
                                     ) from exc
            times.append(clock() - t)
        out.append((code, stdout.getvalue(), stderr.getvalue()))
        yield
    if tr is not None:
        tr.v["cli.main_s"] += sum(times)
    return times, out


# -- checking -------------------------------------------------------------


def program_formula(g):
    """Build corpus formula g with the program's formula constructors."""
    import rbatl

    kind = g[0]
    if kind == "true":
        return rbatl.TRUE
    if kind == "false":
        return rbatl.FALSE
    if kind == "prop":
        return rbatl.Prop(g[1])
    args = [program_formula(c) for c in corpus.children(g)]
    if kind == "not":
        return rbatl.Not(*args)
    if kind == "or":
        return rbatl.Or(*args)
    if kind == "and":
        return rbatl.And(*args)
    bound = tuple(rbatl.INF if x is None else x for x in g[2])
    cls = {"X": rbatl.CoalitionNext, "G": rbatl.CoalitionAlways,
           "U": rbatl.CoalitionUntil}[kind]
    return cls(g[1], bound, *args)


class Checker:
    """Checks a pass's outputs: the warm-up pass against the reference
    answers, later passes against the checked warm-up outputs."""

    def __init__(self, spec, loaded):
        self.spec = spec
        self.loaded = loaded
        self.games = {}
        self.keys = {}
        self.problems = []

    def game(self, qi):
        q = self.spec.queries[qi]
        key = ("net", q.net) if q.net is not None else ("model", q.model)
        if key not in self.games:
            if q.net is not None:
                from rbatl import model_to_dict
                data = model_to_dict(self.loaded.reduced[q.net][0])
            else:
                data = self.spec.models[q.model]
            self.games[key] = reference.Game(data)
        return self.games[key]

    def key(self, g):
        """The program's formula value for corpus formula g."""
        if g not in self.keys:
            self.keys[g] = program_formula(g)
        return self.keys[g]

    def fail(self, name, message):
        self.problems.append(f"{name}: {message}")

    def queries(self, labels):
        for qi, q in enumerate(self.spec.queries):
            lab = labels[qi]
            _, f = self.loaded.target(self.spec, qi)
            if f != self.key(q.formula):
                self.fail(q.name, "the program's formula is not the query")
                continue
            game = self.game(qi)
            for p in reference.check_labels(
                    game, q.formula, lambda g: lab[self.key(g)],
                    ladder=q.engine == "symbolic"):
                self.fail(q.name, p)
            top = lab.get(f, frozenset())
            for state, verdict in q.closed:
                if (state in top) != verdict:
                    self.fail(q.name, f"{state} should "
                              f"{'' if verdict else 'not '}satisfy the query")
            if q.net is not None:
                net, target = self.spec.nets[q.net]
                if ("start" in top) != reference.coverable(net, target):
                    self.fail(q.name, "coverability verdict is wrong")

    def pick_certs(self, labels):
        picks = list(self.spec.certs.fixed)
        wanted = len(picks) + self.spec.certs.count
        for qi in self.spec.certs.queries:
            m, f = self.loaded.target(self.spec, qi)
            picks += [(qi, s) for s in m.states if s in labels[qi][f]]
            if len(picks) >= wanted:
                del picks[wanted:]
                break
        if len(picks) != wanted:
            raise SystemExit(f"bench: only {len(picks)} of {wanted} "
                             "certificate queries hold anywhere")
        return picks

    def replay(self, name, qi, state, text_or_dict, labels):
        q = self.spec.queries[qi]
        f = q.formula
        lab = labels[qi]
        hold = lab[self.key(f[3])]
        goal = lab[self.key(f[4])] if f[0] == "U" else frozenset()
        data = (json.loads(text_or_dict) if isinstance(text_or_dict, str)
                else text_or_dict)
        problems, nodes, depth = reference.replay_certificate(
            self.game(qi), data, state=state, formula=f, hold=hold, goal=goal)
        for p in problems:
            self.fail(name, p)
        return nodes, depth

    def certs(self, picks, results, labels):
        shape = [0, 0]
        for (qi, state), (ok, text, back) in zip(picks, results):
            name = f"certificate {self.spec.queries[qi].name}@{state}"
            if not ok:
                self.fail(name, "the program's validator rejects it")
            nodes, depth = self.replay(name, qi, state, text, labels)
            if back != json.loads(text):
                self.fail(name, "reloading changes the certificate")
            shape[0] += nodes
            shape[1] = max(shape[1], depth)
        return shape

    def cli(self, calls, paths, results, labels):
        failed = 0
        for call, (code, out, err), (_, wpath) in zip(calls, results, paths):
            q = self.spec.queries[call.query]
            name = f"cli {q.name}@{call.state}"
            if (call.known_fault is not None and code == 2
                    and call.known_fault in err):
                failed += 1
                continue
            if code not in (0, 1):
                self.fail(name, f"exit {code}: {err.strip()[:200]}")
                continue
            m, f = self.loaded.target(self.spec, call.query)
            top = labels[call.query][f]
            payload = json.loads(out)
            if payload["satisfying"] != [s for s in m.states if s in top]:
                self.fail(name, "satisfying states differ from the labels")
            if payload["holds"] != (call.state in top) or code != (
                    0 if call.state in top else 1):
                self.fail(name, "verdict or exit code is wrong")
            if call.witness and call.state in top:
                if not payload.get("witness", {}).get("validated"):
                    self.fail(name, "certificate was not validated")
                self.replay(name, call.query, call.state,
                            Path(wpath).read_text(), labels)
        return failed


# -- one run --------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _per_op_sum(passes):
    """One pass's time with each operation at its median over passes, which
    damps bursts of machine noise that hit single passes."""
    return sum(_median(ts) for ts in zip(*passes))


def run(name, seed, seconds, traced):
    spec = workloads.BUILDERS[name](seed)
    model_texts = spec.model_texts()
    formula_texts = [None if q.net is not None else corpus.render(q.formula)
                     for q in spec.queries]
    net_texts = spec.net_texts()

    outdir = ROOT / ".bench_out" / f"{name}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(spec, seconds, traced, model_texts, formula_texts,
                    net_texts, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _run(spec, seconds, traced, model_texts, formula_texts, net_texts,
         outdir):
    setup_times, setup_traces = [], []

    def setup():
        tr = Trace() if traced else None
        loaded, dt = load(spec, model_texts, formula_texts, net_texts, tr)
        setup_times.append(dt)
        setup_traces.append(tr)
        return loaded

    loaded = setup()

    checker = Checker(spec, loaded)
    t = clock()
    [(_, labels)] = interleave((check_pass(spec, loaded), len(spec.queries)))
    warm_check_s = clock() - t
    checker.queries(labels)
    if checker.problems:
        return checker.problems, None
    picks = checker.pick_certs(labels)
    [(_, warm_certs)] = interleave((cert_pass(spec, loaded, labels, picks),
                                    len(picks)))
    cert_shape = checker.certs(picks, warm_certs, labels)

    paths = []
    for call in spec.cli:
        q = spec.queries[call.query]
        mpath = outdir / f"model{q.model}.json"
        if not mpath.exists():
            mpath.write_text(model_texts[q.model])
        paths.append((mpath, outdir / f"cert{len(paths)}.json"))
    argvs = []
    for call, (mpath, wpath) in zip(spec.cli, paths):
        argv = ["check", str(mpath), corpus.render(spec.queries[call.query].formula),
                "--state", call.state, "--json"]
        if spec.queries[call.query].engine == "symbolic":
            argv += ["--engine", "symbolic"]
        if call.witness:
            argv += ["--witness", str(wpath)]
        argvs.append(argv)
    [(_, warm_cli)] = interleave((cli_pass(argvs), len(argvs)))
    failed_per_pass = checker.cli(spec.cli, paths, warm_cli, labels)
    if checker.problems:
        return checker.problems, None
    per_pass = len(spec.queries) + len(picks) + len(spec.cli)

    passes = 1
    traced_check_s, traces = [], []
    query_times, witness_times, cli_times = [], [], []
    probe = PreProbe() if traced else None
    deadline = clock() + seconds
    while True:
        begun = clock()
        passes += 1
        if traced:
            tr = probe.trace = Trace()
            check = check_pass_traced(spec, loaded, labels, tr, probe)
        else:
            tr = None
            check = check_pass(spec, loaded)
        checked, (w, certs_out), (c, cli_out) = interleave(
            (check, len(spec.queries)),
            (cert_pass(spec, loaded, labels, picks, tr), len(picks)),
            (cli_pass(argvs, tr), len(argvs)))
        if traced:
            problems, spent = checked
            checker.problems += problems
            traced_check_s.append(spent)
        else:
            times, again = checked
            query_times.append(times)
            if again != labels:
                checker.fail(spec.name, "labels differ from the warm-up pass")
        witness_times.append(w)
        for pick, now, then in zip(picks, certs_out, warm_certs):
            if now[1] != then[1]:
                checker.certs([pick], [now], labels)
        cli_times.append(c)
        for call, path, now, then in zip(spec.cli, paths, cli_out, warm_cli):
            if now[:2] != then[:2]:
                checker.cli([call], [path], [now], labels)
        if checker.problems:
            return checker.problems, None
        if traced:
            traces.append(tr)
        setup()  # spread the timed set-ups over the run, like the passes
        if 2 * clock() - begun > deadline:
            break  # the next pass would end past the deadline

    attempted = passes * per_pass
    failed = passes * failed_per_pass
    if traced:
        print(f"bench: check pass {warm_check_s:.3f} s untraced (warm-up), "
              f"{_median(traced_check_s):.3f} s traced (median of "
              f"{len(traced_check_s)})",
              file=sys.stderr)
        metrics = {}
        for key in Trace.TIMES:
            source = setup_traces if key in (
                "modelio.load_s", "model.validate_s", "parser.parse_s",
                "petri.reduce_s") else traces
            metrics[key] = {"value": _median([t.v[key] for t in source]),
                            "unit": "s"}
        last = traces[-1]
        last.v["witness.nodes"], last.v["witness.depth"] = cert_shape
        for key in Trace.COUNTS:
            metrics[key] = {"value": last.v[key], "unit": "count"}
    else:
        every_query = [t for times in query_times for t in times]
        cert_bytes = sum(len(text.encode()) for _, text, _ in warm_certs)
        metrics = {
            "setup_s": (_median(setup_times), "s"),
            "check_s": (_per_op_sum(query_times), "s"),
            "check_p50_ms": (1000 * _median(every_query), "ms"),
            "check_p90_ms": (1000 * statistics.quantiles(every_query,
                                                         n=10)[8], "ms"),
            "witness_s": (_per_op_sum(witness_times), "s"),
            "cert_bytes": (cert_bytes, "bytes"),
            "cli_s": (_per_op_sum(cli_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(f"bench: {spec.name}: {passes} passes of {per_pass} operations, "
          f"{len(spec.queries)} queries, {len(picks)} certificates, "
          f"{len(spec.cli)} command lines", file=sys.stderr)
    return [], {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    try:
        problems, result = run(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except OperationError as exc:
        problems, result = [f"raised: {exc}"], None
    if problems:
        for p in problems[:20]:
            print(f"bench: MISMATCH {p}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
