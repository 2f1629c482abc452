"""Command-line front end: check, petri, translate.

Exit codes for `check`: 0 when the designated state satisfies the formula
(or no state was designated and checking succeeded), 1 when the designated
state fails it, 2 on any input or usage error, 3 on an internal error (the
traceback goes to stderr).  Codes 2 and 3 hold for every subcommand.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback
from pathlib import Path

from .atl import Semantics
from .checker import SearchStats, eval_propositional, find_witness, model_check
from .errors import RBATLError
from .formula import CoalitionAlways, CoalitionUntil, Formula, format_formula
from .modelio import load_model, save_model
from .oracle import bounded_search
from .parser import parse_formula
from .petri import load_net, reduce_to_model
from .symbolic import rb_atl_label
from .witness import dump_witness, validate_witness


def _read_formula_arg(arg: str) -> str:
    if arg.startswith("@"):
        path = Path(arg[1:])
    else:
        path = Path(arg)
        try:
            if not path.is_file():
                return arg
        except OSError:  # e.g. a formula longer than a file name may be
            return arg
    try:
        return path.read_text().strip()
    except UnicodeDecodeError as exc:
        raise RBATLError(f"formula file is not valid UTF-8: {exc}") from exc


def _parse_oracle_depth(text: str) -> int:
    raw = text
    if text.startswith("depth="):
        text = text[len("depth="):]
    try:
        depth = int(text)
    except ValueError:
        raise RBATLError(f"bad --oracle value {raw!r}; use depth=N") from None
    if depth < 1:
        raise RBATLError("oracle depth must be >= 1")
    return depth


def _sorted_states(m, states):
    return sorted(states, key=m._state_index.__getitem__)


def cmd_check(args) -> int:
    m = load_model(args.model)
    f0 = parse_formula(_read_formula_arg(args.formula))
    mode = Semantics(args.semantics)
    if args.state is not None and args.state not in m.states:
        raise RBATLError(f"unknown state {args.state!r}")
    stats = SearchStats()
    if args.engine == "symbolic":
        if mode is not Semantics.RBATL:
            raise RBATLError(
                "the symbolic engine only implements the rbatl semantics"
            )
        labels = rb_atl_label(m, f0, mode)
    else:
        labels = model_check(m, f0, mode, stats=stats)
    satisfying = _sorted_states(m, labels[f0])
    holds = args.state in labels[f0] if args.state is not None else None

    oracle_verdict = None
    if args.oracle is not None:
        depth = _parse_oracle_depth(args.oracle)
        oracle_verdict = _run_oracle(m, f0, args.state, mode, depth)

    witness_status = None
    if args.witness is not None:
        witness_status = _emit_witness(m, f0, args.state, mode, labels,
                                       args.witness)

    payload = {
        "formula": format_formula(f0),
        "semantics": mode.value,
        "engine": args.engine,
        "satisfying": satisfying,
    }
    if args.state is not None:
        payload["state"] = args.state
        payload["holds"] = holds
    if args.all_labels:
        payload["labels"] = {format_formula(f): _sorted_states(m, ss)
                             for f, ss in labels.items()}
    if oracle_verdict is not None:
        payload["oracle"] = "true" if oracle_verdict is True else "unknown"
    if witness_status is not None:
        payload["witness"] = witness_status
    if args.trace:
        payload["trace"] = {
            "nodes": stats.nodes,
            "max_depth": stats.max_depth,
            "pumps": stats.pumps,
            "cache_hits": stats.cache_hits,
        }

    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"formula: {payload['formula']}")
        print(f"semantics: {mode.value}")
        print("satisfying: " + (" ".join(satisfying) if satisfying else "(none)"))
        if args.state is not None:
            print(f"state {args.state}: {'SAT' if holds else 'UNSAT'}")
        if args.all_labels:
            for name, ss in payload["labels"].items():
                print(f"label {name}: " + (" ".join(ss) if ss else "(none)"))
        if oracle_verdict is not None:
            print(f"oracle: {payload['oracle']}")
            if oracle_verdict is True and args.state is not None and not holds:
                print("oracle: CONFLICT with checker answer", file=sys.stderr)
        if witness_status is not None:
            print(f"witness: {witness_status['path']} "
                  f"({'validated' if witness_status['validated'] else 'INVALID'})")
        if args.trace:
            t = payload["trace"]
            print(f"trace: nodes={t['nodes']} max_depth={t['max_depth']} "
                  f"pumps={t['pumps']} cache_hits={t['cache_hits']}",
                  file=sys.stderr)
    if args.state is None:
        return 0
    return 0 if holds else 1


def _run_oracle(m, f0: Formula, state, mode, depth):
    if state is None:
        raise RBATLError("--oracle needs --state to name the query")
    if isinstance(f0, CoalitionUntil):
        phi = eval_propositional(m, f0.hold)
        psi = eval_propositional(m, f0.goal)
        return bounded_search(m, f0.coalition, f0.bound, "until", depth,
                              state=state, phi_states=phi, psi_states=psi,
                              mode=mode)
    if isinstance(f0, CoalitionAlways):
        phi = eval_propositional(m, f0.child)
        return bounded_search(m, f0.coalition, f0.bound, "box", depth,
                              state=state, phi_states=phi, mode=mode)
    raise RBATLError(
        "--oracle cross-checks a top-level until/always modality with "
        "propositional arguments"
    )


def _emit_witness(m, f0: Formula, state, mode, labels, out_path):
    if state is None:
        raise RBATLError("--witness needs --state to name the query")
    if not isinstance(f0, (CoalitionUntil, CoalitionAlways)):
        raise RBATLError("--witness needs a top-level until/always modality")
    tree = find_witness(m, f0, state, mode, labels=labels)
    if tree is None:
        return {"path": str(out_path), "written": False, "validated": False,
                "note": "property fails at the designated state"}
    if isinstance(f0, CoalitionUntil):
        ok = validate_witness(m, tree, phi_states=labels[f0.hold],
                              psi_states=labels[f0.goal])
    else:
        ok = validate_witness(m, tree, phi_states=labels[f0.child])
    Path(out_path).write_text(dump_witness(tree))
    return {"path": str(out_path), "written": True, "validated": bool(ok)}


def cmd_petri(args) -> int:
    net = load_net(args.net)
    try:
        target = tuple(int(x) for x in args.target.split(","))
    except ValueError:
        raise RBATLError(
            f"bad --target {args.target!r}; use comma-separated naturals"
        ) from None
    model, query = reduce_to_model(net, target)
    formula_text = format_formula(query)
    if args.model_out:
        save_model(model, args.model_out)
    if args.formula_out:
        Path(args.formula_out).write_text(formula_text + "\n")
    print(formula_text)
    return 0


def cmd_translate(args) -> int:
    f = parse_formula(_read_formula_arg(args.formula), endowments=True)
    print(format_formula(f))
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbatl",
        description="Model checking for resource-bounded strategic logic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="label a model with a formula")
    check.add_argument("model", help="model JSON file")
    check.add_argument("formula", help="formula text, @file, or a file path")
    check.add_argument("--state", help="state whose verdict drives the exit code")
    check.add_argument("--semantics", default="rbatl",
                       choices=["rbatl", "nt", "ral-finite"])
    check.add_argument("--engine", default="tree", choices=["tree", "symbolic"],
                       help="symbolic: consumption-only models under rbatl; "
                       "refuses a producing model, else the same labels")
    check.add_argument("--witness", metavar="OUT",
                       help="write a strategy certificate for the query")
    check.add_argument("--oracle", metavar="depth=N",
                       help="cross-check with the exhaustive depth-bounded search")
    check.add_argument("--trace", action="store_true",
                       help="report search instrumentation on stderr")
    check.add_argument("--json", action="store_true",
                       help="machine-readable output")
    check.add_argument("--all-labels", action="store_true",
                       help="also print the label of every subformula and of "
                       "each bounded modality's unbounded variant")

    petri = sub.add_parser(
        "petri", help="reduce a net coverability question to a check query"
    )
    petri.add_argument("net", help="net JSON file")
    petri.add_argument("--target", required=True,
                       help="target marking, comma-separated per place")
    petri.add_argument("--model-out", help="write the reduced model here")
    petri.add_argument("--formula-out", help="write the paired formula here")

    translate = sub.add_parser(
        "translate", help="rewrite per-agent endowments into a single bound"
    )
    translate.add_argument("formula", help="formula text, @file, or a file path")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call: parsing leaves the
    parser unchanged, so one serves every call in a process."""
    return build_arg_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up on each call, not stored in the parser that calls share
    command = {"check": cmd_check, "petri": cmd_petri,
               "translate": cmd_translate}[args.command]
    try:
        return command(args)
    except (RBATLError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("error: internal error (traceback above)", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
