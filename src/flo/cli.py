"""Command line: typecheck, run, check, explore, replay.

Machine-readable JSON goes to stdout; diagnostics go to stderr. Exit
codes: 0 success or Pass, 1 type or property failure, 2 usage and parse
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .core import FloError, bottom
from .gen import gen_value
from .graph import explore_all, in_types, set_inputs, typecheck
from .harness import (
    OpCase,
    check_determinism,
    check_eager,
    check_progress,
    check_rank_and_preservation,
)
from .jsonio import (
    ParseError,
    decode_delta,
    decode_graph,
    decode_trace,
    decode_value,
    dumps,
    encode_counterexample,
    encode_graph,
    encode_report,
    encode_value,
)
from .opcatalog import REGISTRY, build_operator, sample_cases
from .scheduler import RandomSched, RoundRobin, run_trace


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(obj) -> None:
    print(dumps(obj))


def cmd_typecheck(args) -> int:
    gt = typecheck(decode_graph(_load_json(args.graph)))
    _emit({"inputs": [str(t) for t in gt.inputs], "outputs": [str(t) for t in gt.outputs]})
    return 0


def cmd_run(args) -> int:
    graph = decode_graph(_load_json(args.graph))
    gt = typecheck(graph)
    trace = decode_trace(_load_json(args.trace), gt.inputs)
    sched = RandomSched(args.seed) if args.schedule == "random" else RoundRobin()
    result = run_trace(graph, trace, sched)
    if args.log:
        with open(args.log, "w") as fh:
            for ev in result.log:
                fh.write(json.dumps(ev.as_dict(), sort_keys=True) + "\n")
    _emit({"outputs": [encode_value(v) for v in result.totals]})
    return 0


def _decode_inputs(values, types) -> tuple:
    return tuple(decode_value(v, st.collection) for v, st in zip(values, types))


def _determinism_inputs(types, args) -> tuple:
    """The ``--inputs`` file if given, else values drawn from the seed."""
    if args.inputs:
        return _decode_inputs(_load_json(args.inputs), types)
    rng = random.Random(args.seed)
    return tuple(gen_value(st.collection, rng) for st in types)


# Case-based checks by --property name: the report names each makes (how
# ``flo replay`` finds it) and the check, called with subject, cases, seed.
_CASE_CHECKS = {
    "eager": (("EagerExecution",), lambda s, cases, seed: check_eager(s, cases)),
    "progress": (("StreamingProgress",), lambda s, cases, seed: check_progress(s, cases)),
    "rank": (("RankDescent", "Preservation"), lambda s, cases, seed: check_rank_and_preservation(s, cases, seed=seed)),
}


def _check_one(subject, types, prop, args):
    """Run one property check on an operator or a graph whose exterior
    inputs have the given stream types."""
    if prop == "determinism":
        return check_determinism(
            subject,
            _determinism_inputs(types, args),
            mode="exhaustive" if args.exhaustive else "sampled",
            max_configs=args.max_configs,
            seed=args.seed,
        )
    cases = sample_cases(types, prop, args.cases, args.seed)
    return _CASE_CHECKS[prop][1](subject, cases, args.seed)


def cmd_check(args) -> int:
    if bool(args.graph) == bool(args.operator):
        print("check needs exactly one of GRAPH or --operator", file=sys.stderr)
        return 2
    props = list(_CASE_CHECKS) if args.property == "all" else [args.property]
    if args.operator:
        if args.operator not in REGISTRY:
            print(f"unknown operator {args.operator!r}", file=sys.stderr)
            return 2
        entry = REGISTRY[args.operator]
        subject_desc = {"operator": args.operator, "params": entry.default_params}
        reports = [_check_one(entry.op, entry.op.inputs, p, args) for p in props]
    else:
        graph = decode_graph(_load_json(args.graph))
        types = typecheck(graph).inputs
        subject_desc = {"graph": encode_graph(graph)}
        reports = [_check_one(graph, types, p, args) for p in props]
    encoded = [encode_report(r, subject_desc) for r in reports]
    _emit(encoded[0] if len(encoded) == 1 else encoded)
    failed = [r for r in reports if not r.passed]
    if failed and args.counterexample:
        with open(args.counterexample, "w") as fh:
            fh.write(dumps(encode_counterexample(failed[0], subject_desc)))
    return 1 if failed else 0


def cmd_explore(args) -> int:
    graph = decode_graph(_load_json(args.graph))
    gt = typecheck(graph)
    if args.inputs:
        graph = set_inputs(graph, _decode_inputs(_load_json(args.inputs), gt.inputs))
    outs = tuple(bottom(st.collection) for st in gt.outputs)
    res = explore_all(graph, outs, max_configs=args.max_configs)
    unique = len(res.stuck) == 1 and not res.capped
    _emit({"configs": res.visited, "stuck": len(res.stuck), "capped": res.capped, "unique": unique})
    return 0 if unique else 1


def cmd_replay(args) -> int:
    data = _load_json(args.file)
    if data.get("verdict") != "Fail":
        print("NotACounterexample: replay input is not a failing report", file=sys.stderr)
        return 2
    prop = data.get("property")
    check = next((c for names, c in _CASE_CHECKS.values() if prop in names), None)
    if check is None and prop != "Determinism":
        print(f"NotACounterexample: unknown property {prop!r}", file=sys.stderr)
        return 2
    if "operator" in data:
        subject = build_operator(data["operator"], data.get("params"))
        types = subject.inputs
    elif "graph" in data:
        subject = decode_graph(data["graph"])
        types = in_types(subject)
    else:
        print("NotACounterexample: no subject recorded", file=sys.stderr)
        return 2

    if prop == "Determinism":
        ins = _decode_inputs(data["inputs"], types)
        info = data.get("info", {})
        if "seed_a" in info and "seed_b" in info:
            # A sampled Fail: re-run the two seeded runs that disagreed.
            report = check_determinism(subject, ins, mode="sampled", seeds=(info["seed_a"], info["seed_b"]))
        else:
            report = check_determinism(subject, ins, mode="exhaustive", max_configs=args.max_configs)
    else:
        case_j = data.get("case")
        if case_j is None:
            print("NotACounterexample: no case recorded", file=sys.stderr)
            return 2
        case = OpCase(
            buffers=_decode_inputs(case_j["buffers"], types),
            delta=tuple(
                decode_delta(d, st.collection) for d, st in zip(case_j.get("delta", []), types)
            ),
            presteps=case_j.get("presteps", 0),
        )
        report = check(subject, [case], 0)
    subject_desc = {k: data[k] for k in ("operator", "params", "graph") if k in data}
    out = encode_report(report, subject_desc)
    out["replayed"] = True
    out["original_verdict"] = "Fail"
    if report.passed:
        out["note"] = "counterexample no longer reproduces; behavior now passes"
    _emit(out)
    return 1 if not report.passed else 0


def _positive(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flo", description="Streaming dataflow kernel: typecheck, run, and verify graphs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("typecheck", help="infer a graph's stream types")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("run", help="run a graph over a trace of input batches")
    p.add_argument("graph")
    p.add_argument("trace")
    p.add_argument("--schedule", choices=["roundrobin", "random"], default="roundrobin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", help="write an event log (JSON lines)")
    p.set_defaults(fn=cmd_run)

    # A string default goes through ``type`` too, when the option is not given.
    cap = {"type": _positive, "default": os.environ.get("FLO_MAX_CONFIGS", "100000")}

    p = sub.add_parser("check", help="check a behavioral property")
    p.add_argument("graph", nargs="?")
    p.add_argument("--operator", help="check a registered operator instead of a graph")
    p.add_argument(
        "--property",
        choices=[*_CASE_CHECKS, "determinism", "all"],
        default="all",
    )
    p.add_argument("--cases", type=_positive, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inputs",
        help="JSON file with the input values for --property determinism, "
        "for a graph or an --operator (default: values drawn from --seed)",
    )
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-configs", **cap)
    p.add_argument("--counterexample", help="write a replayable counterexample on failure")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("explore", help="exhaustively explore schedules of a graph")
    p.add_argument("graph")
    p.add_argument("--inputs")
    p.add_argument("--max-configs", **cap)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("replay", help="re-execute a recorded counterexample")
    p.add_argument("file")
    p.add_argument("--max-configs", **cap)
    p.set_defaults(fn=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except FloError as exc:  # a type error or a failed run
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
