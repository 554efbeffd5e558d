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

from .core import FloError, GraphTypeError, bottom
from .gen import gen_delta, gen_value
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
    encode_report,
    encode_value,
)
from .opcatalog import REGISTRY, build_operator, cases_for
from .scheduler import RandomSched, RoundRobin, run_trace


class NotACounterexample(FloError):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _emit(obj) -> None:
    print(dumps(obj))


def cmd_typecheck(args) -> int:
    graph = decode_graph(_load_json(args.graph))
    try:
        gt = typecheck(graph)
    except GraphTypeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _emit(
        {
            "inputs": [str(t) for t in gt.inputs],
            "outputs": [str(t) for t in gt.outputs],
        }
    )
    return 0


def cmd_run(args) -> int:
    graph = decode_graph(_load_json(args.graph))
    try:
        gt = typecheck(graph)
    except GraphTypeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    trace = decode_trace(_load_json(args.trace), gt.inputs)
    sched = RandomSched(args.seed) if args.schedule == "random" else RoundRobin()
    result = run_trace(graph, trace, sched, drain_seed=args.seed)
    if args.log:
        with open(args.log, "w") as fh:
            for ev in result.log:
                fh.write(json.dumps(ev.as_dict(), sort_keys=True) + "\n")
    _emit({"outputs": [encode_value(v) for v in result.totals]})
    return 0


_PROPS = {
    "eager": "EagerExecution",
    "progress": "StreamingProgress",
    "rank": "RankDescent",
    "determinism": "Determinism",
}


def _graph_cases(graph, count, seed, progress):
    from .core import B

    rng = random.Random(seed)
    types = in_types(graph)
    for _ in range(count):
        if progress:
            buffers = tuple(
                gen_value(st.collection, rng, fixed=True if st.bound is B else None)
                for st in types
            )
            yield OpCase(buffers=buffers)
        else:
            buffers = tuple(gen_value(st.collection, rng) for st in types)
            delta = tuple(gen_delta(st.collection, rng, b) for st, b in zip(types, buffers))
            yield OpCase(buffers=buffers, delta=delta, presteps=rng.randint(0, 3))


def _check_one(subject, prop, args, entry=None, graph_subject=False):
    if prop == "determinism":
        if graph_subject:
            if args.inputs:
                values = [
                    decode_value(v, st.collection)
                    for v, st in zip(_load_json(args.inputs), in_types(subject))
                ]
                ins = tuple(values)
            else:
                rng = random.Random(args.seed)
                ins = tuple(gen_value(st.collection, rng) for st in in_types(subject))
            mode = "exhaustive" if args.exhaustive else "sampled"
            return check_determinism(
                subject, ins, mode=mode, max_configs=args.max_configs, seed=args.seed
            )
        from .graph import node as mknode

        op = entry.op_eager
        rng = random.Random(args.seed)
        ins = tuple(gen_value(st.collection, rng) for st in op.inputs)
        return check_determinism(
            mknode(op),
            ins,
            mode="exhaustive" if args.exhaustive else "sampled",
            max_configs=args.max_configs,
            seed=args.seed,
        )
    if graph_subject:
        cases = _graph_cases(subject, args.cases, args.seed, progress=prop == "progress")
        subject_for_check = subject
    else:
        cases = cases_for(entry, prop, args.cases, args.seed)
        subject_for_check = entry.op_progress if prop == "progress" else entry.op_eager
    if prop == "eager":
        return check_eager(subject_for_check, cases)
    if prop == "progress":
        return check_progress(subject_for_check, cases)
    return check_rank_and_preservation(subject_for_check, cases, seed=args.seed)


def cmd_check(args) -> int:
    if bool(args.graph) == bool(args.operator):
        print("check needs exactly one of GRAPH or --operator", file=sys.stderr)
        return 2
    props = ["eager", "progress", "rank"] if args.property == "all" else [args.property]
    if args.operator:
        if args.operator not in REGISTRY:
            print(f"unknown operator {args.operator!r}", file=sys.stderr)
            return 2
        entry = REGISTRY[args.operator]
        subject_desc = {"operator": args.operator, "params": entry.default_params}
        reports = [_check_one(None, p, args, entry=entry) for p in props]
    else:
        graph = decode_graph(_load_json(args.graph))
        typecheck(graph)
        from .jsonio import encode_graph

        subject_desc = {"graph": encode_graph(graph)}
        reports = [_check_one(graph, p, args, graph_subject=True) for p in props]
    encoded = [encode_report(r, subject_desc) for r in reports]
    _emit(encoded[0] if len(encoded) == 1 else encoded)
    failed = [r for r in reports if not r.passed]
    if failed and args.counterexample:
        from .jsonio import encode_counterexample

        with open(args.counterexample, "w") as fh:
            fh.write(dumps(encode_counterexample(failed[0], subject_desc)))
    return 1 if failed else 0


def cmd_explore(args) -> int:
    graph = decode_graph(_load_json(args.graph))
    gt = typecheck(graph)
    if args.inputs:
        values = tuple(
            decode_value(v, st.collection)
            for v, st in zip(_load_json(args.inputs), gt.inputs)
        )
        graph = set_inputs(graph, values)
    outs = tuple(bottom(st.collection) for st in gt.outputs)
    res = explore_all(graph, outs, max_configs=args.max_configs)
    distinct = len(dict.fromkeys(res.stuck))
    _emit(
        {
            "configs": res.visited,
            "stuck": distinct,
            "capped": res.capped,
            "unique": distinct == 1 and not res.capped,
        }
    )
    return 0 if distinct == 1 and not res.capped else 1


def cmd_replay(args) -> int:
    data = _load_json(args.file)
    if data.get("verdict") != "Fail":
        print("NotACounterexample: replay input is not a failing report", file=sys.stderr)
        return 2
    prop = data.get("property")
    if "operator" in data:
        subject = build_operator(data["operator"], data.get("params"))
        graph_subject = False
    elif "graph" in data:
        subject = decode_graph(data["graph"])
        graph_subject = True
    else:
        print("NotACounterexample: no subject recorded", file=sys.stderr)
        return 2

    if prop == "Determinism":
        from .graph import node as mknode

        ins = tuple(
            decode_value(v, st.collection)
            for v, st in zip(data["inputs"], in_types(subject) if graph_subject else subject.inputs)
        )
        target = subject if graph_subject else mknode(subject)
        report = check_determinism(target, ins, mode="exhaustive", max_configs=args.max_configs)
    else:
        case_j = data.get("case")
        if case_j is None:
            print("NotACounterexample: no case recorded", file=sys.stderr)
            return 2
        tags = in_types(subject) if graph_subject else subject.inputs
        buffers = tuple(
            decode_value(v, st.collection) for v, st in zip(case_j["buffers"], tags)
        )
        deltas = tuple(
            decode_delta(d, st.collection) for d, st in zip(case_j.get("delta", []), tags)
        )
        case = OpCase(buffers=buffers, delta=deltas, presteps=case_j.get("presteps", 0))
        if prop == "EagerExecution":
            report = check_eager(subject, [case])
        elif prop == "StreamingProgress":
            report = check_progress(subject, [case])
        else:
            report = check_rank_and_preservation(subject, [case])
    subject_desc = {k: data[k] for k in ("operator", "params", "graph") if k in data}
    out = encode_report(report, subject_desc)
    out["replayed"] = True
    out["original_verdict"] = "Fail"
    if report.passed:
        out["note"] = "counterexample no longer reproduces; behavior now passes"
    _emit(out)
    return 1 if not report.passed else 0


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

    default_cap = int(os.environ.get("FLO_MAX_CONFIGS", "100000"))

    p = sub.add_parser("check", help="check a behavioral property")
    p.add_argument("graph", nargs="?")
    p.add_argument("--operator", help="check a registered operator instead of a graph")
    p.add_argument(
        "--property",
        choices=["eager", "progress", "rank", "determinism", "all"],
        default="all",
    )
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--inputs", help="JSON file with graph input values")
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--max-configs", type=int, default=default_cap)
    p.add_argument("--counterexample", help="write a replayable counterexample on failure")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("explore", help="exhaustively explore schedules of a graph")
    p.add_argument("graph")
    p.add_argument("--inputs")
    p.add_argument("--max-configs", type=int, default=default_cap)
    p.set_defaults(fn=cmd_explore)

    p = sub.add_parser("replay", help="re-execute a recorded counterexample")
    p.add_argument("file")
    p.add_argument("--max-configs", type=int, default=default_cap)
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
    except GraphTypeError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except FloError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
