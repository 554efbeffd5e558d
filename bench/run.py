#!/usr/bin/env python3
"""Layered benchmark for flo: four seeded workloads, checked against oracles.

Run from the repository root:

    python3 bench/run.py --workload seq_stream --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --self-test

``--trace 0`` times complete episodes until ``--seconds`` have passed and
prints the end-to-end metrics. ``--trace 1`` runs one untraced and one
traced episode, and the untraced size sweep, and prints the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A record of
the run (seed, sizes, Python version, exact counts, output digest) goes
to ``bench/out/`` and to standard error; a traced run also saves its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracer as tracing

clock = time.perf_counter
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 4  # extra set-ups in fresh interpreters, for a median set-up time
MIN_SAMPLES = 100  # operations per episode, so at least ten lie beyond p90
MIN_EPISODES = 3
HARD_STOP = 120.0  # seconds of timed episodes after which a run ends regardless


def import_flo():
    """Import flo from ``src`` under the working directory, and nothing else."""
    init = os.path.join(SRC, "flo", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"bench: {init} not found; run from the root of a flo checkout")
    sys.path.insert(0, SRC)
    import flo

    if os.path.abspath(flo.__file__) != init:
        sys.exit(f"bench: imported flo from {flo.__file__}, not {init}")
    import workloads

    return workloads


def timed_setup(name: str, seed: int):
    """Import flo, generate from the seed, round-trip JSON, typecheck."""
    t0 = clock()
    workloads = import_flo()
    w = workloads.WORKLOADS[name]
    prep = w.setup(seed)
    return clock() - t0, workloads, w, prep


def setup_probe(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def metric(value, unit):
    return {"value": value, "unit": unit}


def items_per_s(ep_list) -> float:
    units = sum(u for ep in ep_list for u in ep.units)
    secs = sum(t for ep in ep_list for t, u in zip(ep.latencies, ep.units) if u)
    return units / secs if secs else 0.0


# ---------------------------------------------------------------------------
# end to end


def episode_figures(ep):
    lat = ep.latencies
    return items_per_s([ep]), statistics.median(lat), statistics.quantiles(lat, n=10)[8]


def run_e2e(args, setup_s, w, prep):
    """Time complete episodes for about ``--seconds``; report medians over them.

    Each episode holds at least 100 operations, so its p90 has at least
    ten samples beyond it. A new episode starts only while the run would
    end closer to ``--seconds`` with it than without it.
    """
    want, _stats = w.expected(prep.raw)
    probes = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    episodes = []
    t_start = clock()
    while True:
        episodes.append(w.episode(prep, want))
        elapsed = clock() - t_start
        per_episode = elapsed / len(episodes)
        if elapsed >= HARD_STOP:
            break
        if len(episodes) >= MIN_EPISODES and elapsed + per_episode / 2 >= args.seconds:
            break
    figures = [episode_figures(ep) for ep in episodes if len(ep.latencies) >= 2]
    if not figures:
        sys.exit(f"bench: every {w.name} episode failed before two operations completed")
    digests = {ep.digest for ep in episodes}
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    metrics = {
        "setup_s": metric(statistics.median(probes + [setup_s]), "s"),
        "items_per_s": metric(statistics.median(f[0] for f in figures), "items/s"),
        "batch_p50_ms": metric(statistics.median(f[1] for f in figures) * 1e3, "ms"),
        "batch_p90_ms": metric(statistics.median(f[2] for f in figures) * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    record = {
        "episodes": len(episodes),
        "samples_per_episode": [len(ep.latencies) for ep in episodes],
        "per_episode": figures,
        "digest": episodes[0].digest,
        "setup_samples": probes + [setup_s],
        "errors": sorted({e for ep in episodes for e in ep.errors}),
    }
    enough = all(len(ep.latencies) >= MIN_SAMPLES for ep in episodes)
    correct = failed == 0 and len(digests) == 1 and enough
    return correct, attempted, failed, metrics, record


# ---------------------------------------------------------------------------
# traced


def layer_metrics(s, tr, w, prep, plain, stats):
    """Per-layer metrics from one traced episode (and its set-up)."""
    IN_OP = tracing.IN_OP
    m = {}
    flags, outs, parents, names = tr.s_flags, tr.s_out, tr.s_parent, tr.s_name
    ids = tr.ids

    def timed(name, secs, calls):
        stem = name[: -len(".s")] if name.endswith(".s") else name[: -len("_s")]
        stem = stem[: -len(".self")] if stem.endswith(".self") else stem
        m[name] = metric(secs, "s")
        m[stem + ".calls"] = metric(calls, "count")

    def ratio(a, b):
        return a / b if b else 0.0

    iterations = s.n_calls("scheduler.loop_iteration")
    top_steps = len(s.where("graph.step_graph", lambda i: not flags[i] & IN_OP))
    top_steps += len(s.where("graph.step_first", lambda i: not flags[i] & IN_OP and outs[i]))
    op_step_names = [n for n in ids if ".op." in n and not n.endswith(".rank")]
    evals = s.n_calls(*op_step_names)
    rank_names = [n for n in ids if ".op." in n and n.endswith(".rank")]
    sched = ("scheduler.loop_iteration", "scheduler.drain_value", "scheduler.recombine")
    traverse = ("graph.inputs", "graph.set_inputs", "graph.out_arity")

    m["scheduler.iterations"] = metric(iterations, "count")
    timed("scheduler.self_s", s.self_s(*sched), s.n_calls(*sched))
    drains = ("scheduler.drain_value", "scheduler.recombine")
    timed("scheduler.drain_s", s.incl(*drains), s.n_calls(*drains))
    m["scheduler.steps_per_batch"] = metric(ratio(top_steps, iterations), "steps")
    m["graph.steps"] = metric(top_steps, "count")
    m["graph.evals_per_step"] = metric(ratio(evals, top_steps), "ratio")
    for func in ("enabled_steps", "step_graph", "step_first", "typecheck"):
        timed(f"graph.{func}.s", s.incl(f"graph.{func}"), s.n_calls(f"graph.{func}"))
    timed("graph.traverse.s", s.self_s(*traverse), s.n_calls(*traverse))
    configs = sum(outs[i] for i in s.where("graph.explore_all", lambda i: True))
    explore_s = s.incl("graph.explore_all")
    m["graph.explore.configs"] = metric(configs, "count")
    m["graph.explore.configs_per_s"] = metric(ratio(configs, explore_s), "1/s")
    timed("graph.explore.s", explore_s, s.n_calls("graph.explore_all"))
    timed("core.rank.s", s.group_total(rank_names), s.n_calls(*rank_names))
    m["core.concat.calls"] = metric(tr.counts.get("core.concat", 0), "count")
    m["core.steps.calls"] = metric(evals, "count")

    seq_sizes = s.where("seq.concat", lambda i: True)
    for layer in ("seq", "zset", "sets", "nested"):
        timed(f"{layer}.concat.s", s.incl(f"{layer}.concat"), s.n_calls(f"{layer}.concat"))
        if layer == "seq":
            m["seq.buffer_peak"] = metric(max((outs[i] for i in seq_sizes), default=0), "items")
    layer_ops = {
        "seq": ("map", "filter", "scan"),
        "zset": ("zset_map", "zset_join"),
        "sets": ("edge_join", "set_union", "zip", "nest_once", "repeat_nested"),
        "nested": ("nest",),
    }
    for layer, ops in layer_ops.items():
        for op in ops:
            span = f"{layer}.op.{op}"
            timed(f"{span}.self_s", s.self_s(span), s.n_calls(span))
    m["zset.state_keys"] = metric(stats.get("state_keys", 0), "count")
    timed("nested.op.nest.rank_s", s.incl("nested.op.nest.rank"), s.n_calls("nested.op.nest.rank"))
    nest_id = ids.get("nested.op.nest", -1)
    appliers = {ids.get("graph.step_graph", -2), ids.get("graph.step_first", -2)}
    inner = len(s.where("graph.step_first", lambda i: parents[i] >= 0 and names[parents[i]] == nest_id))
    applied = len(
        s.where("nested.op.nest", lambda i: outs[i] and parents[i] >= 0 and names[parents[i]] in appliers)
    )
    m["nested.inner_evals_per_step"] = metric(ratio(inner, applied), "ratio")

    labels = [op[1] for op in getattr(prep, "ops", ())]
    check_total = check_nest = 0.0
    for kind, func in (("eager", "check_eager"), ("progress", "check_progress"), ("rank", "check_rank_and_preservation")):
        spans = s.where(f"harness.{func}", lambda i: True)
        cases = sum(outs[i] for i in spans)
        m[f"harness.{kind}.cases_per_s"] = metric(ratio(cases, s.incl(f"harness.{func}")), "cases/s")
        check_total += sum(s.dur[i] for i in spans)
        check_nest += sum(s.dur[i] for i in spans if labels and labels[tr.s_req[i]] == "nest")
    m["harness.nest_share"] = metric(ratio(check_nest, check_total), "ratio")
    timed("harness.determinism.s", s.incl("harness.check_determinism"), s.n_calls("harness.check_determinism"))
    gen = ("gen.gen_value", "gen.gen_delta")
    timed("gen.s", s.group_total(gen), s.n_calls(*gen))
    decode = tuple(f"jsonio.{f}" for f in ("decode_graph", "decode_trace", "decode_value", "decode_delta"))
    timed("jsonio.decode.s", s.group_total(decode), s.n_calls(*decode))

    # The workload-specific end-to-end figures, from the untraced episode.
    rate = items_per_s([plain])
    m["queries_per_s"] = metric(rate if w.name == "reach_queries" else 0.0, "queries/s")
    m["cases_per_s"] = metric(rate if w.name == "verify" else 0.0, "cases/s")
    m["explore_s"] = metric(plain.extra.get("explore_s", 0.0), "s")
    return m


def run_traced(args, workloads, w, prep):
    want, stats = w.expected(prep.raw)
    t0 = clock()
    plain = w.episode(prep, want)
    plain_s = clock() - t0

    tr = tracing.Tracer()
    tr.install([workloads])
    try:
        traced_prep = w.setup(args.seed)
        t0 = clock()
        traced = w.episode(traced_prep, want, tracer=tr)
        traced_s = clock() - t0
    finally:
        tr.uninstall()

    points = w.sweep(args.seed)
    summary = tracing.Summary(tr)
    m = layer_metrics(summary, tr, w, prep, plain, stats)
    attempted = plain.attempted + traced.attempted + len(points)
    failed = plain.failed + traced.failed + sum(1 for p in points if p[2])
    m["trace.overhead_ratio"] = metric(traced_s / plain_s, "ratio")
    m["sweep.exponent"] = metric(workloads.sweep_exponent(points), "ratio")
    m["failed_ratio"] = metric(failed / attempted, "ratio")

    os.makedirs(OUT, exist_ok=True)
    tr.write(os.path.join(OUT, f"spans-{w.name}-s{args.seed}.bin"))
    record = {
        "digest": traced.digest,
        "untraced_digest": plain.digest,
        "counts": {k: m[k]["value"] for k in ("graph.steps", "core.steps.calls", "graph.explore.configs")},
        "spans": len(tr.s_name),
        "sweep": points,
        "errors": sorted(set(plain.errors + traced.errors)),
    }
    correct = failed == 0 and traced.digest == plain.digest
    return correct, attempted, failed, m, record


# ---------------------------------------------------------------------------
# self-test


def self_test(workloads) -> bool:
    """Smoke-size oracle checks that cannot pass vacuously."""
    smoke = {
        "seq_stream": {"batches": 8, "burst": [200, 400]},
        "zset_stream": {"batches": 40},
        "reach_queries": {"queries": 6, "initial_edges": 60, "nodes": 40},
        "verify": {"cases": 10},
    }
    ok = True
    for name, w in workloads.WORKLOADS.items():
        prep = w.setup(7, dict(w.sizes, **smoke[name]))
        want, _ = w.expected(prep.raw)
        clean = w.episode(prep, want)
        bad = w.episode(prep, want, corrupt=1)
        checks = {
            "oracle passes": clean.failed == 0 and clean.attempted == len(want),
            "corruption counted": bad.failed == 1 and bad.errors == ["OracleMismatch"],
            "repeatable": w.episode(prep, want).digest == clean.digest,
        }
        if name != "verify":
            checks["matches run_trace"] = w.run_trace_digest(prep) == clean.digest
        for label, passed in checks.items():
            print(f"[{'PASS' if passed else 'FAIL'}] {name}: {label}")
            ok = ok and passed
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("seq_stream", "zset_stream", "reach_queries", "verify"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)

    if args.self_test:
        return 0 if self_test(import_flo()) else 1
    if args.workload is None:
        ap.error("--workload is required")
    setup_s, workloads, w, prep = timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    if args.trace:
        correct, attempted, failed, metrics, record = run_traced(args, workloads, w, prep)
    else:
        correct, attempted, failed, metrics, record = run_e2e(args, setup_s, w, prep)

    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        sizes=w.sizes,
        python=platform.python_version(),
    )
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"record-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record, sort_keys=True), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
