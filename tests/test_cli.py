"""Command line surface: exit codes, JSON output, replay round-trips."""

import json

import pytest

from flo import cli
from flo.cli import main
from flo.opcatalog import REGISTRY, build_operator


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def fold_graph():
    return {"op": {"name": "fold", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"}}}


def fold_on_unbounded_graph():
    return {
        "seq": [
            {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
            {"op": {"name": "fold", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"}}},
        ]
    }


def fold_trace():
    return [
        {"batch": [{"payload": {"terminated": False, "items": [1]}}], "steps": "max", "drain": "none"},
        {"batch": [{"payload": {"terminated": False, "items": [2]}}], "steps": "max", "drain": "none"},
        {"batch": [{"payload": {"terminated": False, "items": [3]}}], "steps": "max", "drain": "none"},
        {"batch": [{"term": True}], "steps": "max", "drain": "all"},
    ]


def map_scan_graph():
    return {
        "seq": [
            {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
            {"op": {"name": "scan", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int", "bound": "U"}}},
        ]
    }


class TestTypecheck:
    def test_well_typed_graph(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", fold_graph())
        assert main(["typecheck", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"inputs": ["(seq<int>,B)"], "outputs": ["(seq<int>,B)"]}

    def test_boundedness_violation_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, "g.json", fold_on_unbounded_graph())
        assert main(["typecheck", path]) == 1
        err = capsys.readouterr().err
        assert "BoundednessViolation" in err
        assert "fold" in err

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        assert main(["typecheck", str(p)]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph",
        [{"op": {}}, {"op": {"name": "map", "params": 3}}],
        ids=["no-name", "params-not-an-object"],
    )
    def test_malformed_operator_spec_exits_two(self, tmp_path, capsys, graph):
        assert main(["typecheck", write(tmp_path, "g.json", graph)]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "graph",
        [
            {"op": {"name": "nosuch"}},
            {"op": {"name": "map", "params": {"fn": "nosuchfn"}}},
            {"op": {"name": "map", "params": {"elem": "zz"}}},
        ],
        ids=["unknown-operator", "unknown-function", "unparsable-element-type"],
    )
    def test_unknown_name_in_a_graph_file_exits_two(self, tmp_path, capsys, graph):
        assert main(["typecheck", write(tmp_path, "g.json", graph)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_nest_with_an_unbounded_inner_output_exits_one(self, tmp_path, capsys):
        inner = {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}}
        path = write(tmp_path, "g.json", {"op": {"name": "nest", "params": {"graph": inner}}})
        assert main(["typecheck", path]) == 1
        assert "NestOutputUnbounded" in capsys.readouterr().err


ONE_ITEM = [{"payload": {"terminated": False, "items": [1]}}]


class TestRun:
    @pytest.mark.parametrize(
        "trace",
        [
            [1],
            [{"batch": ONE_ITEM, "steps": "abc"}],
            [{"batch": ONE_ITEM, "steps": -1}],
            [{"batch": ONE_ITEM, "drain": {"prefix": "x"}}],
        ],
        ids=["iteration-not-an-object", "steps-not-a-number", "negative-steps", "prefix-not-a-number"],
    )
    def test_malformed_trace_exits_two(self, tmp_path, capsys, trace):
        g = write(tmp_path, "g.json", map_scan_graph())
        assert main(["run", g, write(tmp_path, "t.json", trace)]) == 2
        captured = capsys.readouterr()
        assert "ParseError" in captured.err and captured.out == ""

    def test_ill_typed_batch_exits_one(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", map_scan_graph())
        t = write(tmp_path, "t.json", [{"batch": [{"payload": {"items": [True, 2.5]}}], "drain": "all"}])
        assert main(["run", g, t]) == 1
        captured = capsys.readouterr()
        assert "BatchShapeMismatch" in captured.err
        assert captured.out == ""

    def test_fold_trace(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", fold_graph())
        t = write(tmp_path, "t.json", fold_trace())
        assert main(["run", g, t]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"outputs": [{"terminated": True, "items": [6]}]}

    def test_seeded_log_is_reproducible(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", fold_graph())
        t = write(tmp_path, "t.json", fold_trace())
        log1 = tmp_path / "a.log"
        log2 = tmp_path / "b.log"
        assert main(["run", g, t, "--schedule", "random", "--seed", "9", "--log", str(log1)]) == 0
        assert main(["run", g, t, "--schedule", "random", "--seed", "9", "--log", str(log2)]) == 0
        assert log1.read_text() == log2.read_text()
        capsys.readouterr()


class TestCheck:
    def test_operator_eager_pass(self, capsys):
        assert main(["check", "--operator", "scan", "--property", "eager", "--cases", "80"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Pass"

    def test_naive_fixture_fails_with_counterexample(self, tmp_path, capsys):
        cx = tmp_path / "cx.json"
        code = main(
            [
                "check",
                "--operator",
                "to_sequence_naive",
                "--property",
                "eager",
                "--cases",
                "400",
                "--counterexample",
                str(cx),
            ]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Fail"
        assert cx.exists()

    def test_graph_determinism_exhaustive(self, tmp_path, capsys):
        g = write(
            tmp_path,
            "g.json",
            {
                "seq": [
                    {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
                    {"op": {"name": "scan", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int", "bound": "U"}}},
                ]
            },
        )
        ins = write(tmp_path, "i.json", [{"terminated": False, "items": [2, 1]}])
        code = main(["check", g, "--property", "determinism", "--inputs", ins, "--exhaustive"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Pass"
        assert out["details"]["stuck"] == 1

    def test_requires_exactly_one_subject(self, capsys):
        assert main(["check", "--property", "eager"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "args",
        [
            ["--cases", "-3"],
            ["--cases", "0"],
            ["--cases", "two"],
            ["--property", "determinism", "--exhaustive", "--max-configs", "-1"],
        ],
        ids=["negative-cases", "zero-cases", "word-cases", "negative-max-configs"],
    )
    def test_a_count_that_is_not_positive_is_a_usage_error(self, capsys, args):
        assert main(["check", "--operator", "map", *args]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "is not a positive integer" in out.err


class TestExplore:
    def test_unique_stuck_state(self, tmp_path, capsys):
        g = write(tmp_path, "g.json", fold_graph())
        ins = write(tmp_path, "i.json", [{"terminated": True, "items": [2, 1]}])
        assert main(["explore", g, "--inputs", ins]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["unique"] is True and out["stuck"] == 1


class TestReplay:
    def _failing_report(self, tmp_path, capsys):
        cx = tmp_path / "cx.json"
        main(
            [
                "check",
                "--operator",
                "to_sequence_naive",
                "--property",
                "eager",
                "--cases",
                "400",
                "--counterexample",
                str(cx),
            ]
        )
        capsys.readouterr()
        return cx

    def test_replay_reproduces_failure(self, tmp_path, capsys):
        cx = self._failing_report(tmp_path, capsys)
        assert main(["replay", str(cx)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Fail" and out["replayed"] is True

    def test_replay_of_pass_report_rejected(self, tmp_path, capsys):
        p = write(tmp_path, "pass.json", {"verdict": "Pass", "property": "EagerExecution"})
        assert main(["replay", p]) == 2
        assert "NotACounterexample" in capsys.readouterr().err

    @pytest.mark.parametrize("prop", [{"property": "EagerExecutoin"}, {}], ids=["misspelt", "missing"])
    def test_replay_rejects_a_missing_or_unknown_property(self, tmp_path, capsys, prop):
        # A failing report whose case would replay: only the property is wrong.
        data = json.loads(self._failing_report(tmp_path, capsys).read_text())
        del data["property"]
        data.update(prop)
        p = write(tmp_path, "bad.json", data)
        assert main(["replay", p]) == 2
        err = capsys.readouterr()
        assert "NotACounterexample" in err.err and err.out == ""

    def test_replay_notes_when_fixed(self, tmp_path, capsys):
        # Re-point the recorded counterexample at the guarded operator: the
        # same case now passes, which replay reports with exit 0.
        cx = self._failing_report(tmp_path, capsys)
        data = json.loads(cx.read_text())
        data["operator"] = "to_sequence"
        data["params"] = {"lattice": "max_nat"}
        fixed = write(tmp_path, "fixed.json", data)
        assert main(["replay", fixed]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "Pass"
        assert "note" in out


def test_env_var_overrides_config_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLO_MAX_CONFIGS", "10")
    g = write(
        tmp_path,
        "g.json",
        {"op": {"name": "scan", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int", "bound": "U"}}},
    )
    ins = write(tmp_path, "i.json", [{"terminated": False, "items": [3, 2, 1]}])
    code = main(["explore", g, "--inputs", ins])
    out = json.loads(capsys.readouterr().out)
    # cap of 10 cannot be hit by a 3-element scan, it has 4 configs;
    # but the option must parse from the env without error
    assert code == 0 and out["configs"] <= 10


@pytest.mark.parametrize("env, args", [("abc", []), ("-5", []), ("10", ["--max-configs", "0"])])
def test_a_max_configs_that_is_not_positive_is_a_usage_error(tmp_path, capsys, monkeypatch, env, args):
    monkeypatch.setenv("FLO_MAX_CONFIGS", env)
    assert main(["explore", write(tmp_path, "g.json", fold_graph()), *args]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "is not a positive integer" in out.err


def test_a_bad_env_cap_is_not_read_when_the_option_is_given(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLO_MAX_CONFIGS", "abc")
    assert main(["explore", write(tmp_path, "g.json", fold_graph()), "--max-configs", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["configs"] == 1


def reachability_graph_json():
    t = "set<int>"
    et = "set<pair<int,int>>"
    inner = {
        "seq": [
            {
                "par": [
                    {
                        "seq": [
                            {
                                "op": {
                                    "name": "read_defer",
                                    "params": {"key": "reached", "tag": t, "init": {"elems": [0], "fixed": True}},
                                }
                            },
                            {"op": {"name": "tee", "params": {"tag": t, "bound": "B"}}},
                        ]
                    },
                    {"op": {"name": "forward", "params": {"tag": et, "bound": "B"}}},
                ]
            },
            {
                "par": [
                    {"op": {"name": "forward", "params": {"tag": t, "bound": "B"}}},
                    {"op": {"name": "edge_join", "params": {"elem": "int", "bound": "B"}}},
                ]
            },
            {"op": {"name": "set_union", "params": {"elem": "int", "bound": "B"}}},
            {"op": {"name": "tee", "params": {"tag": t, "bound": "B"}}},
            {
                "par": [
                    {"op": {"name": "forward", "params": {"tag": t, "bound": "B"}}},
                    {"op": {"name": "write_defer", "params": {"key": "reached", "tag": t}}},
                ]
            },
        ]
    }
    return {
        "seq": [
            {"op": {"name": "repeat_nested", "params": {"data": et}}},
            {"op": {"name": "nest", "params": {"graph": inner, "bound": "B"}}},
        ]
    }


def test_reachability_demo_from_json(tmp_path, capsys):
    g = write(tmp_path, "reach.json", reachability_graph_json())
    trace = [
        {
            "batch": [
                {"payload": {"elems": [[0, 1], [1, 2], [2, 3]], "fixed": True}},
                {"payload": {"value": 2, "fixed": True}},
            ],
            "steps": "max",
            "drain": "none",
        }
    ]
    t = write(tmp_path, "trace.json", trace)
    assert main(["typecheck", g]) == 0
    capsys.readouterr()
    assert main(["run", g, t]) == 0
    out = json.loads(capsys.readouterr().out)
    (nested,) = out["outputs"]
    assert nested["terminated"] is True
    layers = [tup[0]["elems"] for tup in reversed(nested["tuples"])]
    assert layers == [[0, 1], [0, 1, 2]]


def test_operator_determinism_path(capsys):
    assert main(["check", "--operator", "zset_map", "--property", "determinism", "--exhaustive", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Pass" and out["details"]["stuck"] == 1


def test_operator_determinism_fixture_fails(capsys):
    assert main(["check", "--operator", "coin", "--property", "determinism", "--exhaustive", "--seed", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Fail"


def test_replay_determinism_counterexample(tmp_path, capsys):
    cx = tmp_path / "coin.json"
    code = main(
        [
            "check",
            "--operator",
            "coin",
            "--property",
            "determinism",
            "--exhaustive",
            "--seed",
            "1",
            "--counterexample",
            str(cx),
        ]
    )
    assert code == 1
    capsys.readouterr()
    assert main(["replay", str(cx)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Fail" and out["property"] == "Determinism"


def test_replay_of_a_sampled_determinism_counterexample_reruns_its_two_seeds(tmp_path, capsys):
    cx = tmp_path / "coin.json"
    args = ["check", "--operator", "coin", "--property", "determinism", "--seed", "1"]
    assert main(args + ["--counterexample", str(cx)]) == 1
    checked = json.loads(capsys.readouterr().out)
    assert checked["details"]["sampled"] == 20
    info = json.loads(cx.read_text())["info"]
    assert main(["replay", str(cx)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Fail" and out["details"]["sampled"] == 2
    assert out["counterexample"]["info"] == info


def test_operator_determinism_reads_the_inputs_file(tmp_path, capsys):
    from flo.graph import node
    from flo.harness import check_determinism
    from flo.jsonio import encode_value
    from flo.opcatalog import REGISTRY
    from flo.seq import seq

    value = seq(*range(6))
    ins = write(tmp_path, "ins.json", [encode_value(value)])
    args = ["check", "--operator", "map", "--property", "determinism", "--exhaustive"]
    assert main(args) == 0
    seeded = json.loads(capsys.readouterr().out)["details"]["configs"]
    assert main(args + ["--inputs", ins]) == 0
    configs = json.loads(capsys.readouterr().out)["details"]["configs"]
    expected = check_determinism(node(REGISTRY["map"].op), (value,)).details["configs"]
    assert configs == expected != seeded


def test_check_and_replay_fail_on_a_subject_that_never_gets_stuck(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    args = ["check", "--operator", "constant_rank", "--property", "determinism", "--exhaustive"]
    assert main([*args, "--counterexample", str(cx)]) == 1
    written = json.loads(cx.read_text())
    assert written["cycle"] and "schedule" in written
    capsys.readouterr()
    assert main(["replay", str(cx)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "Fail"


def test_check_progress_rank_and_all_pass_on_map(capsys):
    base = ["check", "--operator", "map", "--cases", "30"]
    for prop, name in (("progress", "StreamingProgress"), ("rank", "RankDescent")):
        assert main([*base, "--property", prop]) == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["property"], out["verdict"]) == (name, "Pass")
    assert main([*base, "--property", "all"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["property"] for r in reports] == ["EagerExecution", "StreamingProgress", "RankDescent"]
    assert all(r["verdict"] == "Pass" for r in reports)


def _check_then_replay(tmp_path, capsys, subject, prop):
    """The report of ``flo check SUBJECT --property PROP``, which must fail,
    and the report of replaying its counterexample."""
    cx = tmp_path / "cx.json"
    assert main(["check", *subject, "--property", prop, "--cases", "50", "--counterexample", str(cx)]) == 1
    checked = json.loads(capsys.readouterr().out)
    assert main(["replay", str(cx)]) == 1
    return checked, json.loads(capsys.readouterr().out)


def test_replay_of_a_progress_counterexample(tmp_path, capsys):
    checked, replayed = _check_then_replay(tmp_path, capsys, ["--operator", "fold_unbounded"], "progress")
    assert checked["property"] == replayed["property"] == "StreamingProgress"
    assert replayed["verdict"] == "Fail" and replayed["replayed"] is True
    assert replayed["details"] == checked["details"]


def test_replay_of_a_rank_counterexample(tmp_path, capsys):
    checked, replayed = _check_then_replay(tmp_path, capsys, ["--operator", "constant_rank"], "rank")
    assert checked["property"] == replayed["property"] == "RankDescent"
    assert replayed["verdict"] == "Fail" and replayed["operator"] == "constant_rank"


def test_replay_of_a_graph_counterexample(tmp_path, capsys):
    graph = {
        "seq": [
            {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
            {"op": {"name": "constant_rank", "params": {"elem": "int"}}},
        ]
    }
    g = write(tmp_path, "g.json", graph)
    checked, replayed = _check_then_replay(tmp_path, capsys, [g], "rank")
    assert "operator" not in replayed
    assert replayed["graph"] == checked["graph"]
    assert replayed["property"] == "RankDescent" and replayed["verdict"] == "Fail"


def test_replay_of_a_fixture_in_a_graph_file_reproduces_its_failure(tmp_path, capsys):
    graph = {
        "seq": [
            {"op": {"name": "map", "params": {"fn": "inc", "elem": "int", "elem_out": "int", "bound": "U"}}},
            {"op": {"name": "fold_unbounded", "params": {"init": 0, "fn": "add", "elem": "int", "elem_out": "int"}}},
        ]
    }
    g = write(tmp_path, "g.json", graph)
    checked, replayed = _check_then_replay(tmp_path, capsys, [g], "progress")
    assert replayed["verdict"] == "Fail" and replayed["replayed"] is True
    assert replayed["details"] == checked["details"]


# ``constant_rank`` is never stuck, so only its rank check ends without
# exhausting the step budget.
@pytest.mark.parametrize(
    "name,prop",
    [(name, "rank" if name == "constant_rank" else "all") for name in sorted(REGISTRY)] + [("window", "progress")],
)
def test_check_operator_prints_the_params_of_what_it_checked(monkeypatch, capsys, name, prop):
    checked, check_one = [], cli._check_one
    monkeypatch.setattr(cli, "_check_one", lambda op, *rest: checked.append(op) or check_one(op, *rest))
    main(["check", "--operator", name, "--property", prop, "--cases", "3"])
    reports = json.loads(capsys.readouterr().out)
    reports = reports if isinstance(reports, list) else [reports]
    assert len(reports) == len(checked)
    for report, op in zip(reports, checked):
        rebuilt = build_operator(name, report["params"])
        assert (rebuilt.inputs, rebuilt.outputs) == (op.inputs, op.outputs)
