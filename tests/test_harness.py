import csv
import hashlib
import itertools
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from mtcpp import dchain, forest, harness
from mtcpp.analytics import A1_tail
from mtcpp.cli import build_config, main
from mtcpp.errors import SchemaError
from mtcpp.harness import (
    REPLICATES,
    EstimateRow,
    RunConfig,
    _chain_observations,
    _stationary_pass,
    _stationary_tallies,
    estimates_to_csv,
    ks_compare,
    mc_estimate,
    run,
)
from mtcpp.lf import LFParams, lf_coalescence_law, lf_sametype_law
from mtcpp.model import ModelSpec
from mtcpp.rng import stream


def _dir_digest(path):
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _assert_error_report(out_dir, err, cls, status, outputs=("report.json",)):
    """report.json of a failed run names the error that stderr printed."""
    report = json.loads((out_dir / "report.json").read_text())
    assert report["passed"] is False
    assert report["outputs"] == sorted(outputs)
    assert sorted(os.listdir(out_dir)) == sorted(outputs)
    error = report["error"]
    assert (error["class"], error["exit"]) == (cls, status)
    assert err == f"mtcpp: {cls}: {error['message']}\n"


# -- configuration -----------------------------------------------------------


def test_config_rejects_unknown_task(lf1):
    with pytest.raises(SchemaError, match="task"):
        RunConfig(task="explore", seed=1, out_dir="x", model=lf1)


def test_config_rejects_bad_counts(lf1):
    with pytest.raises(SchemaError, match="samples"):
        RunConfig(task="laws", seed=1, out_dir="x", model=lf1, samples=0)
    with pytest.raises(SchemaError, match="horizon"):
        RunConfig(task="laws", seed=1, out_dir="x", model=lf1, horizon=0)
    with pytest.raises(SchemaError, match="seed"):
        RunConfig(task="laws", seed=-1, out_dir="x", model=lf1)


def test_config_needs_exactly_one_model_source(e1):
    with pytest.raises(SchemaError, match="model source"):
        RunConfig(task="laws", seed=1, out_dir="x")
    with pytest.raises(SchemaError, match="model source"):
        RunConfig(
            task="laws", seed=1, out_dir="x", model=e1, two_type=(0.3, 0.7, 0.5, 1.0)
        )
    with pytest.raises(SchemaError, match="model must be a ModelSpec or LFParams"):
        RunConfig(task="laws", seed=1, out_dir="x", model=e1.to_json())


def test_config_refuses_first_pair_rows_past_horizon(e1, lf1):
    # validate on a finite-support model runs a_first, which needs
    # n_max <= horizon - 1; the refusal comes before any work
    with pytest.raises(SchemaError, match="n_max <= horizon - 1"):
        RunConfig(task="validate", seed=1, out_dir="x", model=e1, horizon=3, n_max=3)
    RunConfig(task="validate", seed=1, out_dir="x", model=e1, horizon=4, n_max=3)
    RunConfig(task="laws", seed=1, out_dir="x", model=e1, horizon=3, n_max=3)
    RunConfig(task="validate", seed=1, out_dir="x", model=lf1, horizon=3, n_max=3)


def _refused_by_cli(tmp_path, capsys, model_flag, model, argv, message):
    """main exits 1 with `message` on stderr and writes no output file."""
    model_path = tmp_path / "model.json"
    model_path.write_text(model.to_json())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(argv + [model_flag, str(model_path), "--seed", "1", "--out", str(out)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: ") and message in err
    assert not out.exists()


def test_config_refuses_unknown_ordering(tmp_path, capsys, lf1):
    message = "unknown ordering 'leftmost'"
    with pytest.raises(SchemaError, match=message):
        RunConfig(task="dchain", seed=1, out_dir="x", model=lf1, ordering="leftmost")
    # argparse limits --ordering, so the config file is the way in
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ordering": "leftmost"}))
    _refused_by_cli(
        tmp_path, capsys, "--model-lf", lf1, ["dchain", "--config", str(path)], message
    )


def test_config_refuses_lf_first_on_finite_support(tmp_path, capsys, e1, lf1):
    message = "ordering 'lf_first' needs linear-fractional parameters"
    for task in ("validate", "simulate", "dchain"):
        with pytest.raises(SchemaError, match=message):
            RunConfig(task=task, seed=1, out_dir="x", model=e1, ordering="lf_first")
    _refused_by_cli(
        tmp_path, capsys, "--model-spec", e1,
        ["validate", "--ordering", "lf_first"], message,
    )
    RunConfig(task="validate", seed=1, out_dir="x", model=lf1, ordering="lf_first")
    RunConfig(task="validate", seed=1, out_dir="x", model=e1, ordering="uniform")


def test_config_refuses_root_type_outside_types(tmp_path, capsys, e1, lf1):
    for model in ({"model": e1}, {"model": lf1}):
        for root_type in (0, 3):
            with pytest.raises(SchemaError, match=f"root_type {root_type} outside 1..2"):
                RunConfig(task="dchain", seed=1, out_dir="x", root_type=root_type, **model)
        RunConfig(task="dchain", seed=1, out_dir="x", root_type=2, **model)
    _refused_by_cli(
        tmp_path, capsys, "--model-spec", e1,
        ["validate", "--root-type", "3"], "root_type 3 outside 1..2",
    )


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("samples", "10", "samples must be an integer, got '10'"),
        ("horizon", 4.0, "horizon must be an integer, got 4.0"),
        ("root_type", "2", "root_type must be an integer, got '2'"),
        ("n_max", False, "n_max must be an integer, got False"),
        ("ordering", 1, "unknown ordering 1"),
        ("out", 5, "output directory must be a string, got 5"),
    ],
)
def test_config_refuses_wrong_value_types(tmp_path, capsys, lf1, key, value, message):
    field = "out_dir" if key == "out" else key
    settings = {"seed": 1, "out_dir": "x", field: value}
    with pytest.raises(SchemaError, match=re.escape(message)):
        RunConfig(task="laws", model=lf1, **settings)
    # a config file passes JSON values through unconverted
    out = tmp_path / "out"
    doc = {"model": {"lf": json.loads(lf1.to_json())}, "seed": 1, "out": str(out)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**doc, key: value}))
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--config", str(path)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(f"mtcpp: {message}")
    assert not out.exists()


#: (model kind, path into the model JSON, raw JSON put there, refusal message)
_BAD_MODEL_VALUES = [
    ("lf", ("m",), '"abc"', "'m' must be a number, got 'abc'"),
    ("lf", ("m",), '"1.5"', "'m' must be a number, got '1.5'"),
    ("lf", ("m",), "NaN", "'m' must be finite, got nan"),
    ("lf", ("m",), "1e999", "'m' must be finite, got inf"),
    ("lf", ("k",), '"2"', "'k' must be a positive integer, got '2'"),
    ("lf", ("k",), "2.7", "'k' must be a positive integer, got 2.7"),
    ("lf", ("k",), "true", "'k' must be a positive integer, got True"),
    ("lf", ("H",), "[[0.3, 0.4], [0.2]]", "'H' must be a list of rows of 2 numbers"),
    ("lf", ("H", 0, 0), '"0.3"', "'H' entry must be a number, got '0.3'"),
    ("lf", ("g", 1), "true", "'g' entry must be a number, got True"),
    ("lf", ("g",), "0.5", "'g' must be a list of numbers, got 0.5"),
    ("spec", ("pmf", "1", 0, "p"), '"x"', "parent type 1, row 0: 'p' must be a number"),
    ("spec", ("pmf", "1", 0, "p"), "true", "parent type 1, row 0: 'p' must be a number"),
    ("spec", ("pmf", "1", 0, "p"), "NaN", "parent type 1, row 0: 'p' must be finite"),
    ("spec", ("pmf", "2", 1, "p"), "1e999", "parent type 2, row 1: 'p' must be finite"),
    ("spec", ("pmf", "1", 1, "counts"), "[true, 1]", "row 1: 'counts' must be 2 nonnegative"),
    ("spec", ("pmf", "1", 1, "counts"), "[1.0, 1]", "row 1: 'counts' must be 2 nonnegative"),
    ("spec", ("pmf", "2", 0), "5", "parent type 2, row 0: needs 'counts' and 'p'"),
    ("spec", ("pmf", "2"), '{"counts": [0, 0], "p": 1}', "parent type 2: rows must be a list"),
    ("spec", ("pmf",), "[1]", "'pmf' must be an object keyed by parent type"),
    ("spec", ("k",), "true", "'k' must be a positive integer, got True"),
    ("spec", ("types",), '"ab"', "'types' must be a list of names"),
]


def _model_json_with(model, path, raw) -> str:
    """The model's JSON with the value at `path` replaced by raw JSON text."""
    doc = json.loads(model.to_json())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@@bad@@"
    return json.dumps(doc).replace('"@@bad@@"', raw)


@pytest.mark.parametrize("kind,path,raw,message", _BAD_MODEL_VALUES)
def test_model_json_refuses_wrong_values(tmp_path, capsys, e1, lf1, kind, path, raw, message):
    model = lf1 if kind == "lf" else e1
    text = _model_json_with(model, path, raw)
    with pytest.raises(SchemaError, match=re.escape(message)):
        type(model).from_json(text)
    # the same model block in a config file: refused before any work
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(f'{{"model": {{"{kind}": {text}}}, "seed": 1, "out": "{out}"}}')
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--config", str(config)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: ") and message in err
    assert not out.exists()


def test_model_constructors_refuse_non_finite_values(e1, lf1):
    with pytest.raises(SchemaError, match="not finite"):
        ModelSpec(
            k=2,
            counts=e1.counts,
            probs=(np.array([0.5, np.nan]), e1.probs[1]),
            names=e1.names,
        )
    for field, value in (("m", np.inf), ("g", np.array([0.4, np.nan]))):
        with pytest.raises(SchemaError, match="must be finite"):
            replace(lf1, **{field: value})


def test_config_refuses_non_numeric_two_type(tmp_path, capsys):
    # RunConfig checks the values; the CLI reports its refusal with exit 1
    out = tmp_path / "out"
    for g in ("0.3", None, True):
        two_type = {"g": g, "p": 0.5, "h1": 0.3, "m": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"two_type": two_type, "seed": 1, "out": str(out)}))
        with pytest.raises(SystemExit) as exc:
            main(["compare-two-type", "--config", str(path)])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("mtcpp: two_type must be four finite real numbers")
        assert not out.exists()
    # NaN and Infinity are JSON numbers to Python's parser; refused here too
    for m in ("NaN", "Infinity"):
        path.write_text(
            f'{{"two_type": {{"g": 0.3, "p": 0.5, "h1": 0.3, "m": {m}}}, '
            f'"seed": 1, "out": "{out}"}}'
        )
        with pytest.raises(SystemExit) as exc:
            main(["compare-two-type", "--config", str(path)])
        assert exc.value.code == 1
        assert capsys.readouterr().err.startswith("mtcpp: two_type must be four finite real numbers")
        assert not out.exists()


@pytest.mark.parametrize(
    "two_type",
    [
        ("a", 0.7, 0.5, 1.0),
        (0.3, 0.7, 0.5),
        (0.3, 0.7, 0.5, 1.0, 2.0),
        (0.3, 0.7, 0.5, True),
        (0.3, 0.7, 0.5, np.bool_(True)),
        (0.3, float("nan"), 0.5, 1.0),
        (0.3, 0.7, 0.5, float("inf")),
        (0.3, 0.7, 0.5, 1 + 0j),
        "0.3 0.7 0.5 1",
        {"g": 0.3, "p": 0.7, "h1": 0.5, "m": 1.0},
    ],
    ids=[
        "string-value", "three-values", "five-values", "bool", "numpy-bool",
        "nan", "inf", "complex", "string", "dict",
    ],
)
def test_run_config_refuses_a_bad_two_type_block(two_type, tmp_path):
    # refused before any work: run() is never reached, no directory is made
    out = tmp_path / "out"
    with pytest.raises(SchemaError, match="two_type must be four finite real numbers"):
        RunConfig(task="compare-two-type", seed=1, out_dir=str(out), two_type=two_type, n_max=3)
    assert not out.exists()


def test_run_config_takes_two_type_as_floats(tmp_path):
    cfg = RunConfig(
        task="compare-two-type", seed=1, out_dir=str(tmp_path), n_max=3,
        two_type=[np.float64(0.3), 0.7, np.float32(0.5), 1],
    )
    assert cfg.two_type == (0.3, 0.7, 0.5, 1.0)
    assert all(type(v) is float for v in cfg.two_type)
    assert run(cfg) == 0


def test_cli_refuses_removed_init_mode(tmp_path, capsys, e1):
    # the chain has one start; a config file still naming the key is told so
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"init_mode": "rejection"}))
    with pytest.raises(SchemaError, match="config key 'init_mode' was removed"):
        build_config(["dchain", "--config", str(path), "--seed", "1", "--out", "o"])
    _refused_by_cli(
        tmp_path, capsys, "--model-spec", e1,
        ["dchain", "--config", str(path)], "config key 'init_mode' was removed",
    )
    # the flag is gone from the parser: a usage error, also exit 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["dchain", "--init-mode", "rejection", "--seed", "1", "--out", str(out)])
    assert exc.value.code == 1
    assert "--init-mode" in capsys.readouterr().err
    assert not out.exists()


def test_config_two_type_pairing(lf1):
    with pytest.raises(SchemaError):
        RunConfig(task="compare-two-type", seed=1, out_dir="x", model=lf1)
    with pytest.raises(SchemaError):
        RunConfig(task="laws", seed=1, out_dir="x", two_type=(0.3, 0.7, 0.5, 1.0))


def test_estimate_row_invariants():
    with pytest.raises(SchemaError, match="standard error"):
        EstimateRow("s", 0, 0.5, -1e-3)
    with pytest.raises(SchemaError, match="z_score"):
        EstimateRow("s", 1, 0.5, 0.1, analytic_value=0.4, z_score=5.0)
    row = EstimateRow("s", 1, 0.5, 0.1, analytic_value=0.4, z_score=1.0)
    assert row.z_score == pytest.approx(1.0)


# -- Monte Carlo estimates ---------------------------------------------------


def _rows_of(rows, statistic):
    return [r for r in rows if r.statistic == statistic]


def test_mc_estimate_depth_zero_row_is_exact(lf1):
    rows = mc_estimate("stationary", lf1, 6, 200, seed=3, n_max=0)
    assert [r.statistic for r in rows] == ["a_stationary", "b_stationary:1", "b_stationary:2"]
    for r in rows:
        assert r.n == 0
        assert r.estimate == 1.0
        assert r.std_error == 0.0


def test_mc_estimate_first_pair_matches_conditioned_law(e1):
    rows = mc_estimate("a_first", e1, 7, 4000, seed=11, n_max=3)
    scored = [r for r in rows if r.z_score is not None]
    assert scored, "no nondegenerate conditioning cells"
    assert all(abs(r.z_score) <= 4.0 for r in scored)
    for r in rows:
        if r.std_error == 0.0 and r.analytic_value is not None:
            # structural zeros and ones must come out exactly
            assert r.estimate == r.analytic_value
        top = int(r.statistic.split("top=")[1].rstrip("]"))
        assert r.analytic_value == pytest.approx(A1_tail(e1, top, r.n))


def test_mc_estimate_first_pair_scores_lf(lf1):
    # the generic Jacobian walk gives LF models the conditioned law too; on
    # an LF model it does not depend on the ancestor's type
    rows = mc_estimate("a_first", lf1, 7, 4000, seed=11, n_max=3)
    scored = [r for r in rows if r.z_score is not None]
    assert scored, "no nondegenerate conditioning cells"
    assert all(abs(r.z_score) <= 4.0 for r in scored)
    for r in rows:
        top = int(r.statistic.split("top=")[1].rstrip("]"))
        assert r.analytic_value == A1_tail(lf1, top, r.n)
        assert r.analytic_value == pytest.approx(lf_coalescence_law(lf1, r.n), abs=1e-9)


def test_mc_estimate_stationary_tracks_lf_laws(lf1):
    rows = _rows_of(mc_estimate("stationary", lf1, 10, 8000, seed=5, n_max=4), "a_stationary")
    assert [r.n for r in rows] == list(range(5))
    for r in rows:
        assert r.analytic_value == pytest.approx(lf_coalescence_law(lf1, r.n))
        if r.z_score is not None:
            assert abs(r.z_score) <= 4.0


def test_mc_estimate_sametype_tracks_lf_laws(lf1):
    rows = _rows_of(mc_estimate("stationary", lf1, 10, 8000, seed=6, n_max=4), "b_stationary:2")
    assert [r.n for r in rows] == list(range(5))
    for r in rows:
        assert r.analytic_value == pytest.approx(lf_sametype_law(lf1, 2, r.n))
        if r.z_score is not None:
            assert abs(r.z_score) <= 4.0


def test_mc_estimate_censoring_is_reported():
    # subcritical single type: depth-8 tail far beyond a depth-4 horizon
    params = LFParams(k=1, H=np.array([[0.55]]), g=np.array([1.0]), m=0.7)
    rows = mc_estimate("stationary", params, 4, 3000, seed=9, n_max=8)
    by_n = {r.n: r for r in _rows_of(rows, "a_stationary")}
    assert all(by_n[n].censored == 0 for n in range(5))
    deep = by_n[8]
    assert deep.censored > 0
    assert deep.at_risk + deep.censored == by_n[4].at_risk


def test_mc_estimate_bad_statistic(lf1):
    # one pass gives every stationary row, so its row labels are not arguments
    for statistic in ("median", "a_stationary", "b_stationary:2"):
        with pytest.raises(SchemaError, match="choose 'a_first' or 'stationary'"):
            mc_estimate(statistic, lf1, 6, 100, seed=1)


def test_mc_estimate_stationary_is_one_pass(lf1, monkeypatch):
    # the B tallies draw no random numbers: the A rows of the full pass are
    # those of an A-only pass on the same seed
    rows = mc_estimate("stationary", lf1, 8, 3000, seed=4, n_max=5)
    a_rows, a_values = _stationary_pass(lf1, 8, 3000, 4, None, 1, 5, [])
    assert _rows_of(rows, "a_stationary") == a_rows
    assert len(a_values) > 2000
    # a pass makes about `samples` chain transitions, not (k + 1) times that:
    # a step per uncensored item, a start per replicate and per restart
    calls = []
    for name in ("dchain_step", "init_quasistationary"):
        original = getattr(dchain, name)
        monkeypatch.setattr(
            dchain, name, lambda *a, f=original, **kw: calls.append(1) or f(*a, **kw)
        )
    mc_estimate("stationary", lf1, 8, 3000, seed=4, n_max=5)
    assert 3000 <= len(calls) <= 3000 + REPLICATES


def test_estimates_csv_header():
    row = EstimateRow("s", 0, 1.0, 0.0, at_risk=10)
    text = estimates_to_csv([row])
    assert text.splitlines()[0] == (
        "statistic,n,estimate,std_error,analytic_value,z_score,at_risk,censored"
    )
    assert text.splitlines()[1] == "s,0,1.0,0.0,,,10,0"


# -- two-sample comparison ---------------------------------------------------


def test_ks_identical_samples_pass():
    sample = [1, 1, 2, 3, 5, 8]
    res = ks_compare(sample, list(sample))
    assert res.distance == 0.0
    assert res.passed


def test_ks_shifted_samples_fail():
    rng = np.random.default_rng(2)
    a = rng.geometric(0.4, size=4000)
    res = ks_compare(a, a + 1)
    assert not res.passed
    assert res.distance > res.critical


def test_ks_empty_sample_rejected():
    with pytest.raises(SchemaError):
        ks_compare([], [1, 2])


def test_ks_conservative_critical_value():
    res = ks_compare([1] * 50, [1] * 200)
    assert res.critical == pytest.approx(1.628 * np.sqrt(250 / (50 * 200)))


# -- tasks through run() -----------------------------------------------------


def test_laws_task_depth_zero_rows_are_one(lf1, tmp_path):
    cfg = RunConfig(
        task="laws", seed=2, out_dir=str(tmp_path), model=lf1, n_max=3
    )
    assert run(cfg) == 0
    lines = (tmp_path / "laws.csv").read_text().splitlines()
    assert lines[0] == "formula,model,n,conditioning,value"
    zero_rows = [l for l in lines[1:] if l.split(",")[2] == "0"]
    assert zero_rows
    assert all(float(l.split(",")[-1]) == 1.0 for l in zero_rows)


def test_laws_task_spec_names_conditioning(e1, tmp_path):
    cfg = RunConfig(
        task="laws", seed=2, out_dir=str(tmp_path), model=e1, n_max=2
    )
    assert run(cfg) == 0
    text = (tmp_path / "laws.csv").read_text()
    assert "anc@2=1" in text
    assert "ell=2,anc@1=1" in text
    rows = list(csv.reader(text.splitlines()))
    assert {len(r) for r in rows} == {5}
    assert ["b_tail", "spec", "1", "ell=2,anc@1=1"] in [r[:4] for r in rows]


def test_validate_task_passes_and_reports(lf1, tmp_path):
    cfg = RunConfig(
        task="validate",
        seed=7,
        out_dir=str(tmp_path),
        model=lf1,
        samples=4000,
        horizon=9,
        n_max=3,
    )
    assert run(cfg) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert "z_scores_within_4" in names
    assert (tmp_path / "estimates.csv").exists()


def test_validate_task_failure_exits_3_with_report(e1, tmp_path, monkeypatch, capsys):
    # poison the analytic law so every scored row is far off
    import mtcpp.harness as harness

    monkeypatch.setattr(harness, "A1_tail", lambda spec, top, n: 0.5)
    cfg = RunConfig(
        task="validate",
        seed=7,
        out_dir=str(tmp_path),
        model=e1,
        samples=2000,
        horizon=6,
        n_max=2,
    )
    assert run(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: ValidationFailure: validation failed")
    _assert_error_report(
        tmp_path, err, "ValidationFailure", 3, ("laws.csv", "estimates.csv", "report.json")
    )


def test_simulate_task_outputs(e1, tmp_path):
    cfg = RunConfig(
        task="simulate",
        seed=13,
        out_dir=str(tmp_path),
        model=e1,
        samples=40,
        horizon=6,
    )
    assert run(cfg) == 0
    tree_lines = (tmp_path / "tree.tsv").read_text().splitlines()
    assert all(len(l.split("\t")) == 4 for l in tree_lines)
    gen0 = [l for l in tree_lines if l.split("\t")[0] == "0"]
    assert len(gen0) >= 40
    records = (tmp_path / "records.csv").read_text().splitlines()
    assert records[0] == "i,A,mass,censored,lineage"
    # one record per consecutive standing pair
    assert len(records) - 1 == len(gen0) - 1


def test_compare_two_type_task(tmp_path):
    cfg = RunConfig(
        task="compare-two-type",
        seed=1,
        out_dir=str(tmp_path),
        two_type=(0.3, 0.7, 0.5, 1.0),
        n_max=5,
    )
    assert run(cfg) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "n,pA,pB1_s,pB1_a,pB2_s,pB2_a"
    for line in lines[1:]:
        n, pA, b1s, b1a, b2s, b2a = line.split(",")
        assert float(b1a) >= float(b1s) - 1e-12
        assert float(b2a) <= float(b2s) + 1e-12


def _reference_chain_a_values(model, T, count, rng):
    """The dchain task's own chain loop, as it was before it shared the
    censored-restart generator: `count` uncensored A values."""
    vals = []
    state = None
    while len(vals) < count:
        if state is None:
            state = dchain.init_quasistationary(model, T, rng)
        if state.coalescence_level() is None:
            state = None
            continue
        state, a, _ = dchain.dchain_step(model, state, rng)
        vals.append(a)
    return vals


def _reference_stationary_tallies(model, T, count, rng, b_types):
    """The stationary tally loop as it was, with its own chain loop."""
    a_values, a_censored = [], 0
    b_values = {ell: [] for ell in b_types}
    b_censored = {ell: 0 for ell in b_types}
    open_gap = {ell: None for ell in b_types}
    state = None
    for _ in range(count):
        if state is None:
            state = dchain.init_quasistationary(model, T, rng)
        standing = state.levels[0][0]
        for ell in b_types:
            if standing == ell:
                if open_gap[ell] is not None:
                    b_values[ell].append(open_gap[ell])
                open_gap[ell] = 0
        if state.coalescence_level() is None:
            a_censored += 1
            for ell in b_types:
                if open_gap[ell] is not None:
                    b_censored[ell] += 1
                    open_gap[ell] = None
            state = None
            continue
        state, a, _ = dchain.dchain_step(model, state, rng)
        a_values.append(a)
        for ell in b_types:
            if open_gap[ell] is not None and a > open_gap[ell]:
                open_gap[ell] = a
    return a_values, a_censored, b_values, b_censored


def test_chain_observations_keep_the_draw_order(e1):
    # a short horizon censors often, so restarts land everywhere in the run
    T, count = 4, 600
    rng, rng_ref = stream(7, "chain-order"), stream(7, "chain-order")
    chain = _chain_observations(e1, T, rng, None, 1)
    got = list(itertools.islice((a for _, a in chain if a is not None), count))
    assert got == _reference_chain_a_values(e1, T, count, rng_ref)
    assert rng.getstate() == rng_ref.getstate()

    rng, rng_ref = stream(8, "tally-order"), stream(8, "tally-order")
    got = _stationary_tallies(e1, T, count, rng, None, 1, [1, 2])
    want = _reference_stationary_tallies(e1, T, count, rng_ref, [1, 2])
    assert want[1] > 20 and all(want[3].values())
    assert got == want
    assert rng.getstate() == rng_ref.getstate()


def test_dchain_task_chain_matches_forest(e1, tmp_path):
    cfg = RunConfig(
        task="dchain",
        seed=21,
        out_dir=str(tmp_path),
        model=e1,
        samples=3000,
        horizon=8,
        n_max=3,
    )
    assert run(cfg) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert lines[0] == "comparison,n_a,n_b,distance,critical,passed"
    assert lines[1].startswith("chain_vs_forest_A")
    assert lines[1].endswith(",1")


def test_run_is_deterministic_and_thread_invariant(lf1, tmp_path):
    base = RunConfig(
        task="validate",
        seed=42,
        out_dir="unused",
        model=lf1,
        samples=3000,
        horizon=8,
        n_max=3,
    )
    digests = []
    for i in range(2):
        out = tmp_path / f"run{i}"
        assert run(replace(base, out_dir=str(out))) == 0
        digests.append(_dir_digest(out))
    assert len(set(digests)) == 1


@pytest.mark.parametrize("task", ["simulate", "dchain"])
def test_default_ordering_is_the_models_own(task, e1, lf1, tmp_path):
    # no ordering means lf_first for LF parameters and uniform for a spec
    for name, model, orderings in (
        ("lf", {"model": lf1}, ["lf_first", "uniform"]),
        ("spec", {"model": e1}, ["uniform"]),
    ):
        digests = []
        for ordering in [None] + orderings:
            out = tmp_path / f"{name}-{ordering}"
            cfg = RunConfig(
                task=task, seed=9, out_dir=str(out), samples=300, horizon=6,
                n_max=3, ordering=ordering, **model,
            )
            run(cfg)
            digests.append(_dir_digest(out))
        # the default gives the bytes of its explicit name, and only those
        assert digests[0] == digests[1]
        assert len(set(digests)) == len(orderings)


def _explosive():
    # six offspring per node, or none: the population grows ~5.7-fold a generation
    from mtcpp.model import ModelSpec

    return ModelSpec.from_pmf({1: {(6,): 0.95, (0,): 0.05}})


def test_run_maps_guard_breach_to_exit_2(tmp_path, monkeypatch, capsys):
    # the forest node cap trips on the explosive model; a small cap keeps
    # the tree that trips it small
    monkeypatch.setattr(forest, "DEFAULT_NODE_CAP", 2000)
    cfg = RunConfig(
        task="simulate", seed=3, out_dir=str(tmp_path), model=_explosive(), horizon=8
    )
    assert run(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: GuardError: tree exceeded the node cap")
    _assert_error_report(tmp_path, err, "GuardError", 2)


def test_laws_task_exact_on_explosive_model(tmp_path):
    # the Jacobian-product laws need no population-size truncation, so the
    # explosive model that outgrows any count-vector table tabulates fine
    cfg = RunConfig(
        task="laws", seed=3, out_dir=str(tmp_path), model=_explosive(), n_max=5
    )
    assert run(cfg) == 0
    rows = (tmp_path / "laws.csv").read_text().splitlines()[1:]
    # an individual has six children or none, so one standing descendant
    # is impossible below the root's own generation
    assert [float(r.split(",")[-1]) for r in rows if r.startswith("a_tail")] == [1.0] + [0.0] * 5


def test_dchain_task_stops_when_no_forest_pair_shares_a_tree(e1, tmp_path, capsys):
    # at this seed the chain pass keeps an uncensored pair, but the forest of
    # two standing individuals is two one-survivor trees: its KS sample would
    # be empty
    cfg = RunConfig(
        task="dchain", seed=20, out_dir=str(tmp_path), model=e1,
        samples=2, horizon=4, n_max=3,
    )
    assert run(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: GuardError: no standing pair of the width-2 forest")
    _assert_error_report(tmp_path, err, "GuardError", 2)


def test_dchain_task_stops_when_no_pair_can_coalesce(tmp_path, capsys):
    # a type-1 parent has at most one child, of type 1: a type-1 root never
    # has two standing descendants, so every chain pair would be censored;
    # the run is refused before any sampling, with no output directory
    lonely = ModelSpec.from_pmf(
        {1: {(0, 0): 0.5, (1, 0): 0.5}, 2: {(0, 0): 0.5, (0, 2): 0.5}}
    )
    for horizon in (4, 10):
        # rounding puts the tail a few ulps above 1, not at it
        assert abs(1.0 - A1_tail(lonely, 1, horizon)) <= 1e-12
        with pytest.raises(SchemaError, match="no pair can coalesce within horizon"):
            RunConfig(
                task="dchain", seed=1, out_dir=str(tmp_path / "out"), model=lonely,
                samples=50, horizon=horizon, n_max=3,
            )
    _refused_by_cli(
        tmp_path, capsys, "--model-spec", lonely,
        ["dchain", "--horizon", "4", "--samples", "50", "--n-max", "3"],
        "no pair can coalesce within horizon 4",
    )
    # a type-2 root has two children, and other tasks do not need a pair
    RunConfig(task="dchain", seed=1, out_dir="x", model=lonely, horizon=4, root_type=2)
    RunConfig(task="simulate", seed=1, out_dir="x", model=lonely, horizon=4)


def test_dchain_task_stops_after_a_run_of_censored_pairs(tmp_path, monkeypatch, capsys):
    # a type-1 root has two standing descendants with probability about 1e-9,
    # so the run passes the coalescence check, and every pair of its one chain
    # pass is censored: it stops before any row is built or any tree drawn
    rare = ModelSpec.from_pmf(
        {1: {(0, 0): 0.5, (1, 0): 0.5 - 1e-9, (2, 0): 1e-9}, 2: {(0, 0): 1.0}}
    )
    assert 1.0 - A1_tail(rare, 1, 4) > 1e-12

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was built")

    monkeypatch.setattr(harness, "_tail_rows", no_rows)
    monkeypatch.setattr(forest, "simulate_standing", no_rows)
    cfg = RunConfig(
        task="dchain", seed=1, out_dir=str(tmp_path), model=rare,
        samples=50, horizon=4, n_max=3,
    )
    assert run(cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: GuardError: all 50 chain pairs were censored")
    _assert_error_report(tmp_path, err, "GuardError", 2)


def test_cli_reports_a_root_that_cannot_survive_with_exit_1(tmp_path, capsys):
    # the coalescence check leaves an impossible root to the task's report
    doomed = ModelSpec.from_pmf({1: {(0,): 1.0}})
    path = tmp_path / "model.json"
    path.write_text(doomed.to_json())
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["dchain", "--model-spec", str(path), "--seed", "3", "--out", str(out),
              "--samples", "50", "--horizon", "4"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: ImpossibleConditioningError: ")
    _assert_error_report(out, err.splitlines()[0] + "\n", "ImpossibleConditioningError", 1)


def test_run_maps_impossible_model_to_exit_1(tmp_path, capsys):
    # extinction after one generation: survival conditioning is impossible
    from mtcpp.model import ModelSpec

    doomed = ModelSpec.from_pmf({1: {(0,): 1.0}})
    cfg = RunConfig(
        task="dchain",
        seed=3,
        out_dir=str(tmp_path),
        model=doomed,
        samples=50,
        horizon=4,
    )
    assert run(cfg) == 1
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: ImpossibleConditioningError: ")
    _assert_error_report(tmp_path, err, "ImpossibleConditioningError", 1)


def test_run_maps_route_disagreement_to_exit_3(tmp_path, monkeypatch, capsys):
    # poison the closed-form mean so the iterate cross-check disagrees
    import mtcpp.lf as lf

    monkeypatch.setattr(lf, "_geom_series", lambda rho, d: 7.0)
    cfg = RunConfig(
        task="compare-two-type",
        seed=1,
        out_dir=str(tmp_path),
        two_type=(0.3, 0.7, 0.5, 1.0),
        n_max=3,
    )
    assert run(cfg) == 3
    err = capsys.readouterr().err
    assert err.startswith("mtcpp: NumericConsistencyError: symmetric m^(1) iterate")
    _assert_error_report(tmp_path, err, "NumericConsistencyError", 3)


def test_run_maps_write_failure_to_exit_4_without_report(lf1, tmp_path, capsys):
    # a directory where laws.csv belongs makes the first write fail
    (tmp_path / "laws.csv").mkdir()
    cfg = RunConfig(task="laws", seed=1, out_dir=str(tmp_path), model=lf1, n_max=2)
    assert run(cfg) == 4
    assert capsys.readouterr().err.startswith("mtcpp: IsADirectoryError: ")
    assert os.listdir(tmp_path) == ["laws.csv"]


# -- command line ------------------------------------------------------------


def test_cli_builds_config_with_overrides(tmp_path, lf1):
    cfg_doc = {
        "model": {"lf": json.loads(lf1.to_json())},
        "seed": 5,
        "samples": 1234,
        "horizon": 7,
        "out": "ignored",
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg_doc))
    cfg = build_config(
        ["laws", "--config", str(path), "--out", str(tmp_path / "o"), "--samples", "99"]
    )
    assert cfg.samples == 99
    assert cfg.horizon == 7
    assert cfg.seed == 5
    assert cfg.out_dir == str(tmp_path / "o")
    assert isinstance(cfg.model, LFParams)


def test_cli_rejects_two_model_sources(tmp_path, lf1):
    cfg_doc = {"model": {"lf": json.loads(lf1.to_json())}, "seed": 1, "out": "o"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg_doc))
    lf_path = tmp_path / "lf.json"
    lf_path.write_text(lf1.to_json())
    with pytest.raises(SchemaError, match="multiple model sources"):
        build_config(
            ["laws", "--config", str(cfg_path), "--model-lf", str(lf_path)]
        )


def test_cli_rejects_unknown_config_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "out": "o", "verbosity": 3}))
    with pytest.raises(SchemaError, match="verbosity"):
        build_config(["laws", "--config", str(path)])


def test_cli_main_exit_codes(tmp_path, lf1, capsys):
    lf_path = tmp_path / "lf.json"
    lf_path.write_text(lf1.to_json())
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "laws",
                "--model-lf",
                str(lf_path),
                "--seed",
                "3",
                "--out",
                str(tmp_path / "out"),
                "--n-max",
                "2",
            ]
        )
    assert exc.value.code == 0
    assert (tmp_path / "out" / "laws.csv").exists()
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--out", str(tmp_path / "out2")])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--model-lf", str(tmp_path / "absent.json"), "--seed", "1",
              "--out", str(tmp_path / "out3")])
    assert exc.value.code == 4
