import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gapdecomp import Dataset, StructuralParams, generate, load_csv, validate_spec, write_csv
from gapdecomp.cli import _prepare_dataset, generate_csv, load_config, main, selfcheck
from gapdecomp.errors import ConfigError

from conftest import BATCH_PARAMS, TWO_BY_TWO_DEVIANCE, two_by_two_crossed

CONTINUOUS = StructuralParams(
    group_share=0.4,
    x_group_effect=0.5, m_group_effect=0.4, m_early_effect=0.3,
    y_group_effect=0.3, y_early_effect=0.4, y_target_effect=0.5,
)
DISCRETE = StructuralParams(
    group_share=0.4,
    x_intercept=0.4, x_group_effect=0.2,
    m_intercept=0.3, m_group_effect=0.15, m_early_effect=0.2,
    y_group_effect=0.3, y_early_effect=0.4, y_target_effect=0.5,
    discrete=True,
)
BINDINGS = {"outcome": "outcome", "group": "group", "early": ["early"], "target": "target"}


def write_cohort(tmp_path, params=CONTINUOUS, n=1500, seed=1, name="cohort.csv"):
    path = tmp_path / name
    write_csv(generate(params, n, seed=seed), path)
    return path


def write_config(tmp_path, **overrides):
    body = {
        "input": str(tmp_path / "cohort.csv"),
        "bindings": BINDINGS,
        "runs": [{"proposition": "P1", "estimator": "SUCCESSIVE"}],
        "output": {
            "report": str(tmp_path / "report.json"),
            "table": str(tmp_path / "table.txt"),
        },
    }
    body.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def read_report(tmp_path):
    return json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))


def test_run_reports_every_request(tmp_path, capsys):
    write_cohort(tmp_path)
    cfg = write_config(
        tmp_path,
        runs=[
            {"proposition": p, "estimator": "SUCCESSIVE"} for p in ("P1", "P2", "P3", "P4")
        ] + [{"proposition": "P4", "estimator": "PRODUCT"}],
    )
    assert main(["run", str(cfg)]) == 0
    report = read_report(tmp_path)
    assert report["dataset"]["rows"] == 1500
    assert [r["proposition"] for r in report["runs"]] == ["P1", "P2", "P3", "P4", "P4"]
    for r in report["runs"]:
        est = r["estimate"]
        assert r["error"] is None
        assert est["scale"] == "ADDITIVE"
        assert est["initial"] == pytest.approx(est["residual"] + est["reduction"], abs=1e-10)
        assert est["coefficients"]  # nested model -> coefficient maps
    successive = report["runs"][3]["estimate"]
    product = report["runs"][4]["estimate"]
    assert successive["residual"] == pytest.approx(product["residual"], rel=1e-8)

    table = (tmp_path / "table.txt").read_text(encoding="utf-8")
    assert table == capsys.readouterr().out
    lines = table.splitlines()
    assert lines[0].startswith("quantity")
    assert lines[1].startswith("initial disparity")
    assert lines[2].startswith("residual disparity")
    assert lines[3].startswith("% reduction")
    percents = lines[3].split()[2:]
    expected = [str(round(100 * r["estimate"]["proportion_reduced"])) for r in report["runs"]]
    assert percents == expected


def test_invalid_combination_fails_before_any_estimate(tmp_path, capsys):
    write_cohort(tmp_path)
    cfg = write_config(
        tmp_path,
        runs=[
            {"proposition": "P1", "estimator": "SUCCESSIVE"},
            {"proposition": "P5", "estimator": "SUCCESSIVE"},
        ],
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "runs[1]" in err and "P5" in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "table.txt").exists()


def test_reruns_are_byte_identical(tmp_path, capsys):
    write_cohort(tmp_path)
    cfg = write_config(
        tmp_path,
        runs=[
            {"proposition": "P4", "estimator": "SUCCESSIVE"},
            {"proposition": "P4", "estimator": "PRODUCT"},
        ],
        bootstrap={"replicates": 25, "seed": 3},
    )
    assert main(["run", str(cfg)]) == 0
    first_report = (tmp_path / "report.json").read_bytes()
    first_table = (tmp_path / "table.txt").read_bytes()
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first_report
    assert (tmp_path / "table.txt").read_bytes() == first_table
    boot = read_report(tmp_path)["runs"][0]["bootstrap"]
    assert boot["replicates"] == 25 and boot["seed"] == 3
    assert set(boot["quantities"]) == {"initial", "residual", "reduction", "proportion_reduced"}
    assert boot["quantities"]["initial"]["se"] > 0.0
    point = read_report(tmp_path)["runs"][0]["estimate"]["initial"]
    assert boot["quantities"]["initial"]["point"] == pytest.approx(point, abs=0.0)


def test_one_failing_run_does_not_abort_the_others(tmp_path, capsys):
    write_cohort(tmp_path)
    cfg = write_config(
        tmp_path,
        runs=[
            {"proposition": "P1", "estimator": "SUCCESSIVE"},
            # continuous early measure: the stratum builder must refuse
            {"proposition": "P1", "estimator": "PLUGIN"},
        ],
    )
    assert main(["run", str(cfg)]) == 1
    report = read_report(tmp_path)
    good, bad = report["runs"]
    assert good["error"] is None and good["estimate"] is not None
    assert bad["estimate"] is None
    assert bad["error"]["type"] == "TooManyLevels"
    assert "discretize" in bad["error"]["message"]
    out = capsys.readouterr()
    assert "P1/PLUGIN failed" in out.err
    table_lines = (tmp_path / "table.txt").read_text(encoding="utf-8").splitlines()
    assert "error" in table_lines[1]
    # duplicate propositions are disambiguated by estimator
    assert "P1/SUCCESSIVE" in table_lines[0] and "P1/PLUGIN" in table_lines[0]


def test_a_zero_risk_ratio_denominator_fails_only_its_run(tmp_path, capsys):
    # outcome events in group 1 only: the plug-in risk ratios would divide by
    # a group-0 mean of 0
    rng = np.random.default_rng(5)
    group = np.tile([0.0, 1.0], 100)
    columns = {"group": group, "early": (rng.random(200) < 0.5).astype(float),
               "target": (rng.random(200) < 0.5).astype(float),
               "outcome": ((group == 1.0) & (rng.random(200) < 0.1)).astype(float)}
    write_csv(Dataset(columns), tmp_path / "cohort.csv")
    cfg = write_config(tmp_path, runs=[
        {"proposition": "P3", "estimator": "PLUGIN", "outcome_family": "RARE_BINARY"},
        {"proposition": "P3", "estimator": "PLUGIN"},
        {"proposition": "P3", "estimator": "SUCCESSIVE"},
    ])
    assert main(["run", str(cfg)]) == 1
    assert "P3/PLUGIN failed" in capsys.readouterr().err
    bad, *good = read_report(tmp_path)["runs"]
    assert bad["estimate"] is None and bad["error"] == {
        "type": "NearZeroDenominator",
        "message": "the group-0 outcome mean is 0; the risk ratios divide by it and are undefined",
    }
    for run in good:
        assert run["error"] is None and run["estimate"]["initial"] > 0.0


def test_plugin_runs_with_discretization_and_anchor(tmp_path):
    write_cohort(tmp_path, n=4000)
    cfg = write_config(
        tmp_path,
        preprocess={"discretize": {"columns": ["early", "target"], "bins": 4}},
        runs=[
            {"proposition": "P2", "estimator": "PLUGIN"},
            {"proposition": "P4", "estimator": "PLUGIN"},
        ],
    )
    assert main(["run", str(cfg)]) == 0
    report = read_report(tmp_path)
    p2 = report["runs"][0]
    assert any("anchored at early-measure stratum" in note for note in p2["notes"])
    for r in report["runs"]:
        assert r["estimate"]["initial"] is not None


def test_missing_indicators_flow_into_the_dataset(tmp_path):
    path = tmp_path / "cohort.csv"
    path.write_text(
        "outcome,group,early,target\n"
        "1.0,0,0.1,\n"
        "2.0,0,0.4,0.7\n"
        "1.5,0,0.2,0.3\n"
        "2.5,1,0.9,\n"
        "3.0,1,0.8,0.9\n"
        "2.0,1,0.5,0.2\n",
        encoding="utf-8",
    )
    cfg = write_config(
        tmp_path,
        preprocess={"missing_indicators": ["target"]},
        runs=[{"proposition": "P3", "estimator": "SUCCESSIVE"}],
    )
    assert main(["run", str(cfg)]) == 0
    report = read_report(tmp_path)
    assert "target_miss" in report["dataset"]["columns"]
    assert report["runs"][0]["error"] is None


def test_config_schema_errors_name_the_problem(tmp_path, capsys):
    write_cohort(tmp_path, n=50)
    cases = [
        ({"typo_key": 1}, "typo_key"),
        ({"runs": []}, "runs"),
        ({"runs": [{"proposition": "P1"}]}, "estimator"),
        ({"runs": [{"proposition": "P1", "estimator": "SUCCESSIVE", "extra": 1}]}, "extra"),
        ({"bindings": "outcome"}, "bindings"),
        ({"preprocess": {"unknown_step": {}}}, "unknown_step"),
        ({"runs": [{"proposition": "P9", "estimator": "SUCCESSIVE"}]}, "P9"),
        ({"runs": [{"proposition": "P1", "estimator": "GUESS"}]}, "GUESS"),
        ({"bindings": {**BINDINGS, "early": 5}}, "bindings"),
        ({"bootstrap": {"replicates": 2.5}}, "'replicates' must be an integer"),
        ({"bootstrap": {"replicates": "abc"}}, "'replicates' must be an integer"),
        ({"bootstrap": {"replicates": 3, "seed": "1"}}, "'seed' must be an integer"),
        ({"bootstrap": {"replicates": 3, "stratify_by_group": "false"}}, "'stratify_by_group'"),
        ({"preprocess": {"discretize": {"columns": ["early"], "bins": "abc"}}},
         "'bins' must be an integer"),
        ({"preprocess": {"discretize": {"columns": ["early"], "bins": 2.7}}},
         "'bins' must be an integer"),
        ({"preprocess": {"discretize": {"columns": "early"}}}, "'columns' must be a list"),
        ({"preprocess": {"missing_indicators": "target"}}, "'missing_indicators' must be a list"),
        ({"preprocess": {"principal_component": {"columns": ["early", 3], "name": "pc"}}},
         "'columns' must be a list"),
    ]
    for overrides, fragment in cases:
        cfg = write_config(tmp_path, **overrides)
        assert main(["run", str(cfg)]) == 2, fragment
        err = capsys.readouterr().err
        assert "config error" in err and fragment in err

    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 2
    assert "cannot read config" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_generate_subcommand_round_trips(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(
        json.dumps(
            {
                "n": 400,
                "seed": 5,
                "x_group_effect": 0.3,
                "m_group_effect": 0.2,
                "y_group_effect": 0.2,
                "y_target_effect": 0.4,
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "cohort.csv"
    assert main(["generate", str(params), str(out)]) == 0
    assert "wrote 400 rows" in capsys.readouterr().out
    first = out.read_bytes()
    d = load_csv(out, BINDINGS)
    assert d.n_rows == 400
    assert set(d.columns) == {"outcome", "group", "early", "target"}
    assert main(["generate", str(params), str(out)]) == 0
    assert out.read_bytes() == first


def test_generate_rejects_unknown_parameters(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 10, "group_gap": 0.5}), encoding="utf-8")
    assert main(["generate", str(params), str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "unknown key(s)" in err and "group_gap" in err


def test_selfcheck_passes_and_prints_verdicts(capsys):
    assert selfcheck() == 0
    out = capsys.readouterr().out
    assert "all identities hold" in out
    assert "max deviation" in out
    assert "FAIL" not in out
    for fragment in (
        "additivity",
        "nested-regression vs coefficient-product",
        "plug-in cell means vs saturated regression",
        "constant-confounder collapse",
        "group-stratified vs pooled-interaction",
        "logistic score at the fit",
        "replicate-index bootstrap vs per-replicate take",
    ):
        assert fragment in out


def test_selfcheck_catches_a_broken_estimator(monkeypatch, capsys):
    import gapdecomp.cli as cli
    from gapdecomp.engine import estimate as real_estimate

    def skewed(d, spec):
        est = real_estimate(d, spec)
        if spec.estimator.value == "PRODUCT":
            return dataclasses.replace(est, reduction=est.reduction + 0.05)
        return est

    monkeypatch.setattr(cli, "estimate", skewed)
    assert selfcheck() == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "all identities hold" not in out


def test_selfcheck_fails_an_estimator_that_returns_nan(monkeypatch, capsys):
    import gapdecomp.cli as cli
    from gapdecomp.cli import _check_replicate_indices, _selfcheck_data
    from gapdecomp.engine import estimate as real_estimate

    def nan_split(d, spec):
        est = real_estimate(d, spec)
        if spec.estimator.value == "PRODUCT" and spec.proposition.value != "P1":
            return dataclasses.replace(est, residual=np.nan, reduction=np.nan)
        return est

    monkeypatch.setattr(cli, "estimate", nan_split)
    # NaN on the per-replicate side only
    assert _check_replicate_indices(_selfcheck_data()[1]) == np.inf
    assert selfcheck() == 1
    out = capsys.readouterr().out
    verdicts = {line[:48].strip(): line[48:].split()[0] for line in out.splitlines()[:-1]}
    for row in ("additivity (initial = residual + reduction)",
                "nested-regression vs coefficient-product",
                "replicate-index bootstrap vs per-replicate take"):
        assert verdicts[row] == "FAIL"
    assert "all identities hold" not in out


@pytest.mark.parametrize("route", ["plugin", "parametric", "oaxaca"])
def test_selfcheck_catches_a_replicate_read_from_the_wrong_rows(monkeypatch, route):
    import gapdecomp.oaxaca as oaxaca
    from gapdecomp.cli import _check_replicate_indices, _selfcheck_data
    from gapdecomp.parametric import LinearReplicates, Sample
    from gapdecomp.plugin import Replicates

    def short(s):  # a replicate that lost its last row
        return s if s.idx is None else Sample(s.d, s.idx[:-1])

    discrete = _selfcheck_data()[1]
    if route in ("plugin", "parametric"):
        assert _check_replicate_indices(discrete) <= 1e-12
        route_class = Replicates if route == "plugin" else LinearReplicates
        draw = route_class.__call__
        monkeypatch.setattr(route_class, "__call__", lambda self, s: draw(self, short(s)))
    else:  # each group's factor of the replicate, from its memo or built
        factor = oaxaca.sample_factor
        monkeypatch.setattr(oaxaca, "sample_factor", lambda s, *args: factor(short(s), *args))
    assert _check_replicate_indices(discrete) > 1e-12


def test_module_is_executable_as_a_script(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 30, "seed": 2}), encoding="utf-8")
    out = tmp_path / "tiny.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "gapdecomp.cli", "generate", str(params), str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("run,named", [
    ({"proposition": "P4", "estimator": "SUCCESSIVE", "outcome_family": "RARE_BINARY",
      "options": {"interactions": True}}, "ratio-scale"),
    ({"proposition": "P4", "estimator": "SUCCESSIVE", "options": {"interaction": True}},
     "'interaction'"),
    ({"proposition": "P4", "estimator": "SUCCESSIVE", "options": {"interactions": "no"}},
     "'interactions'"),
    ({"proposition": "P1", "estimator": "PLUGIN", "options": {"max_levels": 2.7}}, "'max_levels'"),
    ({"proposition": "P1", "estimator": "PLUGIN", "options": {"max_levels": "abc"}},
     "'max_levels'"),
    ({"proposition": "P4", "estimator": "PLUGIN", "options": {"mean_model": "ols"}},
     "'mean_model'"),
    ({"proposition": "P4", "estimator": "PLUGIN", "options": {"aggregation_weight": "both"}},
     "'aggregation_weight'"),
    ({"proposition": "P2", "estimator": "SUCCESSIVE", "conditioning_value_x": True},
     "conditioning_value_x"),
    ({"proposition": "P2", "estimator": "SUCCESSIVE", "conditioning_value_x": "abc"},
     "conditioning_value_x"),
    ({"proposition": "P2", "estimator": "PLUGIN", "conditioning_value_x": float("nan")},
     "conditioning_value_x"),
    ({"proposition": "P2", "estimator": "SUCCESSIVE", "conditioning_value_x": 10**400},
     "conditioning_value_x"),
])
def test_unanswerable_requests_fail_before_any_estimate(tmp_path, capsys, run, named):
    write_cohort(tmp_path)
    cfg = write_config(tmp_path, runs=[{"proposition": "P1", "estimator": "SUCCESSIVE"}, run])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "runs[1]" in err and named in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("run", [
    {"proposition": "P2", "estimator": "SUCCESSIVE"},
    {"proposition": "P2", "estimator": "SUCCESSIVE", "options": {"interactions": True}},
    {"proposition": "P2", "estimator": "PLUGIN"},
])
def test_one_anchor_for_several_early_columns_fails_before_any_estimate(tmp_path, capsys, run):
    d = generate(CONTINUOUS, 300, seed=1)
    write_csv(d.with_columns({"early2": d.column("early") ** 2}), tmp_path / "cohort.csv")
    cfg = write_config(
        tmp_path,
        bindings={**BINDINGS, "early": ["early", "early2"]},
        runs=[{"proposition": "P1", "estimator": "SUCCESSIVE"},
              {**run, "conditioning_value_x": 0.5}],
    )
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "runs[1]" in err and "conditioning_value_x" in err
    assert not (tmp_path / "report.json").exists()


def test_bootstrap_reports_a_replicate_warning_once_with_its_count(tmp_path, capsys):
    common = StructuralParams(
        group_share=0.45, x_group_effect=-0.4, m_group_effect=-0.3, m_early_effect=0.4,
        y_group_effect=0.3, y_early_effect=0.15, y_target_effect=0.25,
        binary_outcome=True, outcome_prevalence=0.20,
    )
    write_cohort(tmp_path, params=common, n=3000, seed=5)
    cfg = write_config(
        tmp_path,
        runs=[{"proposition": "P2", "estimator": "SUCCESSIVE", "outcome_family": "RARE_BINARY"}],
        bootstrap={"replicates": 6, "seed": 1},
    )
    assert main(["run", str(cfg)]) == 0
    run = read_report(tmp_path)["runs"][0]
    assert run["bootstrap"]["failed_replicates"] == 0
    assert run["bootstrap"]["failures_by_type"] == {}
    full_sample, replicates = run["warnings"]
    assert full_sample.startswith("outcome prevalence")
    assert replicates.startswith("PrevalenceWarning in 6 of 6 bootstrap replicates; first: outcome prevalence")


def test_rare_binary_runs_report_each_logistic_fit_and_continuous_runs_do_not(tmp_path, capsys):
    write_csv(two_by_two_crossed(), tmp_path / "cohort.csv")
    cfg = write_config(
        tmp_path,
        bindings={"outcome": "y", "group": "r", "early": ["x"], "target": "m"},
        runs=[
            {"proposition": "P3", "estimator": "SUCCESSIVE", "outcome_family": "RARE_BINARY"},
            {"proposition": "P3", "estimator": "PRODUCT", "outcome_family": "RARE_BINARY"},
            {"proposition": "P3", "estimator": "SUCCESSIVE"},
        ],
    )
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first
    ladder, product, continuous = (run["estimate"] for run in read_report(tmp_path)["runs"])
    assert list(ladder["logistic_fits"]) == ["y ~ r", "y ~ r + x", "y ~ r + x + m"]
    assert list(product["logistic_fits"]) == ["y ~ r + x + m"]
    for fits in (ladder["logistic_fits"], product["logistic_fits"]):
        for fit in fits.values():
            assert set(fit) == {"n_iter", "converged", "deviance"}
            assert isinstance(fit["n_iter"], int) and fit["n_iter"] >= 1
            assert fit["converged"] is True
            assert fit["deviance"] == pytest.approx(TWO_BY_TWO_DEVIANCE, rel=1e-12)
    assert "logistic_fits" not in continuous


@pytest.mark.parametrize("estimator", ["SUCCESSIVE", "PLUGIN"])
def test_an_infinite_cell_is_refused_before_any_estimate(tmp_path, capsys, estimator):
    path = write_cohort(tmp_path, params=DISCRETE, n=300)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[header.index("early")] = "inf"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, runs=[{"proposition": "P4", "estimator": estimator}])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "InfiniteCell" in err and "'early'" in err and "first bad row: 4" in err
    assert not (tmp_path / "report.json").exists()


def test_a_cell_that_overflows_a_fit_fails_only_the_runs_that_fit_it(tmp_path, capsys):
    path = write_cohort(tmp_path, params=DISCRETE, n=300)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = next(i for i, line in enumerate(lines[1:], 1)
               if float(line.split(",")[header.index("group")]) == 0.0)
    cells = lines[row].split(",")
    cells[header.index("early")] = "1e200"  # finite, but its square is not
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, runs=[
        {"proposition": "P4", "estimator": "SUCCESSIVE"},
        {"proposition": "P4", "estimator": "PRODUCT", "options": {"interactions": True}},
        # P4 weights the early strata by group 1, so the group-0 cell is not needed
        {"proposition": "P4", "estimator": "PLUGIN"},
    ])
    assert main(["run", str(cfg)]) == 1
    assert "P4/SUCCESSIVE failed" in capsys.readouterr().err
    *bad, good = read_report(tmp_path)["runs"]
    for run in bad:
        assert run["estimate"] is None and run["warnings"] == []
        assert run["error"]["type"] == "NonFiniteCell"
        assert run["error"]["message"].startswith("column 'early' holds cells too large")
    assert good["error"] is None and good["estimate"]["initial"] > 0.0
    assert (tmp_path / "table.txt").exists()


def test_a_row_longer_than_the_header_is_refused_before_any_estimate(tmp_path, capsys):
    path = write_cohort(tmp_path, n=50)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[7] += ",99"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "LongRow" in err and "line 8" in err
    assert not (tmp_path / "report.json").exists()


def test_readme_config_is_accepted_and_every_run_validates(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1, "README should hold exactly one JSON config block"
    (tmp_path / "config.json").write_text(blocks[0], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    cfg = load_config("config.json")
    names = {"outcome": "wage", "group": "grp", "early": "score", "target": "health"}
    d = generate(CONTINUOUS, 400, seed=3)
    write_csv(Dataset({names[k]: v for k, v in d.columns.items()}), cfg.input)
    prepared = _prepare_dataset(cfg)
    for spec in cfg.runs:
        validate_spec(spec, prepared)


# -- one replicate loop per config ------------------------------------------

BOOTSTRAP_COHORT = StructuralParams(
    group_share=0.45, covariate_share=0.3, discrete=True, confounder=True,
    x_intercept=0.35, x_group_effect=0.2, l_intercept=0.3, l_group_effect=0.1,
    l_early_effect=0.2, m_intercept=0.25, m_group_effect=0.1, m_early_effect=0.15,
    m_confounder_effect=0.15, y_group_effect=0.3, y_early_effect=0.15,
    y_target_effect=0.25, y_confounder_effect=0.2,
    binary_outcome=True, outcome_prevalence=0.2,
)
BOOTSTRAP_RUNS = [
    {"proposition": "P4", "estimator": "SUCCESSIVE"},
    {"proposition": "P4", "estimator": "PRODUCT"},
    # the ~60-row missing-covariate stratum empties in some resamples: a few
    # EmptyStratum replicates for P3, more than 10% (TooManyFailures) for P7
    {"proposition": "P3", "estimator": "PLUGIN"},
    {"proposition": "P7", "estimator": "PLUGIN"},
    # prevalence 0.2: a PrevalenceWarning on every replicate
    {"proposition": "P2", "estimator": "SUCCESSIVE", "outcome_family": "RARE_BINARY"},
    # fails on the full sample (TooManyLevels)
    {"proposition": "P4", "estimator": "PLUGIN", "options": {"max_levels": 1}},
]


def write_bootstrap_config(tmp_path, stratify, replicates=40):
    d = generate(BOOTSTRAP_COHORT, 1500, seed=3)
    covariate = np.array(d.column("covariate"))
    covariate[:60] = np.nan
    write_csv(Dataset({**d.columns, "covariate": covariate}), tmp_path / "cohort.csv")
    return write_config(
        tmp_path,
        bindings={**BINDINGS, "confounder": "confounder", "covariate": ["covariate"]},
        preprocess={"missing_indicators": ["covariate"]},
        runs=BOOTSTRAP_RUNS,
        bootstrap={"replicates": replicates, "seed": 4, "stratify_by_group": stratify},
    )


@pytest.mark.parametrize("stratify", [False, True])
def test_each_run_bootstraps_as_if_alone(tmp_path, capsys, stratify):
    from gapdecomp.cli import _bootstrap_payload
    from gapdecomp.errors import AnalysisError
    from gapdecomp.inference import bootstrap

    cfg_path = write_bootstrap_config(tmp_path, stratify)
    assert main(["run", str(cfg_path)]) == 1
    capsys.readouterr()
    report = read_report(tmp_path)
    cfg = load_config(cfg_path)
    d = _prepare_dataset(cfg)
    outcomes = []
    for spec, run in zip(cfg.runs, report["runs"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                summary = bootstrap(d, spec, b=40, seed=4, stratify_by_group=stratify)
                error = None
            except AnalysisError as exc:
                summary, error = None, {"type": type(exc).__name__, "message": str(exc)}
        expected = list(dict.fromkeys(str(w.message) for w in caught))
        if summary is not None and summary.n_failed:
            expected.append(f"{summary.n_failed} bootstrap replicate(s) failed and were excluded")
        assert run["error"] == error
        assert run["warnings"] == expected
        payload = None if summary is None else _bootstrap_payload(summary)
        assert json.dumps(run["bootstrap"]) == json.dumps(payload)  # floats by repr: bitwise
        outcomes.append(error["type"] if error else summary.n_failed)
    assert outcomes[:2] == [0, 0] and outcomes[2] > 0
    assert outcomes[3:] == ["TooManyFailures", 0, "TooManyLevels"]
    assert report["runs"][4]["warnings"][1].startswith("PrevalenceWarning in 40 of 40")


def test_the_report_counts_failed_replicates_by_type(tmp_path, capsys):
    # the ~60-row missing-covariate stratum empties in some replicates of P3
    assert main(["run", str(write_bootstrap_config(tmp_path, stratify=False))]) == 1
    capsys.readouterr()
    boots = [run["bootstrap"] for run in read_report(tmp_path)["runs"]]
    assert [boot and boot["failures_by_type"] for boot in boots] == [
        {}, {}, {"EmptyStratum": boots[2]["failed_replicates"]}, None, {}, None]
    assert boots[2]["failed_replicates"] > 0


def test_a_config_draws_each_replicate_once_and_again_only_to_refit_it(tmp_path, capsys,
                                                                        monkeypatch):
    import gapdecomp.cli as cli
    import gapdecomp.engine as engine
    import gapdecomp.inference as inference
    from gapdecomp.parametric import LinearReplicates

    calls = {"take": 0, "estimate": 0, "unique": 0, "sort": 0}
    drawn, draw, refitted, finish = [], inference.resample_indices, [], LinearReplicates.finish

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(inference, "resample_indices",
                        lambda d, seed, index, *args: drawn.append(index) or draw(d, seed, index, *args))
    monkeypatch.setattr(LinearReplicates, "finish", lambda self: (
        finish(self), refitted.extend(np.flatnonzero(self.exact).tolist()))[0])
    monkeypatch.setattr(Dataset, "take", counted("take", Dataset.take))
    monkeypatch.setattr(engine, "estimate", counted("estimate", engine.estimate))
    monkeypatch.setattr(cli, "estimate", engine.estimate)
    monkeypatch.setattr(inference, "estimate", engine.estimate)
    b = 12
    # P7 would need the confounder that an "interactions" run refuses
    runs = [*BOOTSTRAP_RUNS[:3], BOOTSTRAP_RUNS[4],
            {"proposition": "P4", "estimator": "SUCCESSIVE", "options": {"interactions": True}}]
    cfg = write_bootstrap_config(tmp_path, stratify=False, replicates=b)
    config = json.loads(cfg.read_text(encoding="utf-8"))
    config.pop("preprocess")
    config["bindings"].pop("confounder")
    cfg.write_text(json.dumps({**config, "runs": runs}), encoding="utf-8")
    monkeypatch.setattr(np, "unique", counted("unique", np.unique))
    monkeypatch.setattr(np, "sort", counted("sort", np.sort))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    # the loop draws each replicate once for every run; after it, the two
    # linear runs (SUCCESSIVE and PRODUCT) draw again each replicate they
    # refit at its own rows, once per run
    assert drawn[:b] == list(range(b)) and sorted(drawn[b:]) == sorted(refitted)
    # every run reads its replicates from row indices, none through `estimate`;
    # np.sort sorts each reported quantity's draws once, and a linear run's
    # draws of each quantity once more; no stratum column (early, target,
    # covariate: small integers) is sorted, and np.unique is not called (a
    # logistic fit checks its 0/1 outcome by comparison)
    assert calls == {"take": 0, "estimate": len(runs), "unique": 0,
                     "sort": 4 * len(runs) + 2 * 4}


def test_a_bootstrap_of_an_all_zero_outcome_is_reported(tmp_path, capsys):
    d = generate(CONTINUOUS, 300, seed=1)
    write_csv(Dataset({**d.columns, "outcome": np.zeros(300)}), tmp_path / "cohort.csv")
    runs = [{"proposition": "P3", "estimator": family} for family in ("SUCCESSIVE", "PRODUCT")]
    assert main(["run", str(write_config(tmp_path, runs=runs, bootstrap={"replicates": 20}))]) == 0
    capsys.readouterr()
    for run in read_report(tmp_path)["runs"]:
        assert run["error"] is None and run["bootstrap"]["failed_replicates"] == 0
        spreads = run["bootstrap"]["quantities"]
        assert [spreads[name]["se"] for name in ("initial", "residual", "reduction")] == [0.0] * 3
        assert spreads["proportion_reduced"]["se"] is None  # no replicate has a disparity to reduce


def test_a_bootstrap_report_is_the_same_at_one_and_two_blas_threads_without_numpy_ma(tmp_path):
    import gapdecomp

    write_csv(generate(BOOTSTRAP_COHORT, 12_000, seed=3), tmp_path / "cohort.csv")
    # BOOTSTRAP_RUNS[4] is RARE_BINARY: its logistic fits import no numpy.ma either
    cfg = write_config(tmp_path, runs=BOOTSTRAP_RUNS[:5], bootstrap={"replicates": 20, "seed": 2},
                       bindings={**BINDINGS, "confounder": "confounder", "covariate": ["covariate"]})
    child = ("import sys; from gapdecomp.cli import main; code = main(['run', sys.argv[1]]); "
             "print('numpy.ma' in sys.modules); sys.exit(code)")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(gapdecomp.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", child, str(cfg)], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"  # np.unique and np.percentile import it
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert all(run["bootstrap"]["failed_replicates"] == 0 for run in read_report(tmp_path)["runs"])


@pytest.mark.parametrize("report,table", [
    ("cohort.csv", "table.txt"), ("report.json", "cohort.csv"), ("cohort.csv", "cohort.csv"),
    ("out.txt", "out.txt"), ("./sub/../cohort.csv", "table.txt"),
])
def test_outputs_that_name_the_input_or_each_other_are_refused(tmp_path, capsys, monkeypatch,
                                                                report, table):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    before = write_cohort(tmp_path).read_bytes()
    cfg = write_config(tmp_path, input="cohort.csv", output={"report": report, "table": table})
    with pytest.raises(ConfigError, match="names the same file as"):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert "names the same file as" in capsys.readouterr().err
    assert (tmp_path / "cohort.csv").read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "config.json", "sub"]


@pytest.mark.parametrize("key,name", [
    ("report", "nodir/report.json"), ("report", "sub"), ("report", ""), ("table", "nodir/table.txt"),
    ("table", "sub/"),
])
def test_an_output_that_cannot_be_written_is_refused_before_the_input_is_read(
        tmp_path, capsys, monkeypatch, key, name):
    import gapdecomp.cli as cli

    def unread(*args, **kwargs):
        raise AssertionError("the input was read for a refused config")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_csv", unread)
    (tmp_path / "sub").mkdir()
    write_cohort(tmp_path)
    cfg = write_config(tmp_path, output={"report": "report.json", "table": "table.txt", key: name})
    message = f"'output.{key}' must name a file in a directory that exists: {name!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "config.json", "sub"]
    assert list((tmp_path / "sub").iterdir()) == []


def test_an_output_lost_before_it_is_written_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    import gapdecomp.cli as cli

    execute = cli.execute
    write_cohort(tmp_path, n=200)
    (tmp_path / "sub").mkdir()
    table = str(tmp_path / "sub" / "table.txt")
    cfg = write_config(tmp_path, output={"report": str(tmp_path / "report.json"), "table": table})
    monkeypatch.setattr(cli, "execute", lambda config: ((tmp_path / "sub").rmdir(), execute(config))[1])
    assert main(["run", str(cfg)]) == 2
    assert f"config error: cannot write output.table {table!r}: " in capsys.readouterr().err
    # all or nothing: the report written before the table is not left behind, nor a temporary
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "config.json"]

    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 20}), encoding="utf-8")
    for out in (tmp_path / "nodir" / "out.csv", tmp_path):
        assert main(["generate", str(params), str(out)]) == 2
        assert f"config error: cannot write output CSV {str(out)!r}: " in capsys.readouterr().err


def test_an_empty_bootstrap_object_runs_the_default_bootstrap(tmp_path, capsys):
    write_cohort(tmp_path, n=300)
    reports = []
    for bootstrap in ({}, {"replicates": 1000, "seed": 0, "stratify_by_group": False}):
        assert main(["run", str(write_config(tmp_path, bootstrap=bootstrap))]) == 0
        reports.append(read_report(tmp_path))
    capsys.readouterr()
    assert [report["bootstrap"] for report in reports] == [
        {}, {"replicates": 1000, "seed": 0, "stratify_by_group": False}]  # as written
    boot = reports[0]["runs"][0]["bootstrap"]
    assert (boot["replicates"], boot["seed"], boot["stratified"]) == (1000, 0, False)
    assert reports[0]["runs"] == reports[1]["runs"]


def test_fewer_than_two_replicates_are_refused_at_config_load(tmp_path, capsys):
    write_cohort(tmp_path, n=50)
    for replicates in (0, 1, -3):
        cfg = write_config(tmp_path, bootstrap={"replicates": replicates})
        with pytest.raises(ConfigError, match="'replicates' must be an integer >= 2"):
            load_config(cfg)
        assert main(["run", str(cfg)]) == 2
        assert "'replicates' must be an integer >= 2" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


def test_an_unreadable_input_is_refused_by_name(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    cfg = write_config(tmp_path, input=missing)
    with pytest.raises(ConfigError, match="cannot read input"):
        _prepare_dataset(load_config(cfg))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot read input" in err and repr(missing) in err
    assert not (tmp_path / "report.json").exists()


def test_an_input_that_is_not_utf8_is_refused_with_its_byte_offset(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    path.write_bytes(b"outcome,group,early,target\n1.0,0,1,2\n2.0,1,caf\xe9,3\n0.5,0,1,1\n")
    cfg = write_config(tmp_path, input=str(path))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read input {str(path)!r}: byte 46 is not UTF-8" in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "table.txt").exists()


def test_a_rare_binary_plugin_run_on_a_continuous_outcome_is_refused_before_any_estimate(
        tmp_path, capsys, monkeypatch):
    import gapdecomp.parametric as parametric

    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate was started for a refused request")

    monkeypatch.setattr(parametric, "analysis_rows", no_estimate)
    write_cohort(tmp_path, dataclasses.replace(DISCRETE, y_intercept=3.0), n=4000)
    cfg = write_config(tmp_path, runs=[
        {"proposition": "P1", "estimator": "PLUGIN", "outcome_family": "RARE_BINARY"}])
    assert main(["run", str(cfg)]) == 2
    assert "runs[0] (P1, PLUGIN): RARE_BINARY outcome column 'outcome' must be 0/1" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "table.txt").exists()


def test_an_input_saved_with_a_byte_order_mark_runs(tmp_path, capsys):
    path = write_cohort(tmp_path, n=300)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    report = read_report(tmp_path)
    assert report["runs"][0]["error"] is None
    assert "outcome" in report["dataset"]["columns"]
    assert not any(name.startswith("\ufeff") for name in report["dataset"]["columns"])


def test_a_repeated_header_name_is_refused_before_any_estimate(tmp_path, capsys):
    path = write_cohort(tmp_path, n=50)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = [line + "," + line.split(",")[2] for line in lines]  # the third column, twice
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    name = lines[0].split(",")[2]
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "RepeatedColumn" in err and f"column {name!r} more than once" in err
    assert not (tmp_path / "report.json").exists()


NO_SCIPY = "import sys; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"


def test_the_package_and_its_cli_run_without_importing_scipy(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n": 30, "seed": 2}), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    for code in ["import gapdecomp, gapdecomp.cli",
                 f"from gapdecomp.cli import main; assert main(['generate', {str(params)!r}, "
                 f"{str(tmp_path / 'out.csv')!r}]) == 0"]:
        proc = subprocess.run([sys.executable, "-c", f"{code}; {NO_SCIPY}"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out.csv").stat().st_size > 0


@pytest.mark.parametrize("params, key", [
    ({"n": 2.7}, "'n' must be an integer >= 1"),
    ({"n": "abc"}, "'n' must be an integer >= 1"),
    ({"n": 0}, "'n' must be an integer >= 1"),
    ({"n": True}, "'n' must be an integer >= 1"),
    ({"n": 10, "seed": 1.9}, "'seed' must be an integer >= 0"),
    ({"n": 10, "seed": "1"}, "'seed' must be an integer >= 0"),
    ({"n": 10, "seed": -1}, "'seed' must be an integer >= 0"),
])
def test_generate_refuses_a_count_or_seed_that_is_not_an_integer(tmp_path, capsys, params, key):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "x.csv"
    with pytest.raises(ConfigError, match=re.escape(key)):
        generate_csv(path, out)
    assert main(["generate", str(path), str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_run_counts_the_cells_it_could_not_read(tmp_path):
    path = write_cohort(tmp_path, n=300)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[-1] != "group"
    for row, column in ((3, "outcome"), (9, "outcome"), (12, "early")):
        cells = lines[row].split(",")
        cells[header.index(column)] = "N/A"
        lines[row] = ",".join(cells)
    lines[20] = lines[20].rsplit(",", 1)[0]  # a short row: its last cell is missing
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path)
    assert main(["run", str(cfg)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    dataset = read_report(tmp_path)["dataset"]
    assert dataset["unparsed_cells"] == {"outcome": 2, "early": 1}
    assert dataset["short_rows"] == 1
    (warning,) = dataset["warnings"]
    assert "3 cell(s) that are not numbers" in warning and "1 row(s) shorter" in warning
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "report.json").read_bytes() == first


def test_a_clean_file_reports_zero_counts_and_no_warning(tmp_path):
    write_cohort(tmp_path, n=300)
    assert main(["run", str(write_config(tmp_path))]) == 0
    dataset = read_report(tmp_path)["dataset"]
    assert (dataset["unparsed_cells"], dataset["short_rows"], dataset["warnings"]) == ({}, 0, [])


@pytest.mark.parametrize("params, key", [
    ({"n": 10, "group_share": "abc"}, "'group_share' must be a finite number, got 'abc'"),
    ({"n": 10, "discrete": "no"}, "'discrete' must be true or false, got 'no'"),
    ({"n": 10, "x_group_effect": True}, "'x_group_effect' must be a finite number"),
    ({"n": 10, "covariate_share": "half"}, "'covariate_share' must be a finite number or null"),
])
def test_generate_refuses_a_structural_field_of_the_wrong_type(tmp_path, capsys, params, key):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "x.csv"
    with pytest.raises(ConfigError, match=re.escape(key)):
        generate_csv(path, out)
    assert main(["generate", str(path), str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_generate_accepts_a_null_prevalence(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"n": 20, "outcome_prevalence": None}), encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["generate", str(path), str(out)]) == 0
    assert load_csv(out).n_rows == 20


# -- per-run bindings ---------------------------------------------------------


def test_a_run_can_bind_the_confounder_beside_an_interactions_run(tmp_path, capsys):
    from gapdecomp import AnalysisSpec, estimate

    write_csv(generate(BOOTSTRAP_COHORT, 1500, seed=5), tmp_path / "cohort.csv")
    interactions = {"proposition": "P4", "estimator": "SUCCESSIVE",
                    "options": {"interactions": True}}
    cfg = write_config(tmp_path, runs=[
        {"proposition": "P7", "estimator": "PLUGIN", "bindings": {"confounder": "confounder"}},
        interactions,
    ])
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    plugin, stratified = read_report(tmp_path)["runs"]
    assert plugin["bindings"] == {"confounder": "confounder"} and "bindings" not in stratified
    for run, bindings, spec in (
            (plugin, {**BINDINGS, "confounder": "confounder"}, AnalysisSpec("P7", "PLUGIN")),
            (stratified, BINDINGS, AnalysisSpec("P4", "SUCCESSIVE",
                                                options={"interactions": True}))):
        assert run["error"] is None
        want = estimate(load_csv(tmp_path / "cohort.csv", bindings), spec)
        got = run["estimate"]
        assert (got["initial"], got["residual"], got["reduction"]) == (
            want.initial, want.residual, want.reduction)

    # a confounder bound for the whole config reaches the stratified run, which
    # refuses it before any estimate: nothing is written
    for name in ("report.json", "table.txt"):
        (tmp_path / name).unlink()
    cfg = write_config(tmp_path, bindings={**BINDINGS, "confounder": "confounder"},
                       runs=[interactions])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "confounder" in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "table.txt").exists()


def test_every_family_reads_p1_on_the_one_analysis_sample_of_its_binding(tmp_path, capsys):
    # the README's cohort: the `batch` cohort without the confounder, with 30%
    # of the group-1 targets blank, rows every family drops
    d = generate(dataclasses.replace(BATCH_PARAMS, confounder=False), 20_000, seed=1)
    columns = dict(d.columns)
    blank = (columns["group"] == 1) & (np.random.default_rng(1).random(d.n_rows) < 0.3)
    columns["target"] = np.where(blank, np.nan, columns["target"])
    write_csv(Dataset(columns, dict(d.roles)), tmp_path / "cohort.csv")
    runs = [{"proposition": "P1", "estimator": family} for family in ("SUCCESSIVE", "PRODUCT", "PLUGIN")]
    runs.append({"proposition": "P1", "estimator": "SUCCESSIVE", "options": {"interactions": True}})
    cfg = write_config(tmp_path, bindings={**BINDINGS, "covariate": ["covariate"]}, runs=runs,
                       bootstrap={"replicates": 50, "seed": 1})
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    report = read_report(tmp_path)
    assert [run["n_analysis"] for run in report["runs"]] == 4 * [d.n_rows - int(blank.sum())]
    successive, _, plugin, _ = (run["estimate"] for run in report["runs"])
    spread = report["runs"][2]["bootstrap"]["quantities"]
    for key in ("initial", "residual", "reduction"):
        assert abs(plugin[key] - successive[key]) <= 3 * spread[key]["se"], key


def test_runs_whose_bindings_differ_in_a_column_with_blanks_share_nothing(tmp_path, capsys):
    # the same runs with and without a confounder binding, 10% of its cells
    # blank: two samples, each run read as in a config of its own
    d = generate(BOOTSTRAP_COHORT, 1500, seed=5)
    columns = dict(d.columns)
    columns["confounder"] = np.where(np.arange(d.n_rows) % 10 == 3, np.nan, columns["confounder"])
    write_csv(Dataset(columns, dict(d.roles)), tmp_path / "cohort.csv")
    bound = {"bindings": {"confounder": "confounder"}}
    runs = [{"proposition": "P3", "estimator": family, **binding}
            for family in ("SUCCESSIVE", "PRODUCT", "PLUGIN") for binding in (bound, {})]
    runs += [{"proposition": "P3", "estimator": "SUCCESSIVE", "outcome_family": "RARE_BINARY", **binding}
             for binding in (bound, {})]
    boot = {"replicates": 20, "seed": 2}
    assert main(["run", str(write_config(tmp_path, runs=runs, bootstrap=boot))]) == 0
    together = read_report(tmp_path)["runs"]
    assert [run["n_analysis"] for run in together] == 4 * [1350, 1500]
    for run, got in zip(runs, together):
        assert main(["run", str(write_config(tmp_path, runs=[run], bootstrap=boot))]) == 0
        assert read_report(tmp_path)["runs"] == [got]
        assert got["error"] is None and got["bootstrap"]["failed_replicates"] == 0
    capsys.readouterr()


@pytest.mark.parametrize("bindings,named", [
    ({"covariate": ["no_such_column"]}, "'no_such_column'"),
    ({"early": 5}, "'bindings' must be an object mapping roles"),
    ({"cohort": "early"}, "unknown role"),
    ({"target": "early"}, "column 'early' is bound more than once"),
])
def test_a_run_binding_that_cannot_be_read_fails_before_any_estimate(tmp_path, capsys, bindings,
                                                                     named):
    write_cohort(tmp_path)
    cfg = write_config(tmp_path, runs=[{"proposition": "P1", "estimator": "SUCCESSIVE"},
                                       {"proposition": "P4", "estimator": "SUCCESSIVE",
                                        "bindings": bindings}])
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "report.json").exists()


def test_runs_binding_their_own_confounder_code_no_column_more_than_one_top_level_binding(
        tmp_path, capsys, monkeypatch):
    """The README's pattern: P5-P7 PLUGIN runs each binding the confounder.
    Their bound datasets share one analysis sample and its table, so each
    column is coded as often as when the confounder is bound for all runs."""
    import gapdecomp.plugin as plugin

    write_csv(generate(BOOTSTRAP_COHORT, 1500, seed=5), tmp_path / "cohort.csv")
    runs = [{"proposition": p, "estimator": "PLUGIN"} for p in ("P5", "P6", "P7")]
    coded, estimates = [], []
    real = plugin._column_codes

    def counted(values, name, *args):
        coded[-1].append(name)
        return real(values, name, *args)

    monkeypatch.setattr(plugin, "_column_codes", counted)
    for bindings, own in (({**BINDINGS, "confounder": "confounder"}, {}),
                          (BINDINGS, {"bindings": {"confounder": "confounder"}})):
        cfg = write_config(tmp_path, bindings=bindings, runs=[{**run, **own} for run in runs])
        coded.append([])
        assert main(["run", str(cfg)]) == 0
        estimates.append([run["estimate"] for run in read_report(tmp_path)["runs"]])
    capsys.readouterr()
    top_level, per_run = coded
    assert sorted(top_level) == ["confounder", "early", "target"]  # each once
    assert sorted(per_run) == sorted(top_level)
    assert estimates[0] == estimates[1]


def test_a_top_level_binding_can_name_a_column_preprocessing_makes(tmp_path, capsys):
    write_cohort(tmp_path, n=400)
    pca = {"principal_component": {"columns": ["early", "target"], "name": "index"}}
    runs = [{"proposition": "P4", "estimator": "SUCCESSIVE"}]
    cfg = write_config(tmp_path, bindings={**BINDINGS, "early": ["index"]}, preprocess=pca,
                       runs=runs)
    assert main(["run", str(cfg)]) == 0
    top_level = read_report(tmp_path)["runs"][0]
    cfg = write_config(tmp_path, preprocess=pca,
                       runs=[{**runs[0], "bindings": {"early": ["index"]}}])
    assert main(["run", str(cfg)]) == 0
    per_run = read_report(tmp_path)["runs"][0]
    capsys.readouterr()
    assert top_level["error"] is None and top_level["estimate"] == per_run["estimate"]
    assert "outcome ~ group + index" in top_level["estimate"]["coefficients"]


def test_a_group_column_with_a_blank_cell_is_refused_though_indicators_list_it(tmp_path, capsys):
    path = tmp_path / "cohort.csv"
    path.write_text("outcome,group,early,target\n1.0,0,0.1,0.2\n2.0,,0.4,0.7\n"
                    "1.5,1,0.2,0.3\n2.5,1,0.9,0.1\n", encoding="utf-8")
    cfg = write_config(tmp_path, preprocess={"missing_indicators": ["group"]})
    assert main(["run", str(cfg)]) == 2
    assert "NonBinaryGroup" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["outcome", "early_miss"])
def test_a_principal_component_may_not_replace_a_column(tmp_path, capsys, name):
    write_cohort(tmp_path, n=200)
    cfg = write_config(tmp_path, preprocess={
        "missing_indicators": ["early"],
        "principal_component": {"columns": ["early", "target"], "name": name}})
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "principal_component.name" in err and repr(name) in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "table.txt").exists()


@pytest.mark.parametrize("bins", [1, 0, -3])
def test_fewer_than_two_bins_are_refused_at_config_load(tmp_path, capsys, bins):
    cfg = write_config(tmp_path, preprocess={"discretize": {"columns": ["early"], "bins": bins}})
    assert main(["run", str(cfg)]) == 2  # no input was written: refused before it is read
    assert "'bins' must be an integer >= 2" in capsys.readouterr().err


# -- BLAS threads ---------------------------------------------------------------


RARE_COHORT = StructuralParams(
    group_share=0.45, x_group_effect=-0.4, m_group_effect=-0.3, m_early_effect=0.4,
    y_group_effect=0.3, y_early_effect=0.2, y_target_effect=0.3,
    binary_outcome=True, outcome_prevalence=0.05,
)


@pytest.mark.parametrize("params,config", [
    (DISCRETE, {"runs": [
        *({"proposition": p, "estimator": "SUCCESSIVE"} for p in ("P1", "P2", "P3", "P4")),
        {"proposition": "P4", "estimator": "PRODUCT"},
        {"proposition": "P4", "estimator": "SUCCESSIVE", "options": {"interactions": True}},
        {"proposition": "P3", "estimator": "PLUGIN"},
    ]}),
    (RARE_COHORT, {"runs": [
        {"proposition": "P4", "estimator": family, "outcome_family": "RARE_BINARY"}
        for family in ("SUCCESSIVE", "PRODUCT")
    ]}),
    (CONTINUOUS, {
        "preprocess": {"principal_component": {"columns": ["early", "target"], "name": "index"}},
        "runs": [{"proposition": p, "estimator": "SUCCESSIVE", "bindings": {"early": ["index"]}}
                 for p in ("P1", "P4")],
    }),
], ids=["least_squares", "logistic", "principal_component"])
def test_reports_are_byte_identical_at_one_and_two_blas_threads(tmp_path, params, config):
    # 12,000 analysis rows: past the 10,000 below which OpenBLAS sums a dot
    # product on one thread, so an unblocked factor, score, Gram matrix or
    # correlation matrix adds in another order at 2
    write_cohort(tmp_path, params, n=12_000, seed=6)
    cfg = write_config(tmp_path, **config)
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "gapdecomp.cli", "run", str(cfg)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("bindings,run_bindings,where", [
    ({**BINDINGS, "outcome": "score"}, None, "bindings"),
    (BINDINGS, {"Outcome": "score"}, "runs[1].bindings"),
    (BINDINGS, {"outcome": ["score"]}, "runs[1].bindings"),
])
def test_a_missing_indicator_for_the_outcome_is_refused_before_any_estimate(
        tmp_path, capsys, bindings, run_bindings, where):
    lines = ["outcome,group,early,target,score"] + [
        f"{i % 3},{i % 2},{i % 5},{i % 4},{'' if i % 7 == 0 else i % 6}" for i in range(60)]
    (tmp_path / "cohort.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    runs = [{"proposition": "P1", "estimator": "SUCCESSIVE"},
            {"proposition": "P4", "estimator": "SUCCESSIVE",
             **({"bindings": run_bindings} if run_bindings else {})}]
    cfg = write_config(tmp_path, bindings=bindings, runs=runs,
                       preprocess={"missing_indicators": ["early", "score"]})
    named = f"preprocess.missing_indicators names 'score', bound as the outcome in {where};"
    with pytest.raises(ConfigError, match=re.escape(named)):
        load_config(cfg)
    assert main(["run", str(cfg)]) == 2
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cohort.csv", "config.json"]


def test_table_columns_that_share_proposition_and_estimator_are_numbered_by_run(tmp_path, capsys):
    write_csv(generate(BOOTSTRAP_COHORT, 1500, seed=7), tmp_path / "cohort.csv")
    runs = [{"proposition": "P4", "estimator": "PLUGIN"},
            {"proposition": "P4", "estimator": "PLUGIN",
             "options": {"aggregation_weight": "pooled"}},
            {"proposition": "P7", "estimator": "PLUGIN", "bindings": {"confounder": "confounder"}},
            {"proposition": "P7", "estimator": "PLUGIN", "bindings": {"confounder": "covariate"}},
            {"proposition": "P4", "estimator": "SUCCESSIVE"}]
    assert main(["run", str(write_config(tmp_path, runs=runs))]) == 0
    header = (tmp_path / "table.txt").read_text(encoding="utf-8").splitlines()[0]
    assert re.split(r"\s{2,}", header) == [
        "quantity", "#1 P4/PLUGIN", "#2 P4/PLUGIN", "#3 P7/PLUGIN", "#4 P7/PLUGIN",
        "#5 P4/SUCCESSIVE"]
    assert capsys.readouterr().out.splitlines()[0] == header
    # labels that the estimator tells apart are not numbered
    assert main(["run", str(write_config(tmp_path, runs=runs[1:3] + runs[4:]))]) == 0
    header = (tmp_path / "table.txt").read_text(encoding="utf-8").splitlines()[0]
    assert re.split(r"\s{2,}", header) == ["quantity", "P4/PLUGIN", "P7/PLUGIN", "P4/SUCCESSIVE"]
