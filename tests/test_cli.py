import json
import threading

import pytest

from qmeasure.cli import build_parser, main


def _write_config(tmp_path, mapping, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(mapping))
    return str(path)


def test_missing_subcommand():
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args([])
    assert info.value.code == 2


def test_bad_config_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    assert "configuration error: cannot read configuration file: " in capsys.readouterr().err


def test_unknown_engine(capsys):
    assert main(["run", "--engines", "A,Q"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_step_filter_needs_engine_c(capsys):
    assert main(["run", "--engines", "B", "--filter", "step"]) == 2
    err = capsys.readouterr().err
    assert "step" in err


def test_run_writes_outputs(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "engines": ["A"],
        "plan": {"measurements": 3},
        "output": {"directory": str(tmp_path / "out")},
    })
    code = main(["run", "--config", cfg, "--formats", "csv,json,svg"])
    out = capsys.readouterr().out
    assert code == 0
    for suffix in ("csv", "json", "svg"):
        assert (tmp_path / "out" / f"run.{suffix}").exists()
    assert "engine A: 3 records" in out
    assert "wrote" in out


def test_validate_reports_agreement(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "engines": ["A", "C"],
        "plan": {"measurements": 8},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
    })
    code = main(["validate", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "A/C" in out and "[ok]" in out
    assert out.strip().endswith("PASS")
    doc = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert doc["validation"]["passed"] is True


def test_distribution_prints_summary(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "engines": ["C"],
        "plan": {"measurements": 2},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv"]},
    })
    code = main(["distribution", "--config", cfg])
    out = capsys.readouterr().out
    assert code == 0
    assert "a_tilde" in out
    assert (tmp_path / "out" / "distribution.csv").exists()


def test_distribution_step_filter_runs_on_engine_c(tmp_path):
    code = main(["distribution", "--filter", "step", "--out", str(tmp_path), "--formats", "csv"])
    assert code == 0
    rows = (tmp_path / "distribution.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("C,step,") for row in rows)


def test_distribution_step_filter_from_config_file(tmp_path):
    # the default engines narrow to C before the file's step filter is checked
    cfg = _write_config(tmp_path, {
        "filter": {"kind": "step"},
        "plan": {"measurements": 2},
        "output": {"directory": str(tmp_path / "out"), "formats": ["csv"]},
    })
    assert main(["distribution", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "distribution.csv").read_text().splitlines()[1:]
    assert rows and all(row.startswith("C,step,") for row in rows)


@pytest.mark.parametrize("mapping", [
    {"plan": {"interval_over_period": float("nan")}},
    {"units": {"mass": float("inf")}},
    {"state": {"width": float("-inf")}},
    {"plan": {"measurements": float("nan")}},
    {"plan": {"measurements": 3, "results": [0.0, float("inf")]}},
    {"plan": {"interval_over_period": 10 ** 400}},
    {"plan": {"measurements": 10 ** 400}},
    {"plan": {"measurements": 3, "results": [0.0, 10 ** 400]}},
    {"numerics": {"levels": 10 ** 400}},
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, mapping):
    cfg = _write_config(tmp_path, {"engines": ["A"], **mapping})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("results, bad", [
    (["0.5", 1.0], "plan.results[0]"),
    ([0.5, True], "plan.results[1]"),
    ([False, 0.5], "plan.results[0]"),
    ([0.5, None], "plan.results[1]"),
])
def test_results_entries_must_be_numbers(tmp_path, capsys, results, bad):
    cfg = _write_config(tmp_path, {"engines": ["A"],
                                   "plan": {"measurements": 3, "results": results}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and bad in err
    assert not (tmp_path / "out").exists()


def test_integer_results_are_numbers(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"engines": ["A"], "plan": {"measurements": 3, "results": [1, 0]},
                                   "output": {"formats": ["csv"]}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "run.csv").exists()


def test_distribution_needs_engine_c(tmp_path, capsys):
    assert main(["distribution", "--engines", "A", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "engine C" in err
    assert not (tmp_path / "distribution.csv").exists()


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "engines": ["C"],
        "plan": {"measurements": 2},
        "numerics": {"levels": 20},
        "output": {"directory": str(tmp_path / "out")},
    })
    assert main(["run", "--config", cfg]) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_grid_coverage_failure_names_a_config_key(tmp_path, capsys):
    # at error 0.5 the 64-level basis spreads the density past the scan
    # window; 96 levels and more run this config
    cfg = _write_config(tmp_path, {"filter": {"error": 0.5}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: GridCoverageError: ")
    assert "numerics.levels" in err


def test_result_deep_in_the_tail_is_a_numerical_failure(tmp_path, capsys):
    """Imposing 4 keeps about 1e-14 of the chain norm at measurement 2, where
    the half period has mirrored the packet to about -3.8; engine C's
    computed share bottoms out near its 3e-10 noise floor instead, and
    without the guard its n = 3 row read 3x engine A's."""
    cfg = _write_config(tmp_path, {"engines": ["A", "C"],
                                   "plan": {"measurements": 4, "result_value": 4.0}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ChainUnderflowError: imposing measurement 2 ")


@pytest.mark.parametrize("mapping, message", [
    # the packet reaches the walls of this lattice before any measurement
    ({"engines": ["B"],
      "numerics": {"gate_steps": 50,
                   "lattice": {"x_min": -12.0, "x_max": 12.0, "points": 481}}},
     "BoundaryLeakError: boundary probability 1.121e-04 exceeds 1e-08 before "
     "measurement 1; enlarge the lattice"),
    # 20 levels cannot hold the initial packet
    ({"engines": ["C"], "numerics": {"levels": 20}},
     "TruncationError: levels=20 captures only 0.987648 of the initial packet; "
     "raise numerics.levels"),
], ids=["B", "C"])
def test_sweep_chain_failure_exit_code(tmp_path, capsys, mapping, message):
    # every chain of the sweep fails, whichever thread runs it
    cfg = _write_config(tmp_path, mapping | {
        "plan": {"measurements": 3},
        "sweep": {"points": 3},
        "output": {"directory": str(tmp_path / "out")},
    })
    threads = set(threading.enumerate())
    assert main(["sweep", "--config", cfg]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    # no chain thread outlives the sweep
    assert set(threading.enumerate()) <= threads


def test_out_override(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "engines": ["A"],
        "plan": {"measurements": 2},
        "output": {"directory": str(tmp_path / "ignored"), "formats": ["csv"]},
    })
    target = tmp_path / "elsewhere"
    assert main(["run", "--config", cfg, "--out", str(target)]) == 0
    capsys.readouterr()
    assert (target / "run.csv").exists()
    assert not (tmp_path / "ignored").exists()
