import json
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from qmeasure import (
    ConfigError,
    ExperimentConfig,
    Lattice,
    StroboscopicPlan,
    TruncationError,
    config_from_mapping,
    config_hash,
    cross_validate,
    distribution,
    emit,
    emit_distribution,
    load_config,
    run,
    run_stroboscopic,
    stroboscopic_widths,
    sweep,
    uncertainty_evolution,
    validate_config,
)
from qmeasure import collapse, harness
from qmeasure.harness import CSV_HEADER, DISTRIBUTION_HEADER

FAST = {
    "plan": {"measurements": 3},
    "engines": ["A", "C"],
}


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.engines == ("A", "C")
    assert cfg.units.mass == 0.5
    assert cfg.plan.measurements == 16
    assert cfg.numerics.levels == 64
    assert cfg.output.formats == ("csv", "json")


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown configuration key 'plan.cadence'"):
        config_from_mapping({"plan": {"cadence": 3}})
    with pytest.raises(ConfigError, match="numerics.lattice.spacing"):
        config_from_mapping({"numerics": {"lattice": {"spacing": 0.1}}})
    # removed keys: the outcome grids are sized by the routines that scan
    # them, the projection rule by the packet, and engine B's time step by
    # each chain's phase-space reach (pde.free_step)
    for key, numerics in [("outcome_points", {"outcome_points": 801}),
                          ("pde_outcome_points", {"pde_outcome_points": 129}),
                          ("quadrature_points", {"quadrature_points": 800}),
                          ("lattice.time_step", {"lattice": {"time_step": 0.000625}})]:
        with pytest.raises(ConfigError, match=f"unknown configuration key 'numerics.{key}'"):
            config_from_mapping({"numerics": numerics})


def test_readme_config_example_loads():
    """The README's example config file holds only keys the harness accepts."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = config_from_mapping(json.loads(example))
    assert cfg.output.formats == ("csv", "json", "svg")


def test_readme_library_example_runs(capsys):
    """The README's library example runs on the names qmeasure exports."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 16 + 20 + 20


def test_type_coercion():
    cfg = config_from_mapping({"plan": {"measurements": 8.0}})
    assert cfg.plan.measurements == 8
    with pytest.raises(ConfigError):
        config_from_mapping({"plan": {"measurements": 8.5}})
    with pytest.raises(ConfigError):
        config_from_mapping({"plan": {"measurements": "eight"}})
    with pytest.raises(ConfigError):
        config_from_mapping({"state": {"width": True}})
    with pytest.raises(ConfigError):
        config_from_mapping({"deterministic": False})


def test_engine_normalization():
    cfg = config_from_mapping({"engines": ["C", "A", "A"]})
    assert cfg.engines == ("A", "C")
    with pytest.raises(ConfigError):
        config_from_mapping({"engines": ["D"]})
    with pytest.raises(ConfigError):
        config_from_mapping({"engines": []})


def test_step_filter_engine_restrictions():
    cfg = config_from_mapping({"engines": ["C"], "filter": {"kind": "step"}})
    assert cfg.filter.kind == "step"
    for engine in ("A", "B"):
        with pytest.raises(ConfigError):
            config_from_mapping({"engines": [engine], "filter": {"kind": "step"}})


@pytest.mark.parametrize("mapping, section", [
    ({"units": {"mass": -1.0}}, "units"),
    ({"plan": {"interval_over_period": 0.0}}, "plan"),
    ({"filter": {"error": 0.0}}, "filter"),
    ({"numerics": {"lattice": {"points": 4}}}, "numerics.lattice"),
])
def test_object_errors_name_their_section(mapping, section):
    with pytest.raises(ConfigError, match=rf"^{re.escape(section)}: "):
        config_from_mapping(mapping)


@pytest.mark.parametrize("mapping, message", [
    ({"numerics": {"levels": 1}}, "numerics.levels must be at least 2"),
    ({"state": {"width": 0.0}}, "state.width must be positive"),
    ({"numerics": {"gate_fraction": 0.0}}, "numerics.gate_fraction must lie in (0, 0.1)"),
    ({"numerics": {"gate_fraction": 0.1}}, "numerics.gate_fraction must lie in (0, 0.1)"),
    ({"sweep": {"start_over_period": 0.0}},
     "sweep: need 0 < start_over_period <= stop_over_period"),
    ({"sweep": {"start_over_period": 1.0, "stop_over_period": 0.5}},
     "sweep: need 0 < start_over_period <= stop_over_period"),
    ({"sweep": {"points": 1}}, "sweep.points must be at least 2"),
    ({"output": {"directory": ""}}, "output.directory must be nonempty"),
    ({"output": {"formats": ["csv", "pdf"]}},
     "output.formats must be a nonempty subset of ('csv', 'json', 'svg')"),
    ({"output": {"formats": []}},
     "output.formats must be a nonempty subset of ('csv', 'json', 'svg')"),
    ({"filter": {"kind": 1}}, "filter.kind: expected a string"),
    ({"engines": "A"}, "engines: expected a list of strings"),
    ({"engines": ["A", 3]}, "engines: expected a list of strings"),
    ({"units": [1.0]}, "units: expected an object"),
    ({"numerics": {"lattice": 2401}}, "numerics.lattice: expected an object"),
    ({"plan": {"results": 0.5}}, "plan.results: expected a policy name or a list of outcomes"),
    ({"numerics": {"lattice": {"x_min": 1.0, "x_max": 1.0}}},
     "numerics.lattice: x_max must exceed x_min"),
])
def test_config_checks(mapping, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        config_from_mapping(mapping)


def test_lattice_is_derived_unless_given():
    """No numerics.lattice section leaves the lattice to engine B, per plan;
    an explicit section, even an empty one, is pde.Lattice with its
    defaults."""
    assert config_from_mapping({}).numerics.lattice is None
    assert config_from_mapping({"numerics": {"lattice": {}}}).numerics.lattice == Lattice()
    cfg = config_from_mapping({"numerics": {"lattice": {"points": 1201}}})
    assert cfg.numerics.lattice == Lattice(-60.0, 60.0, 1201)


def test_gate_substeps_checked_only_for_engine_b():
    """Engines A and C have no lattice time step to stay within."""
    cfg = config_from_mapping({"numerics": {"gate_fraction": 0.01}})
    assert cfg.engines == ("A", "C")


def test_gate_substeps_within_time_step():
    """At gate_fraction 0.01 the gate lasts 0.0628, over 100 times the
    0.000625 gate-substep bound."""
    with pytest.raises(ConfigError, match="at least 101"):
        config_from_mapping({"numerics": {"gate_fraction": 0.01}, "engines": ["A", "B"]})
    config_from_mapping({"numerics": {"gate_fraction": 0.01, "gate_steps": 101},
                         "engines": ["A", "B"]})


@pytest.mark.parametrize("engines", [["A", "C"], ["B"]])
def test_gate_steps_positive(engines):
    with pytest.raises(ConfigError, match="gate_steps must be at least 1"):
        config_from_mapping({"numerics": {"gate_steps": 0}, "engines": engines})


def test_results_sequence_length():
    config_from_mapping({"plan": {"measurements": 4, "results": [0.0, 0.1, 0.2]}})
    with pytest.raises(ConfigError):
        config_from_mapping({"plan": {"measurements": 4, "results": [0.0]}})
    # a policy name instead of a list
    cfg = config_from_mapping({"plan": {"results": "alternating", "result_value": 0.5}})
    assert list(harness._plan(cfg, 1.0).imposed_results()[:3]) == [0.5, -0.5, 0.5]


def test_config_hash_canonical():
    a = config_from_mapping({"plan": {"measurements": 4}, "engines": ["A"]})
    b = config_from_mapping({"engines": ["A"], "plan": {"measurements": 4}})
    assert config_hash(a) == config_hash(b)
    c = config_from_mapping({"plan": {"measurements": 5}, "engines": ["A"]})
    assert config_hash(a) != config_hash(c)


def test_truncation_guard():
    cfg = config_from_mapping({"numerics": {"levels": 20}, "engines": ["C"],
                               "plan": {"measurements": 2}})
    with pytest.raises(TruncationError):
        run(cfg)


def test_run_records(tmp_path):
    cfg = config_from_mapping(FAST | {"output": {"directory": str(tmp_path)}})
    records = run(cfg)
    assert [r.engine for r in records] == ["A"] * 3 + ["C"] * 3
    assert [r.n for r in records] == [1, 2, 3, 1, 2, 3]
    a1, c1 = records[0], records[3]
    assert a1.delta_a_eff == pytest.approx(np.sqrt(26.0), abs=1e-3)
    assert c1.delta_a_eff == pytest.approx(a1.delta_a_eff, rel=1e-3)
    assert all(r.dt_over_T == 0.5 for r in records)


def test_emit_formats(tmp_path):
    cfg = config_from_mapping(FAST | {
        "output": {"directory": str(tmp_path), "formats": ["csv", "json", "svg"]},
    })
    records = run(cfg)
    paths = emit(cfg, records, "run")
    names = {p.name for p in paths}
    assert names == {"run.csv", "run.json", "run.svg"}

    csv_text = (tmp_path / "run.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    first = lines[1].split(",")
    assert first[0] == "A" and first[1] == "gaussian"
    assert int(first[3]) == 1

    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["config_hash"] == config_hash(cfg)
    assert doc["generated_by"].startswith("qmeasure")
    assert len(doc["records"]) == 6
    assert set(doc["records"][0]) == {"engine", "filter", "dt_over_T", "n",
                                      "delta_a_eff", "a_tilde", "norm"}
    assert "wall" not in csv_text and "wall" not in json.dumps(doc)
    assert doc["settings"]["plan"]["measurements"] == 3

    root = ET.fromstring((tmp_path / "run.svg").read_text())
    assert root.tag.endswith("svg")


def test_emission_is_deterministic(tmp_path):
    cfg = config_from_mapping(FAST | {"output": {"directory": str(tmp_path)}})
    first = emit(cfg, run(cfg), "run")[0].read_text()
    second = emit(cfg, run(cfg), "run")[0].read_text()
    assert first == second


def test_cross_validate_passes(tmp_path):
    cfg = config_from_mapping({
        "plan": {"measurements": 8},
        "engines": ["A", "C"],
        "output": {"directory": str(tmp_path)},
    })
    report = cross_validate(cfg)
    assert report.passed
    (pair,) = report.pairs
    assert pair.engines == "A/C"
    assert pair.max_rel_late <= 0.01
    assert pair.max_rel_early <= 0.10


@pytest.mark.parametrize("mapping", [
    {},
    # perfbench's run-default at seed 31: off-center packet, imposed result
    {"state": {"center": -0.48772}, "plan": {"result_value": -0.38760}},
], ids=["default", "off-center"])
def test_gaussian_scan_resolves_its_density(monkeypatch, mapping):
    """Engine C's Gaussian scans on their shipped outcome count read the
    rows of 3,201 outcomes to 1e-7 relative in delta_a_eff (5.6e-8 measured)
    and to 1e-5 in a_tilde (6.4e-6 measured)."""
    cfg = config_from_mapping({"engines": ["C"], **mapping})
    shipped = {r.n: r for r in run(cfg)}
    monkeypatch.setitem(collapse.SCAN_POINTS, "gaussian", 3201)
    fine = {r.n: r for r in run(cfg)}
    for n in (1, 8, 16):
        assert shipped[n].delta_a_eff == pytest.approx(fine[n].delta_a_eff, rel=1e-7, abs=0.0)
        assert shipped[n].a_tilde == pytest.approx(fine[n].a_tilde, rel=0.0, abs=1e-5)


def test_cross_validate_requirements():
    with pytest.raises(ConfigError):
        cross_validate(config_from_mapping({"engines": ["A"]}))
    with pytest.raises(ConfigError):
        cross_validate(config_from_mapping({"plan": {"measurements": 4}}))


def test_sweep_records(tmp_path):
    cfg = config_from_mapping({
        "engines": ["A"],
        "plan": {"measurements": 6},
        "sweep": {"start_over_period": 0.25, "stop_over_period": 0.75, "points": 3},
        "output": {"directory": str(tmp_path)},
    })
    records = sweep(cfg)
    assert [r.dt_over_T for r in records] == [0.25, 0.5, 0.75]
    assert all(r.n == 6 for r in records)
    # the half-period point is the quiet one
    assert records[1].delta_a_eff < records[0].delta_a_eff
    assert records[1].delta_a_eff < records[2].delta_a_eff


def test_sweep_every_engine(tmp_path, packet):
    cfg = config_from_mapping({
        "engines": ["A", "B", "C"],
        "plan": {"measurements": 4},
        "sweep": {"start_over_period": 0.25, "stop_over_period": 0.5, "points": 3},
        "numerics": {"lattice": {"points": 1201}},
        "output": {"directory": str(tmp_path)},
    })
    records = sweep(cfg)
    assert [r.engine for r in records] == ["A"] * 3 + ["B"] * 3 + ["C"] * 3
    assert all(r.n == 4 for r in records)
    exact = {r.dt_over_T: r.delta_a_eff for r in records[:3]}
    for r in records[3:]:
        assert abs(r.delta_a_eff - exact[r.dt_over_T]) <= 0.10 * exact[r.dt_over_T]
    # every engine's rows are the numbers its own chain gives, in plan order
    for r in records[:3]:
        res = stroboscopic_widths(5.0, r.dt_over_T * 2.0 * np.pi, 4, 1.0, 1e-5 * 2.0 * np.pi,
                                  0.5, 1.0)[-1]
        assert (r.delta_a_eff, r.a_tilde, r.norm) == (res.delta_a_eff, res.a_tilde,
                                                      res.norm_squared)
    for r in records[3:6]:
        plan = StroboscopicPlan(r.dt_over_T * 2.0 * np.pi, 4)
        res = run_stroboscopic(Lattice(points=1201), plan, 5.0, 1e-5 * 2.0 * np.pi, 0.5, 1.0,
                               scan_at={4})[-1]
        assert (r.delta_a_eff, r.a_tilde, r.norm) == (res.delta_a_eff, res.a_tilde,
                                                      res.norm_squared)
    # the packet fixture is the default config's initial state
    for r in records[6:]:
        res = uncertainty_evolution(StroboscopicPlan(r.dt_over_T * 2.0 * np.pi, 4), packet,
                                    scan_at={4})[-1]
        assert (r.delta_a_eff, r.a_tilde, r.norm) == (res.delta_a_eff, res.a_tilde,
                                                      res.norm_squared)


def _probe(cfg, plan, scan_at):
    """An engine adapter that leaves a marker named by its interval, holding
    the identity of the thread it ran in, and fails."""
    (Path(cfg.output.directory) / f"{plan.interval:.6f}").write_text(str(threading.get_ident()))
    raise ArithmeticError(f"probe at {plan.interval:.6f}")


def test_sweep_failure_skips_chains_not_started(tmp_path, monkeypatch):
    # on six CPUs too, the chains run one at a time in the calling thread, in
    # plan order, so the first chain's failure, at the shortest interval,
    # stops the sweep before any other chain starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    threads = set(threading.enumerate())
    monkeypatch.setitem(harness.ENGINES, "C", _probe)
    cfg = config_from_mapping({
        "engines": ["C"],
        "sweep": {"start_over_period": 0.025, "stop_over_period": 0.4, "points": 16},
        "output": {"directory": str(tmp_path)},
    })
    shortest = 0.025 * 2.0 * np.pi
    with pytest.raises(ArithmeticError, match=f"^probe at {shortest:.6f}$"):
        sweep(cfg)
    (marker,) = tmp_path.iterdir()
    assert marker.name == f"{shortest:.6f}"
    assert marker.read_text() == str(threading.get_ident())
    assert set(threading.enumerate()) <= threads


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_import_asks_for_one_blas_thread(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(harness.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import os, qmeasure; print(os.environ['OPENBLAS_NUM_THREADS'], "
         "os.environ['OMP_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split() == [expected, "1", "1"]


def test_distribution_emission(tmp_path):
    cfg = config_from_mapping({
        "engines": ["C"],
        "plan": {"measurements": 2},
        "output": {"directory": str(tmp_path), "formats": ["csv", "json", "svg"]},
    })
    dist = distribution(cfg)
    total = np.trapezoid(dist.density, dist.outcomes)
    assert total == pytest.approx(1.0, abs=1e-12)
    paths = emit_distribution(cfg, dist)
    text = (tmp_path / "distribution.csv").read_text()
    assert text.startswith(DISTRIBUTION_HEADER)
    doc = json.loads((tmp_path / "distribution.json").read_text())
    assert doc["distribution"]["engine"] == "C"
    assert len(doc["distribution"]["outcomes"]) == len(dist.outcomes)
    assert {p.name for p in paths} == {"distribution.csv", "distribution.json",
                                       "distribution.svg"}
    root = ET.fromstring((tmp_path / "distribution.svg").read_text())
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1


def test_single_measurement_chart(tmp_path):
    """A one-measurement run has a single x value; its chart still parses."""
    cfg = config_from_mapping({
        "plan": {"measurements": 1},
        "output": {"directory": str(tmp_path), "formats": ["svg"]},
    })
    (path,) = emit(cfg, run(cfg), "run")
    root = ET.fromstring(path.read_text())
    assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 2


def test_validate_config_is_idempotent():
    cfg = validate_config(ExperimentConfig())
    assert validate_config(cfg) == cfg
