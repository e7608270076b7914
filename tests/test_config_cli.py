"""Scenario-config validation and the command-line runner: exit codes,
artifacts, determinism and error reporting."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import peribond.cli
import peribond.density
from peribond.cli import main
from peribond.config import ConfigError, parse_config, validate_config
from peribond.grids import VectorField, box_grid, full_mask
from peribond.kernels import box_kernel
from peribond.materials import power_potential
from peribond.solver import DirichletProblem, LinearizationRow, LinearizationTable

GOOD_SAWTOOTH = {"experiment": "sawtooth", "seed": 7,
                 "sawtooth": {"N": 4, "delta": 0.02}}
GOOD_CHECKS = {"experiment": "checks", "seed": 3}
GOOD_DENSITY = {"experiment": "density", "seed": 1,
                "strain_m": 2,
                "potential": {"profile": "power", "p": 2.0},
                "density": {"matrices": [[1.0, 0.0, 0.0, 1.0],
                                         [2.0, 0.0, 0.0, 1.0]],
                            "order": 64}}
DOMAIN_1D = {"dim": 1, "lo": 0.0, "hi": 1.0, "n_cells": 16}
GOOD_LINEARIZE = {"experiment": "linearize", "domain": DOMAIN_1D,
                  "micropotential": {"tag": "mbm", "s0": 0.3},
                  "linearize": {"eps": [0.1, 0.05]}}
GOOD_MINIMIZE = {"experiment": "minimize", "domain": DOMAIN_1D,
                 "kernel": {"family": "box", "delta": 0.2},
                 "potential": {"profile": "power", "p": 2.0},
                 "minimize": {"datum": [1.0], "max_iters": 20}}
GOOD_LOCALIZE = {"experiment": "localize", "domain": DOMAIN_1D,
                 "potential": {"profile": "power", "p": 2.0},
                 "localize": {"datum": [1.0], "n_values": [2]}}
SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


def with_keys(cfg, block, **keys):
    """``cfg`` with ``keys`` set in ``block``."""
    return {**cfg, block: {**cfg[block], **keys}}


class TestValidation:
    def test_good_configs_pass(self, tmp_path):
        for cfg in (GOOD_SAWTOOTH, GOOD_CHECKS, GOOD_DENSITY):
            parsed = parse_config(write(tmp_path, "c.json", cfg))
            validate_config(parsed)  # should not raise

    def test_parse_error_kind(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            parse_config(write(tmp_path, "bad.json", "{not json"))
        assert exc.value.kind == "parse"

    def test_unknown_experiment(self, tmp_path):
        cfg = parse_config(write(tmp_path, "c.json", {"experiment": "warp"}))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.kind == "validation"

    def test_all_problems_collected(self, tmp_path):
        bad = {"experiment": "sawtooth", "seed": -1, "mystery": 1,
               "sawtooth": {"N": 0, "delta": -2.0}}
        cfg = parse_config(write(tmp_path, "c.json", bad))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        text = " ".join(exc.value.problems)
        assert "seed" in text and "mystery" in text
        assert "sawtooth.N" in text and "sawtooth.delta" in text
        assert len(exc.value.problems) >= 4

    def test_missing_required_block(self, tmp_path):
        cfg = parse_config(write(tmp_path, "c.json", {"experiment": "minimize"}))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert any("requires block" in p for p in exc.value.problems)

    def test_matrix_shape_checked(self, tmp_path):
        bad = dict(GOOD_DENSITY)
        bad["density"] = {"matrices": [[1.0, 2.0, 3.0]]}
        cfg = parse_config(write(tmp_path, "c.json", bad))
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_eps_must_decrease(self, tmp_path):
        bad = {"experiment": "linearize",
               "domain": {"dim": 1, "lo": 0.0, "hi": 1.0, "n_cells": 32},
               "micropotential": {"tag": "quartic"},
               "linearize": {"eps": [0.1, 0.2]}}
        cfg = parse_config(write(tmp_path, "c.json", bad))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert any("decreasing" in p for p in exc.value.problems)


class TestSchema:
    @pytest.mark.parametrize("cfg,word", [
        (with_keys(GOOD_DENSITY, "density", ordr=16), "ordr"),
        (with_keys(GOOD_DENSITY, "density", laminate_serch=False), "laminate_serch"),
        (with_keys(GOOD_DENSITY, "density", laminate_search="false"),
         "density.laminate_search"),
        (with_keys(GOOD_DENSITY, "density", matrices=[[1.0, 0.0, 0.0, 1.0], [2.0]]),
         "density.matrices"),
        ({"experiment": "laminate", "laminate": {"lam": [0.5], "n_values": [1, True]}},
         "laminate.n_values"),
        (with_keys(GOOD_LINEARIZE, "micropotential", s0="abc"), "micropotential.s0"),
        (with_keys(GOOD_LINEARIZE, "micropotential", zeta=1.0), "zeta"),
        (with_keys(GOOD_LINEARIZE, "micropotential", tag="modified_mbm", s0=0),
         "micropotential.s0"),
        (with_keys(GOOD_LINEARIZE, "micropotential", tag="mbm", c=-2), "micropotential.c"),
        # a config cannot pass the profile f that fprime0 describes
        (with_keys(GOOD_LINEARIZE, "micropotential", tag="cohesive", fprime0=7.0),
         "fprime0"),
    ], ids=["misspelled-order", "misspelled-laminate-search", "string-bool",
            "mixed-d-matrices", "bool-in-n-values", "non-numeric-param",
            "undeclared-param", "zero-s0", "negative-c", "fprime0-without-f"])
    def test_rejected(self, tmp_path, cfg, word):
        with pytest.raises(ConfigError) as exc:
            validate_config(parse_config(write(tmp_path, "c.json", cfg)))
        assert exc.value.kind == "validation"
        assert any(word in p for p in exc.value.problems)

    @pytest.mark.parametrize("cfg", [
        with_keys(GOOD_MINIMIZE, "minimize", datum=[1.0, 0.0, 0.0, 1.0]),
        with_keys(GOOD_LOCALIZE, "localize", datum=[1.0, 0.0, 0.0, 1.0]),
        {"experiment": "sawtooth", "sawtooth": 5},
        {"experiment": "rigidity", "rigidity": [8]},
        {"experiment": ["density"]},
        {"experiment": {"a": 1}},
        # the default collar, twice the unit support radius, is not below
        # half the node span 31/32
        {**GOOD_MINIMIZE, "domain": {**DOMAIN_1D, "n_cells": 32},
         "kernel": {"family": "fractional", "s": 0.5, "p": 2}},
        {**GOOD_MINIMIZE, "domain": {**DOMAIN_1D, "collar": 0.5}},
        # the default collar 0.1 is not below half the node span 0.065625 of
        # the 8-cell grid on [0, 0.15] that localize builds at n = 2
        {**GOOD_LOCALIZE, "domain": {"dim": 1, "lo": 0.0, "hi": 0.15, "n_cells": 8}},
        # a catalog parameter the tag does not read
        {**GOOD_LINEARIZE, "micropotential": {"tag": "quartic", "c": 5.0}},
        {**GOOD_LINEARIZE, "micropotential": {"tag": "two_well", "c": 9.0}},
        {**GOOD_LINEARIZE, "micropotential": {"tag": "mbm_smooth", "s0": 0.3}},
        {**GOOD_LINEARIZE, "micropotential": {"tag": "cohesive", "s0": 0.3}},
    ], ids=["minimize-datum-d", "localize-datum-d", "number-block", "list-block",
            "list-experiment", "object-experiment", "minimize-default-collar",
            "minimize-given-collar", "localize-default-collar", "quartic-c",
            "two_well-c", "mbm_smooth-s0", "cohesive-s0"])
    def test_rejected_before_running(self, tmp_path, capsys, cfg):
        path = write(tmp_path, "c.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "validation"
        assert main(["validate", path]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("experiment", ["minimize", "localize"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_collar_rule_matches_the_problem(self, tmp_path, capsys, dim, experiment):
        """validate accepts a collar exactly when DirichletProblem does on the
        run's coarsest grid: minimize's one grid, or localize's at n = 1 of
        n_values [1, 2] (7 cells per axis; n = 2 gets 8)."""
        domain = {"dim": dim, "lo": -0.3, "hi": 0.7, "n_cells": 7}
        grid = box_grid(dim, -0.3, 0.7, 7)
        x = grid.nodes()
        half = 0.5 * float(np.linalg.norm(x.max(axis=0) - x.min(axis=0)))
        datum = np.eye(dim).ravel().tolist()
        block = {"datum": datum} if experiment == "minimize" else {"datum": datum,
                                                                   "n_values": [1, 2]}
        base = GOOD_MINIMIZE if experiment == "minimize" else GOOD_LOCALIZE
        results = []
        for collar in (np.nextafter(half, 0.0), half, np.nextafter(half, 1.0)):
            try:
                DirichletProblem(full_mask(grid, collar), VectorField(grid, x),
                                 box_kernel(dim), power_potential(2.0))
                accepted = True
            except ValueError:
                accepted = False
            cfg = with_keys({**base, "domain": domain, experiment: block},
                            "domain", collar=float(collar))
            results.append((accepted, main(["validate", write(tmp_path, "c.json", cfg)])))
            capsys.readouterr()
        assert results == [(True, 0), (False, 3), (False, 3)]

    @pytest.mark.parametrize("law,n,cells", [("1/n", 49, 196), ("1/n", 98, 392),
                                             ("1/n", 103, 412), ("1/n", 107, 428),
                                             ("1/n^2", 7, 196)])
    def test_localize_grid_law_keeps_integer_quotients(self, law, n, cells):
        """Four cells per horizon on [0, 1]: where 4 / delta is an integer up
        to round-off, the grid gets that many cells, not one more."""
        cfg = validate_config(with_keys(GOOD_LOCALIZE, "localize", delta_law=law,
                                         n_values=[n]))
        assert peribond.cli._localize_grid(cfg, n).n_cells == cells

    def test_null_h_runs(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", with_keys(GOOD_SAWTOOTH, "sawtooth", h=None))
        assert main(["validate", cfg]) == 0
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()

    def test_defaults_filled_in(self, tmp_path):
        cfg = validate_config(parse_config(write(tmp_path, "c.json", {
            "experiment": "rigidity", "seed": 2.0})))
        assert cfg["seed"] == 2 and isinstance(cfg["seed"], int)
        cfg = validate_config(parse_config(write(tmp_path, "c.json", {
            "experiment": "rigidity", "seed": 2**64 - 1})))
        assert cfg["seed"] == 2**64 - 1  # integers are not parsed as floats
        assert cfg["rigidity"] == {"trials": 5, "resolution": 64}
        assert cfg["strain_m"] == 1
        cfg = validate_config(parse_config(write(tmp_path, "c.json", GOOD_DENSITY)))
        assert cfg["density"]["laminate_search"] is True
        assert cfg["density"]["order"] == 64

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_validates(self, path, capsys):
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()


class TestCliExitCodes:
    def test_run_ok(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", GOOD_SAWTOOTH)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "pass" in capsys.readouterr().out

    def test_sawtooth_one_percent_off_fails(self, tmp_path, capsys, monkeypatch):
        # at the default h = delta/32 the error is 1.03e-3; 1e-2 is a wrong value
        exact = peribond.cli.sawtooth_energy

        def off(*args):
            r = exact(*args)
            assert r.h == r.delta / 32
            return dataclasses.replace(r, value=1.01 * r.expected, rel_error=0.01)

        monkeypatch.setattr(peribond.cli, "sawtooth_energy", off)
        out = tmp_path / "out"
        assert main(["run", write(tmp_path, "c.json", GOOD_SAWTOOTH), "--out", str(out)]) == 1
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["contracts"] == {"closed_form_match": False}

    def test_parse_error_is_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.json", "{oops")
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse"
        assert json.loads((tmp_path / "out" / "error.json").read_text())["error"] == "parse"

    @pytest.mark.parametrize("cfg,constant", [
        (with_keys(GOOD_LINEARIZE, "linearize", eps=[float("inf"), 0.1, 0.05]), "Infinity"),
        (with_keys(GOOD_LINEARIZE, "linearize", eps=[0.1, float("nan")]), "NaN"),
        ({"experiment": "energy", "domain": DOMAIN_1D,
          "kernel": {"family": "box", "delta": float("inf")},
          "potential": {"profile": "power", "p": 2.0}}, "Infinity"),
        ({**GOOD_MINIMIZE, "minimize": {"datum": [-float("inf")], "max_iters": 20}},
         "-Infinity"),
        (json.dumps(with_keys(GOOD_LINEARIZE, "linearize", eps=[float("inf"), 0.1, 0.05]))
         .replace("Infinity", "1e999"), "1e999"),
        (json.dumps({"experiment": "energy", "domain": DOMAIN_1D,
                     "kernel": {"family": "box", "delta": float("inf")},
                     "potential": {"profile": "power", "p": 2.0}})
         .replace("Infinity", "1e999"), "1e999"),
        (json.dumps({**GOOD_MINIMIZE, "minimize": {"datum": [-float("inf")], "max_iters": 20}})
         .replace("Infinity", "1e400"), "-1e400"),
        (json.dumps({"experiment": "energy", "domain": DOMAIN_1D,
                     "kernel": {"family": "box", "delta": "BIG"},
                     "potential": {"profile": "power", "p": 2.0}})
         .replace('"BIG"', "1" + "0" * 400), "1" + "0" * 400),
        (json.dumps({**GOOD_MINIMIZE, "minimize": {"datum": [1.0], "max_iters": "BIG"}})
         .replace('"BIG"', "-" + "9" * 4301), "-" + "9" * 4301),
    ], ids=["linearize_eps_inf", "linearize_eps_nan", "energy_delta_inf", "datum_minus_inf",
            "linearize_eps_1e999", "energy_delta_1e999", "datum_minus_1e400",
            "energy_delta_401_digits", "max_iters_4301_digits"])
    def test_non_finite_number_is_a_parse_error(self, tmp_path, capsys, cfg, constant):
        # json.dumps writes inf and nan as these constants, and json.load
        # would read them back, as it reads a number that overflows to
        # infinity; an integer past float range would fail in float(), or
        # past int's digit limit in json.load itself; a config holds finite
        # numbers only
        cfg = write(tmp_path, "c.json", cfg)
        assert constant in Path(cfg).read_text()
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse" and constant in err["detail"][0]

    def test_validation_error_is_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {"experiment": "sawtooth",
                                         "sawtooth": {"N": 0, "delta": 0.1}})
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"

    def test_laminate_guard_is_4(self, tmp_path, capsys, monkeypatch):
        # the sandwich guard of the laminate search is a numerical failure
        monkeypatch.setattr(peribond.density, "density_lower", lambda *a, **k: 1e9)
        cfg = write(tmp_path, "c.json", GOOD_DENSITY)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 4
        err = json.loads((tmp_path / "out" / "error.json").read_text())
        assert err["error"] == "numerical"
        assert "below the lower bound" in err["detail"]
        assert json.loads(capsys.readouterr().err) == err

    @pytest.mark.parametrize("fault", [RecursionError, NotImplementedError])
    def test_program_fault_is_not_numerical(self, tmp_path, capsys, monkeypatch, fault):
        def compute_bounds(*args, **kwargs):
            raise fault("fault")

        monkeypatch.setattr(peribond.cli, "compute_bounds", compute_bounds)
        cfg = write(tmp_path, "c.json", GOOD_DENSITY)
        with pytest.raises(fault):
            main(["run", cfg, "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out" / "error.json").exists()

    def test_validate_subcommand(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", GOOD_SAWTOOTH)
        assert main(["validate", good]) == 0
        bad = write(tmp_path, "bad.json", {"experiment": "nope"})
        assert main(["validate", bad]) == 3
        capsys.readouterr()

    def test_list_catalog(self, capsys):
        assert main(["list-catalog"]) == 0
        out = capsys.readouterr().out
        for word in ("experiments:", "sawtooth", "box", "fractional",
                     "quartic", "mbm", "cohesive"):
            assert word in out


class TestArtifacts:
    def test_summary_schema_and_csv(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", GOOD_SAWTOOTH)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["experiment"] == "sawtooth"
        assert summary["seed"] == 7
        assert summary["passed"] is True
        assert summary["artifacts"] == ["sawtooth.csv"]
        assert all(isinstance(v, bool) for v in summary["contracts"].values())
        lines = (out / "sawtooth.csv").read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "N"
        assert len(lines) == 2

    def test_flagged_linearization_row_kept(self, tmp_path, capsys):
        # u = x^2 at eps = 1 maps the nodes x and -1 - x of [-1, 0] onto one
        # point, so the first row leaves the strain domain
        cfg = write(tmp_path, "c.json", {
            "experiment": "linearize", "seed": 0,
            "domain": {"dim": 1, "lo": -1.0, "hi": 0.0, "n_cells": 16},
            "micropotential": {"tag": "quartic"},
            "linearize": {"eps": [1.0, 0.1, 0.05, 0.025], "support_radius": 0.25}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "linearize.csv").read_text().strip().splitlines()
        assert lines[0] == "eps,E_eps,E0,abs_err,flagged"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["1", "0.10000000000000001",
                                        "0.050000000000000003", "0.025000000000000001"]
        assert rows[0][1] == rows[0][3] == "nan" and rows[0][4] == "true"
        assert all(r[4] == "false" and r[1] != "nan" for r in rows[1:])

    def test_minimize_reports_stop_reason(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "experiment": "minimize", "seed": 0,
            "domain": {"dim": 1, "lo": 0.0, "hi": 1.0, "n_cells": 32, "collar": 0.15},
            "kernel": {"family": "box", "delta": 0.1},
            "potential": {"profile": "power", "p": 2.0},
            "minimize": {"datum": [0.5]}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())["summary"]
        # the winning start relaxes the compressed datum
        assert summary["stop_reason"] == "converged"
        assert summary["converged"] is True
        assert summary["iterations"] > 0

    def test_energy_summary_holds_the_csv_columns(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", {
            "experiment": "energy", "domain": DOMAIN_1D,
            "kernel": {"family": "box", "delta": 0.2},
            "potential": {"profile": "power", "p": 2.0}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "summary.json").read_text())
        assert payload["contracts"] == {"identity_zero_energy": True}
        assert sorted(payload["summary"]) == ["h", "pair_count", "value"]
        assert (out / "energy.csv").read_text().splitlines()[0] == "value,pair_count,h"

    def test_3d_density_laminate_flag_changes_nothing(self, tmp_path, capsys):
        # the laminate search runs only for d = 2
        cfg = {**GOOD_DENSITY, "density": {"matrices": [[1.2, 0, 0, 0, 0.9, 0, 0, 0, 0.7]],
                                           "order": 8}}
        outs = []
        for search in (True, False):
            out = tmp_path / f"out{search}"
            path = write(tmp_path, "c.json",
                         with_keys(cfg, "density", laminate_search=search))
            assert main(["run", path, "--out", str(out)]) == 0
            outs.append((out / "density.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_seed_override(self, tmp_path, capsys):
        cfg = write(tmp_path, "c.json", GOOD_CHECKS)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out), "--seed", "99"]) == 0
        capsys.readouterr()
        assert json.loads((out / "summary.json").read_text())["seed"] == 99


class TestLinearizationRate:
    def test_second_order_passes(self, tmp_path, capsys):
        # cohesive bonds at strain order 2 converge at second order here
        cfg = write(tmp_path, "c.json", {
            "experiment": "linearize", "strain_m": 2,
            "domain": {"dim": 3, "lo": 0.0, "hi": 1.0, "n_cells": 12},
            "micropotential": {"tag": "cohesive"},
            "linearize": {"eps": [0.1, 0.05, 0.025], "field": "sinusoid"}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "summary.json").read_text())["summary"]["slope"] > 1.9

    @pytest.mark.parametrize("slope", [0.79, None])
    def test_below_first_order_fails(self, tmp_path, capsys, monkeypatch, slope):
        table = LinearizationTable((LinearizationRow(0.1, 1.0, 0.1, False),), 0.9, slope)
        monkeypatch.setattr(peribond.cli, "linearization_experiment", lambda *a, **k: table)
        cfg = write(tmp_path, "c.json", GOOD_LINEARIZE)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("tag,field", [("mbm_smooth", "quadratic"),
                                           ("mbm_smooth", "sinusoid"),
                                           ("two_well", "quadratic")])
    def test_limit_reached_to_rounding_passes(self, tmp_path, capsys, tag, field):
        # |E_eps - E0| is at most 2.2e-16 here, so the fitted slope (about 0:
        # the same rounding at every eps) measures rounding noise, not the rate
        cfg = write(tmp_path, "c.json", {
            **GOOD_LINEARIZE, "strain_m": 1, "domain": {**DOMAIN_1D, "n_cells": 64},
            "micropotential": {"tag": tag},
            "linearize": {"eps": [0.1, 0.05, 0.025, 0.0125], "field": field}})
        out = tmp_path / "out"
        assert main(["run", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads((out / "summary.json").read_text())["summary"]["slope"] < 0.8

    def test_all_rows_flagged_fails(self, tmp_path, capsys, monkeypatch):
        # no unflagged error is left to be at rounding level, even with E0 = 0
        nan = float("nan")
        table = LinearizationTable((LinearizationRow(0.1, nan, nan, True),), 0.0, None)
        monkeypatch.setattr(peribond.cli, "linearization_experiment", lambda *a, **k: table)
        cfg = write(tmp_path, "c.json", GOOD_LINEARIZE)
        assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
        capsys.readouterr()


class TestDeterminism:
    def run_twice(self, tmp_path, cfg_payload, extra_second=()):
        cfg = write(tmp_path, "c.json", cfg_payload)
        outs = []
        for i, extra in enumerate([(), tuple(extra_second)]):
            out = tmp_path / f"out{i}"
            code = main(["run", cfg, "--out", str(out), *extra])
            assert code == 0
            outs.append(out)
        return outs

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        a, b = self.run_twice(tmp_path, GOOD_DENSITY)
        capsys.readouterr()
        assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_thread_count_does_not_change_output(self, tmp_path, capsys):
        a, b = self.run_twice(tmp_path, GOOD_DENSITY, extra_second=("--threads", "8"))
        capsys.readouterr()
        assert (a / "density.csv").read_bytes() == (b / "density.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_checks_reproducible_from_seed(self, tmp_path, capsys):
        a, b = self.run_twice(tmp_path, GOOD_CHECKS)
        capsys.readouterr()
        assert (a / "checks.csv").read_bytes() == (b / "checks.csv").read_bytes()

    def test_reused_parser_writes_what_a_fresh_one_does(self, tmp_path, capsys):
        # main builds its parser once per process: a run, a run with other
        # options, validate, a config error and a run again, each against
        # the same call on a newly built parser
        good = write(tmp_path, "good.json", GOOD_DENSITY)
        bad = write(tmp_path, "bad.json", {"experiment": "sawtooth",
                                           "sawtooth": {"N": 0, "delta": 0.1}})

        def session(root, fresh):
            seen = []
            for argv in (["run", good, "--out", f"{root}/a"],
                         ["run", good, "--seed", "5", "--out", f"{root}/b"],
                         ["validate", good],
                         ["run", bad, "--out", f"{root}/c"],
                         ["run", good, "--out", f"{root}/d"]):
                if fresh:
                    peribond.cli.build_parser.cache_clear()
                code = main(argv)
                out, err = capsys.readouterr()
                seen.append((code, out.replace(str(root), "ROOT"), err))
            files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            return seen, files

        reused = session(tmp_path / "reused", False)
        assert peribond.cli.build_parser() is peribond.cli.build_parser()
        assert [code for code, _, _ in reused[0]] == [0, 0, 0, 3, 0]
        assert session(tmp_path / "fresh", True) == reused
        assert reused[1][Path("a/summary.json")] == reused[1][Path("d/summary.json")]
        assert reused[1][Path("a/summary.json")] != reused[1][Path("b/summary.json")]


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path, child_env):
        cfg = write(tmp_path, "c.json", GOOD_SAWTOOTH)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from peribond.cli import main; sys.exit(main(sys.argv[1:]))",
             "run", cfg, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0
        assert "pass" in proc.stdout

    def test_import_loads_no_scipy_submodule(self, child_env):
        # scipy.ndimage loads only where it runs, and numpy.polynomial only
        # where a Gauss-Legendre rule is built
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy; before = set(sys.modules); import peribond, peribond.cli; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.startswith(('scipy.ndimage', 'scipy.sparse', 'numpy.polynomial'))))"],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_minimizers_load_no_scipy_sparse(self, tmp_path, child_env):
        # one-run pair sets gather and scatter through numpy index arrays:
        # the shipped localize run and a 2D multistart never import scipy.sparse
        config = Path(__file__).resolve().parents[1] / "configs" / "localize.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; import numpy as np; import peribond as pb; "
             "from peribond.cli import main; "
             "assert main(['run', sys.argv[1], '--out', sys.argv[2]]) == 0; "
             "g = pb.box_grid(2, 0.0, 1.0, 22); "
             "prob = pb.DirichletProblem(pb.full_mask(g, 0.125), "
             "pb.affine_field(g, np.array([[1.2, 0.1], [0.0, 0.9]])), "
             "pb.make_rescaled(pb.box_kernel(2), 0.125), pb.power_potential(2.0)); "
             "pb.minimize_multistart(prob); print('scipy.sparse' in sys.modules)",
             str(config), str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "False"
