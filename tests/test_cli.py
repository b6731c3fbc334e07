"""End-to-end checks of the command-line interface.

Everything goes through ``main(argv)`` so the tests exercise argument
parsing, config merging, and the exit-code contract exactly as a shell
user would hit them.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzsim import cli, experiments, noise
from mzsim.cli import CSV_COLUMNS, main
from mzsim.experiments import (
    ExperimentSpec,
    chain_angles_for_sweep,
    equal_angles,
    eta_general,
    gamma_closed,
)
from mzsim.qasm import emit, parse
from mzsim.experiments import build_eraser, build_general_bomb


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestRunExact:
    def test_eraser_erased_probabilities(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["experiment"] == "eraser"
        assert doc["observable"] == "distribution"
        assert doc["exact"] is True
        assert doc["shots"] is None
        assert doc["device"] == "ideal"
        assert doc["fidelity_estimate"] == 1.0
        assert doc["probabilities"]["00"] == pytest.approx(0.5, abs=1e-12)
        assert doc["probabilities"]["11"] == pytest.approx(0.5, abs=1e-12)
        assert doc["theory"] == {"00": 0.5, "01": 0.0, "10": 0.0, "11": 0.5}
        assert doc["parameters"] == {"erase": True}

    def test_eraser_without_erasure_is_uniform(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--no-erase", "--exact")
        assert code == 0
        doc = json.loads(out)
        for key in ("00", "01", "10", "11"):
            assert doc["probabilities"][key] == pytest.approx(0.25, abs=1e-12)

    def test_bomb_eta_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--exact",
            "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 1
        row = rows[0]
        assert row["experiment"] == "bomb"
        assert row["observable"] == "eta"
        assert row["N"] == "2"
        assert float(row["value"]) == pytest.approx(1 / 3, abs=1e-12)
        assert float(row["theory"]) == pytest.approx(1 / 3, abs=1e-12)
        assert row["shots"] == "" and row["seed"] == ""
        assert row["device"] == "ideal"
        assert row["mitigated"] == "false"

    def test_bomb_absent_collapses_to_00(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--no-bomb", "--exact")
        doc = json.loads(out)
        assert code == 0
        assert doc["value"]["00"] == pytest.approx(1.0)
        assert all(v < 1e-12 for k, v in doc["value"].items() if k != "00")
        assert doc["theory"]["00"] == 1.0

    def test_general_bomb_matches_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "general-bomb",
            "--angles", "0.25,0.25,0.25,0.25", "--exact")
        assert code == 0
        doc = json.loads(out)
        expected = eta_general(equal_angles(4))
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
        assert doc["theory"] == pytest.approx(expected, abs=1e-12)
        assert doc["parameters"]["angles_over_pi"] == pytest.approx([0.25] * 4)

    def test_hardy_gamma(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "hardy",
            "--theta0", "0.575", "--theta1", "0.575", "--exact")
        assert code == 0
        doc = json.loads(out)
        expected = gamma_closed(0.575 * np.pi, 0.575 * np.pi)
        assert doc["value"] == pytest.approx(expected, abs=1e-9)
        assert doc["observable"] == "gamma"
        assert doc["parameters"]["theta0_over_pi"] == pytest.approx(0.575)

    def test_eraser_csv_distribution_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact",
            "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["observable"] for r in rows] == [
            "p_00", "p_01", "p_10", "p_11"]
        probs = {r["observable"]: float(r["value"]) for r in rows}
        assert probs["p_00"] == pytest.approx(0.5, abs=1e-12)
        assert probs["p_11"] == pytest.approx(0.5, abs=1e-12)
        assert probs["p_01"] == pytest.approx(0.0, abs=1e-12)
        assert float(rows[0]["theory"]) == 0.5


class TestRunSampled:
    def test_ideal_sampling_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser",
            "--shots", "4096", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        assert doc["shots"] == 4096
        assert doc["seed"] == 7
        assert sum(doc["counts"].values()) == 4096
        # the erased interferometer never produces 01 or 10
        assert set(doc["counts"]) <= {"00", "11"}
        total = sum(doc["value"].values())
        assert total == pytest.approx(1.0)

    def test_same_seed_is_byte_identical(self, capsys):
        _, first, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        _, second, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        assert first == second

    def test_different_seeds_differ(self, capsys):
        _, first, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "3")
        _, second, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--shots", "2048",
            "--seed", "4")
        assert json.loads(first)["counts"] != json.loads(second)["counts"]

    def test_noisy_device_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "bomb", "--device", "vigo",
            "--shots", "1024", "--seed", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["device"] == "vigo-0820"
        assert 0.0 < doc["fidelity_estimate"] < 1.0
        assert doc["error_estimate"] == pytest.approx(
            1.0 - doc["fidelity_estimate"])
        assert doc["swap_count"] == 0
        assert sum(doc["counts"].values()) == 1024

    def test_mitigated_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--device", "vigo",
            "--shots", "4096", "--seed", "1", "--mitigate")
        assert code == 0
        doc = json.loads(out)
        probs = doc["mitigated_probabilities"]
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in probs.values())
        assert isinstance(doc["mitigated_value"], dict)

    def test_mitigated_csv_rows_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "hardy",
            "--theta0", "0.5", "--theta1", "0.5",
            "--device", "vigo", "--shots", "1024", "--seed", "5",
            "--mitigate", "--format", "csv")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["mitigated"] for r in rows] == ["false", "true"]
        assert all(r["observable"] == "gamma" for r in rows)
        assert all(r["theta0_over_pi"] == "0.5" for r in rows)
        assert all(r["device"] == "vigo-0820" for r in rows)


class TestConfigFile:
    def test_config_supplies_everything(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "experiment": "bomb", "bomb": False, "exact": True,
        }))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == {"present": False}
        assert doc["exact"] is True

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "experiment": "bomb", "bomb": False, "exact": True,
        }))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--bomb")
        assert code == 0
        assert json.loads(out)["parameters"] == {"present": True}

    def test_config_seed_and_shots(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "experiment": "eraser", "shots": 512, "seed": 11,
        }))
        code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
        doc = json.loads(out)
        assert code == 0
        assert doc["shots"] == 512 and doc["seed"] == 11

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "config file not found" in err

    def test_config_not_json(self, capsys, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "not valid JSON" in err

    def test_config_not_an_object(self, capsys, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2, 3]")
        code, _, err = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2
        assert "JSON object" in err


class TestRunErrors:
    def test_experiment_required(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 2
        assert "experiment is required" in err

    def test_mitigate_needs_device(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "eraser", "--mitigate")
        assert code == 2
        assert "needs a noisy device" in err

    def test_general_bomb_needs_angles(self, capsys):
        code, _, err = run_cli(capsys, "run", "--experiment", "general-bomb")
        assert code == 2
        assert "--angles" in err

    def test_hardy_needs_thetas(self, capsys):
        code, _, err = run_cli(capsys, "run", "--experiment", "hardy")
        assert code == 2
        assert "--theta0" in err

    def test_bad_angle_list(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "general-bomb",
            "--angles", "0.3,oops")
        assert code == 2
        assert err == "error: bad angles '0.3,oops': could not convert string to float: 'oops'\n"

    def test_angles_violating_sum_rule(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "general-bomb",
            "--angles", "0.5,0.9", "--exact")
        assert code == 2
        assert "sum" in err

    def test_unknown_device(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "eraser", "--device", "andromeda")
        assert code == 2
        assert "neither" in err

    def test_invalid_experiment_choice_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "run", "--experiment", "nope")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("shots", [2**32 + 1, 10**12])
    @pytest.mark.parametrize("device", [(), ("--device", "vigo")], ids=["ideal", "vigo"])
    def test_shots_beyond_the_streams_exit_2_before_sampling(self, capsys, monkeypatch,
                                                              shots, device):
        def sample(*args, **kwargs):
            raise AssertionError("sampled past the shot cap")

        monkeypatch.setattr("mzsim.cli.simulate_noisy", sample)
        monkeypatch.setattr("mzsim.cli.ideal_counts", sample)
        code, out, err = run_cli(capsys, "run", "--experiment", "bomb", "--shots", str(shots),
                                 *device)
        assert code == 2
        assert out == ""
        assert err == f"error: shots must be at most 2**32, the streams one seed gives, " \
                      f"got {shots}\n"

    @pytest.mark.parametrize("command", [
        ("run", "--experiment", "bomb"),
        ("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.6",
         "--theta-step", "0.1"),
    ])
    def test_out_of_memory_exits_3_without_traceback(self, capsys, monkeypatch, command):
        def sample(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.45 GiB for an array")

        monkeypatch.setattr("mzsim.cli.simulate_noisy", sample)  # run
        monkeypatch.setattr("mzsim.cli.simulate_noisy_points", sample)  # sweep
        code, out, err = run_cli(capsys, *command, "--device", "vigo", "--shots", "4294967296")
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.45 GiB for an array\n"

    def test_output_into_missing_directory(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact",
            "--output", str(tmp_path / "no" / "such" / "dir" / "out.json"))
        assert code == 3
        assert err.startswith("error:")

    def test_output_file_written(self, capsys, tmp_path):
        target = tmp_path / "doc.json"
        code, out, _ = run_cli(
            capsys, "run", "--experiment", "eraser", "--exact",
            "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["probabilities"]["00"] == pytest.approx(0.5)


class TestSweep:
    def test_ideal_general_bomb_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2,3",
            "--theta-start", "0.3", "--theta-stop", "0.5",
            "--theta-step", "0.1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == list(CSV_COLUMNS)
        assert len(rows) == 6  # 2 chain lengths x 3 grid points
        for row in rows:
            n = int(row["N"])
            t = float(row["theta_over_pi"])
            expected = eta_general(chain_angles_for_sweep(t * np.pi, n))
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)
            assert float(row["theory"]) == pytest.approx(expected, abs=1e-9)
            assert row["device"] == "ideal"
            assert row["shots"] == "" and row["seed"] == ""
            assert row["mitigated"] == "false"
        assert [float(r["theta_over_pi"]) for r in rows[:3]] == [0.3, 0.4, 0.5]

    def test_config_n_values_list_sweeps_each_length(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "general-bomb", "n_values": [2, 3], "theta_start": 0.4,
            "theta_stop": 0.4, "theta_step": 0.1,
        }))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert [row["N"] for row in rows] == ["2", "3"]
        for row in rows:
            expected = eta_general(chain_angles_for_sweep(0.4 * np.pi, int(row["N"])))
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)

    def test_hardy_diagonal(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.6",
            "--theta-step", "0.05")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3
        for row in rows:
            t = float(row["theta_over_pi"])
            assert row["theta0_over_pi"] == row["theta1_over_pi"]
            assert float(row["theta0_over_pi"]) == t
            expected = gamma_closed(t * np.pi, t * np.pi)
            assert float(row["value"]) == pytest.approx(expected, abs=1e-9)
            assert row["observable"] == "gamma"

    def test_hardy_full_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.4", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--hardy-grid", "full")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4
        combos = {(r["theta0_over_pi"], r["theta1_over_pi"]) for r in rows}
        assert combos == {("0.4", "0.4"), ("0.4", "0.5"),
                          ("0.5", "0.4"), ("0.5", "0.5")}
        assert all(r["theta_over_pi"] == "" for r in rows)

    def test_noisy_sweep_with_repeats(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2", "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--device", "vigo-0820",
            "--shots", "500", "--seed", "0", "--repeats", "2")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 3  # one exact row + two sampled repeats
        ideal, first, second = rows
        assert ideal["device"] == "ideal" and ideal["std_dev"] == ""
        # sampled rows carry self-reproducing derived seeds
        for r, row in enumerate((first, second)):
            expected_seed = int(
                np.random.SeedSequence((0, 0, r)).generate_state(1)[0])
            assert row["seed"] == str(expected_seed)
            assert row["shots"] == "500"
            assert row["device"] == "vigo-0820"
        values = [float(first["value"]), float(second["value"])]
        for row in (first, second):
            assert float(row["std_dev"]) == pytest.approx(np.std(values))

    def test_mitigated_sweep_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2", "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--device", "vigo-0820",
            "--shots", "500", "--seed", "2", "--repeats", "2", "--mitigate")
        assert code == 0
        _, rows = parse_csv(out)
        assert [r["mitigated"] for r in rows] == [
            "false", "false", "false", "true", "true"]

    @pytest.mark.parametrize("base", [0, 7, 2**32 + 3, 2**64 + 5])
    def test_derived_seeds_match_seed_sequence(self, base):
        """Bases of 1, 2 and 3 words, and a sweep with no point to sample."""
        assert cli._derived_seeds(base, 3, 4) == [
            [int(np.random.SeedSequence((base, index, r)).generate_state(1)[0]) for r in range(4)]
            for index in range(3)]
        assert cli._derived_seeds(base, 0, 2) == []

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["observable"] == "gamma"

    def test_sweep_determinism(self, capsys):
        argv = ("sweep", "--experiment", "hardy", "--theta-start", "0.55",
                "--theta-stop", "0.6", "--theta-step", "0.05",
                "--device", "vigo", "--shots", "400", "--seed", "9",
                "--repeats", "2")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_sweep_output_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--output", str(target))
        assert code == 0 and out == ""
        header, rows = parse_csv(target.read_text())
        assert header == list(CSV_COLUMNS) and len(rows) == 1


@pytest.mark.parametrize("command, config", [
    ("run", None), ("run", {"exact": True}), ("sweep", None),
    ("sweep", {"theta_start": 0.5, "theta_stop": 0.5, "theta_step": 0.1}),
], ids=["run", "run-config", "sweep", "sweep-config"])
def test_a_missing_experiment_is_refused_in_one_wording(capsys, tmp_path, command, config):
    argv = [command]
    if command == "sweep" and config is None:
        argv += ["--theta-start", "0.5", "--theta-stop", "0.5", "--theta-step", "0.1"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: an experiment is required (--experiment or config file)\n"


class TestSweepErrors:
    def test_missing_grid_flags(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5")
        assert code == 2
        assert "--theta-stop" in err

    def test_general_bomb_needs_n_values(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--theta-start", "0.3", "--theta-stop", "0.5",
            "--theta-step", "0.1")
        assert code == 2
        assert "--n-values" in err

    def test_unsupported_sweep_via_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "eraser", "theta_start": 0.3,
            "theta_stop": 0.5, "theta_step": 0.1,
        }))
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "sweep supports" in err

    def test_grid_point_on_boundary(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "general-bomb",
            "--n-values", "2", "--theta-start", "0.5",
            "--theta-stop", "1.0", "--theta-step", "0.5")
        assert code == 2
        assert "strictly inside" in err

    def test_negative_step(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.6",
            "--theta-step", "-0.1")
        assert code == 2
        assert "positive" in err

    def test_empty_range(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.6", "--theta-stop", "0.5",
            "--theta-step", "0.1")
        assert code == 2
        assert "empty" in err

    @pytest.mark.parametrize("device", [(), ("--device", "vigo")], ids=["ideal", "vigo"])
    def test_undefined_point_exits_3_after_sampling_the_points_before_it(
            self, capsys, monkeypatch, device):
        """At theta = pi post-selection rejects every shot (ROADMAP known defect 4);
        the sweep stops there, having sampled only the points before it."""
        sampled = []

        def sample(points, *args, **kwargs):
            sampled.extend(points)
            return noise.simulate_noisy_points(points, *args, **kwargs)

        monkeypatch.setattr("mzsim.cli.simulate_noisy_points", sample)
        code, out, err = run_cli(capsys, "sweep", "--experiment", "hardy", "--theta-start", "0.8",
                                 "--theta-stop", "1.0", "--theta-step", "0.1", "--shots", "256",
                                 *device)
        assert (code, out) == (3, "")
        assert err == "error: post-selection rejected every shot (witness always read 1)\n"
        assert len(sampled) == (2 if device else 0)

    def test_grid_cap_is_exact(self):
        assert len(cli._grid(0.0, 1.0, 1e-4)) == cli._MAX_GRID_POINTS == 10_001
        assert len(cli._grid(0.0, 0.9999, 1e-4)) == 10_000
        with pytest.raises(cli.ConfigError, match="more than 10001 points"):
            cli._grid(0.0, 1.0, 0.9999e-4)  # 10,002 points

    def test_grid_cap_counts_every_axis_before_any_point_is_made(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 20)
        grid = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
                "--theta-stop", "0.9", "--theta-step", "0.1")
        with monkeypatch.context() as patched:
            def made(*args, **kwargs):
                raise AssertionError("a point was made before the grid was counted")

            patched.setattr(experiments, "ExperimentSpec", made)
            code, out, err = run_cli(capsys, *grid, "--hardy-grid", "full")
        assert code == 2
        assert out == ""
        assert err == "error: the sweep grid has 25 points, more than 20\n"
        code, out, err = run_cli(capsys, *grid, "--hardy-grid", "diagonal")
        assert code == 0 and err == ""
        assert len(parse_csv(out)[1]) == 5

    def test_bad_repeats(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--experiment", "hardy",
            "--theta-start", "0.5", "--theta-stop", "0.5",
            "--theta-step", "0.1", "--repeats", "0")
        assert code == 2
        assert "repeats" in err

    @pytest.mark.parametrize("flags, message", [
        pytest.param(("--experiment", "general-bomb", "--n-values", "2,1"),
                     "need n >= 2, got 1", id="chain-of-one"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "3,0"),
                     "need n >= 2, got 0", id="chain-of-none"),
        pytest.param(("--experiment", "hardy", "--theta-start", "-0.1"),
                     "theta range [-0.1, 0.6] must lie in [0, 1]", id="start-below-0"),
        pytest.param(("--experiment", "hardy", "--theta-stop", "1.2"),
                     "theta range [0.5, 1.2] must lie in [0, 1]", id="stop-above-1"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "2",
                      "--theta-stop", "1.5"),
                     "theta range [0.5, 1.5] must lie in [0, 1]", id="chain-stop-above-1"),
        pytest.param(("--experiment", "hardy", "--theta-start", "nan"),
                     "theta range [nan, 0.6] must lie in [0, 1]", id="start-nan"),
        pytest.param(("--experiment", "hardy", "--theta-step", "inf"),
                     "theta range [0.5, 0.6] must lie in [0, 1] and step inf must be finite",
                     id="step-inf"),
        pytest.param(("--experiment", "hardy", "--theta-stop", "inf"),
                     "theta range [0.5, inf] must lie in [0, 1]", id="stop-inf"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "2",
                      "--theta-start=-inf"),
                     "theta range [-inf, 0.6] must lie in [0, 1]", id="start-minus-inf"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "2,6"),
                     "a chain of N = 6 needs 6 qubits but device 'vigo-0820' has 5",
                     id="chain-wider-than-device"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "2,30",
                      "--device", "ideal"),
                     "a chain of N = 30 needs 30 qubits, more than the simulator's 24",
                     id="chain-wider-than-simulator"),
        pytest.param(("--experiment", "general-bomb", "--n-values", "2," + "9" * 12),
                     "a chain of N = 999999999999 needs", id="chain-of-10^12"),
        pytest.param(("--experiment", "hardy", "--theta-step", "1e-9"),
                     "theta range [0.5, 0.6] in steps of 1e-09 has more than 10001 points",
                     id="step-1e-9"),
        pytest.param(("--experiment", "hardy", "--theta-start", "0", "--theta-stop", "1",
                      "--theta-step", "5e-324"),
                     "theta range [0.0, 1.0] in steps of 5e-324 has more than 10001 points",
                     id="step-denormal"),
        pytest.param(("--experiment", "hardy", "--shots", str(2**32 + 1)),
                     "shots must be at most 2**32", id="shots-above-2^32"),
    ])
    def test_bad_sweep_settings_exit_2_before_sampling(self, capsys, monkeypatch, flags,
                                                       message):
        def sample(*args, **kwargs):
            raise AssertionError("a point was sampled before the sweep was checked")

        monkeypatch.setattr("mzsim.cli.simulate_noisy_points", sample)
        # later flags win, so each case overrides one of these defaults
        code, out, err = run_cli(
            capsys, "sweep", "--theta-start", "0.5", "--theta-stop", "0.6",
            "--theta-step", "0.1", "--device", "vigo", "--shots", "64", *flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1


class TestTranspileCommand:
    @pytest.fixture
    def eraser_qasm(self, tmp_path):
        path = tmp_path / "eraser.qasm"
        path.write_text(emit(build_eraser(erase=True)))
        return str(path)

    def test_report_and_emitted_qasm(self, capsys, eraser_qasm):
        code, out, err = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "vigo")
        assert code == 0 and err == ""
        assert "device: vigo-0820" in out
        assert "qubits: logical 2 -> physical 5" in out
        assert "swaps inserted: 0" in out
        assert "estimated error: 0.046340" in out
        # the QASM payload follows the report after a blank line
        payload = out.split("\n\n", 1)[1]
        circuit = parse(payload)
        assert circuit.num_qubits == 5
        kinds = {inst.gate.name for inst in circuit.instructions
                 if inst.kind == "gate"}
        assert kinds <= {"U1", "U2", "U3", "CNOT"}

    def test_output_file_holds_qasm_only(self, capsys, eraser_qasm, tmp_path):
        target = tmp_path / "routed.qasm"
        code, out, _ = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "vigo",
            "--output", str(target))
        assert code == 0
        assert "estimated fidelity" in out
        assert "OPENQASM" not in out
        parsed = parse(target.read_text())
        assert parsed.num_qubits == 5

    def test_explicit_layout(self, capsys, eraser_qasm):
        code, out, _ = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "vigo",
            "--layout", "2,1")
        assert code == 0
        assert "initial layout: [2, 1" in out

    def test_fuse_flag(self, capsys, eraser_qasm):
        code, out, _ = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "vigo", "--fuse")
        assert code == 0
        payload = out.split("\n\n", 1)[1]
        fused = parse(payload)
        assert fused.count_gates().get("U3", 0) >= 1

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "transpile", str(tmp_path / "ghost.qasm"),
            "--device", "vigo")
        assert code == 2
        assert "input file not found" in err

    def test_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[1];\nrz(0.1) q[0];\n")
        code, _, err = run_cli(
            capsys, "transpile", str(bad), "--device", "vigo")
        assert code == 2
        assert "line 3" in err

    @pytest.mark.parametrize("body, position", [
        ("qreg q[30];\nh q[0];\n", "line 2, column 8"),
        ("qreg q[100000];\ncreg c[100000];\nh q;\nmeasure q -> c;\n", "line 2, column 8"),
        ("qreg q[2];\ncreg c[100000];\nmeasure q -> c;\n", "line 4, column 1"),
        ("qreg q[" + "9" * 5000 + "];\n", "line 2, column 8"),
    ], ids=["qreg-30", "qreg-creg-100000", "creg-100000", "qreg-5000-digits"])
    def test_oversized_register_exits_2(self, capsys, tmp_path, body, position):
        bad = tmp_path / "big.qasm"
        bad.write_text("OPENQASM 2.0;\n" + body)
        code, out, err = run_cli(capsys, "transpile", str(bad), "--device", "vigo")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {position}:")

    def test_non_ascii_digits_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "digits.qasm"
        bad.write_text("OPENQASM 2.0;\nqreg q[\u0663];\nh q[\u0661];\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "transpile", str(bad), "--device", "vigo")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2, column 8: unexpected character")

    @pytest.mark.parametrize("operands", ["q[0],q[0]", "q,q[1]"])
    def test_repeated_barrier_operand_exits_2(self, capsys, tmp_path, operands):
        bad = tmp_path / "barrier.qasm"
        bad.write_text(f"OPENQASM 2.0;\nqreg q[2];\nbarrier {operands};\n")
        code, out, err = run_cli(capsys, "transpile", str(bad), "--device", "vigo")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 3, column 1: repeated qubit")

    def test_ideal_device_rejected(self, capsys, eraser_qasm):
        code, _, err = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "ideal")
        assert code == 2
        assert "requires a real device" in err

    def test_signed_zeros_keep_their_lines(self, capsys, tmp_path):
        source = tmp_path / "zeros.qasm"
        source.write_text('OPENQASM 2.0;\nqreg q[2];\nu1(-0) q[0];\nu1(0) q[0];\n'
                          'u1(0) q[1];\nu1(-0) q[1];\ncx q[0],q[1];\n')
        code, out, _ = run_cli(capsys, "transpile", str(source), "--device", "vigo")
        assert code == 0
        assert "initial layout: [1, 0, 2, 3, 4]" in out
        payload = out.split("\n\n", 1)[1]
        assert payload.split("\n")[3:] == ["u1(-0) q[1];", "u1(0) q[1];", "u1(0) q[0];",
                                           "u1(-0) q[0];", "cx q[1],q[0];", ""]

    def test_bad_layout_exits_2(self, capsys, eraser_qasm):
        code, out, err = run_cli(
            capsys, "transpile", eraser_qasm, "--device", "vigo",
            "--layout", "1,1")
        assert code == 2
        assert out == ""
        # the layout as given, not padded to the device's five qubits
        assert err.startswith("error: layout [1, 1] must permute physical qubits 0-4")
        assert "[1, 1, 0" not in err

    def test_negative_layout_after_a_space_is_one_error_line(self, capsys, eraser_qasm):
        # argparse reads "-1,0,1" as an option, so --layout has no value
        code, out, err = run_cli(capsys, "transpile", eraser_qasm, "--device", "vigo",
                                 "--layout", "-1,0,1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_device_flag_required(self, capsys, eraser_qasm):
        code, out, err = run_cli(capsys, "transpile", eraser_qasm)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


def calibration(**changes) -> str:
    """A valid 5-qubit T-coupled calibration document with `changes` applied."""
    doc = {"name": "toy", "num_qubits": 5, "t1_us": 50.0, "t2_us": 50.0,
           "cnot_error": 0.01, "readout_error": 0.02,
           "coupling": [[0, 1], [1, 2], [1, 3], [3, 4]]}
    doc.update(changes)
    return json.dumps(doc)


QASM = object()  # stands for the path of an eraser QASM file
DISCONNECTED = calibration(coupling=[[0, 1], [1, 2], [0, 2], [3, 4]])
HARDY_SWEEP = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
               "--theta-stop", "0.5", "--theta-step", "0.1", "--shots", "64")
BOMB_RUN = ("run", "--experiment", "bomb", "--shots", "64")


@pytest.mark.parametrize("argv", [
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout", "a"), id="layout-a"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout", "0,1,x"),
                 id="layout-0,1,x"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout", "2.5"), id="layout-2.5"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout=1,1"), id="layout-1,1"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout=0,0,1"), id="layout-0,0,1"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout=0,1,7"), id="layout-0,1,7"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout=-1,0,1"), id="layout--1,0,1"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout", "-1,0,1"),
                 id="layout-space--1,0,1"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout=0,1,2,3,4,5"),
                 id="layout-0,1,2,3,4,5"),
    pytest.param(("sweep", "--experiment", "general-bomb", "--n-values", "2,x",
                  "--theta-start", "0.5", "--theta-stop", "0.5", "--theta-step", "0.1"),
                 id="n-values-2,x"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": [1]}),
                 id="config-shots-list"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": "abc"}),
                 id="config-shots-text"),
    pytest.param(("run", "--config", {"experiment": "bomb", "device": "vigo",
                                      "shots": 64, "mitigate": "false"}),
                 id="config-boolean-as-text"),
    pytest.param(BOMB_RUN + ("--device", calibration(readout_error=[0.1, 0.2, 0.1, 0.1, 0.1])),
                 id="readout-list-of-scalars"),
    pytest.param(BOMB_RUN + ("--device", calibration(num_qubits=None)), id="num-qubits-null"),
    pytest.param(BOMB_RUN + ("--device", calibration(num_qubits=4.9)), id="num-qubits-float"),
    pytest.param(BOMB_RUN + ("--device", calibration(num_qubits=True)), id="num-qubits-bool"),
    pytest.param(BOMB_RUN + ("--device", calibration(num_qubits="5")), id="num-qubits-text"),
    pytest.param(BOMB_RUN + ("--device", DISCONNECTED), id="disconnected-run"),
    pytest.param(("transpile", QASM, "--device", DISCONNECTED), id="disconnected-transpile"),
    pytest.param(HARDY_SWEEP + ("--device", DISCONNECTED), id="disconnected-sweep"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": 2.7}), id="config-shots-float"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": True}), id="config-shots-bool"),
    pytest.param(("run", "--config", {"experiment": "bomb", "seed": 1.5}), id="config-seed-float"),
    pytest.param(HARDY_SWEEP + ("--config", {"repeats": 2.5}), id="config-repeats-float"),
    pytest.param(HARDY_SWEEP + ("--config", {"hardy_grid": "xyz"}), id="config-hardy-grid"),
    pytest.param(HARDY_SWEEP + ("--seed", "-1"), id="sweep-seed-negative"),
    pytest.param(BOMB_RUN + ("--seed", "-1"), id="run-seed-negative"),
    pytest.param(BOMB_RUN + ("--exact", "--device", "london"), id="exact-with-device"),
    pytest.param(("run", "--config", {"experiment": "bomb", "exact": True, "device": "london"}),
                 id="config-exact-with-device"),
    pytest.param(("run", "--config", {"experiment": "general-bomb", "angles": [True, 0]}),
                 id="config-angles-bool"),
    pytest.param(("run", "--config", {"experiment": "hardy", "theta0": True, "theta1": True}),
                 id="config-hardy-thetas-bool"),
    pytest.param(("run", "--config", {"experiment": "hardy", "theta0": 0.5, "theta1": True}),
                 id="config-hardy-theta1-bool"),
    pytest.param(("sweep", "--config", {"experiment": "hardy", "theta_start": True,
                                        "theta_stop": 1, "theta_step": 0.5}),
                 id="config-theta-start-bool"),
    pytest.param(("sweep", "--config", {"experiment": "hardy", "theta_start": 0.5,
                                        "theta_stop": True, "theta_step": 0.5}),
                 id="config-theta-stop-bool"),
    pytest.param(("sweep", "--config", {"experiment": "hardy", "theta_start": 0.5,
                                        "theta_stop": 0.5, "theta_step": True}),
                 id="config-theta-step-bool"),
    pytest.param(BOMB_RUN + ("--shots", "0"), id="run-shots-0"),
    pytest.param(("run", "--config", {"experiment": "nope"}), id="config-experiment-unknown"),
    pytest.param(("run", "--config", {"experiment": "bomb", "format": "xml"}),
                 id="config-format-xml"),
    pytest.param(("sweep", "--theta-start", "0.5", "--theta-stop", "0.5", "--theta-step", "0.1"),
                 id="sweep-no-experiment"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": 100, "sead": 5}),
                 id="config-key-misspelt"),
    pytest.param(("run", "--config", {"experiment": "bomb", "shots": 100, "repeats": 2}),
                 id="config-key-of-another-command"),
    pytest.param(BOMB_RUN + ("--device", calibration(coupling=[[0, 1.9], [1, 2], [1, 3], [3, 4]])),
                 id="coupling-float"),
    pytest.param(BOMB_RUN + ("--device", calibration(coupling=[["0", True], [1, 2], [1, 3],
                                                               [3, 4]])),
                 id="coupling-text-and-bool"),
    pytest.param(("run", "--experiment", "general-bomb", "--angles", "0,1"),
                 id="degenerate-chain-0,1"),
    pytest.param(("run", "--experiment", "general-bomb", "--angles", "0,0,1"),
                 id="degenerate-chain-0,0,1"),
    pytest.param(BOMB_RUN + ("--shot", "8"), id="abbreviated-shots"),
    pytest.param(("run", "--experiment", "bomb", "--no-b"), id="abbreviated-no-bomb"),
    pytest.param(HARDY_SWEEP + ("--rep", "2"), id="abbreviated-repeats"),
])
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    qasm = tmp_path / "eraser.qasm"
    qasm.write_text(emit(build_eraser(erase=True)))
    resolved = []
    for arg in argv:
        if arg is QASM:
            arg = str(qasm)
        elif isinstance(arg, dict):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(arg))
            arg = str(cfg)
        resolved.append(arg)
    code, _, err = run_cli(capsys, *resolved)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    pytest.param((), id="no-command"),
    pytest.param(BOMB_RUN + ("--sead", "5"), id="unknown-flag"),
    pytest.param(("run", "--experiment"), id="missing-value"),
    pytest.param(("transpile", QASM), id="missing-device"),
    pytest.param(("transpile", QASM, "--device", "vigo", "--layout", "-1,0,1"),
                 id="layout-space--1,0,1"),
    pytest.param(("run", "--experiment", "bomb", "--shots", "x"), id="shots-x"),
    pytest.param(("run", "--experiment", "nope"), id="experiment-nope"),
    pytest.param(BOMB_RUN + ("--format", "xml"), id="format-xml"),
])
def test_command_line_refusals_are_one_error_line(capsys, tmp_path, argv):
    qasm = tmp_path / "eraser.qasm"
    qasm.write_text(emit(build_eraser(erase=True)))
    code, out, err = run_cli(capsys, *(str(qasm) if arg is QASM else arg for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, unrecognized", [
    pytest.param(BOMB_RUN + ("--shot", "8"), "--shot 8", id="shots"),
    pytest.param(("run", "--experiment", "bomb", "--no-b"), "--no-b", id="no-bomb"),
    pytest.param(HARDY_SWEEP + ("--rep", "2"), "--rep 2", id="repeats"),
])
def test_flags_are_spelt_in_full(capsys, argv, unrecognized):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: unrecognized arguments: {unrecognized}\n"


HARDY_SWEEP_WIDE = ("sweep", "--experiment", "hardy", "--theta-start", "0.5",
                    "--theta-stop", "0.6", "--theta-step", "0.1")


@pytest.mark.parametrize("argv, config, error", [
    pytest.param(("run", "--experiment", "bomb", "--shots", "0", "--seed", "-1"), None,
                 "shots must be >= 1, got 0", id="run-shots-before-seed"),
    pytest.param(("run", "--experiment", "bomb", "--seed", "-1", "--mitigate"), None,
                 "seed must be >= 0, got -1", id="run-seed-before-mitigate"),
    pytest.param(("run", "--experiment", "bomb", "--shots", "0"), {"exact": "yes"},
                 "bad exact 'yes': expected a JSON boolean (true or false)",
                 id="run-exact-read-before-shots-checked"),
    pytest.param(("run", "--experiment", "bomb", "--shots", "x", "--device", "nope"), None,
                 "device 'nope' is neither 'ideal', a preset, nor a calibration file",
                 id="run-device-before-shots-read"),
    pytest.param(("run", "--experiment", "bomb", "--exact", "--device", "vigo", "--shots", "0"),
                 None, "shots must be >= 1, got 0", id="run-shots-before-exact-with-device"),
    pytest.param(HARDY_SWEEP_WIDE + ("--repeats", "0", "--shots", "0"), None,
                 "repeats must be >= 1, got 0", id="sweep-repeats-before-shots"),
    pytest.param(HARDY_SWEEP_WIDE + ("--repeats", "x", "--shots", "0"), None,
                 "bad repeats 'x': invalid literal for int() with base 10: 'x'",
                 id="sweep-repeats-read-before-shots-checked"),
    pytest.param(HARDY_SWEEP_WIDE + ("--shots", "0", "--hardy-grid", "xyz"), None,
                 "shots must be >= 1, got 0", id="sweep-shots-before-hardy-grid"),
    pytest.param(("sweep", "--experiment", "hardy", "--theta-start", "0.5", "--theta-stop", "0.6",
                  "--theta-step", "-1", "--shots", "x"), None,
                 "theta-step must be positive, got -1.0", id="sweep-grid-before-shots-read"),
])
def test_settings_are_refused_in_a_fixed_order(capsys, tmp_path, argv, config, error):
    # a command with two bad settings names the one it reads and checks first
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


@pytest.mark.parametrize("argv, error", [
    pytest.param(("--experiment", "hardy", "--theta0", "0.5"),
                 "hardy requires --theta1 (units of pi)", id="hardy-theta0-only"),
    pytest.param(("--experiment", "hardy", "--theta1", "0.5"),
                 "hardy requires --theta0 (units of pi)", id="hardy-theta1-only"),
    pytest.param(("--experiment", "hardy"),
                 "hardy requires --theta0 and --theta1 (units of pi)", id="hardy-neither"),
    pytest.param(("--experiment", "general-bomb"),
                 "general-bomb requires --angles (units of pi)", id="general-bomb-no-angles"),
])
def test_missing_settings_are_named(capsys, argv, error):
    code, out, err = run_cli(capsys, "run", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {error}\n"


def test_full_negated_flags_and_help_still_work(capsys):
    code, out, _ = run_cli(capsys, "run", "--experiment", "bomb", "--no-bomb", "--exact")
    assert code == 0 and json.loads(out)["parameters"] == {"present": False}
    code, out, _ = run_cli(capsys, "run", "--experiment", "eraser", "--no-erase", "--exact")
    assert code == 0 and json.loads(out)["parameters"] == {"erase": False}
    with pytest.raises(SystemExit) as exited:
        main(["run", "-h"])
    assert exited.value.code == 0
    assert "--shots" in capsys.readouterr().out


@pytest.mark.parametrize("extra", [("--angles", "0,1"), ("--angles", "0,1", "--exact"),
                                   ("--angles", "0,0,1"), ("--angles", "0,1", "--device", "vigo")])
def test_degenerate_chain_exits_2_before_sampling(capsys, monkeypatch, extra):
    def sample(*args, **kwargs):
        raise AssertionError("a degenerate chain was sampled")

    for sampler in ("ideal_counts", "simulate_noisy", "simulate_ideal"):
        monkeypatch.setattr(f"mzsim.cli.{sampler}", sample)
    code, out, err = run_cli(capsys, "run", "--experiment", "general-bomb", *extra)
    assert (code, out) == (2, "")
    assert err == "error: degenerate chain: photon never reaches the detectors\n"


def test_every_run_setting_is_a_run_flag_and_a_spec_field():
    flags = set(vars(cli._build_parser().parse_args(["run"])))
    fields = {f.name for f in dataclasses.fields(ExperimentSpec) if f.init}
    for kind, settings in experiments.RUN_SETTINGS.items():
        for setting, (field, _) in settings.items():
            assert setting in flags, (kind, setting)
            assert setting in cli._SETTING_CONVERTERS, (kind, setting)
            assert field in fields, (kind, field)


@pytest.mark.parametrize("argv", [BOMB_RUN + ("--device", "vigo"), HARDY_SWEEP + ("--device", "vigo")],
                         ids=["run", "sweep"])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_unknown_format_exits_2_before_sampling(capsys, monkeypatch, tmp_path, argv, where):
    def sample(*args, **kwargs):
        raise AssertionError("sampled before the format was read")

    for sampler in ("ideal_counts", "simulate_noisy", "simulate_noisy_points", "simulate_ideal"):
        monkeypatch.setattr(f"mzsim.cli.{sampler}", sample)
    if where == "flag":
        argv += ("--format", "xml")
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        argv += ("--config", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown format 'xml'")


def test_flag_and_config_key_are_refused_alike(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bomb", "shots": "x"}))
    from_config = run_cli(capsys, "run", "--config", str(cfg))
    from_flag = run_cli(capsys, "run", "--experiment", "bomb", "--shots", "x")
    assert from_flag == from_config
    assert from_flag[0] == 2 and from_flag[2].startswith("error: bad shots 'x'")


def test_config_key_that_names_no_flag_is_named(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "bomb", "sead": 5, "repeats": 2}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err == "error: config key(s) that name no run flag: repeats, sead\n"


def test_config_key_of_another_experiment_is_ignored(capsys, tmp_path):
    # as the --angles flag is on an eraser run
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "eraser", "angles": "0.5,0.5", "exact": True}))
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["parameters"] == {"erase": True}


TWO_QUBIT_DEVICE = calibration(num_qubits=2, coupling=[[0, 1]])
SIX_QUBIT_QASM = object()  # stands for the path of a 6-qubit chain's QASM file


@pytest.mark.parametrize("argv", [
    pytest.param(("run", "--experiment", "general-bomb",
                  "--angles", "0.2,0.2,0.2,0.2,0.1,0.1", "--device", "vigo"),
                 id="run-chain-wider-than-device"),
    pytest.param(("run", "--experiment", "general-bomb", "--angles", ",".join(["0.04"] * 25)),
                 id="run-chain-wider-than-simulator"),
    pytest.param(("run", "--experiment", "hardy", "--theta0", "0.5", "--theta1", "0.5",
                  "--device", TWO_QUBIT_DEVICE), id="run-hardy-wider-than-device"),
    pytest.param(HARDY_SWEEP + ("--device", TWO_QUBIT_DEVICE), id="sweep-hardy-wider-than-device"),
    pytest.param(("transpile", SIX_QUBIT_QASM, "--device", "vigo"),
                 id="transpile-wider-than-device"),
])
def test_circuit_wider_than_device_or_simulator_exits_2_before_sampling(
        capsys, monkeypatch, tmp_path, argv):
    def sample(*args, **kwargs):
        raise AssertionError("shots were sampled before the circuit was fitted")

    for sampler in ("ideal_counts", "simulate_noisy", "simulate_noisy_points"):
        monkeypatch.setattr(f"mzsim.cli.{sampler}", sample)
    qasm = tmp_path / "chain.qasm"
    qasm.write_text(emit(build_general_bomb(equal_angles(6))))
    code, out, err = run_cli(capsys, *(str(qasm) if arg is SIX_QUBIT_QASM else arg
                                       for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_huge_num_qubits_rejected_before_readout_table(capsys, monkeypatch):
    def expand(p, num_qubits):
        raise AssertionError(f"readout table of {num_qubits} pairs built")

    monkeypatch.setattr(noise, "_symmetric_readout", expand)
    code, _, err = run_cli(capsys, *BOMB_RUN, "--device", calibration(num_qubits=10**12))
    assert code == 2
    assert "coupling edges" in err


FIELDS = ("name", "num_qubits", "t1_us", "t2_us", "cnot_error", "single_qubit_error",
          "readout_error", "coupling", "calibration_date")
# Numbers stay small, apart from one huge integer: a qubit count beyond
# what the coupling list can connect must be rejected before anything is
# sized by it.
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.just(10**12), st.floats(-1.0, 6.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]), st.text(max_size=3),
)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=5),
                           max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(changes=st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES, max_size=3),
       dropped=st.sets(st.sampled_from(FIELDS), max_size=1))
def test_malformed_calibration_keeps_exit_code_contract(changes, dropped):
    doc = json.loads(calibration(**changes))
    for key in dropped:
        doc.pop(key, None)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--experiment", "bomb", "--shots", "32", "--seed", "0",
                     "--mitigate", "--device", json.dumps(doc)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert sum(json.loads(out.getvalue())["counts"].values()) == 32
    else:
        assert err.getvalue().startswith("error:")


NAN, INF = float("nan"), float("inf")
#: grid steps in units of pi; at most 21 points per axis, 6 on a full grid
STEPS = (0.05, 0.1, 0.25, 0.5)
FULL_GRID_STEPS = (0.2, 0.25, 0.5)
#: edge and out-of-range values: non-finite angles and angles outside [0, 1],
#: chains of 0 or 1 stages, counts below 1, an unknown format or experiment
OUT_OF_RANGE = st.sampled_from(
    [NAN, INF, -INF, -0.1, 1.5, 0, 1, -1, "", "1.0", "0.5,nan", "1,0", "xml", "teleport"])
# Wrong-typed config values stay small: an integer or numeric text read as
# shots, repeats or a chain length must not ask for a huge run.
WRONG_TYPES = st.recursive(
    st.one_of(st.booleans(), st.integers(-2, 8), st.floats(-1.0, 2.0),
              st.sampled_from([NAN, INF]), st.text("ab ,.", max_size=3)),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)
BOOLEAN_FLAGS = ("mitigate", "exact", "erase", "bomb")


@st.composite
def cli_settings(draw):
    """A valid run or sweep command, keyed as in a config file, with up to
    two settings put out of range and one given a wrong JSON type."""
    command = draw(st.sampled_from(["run", "sweep"]))
    device = draw(st.sampled_from(["ideal", "vigo", "london", "x2"]))
    settings = {
        "device": device,
        "shots": draw(st.integers(1, 64)),
        "seed": draw(st.integers(0, 3)),
        "mitigate": device != "ideal" and draw(st.booleans()),
        "format": draw(st.sampled_from(["json", "csv"])),
    }
    if command == "run":
        n = draw(st.integers(2, 8))
        a = draw(st.floats(0.0, 1.0))
        angles = draw(st.sampled_from([[1 / n] * n, [a, 1 - a]]))
        settings.update(
            experiment=draw(st.sampled_from(["eraser", "bomb", "general-bomb", "hardy"])),
            exact=device == "ideal" and draw(st.booleans()),
            erase=draw(st.booleans()), bomb=draw(st.booleans()),
            angles=",".join(repr(t) for t in angles),
            theta0=draw(st.floats(0.0, 1.0)), theta1=draw(st.floats(0.0, 1.0)))
    else:
        grid = draw(st.sampled_from(["diagonal", "full"]))
        start, stop = sorted([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
        settings.update(
            experiment=draw(st.sampled_from(["general-bomb", "hardy"])),
            n_values=",".join(map(str, draw(st.lists(st.integers(2, 8), min_size=1,
                                                     max_size=2)))),
            theta_start=start, theta_stop=stop, hardy_grid=grid,
            theta_step=draw(st.sampled_from(STEPS if grid == "diagonal" else FULL_GRID_STEPS)),
            repeats=draw(st.integers(1, 2)))
    keys = sorted(settings)
    settings.update(draw(st.dictionaries(st.sampled_from(keys), OUT_OF_RANGE, max_size=2)))
    wrong = draw(st.dictionaries(st.sampled_from(keys), WRONG_TYPES, max_size=1))
    # a boolean flag cannot carry any other value, so that goes to the config
    in_config = draw(st.sets(st.sampled_from(keys))) | {
        key for key in BOOLEAN_FLAGS if not isinstance(settings.get(key, False), bool)}
    return command, settings, in_config, wrong


def _flags(settings: dict) -> list[str]:
    flags = []
    for key, value in settings.items():
        flag = "--" + key.replace("_", "-")
        if key in ("mitigate", "exact"):
            flags += [flag] if value else []
        elif key in ("erase", "bomb"):
            flags.append(flag if value else f"--no-{key}")
        else:
            flags.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return flags


@settings(max_examples=100, deadline=None)
@given(drawn=cli_settings())
def test_run_and_sweep_settings_keep_exit_code_contract(drawn, tmp_path_factory):
    command, chosen, in_config, wrong = drawn
    config = {key: chosen[key] for key in in_config}
    config.update(wrong)
    argv = [command, *_flags({k: v for k, v in chosen.items() if k not in config})]
    if config:
        path = tmp_path_factory.mktemp("config") / "config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue()
        assert out.getvalue() == ""
    elif chosen["format"] == "csv":
        assert out.getvalue().startswith(",".join(CSV_COLUMNS) + "\n")
    else:
        json.loads(out.getvalue())


def test_sampled_commands_never_import_numpy_random():
    """A mitigated run and a noisy sweep draw every random word from `_streams`.

    Older numpy imports numpy.random with numpy itself; there is nothing to check."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.random' in sys.modules)\n"
        "from mzsim.cli import main\n"
        "assert main(['run', '--experiment', 'hardy', '--theta0', '0.575', '--theta1', '0.575',\n"
        "             '--device', 'vigo', '--shots', '256', '--mitigate', '--output', sys.argv[1]]) == 0\n"
        "assert main(['sweep', '--experiment', 'general-bomb', '--n-values', '2,3',\n"
        "             '--theta-start', '0.4', '--theta-stop', '0.5', '--theta-step', '0.1',\n"
        "             '--device', 'london', '--shots', '256', '--repeats', '2', '--mitigate',\n"
        "             '--output', sys.argv[1]]) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    eager, loaded = proc.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.random with numpy")
    assert loaded == "False"
