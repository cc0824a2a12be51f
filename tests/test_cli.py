import json
import os

import numpy as np
import pytest

from degengate.cli import CSV_CHUNK_ROWS, main, write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 4


def run(tmp_path, *argv):
    out = tmp_path / "out"
    return main([*argv, "--out", str(out)]), out


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"hamiltonain": {"construction": "cnot_onestep_refined"}})
        code, _ = run(tmp_path, "spectrum", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "hamiltonain" in capsys.readouterr().err

    def test_unknown_nested_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"hamiltonian": {"construction": "cnot_onestep_refined"},
             "noise": {"alpha": 0.01, "temp": 0.2}},
        )
        code, _ = run(tmp_path, "purity", "--config", cfg)
        assert code == EXIT_CONFIG
        assert "noise.temp" in capsys.readouterr().err

    def test_unknown_construction_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"hamiltonian": {"construction": "nope"}})
        code, _ = run(tmp_path, "spectrum", "--config", cfg)
        assert code == EXIT_CONFIG

    def test_bad_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"hamiltonian": \n !}')
        code, _ = run(tmp_path, "spectrum", "--config", str(path))
        assert code == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path):
        code, _ = run(tmp_path, "spectrum", "--experiment", "paper:nope")
        assert code == EXIT_CONFIG

    def test_missing_config(self, tmp_path):
        code, _ = run(tmp_path, "spectrum")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("time_cfg", [{"dt": 0}, {"dt": -0.01}, {"t_final": -0.5}],
                             ids=["zero-dt", "negative-dt", "negative-t_final"])
    def test_bad_time_settings_rejected(self, tmp_path, capsys, time_cfg):
        cfg = write_config(
            tmp_path,
            {"hamiltonian": {"construction": "cnot_onestep_refined"}, "time": time_cfg},
        )
        code, out = run(tmp_path, "purity", "--config", cfg)
        assert code == EXIT_CONFIG
        assert f"time.{next(iter(time_cfg))}" in capsys.readouterr().err
        assert not os.path.exists(out / "purity_trace.csv")

    SWEEP = {"start1": 0.5, "stop1": 1.5, "n1": 3, "start2": 0.5, "stop2": 1.5, "n2": 3}
    MALFORMED = {
        "calibrate-no-delta": ("calibrate", {"calibrate": {"t1_inverse_ghz": 0.001}},
                               "calibrate.delta_ghz"),
        "sweep-no-axis1": ("sweep", {"sweep": {"start2": 0.5, "stop2": 1.5, "n2": 3}},
                           "sweep.start1, sweep.stop1, sweep.n1"),
        "hamiltonian-empty": ("spectrum", {"hamiltonian": {"j": 2.0}}, "'hamiltonian'"),
        "sweep-zero-n1": ("sweep", {"sweep": {**SWEEP, "n1": 0}}, "sweep:"),
        "optimize-zero-restarts": ("optimize", {"optimize": {"bounds": {"jz": [0.1, 1.0]},
                                                             "restarts": 0}}, "restarts"),
        "calibrate-zero-delta": ("calibrate", {"calibrate": {"delta_ghz": 0,
                                                             "t1_inverse_ghz": 0.001}},
                                 "delta_ghz must be positive"),
        "sensitivity-zero-rel-step": ("sensitivity",
                                      {"hamiltonian": {"construction": "cnot_onestep_refined"},
                                       "sensitivity": {"rel_step": 0}}, "rel_step"),
        "calibrate-j-below-delta": ("calibrate", {"calibrate": {"delta_ghz": 10.0, "j_ghz": 5.0,
                                                                "t1_inverse_ghz": 0.1}},
                                    "J >= Delta"),
        "comparison-zero-amplitude": ("purity", {"comparison": {"amplitude_bound": 0}},
                                      "amplitude bound"),
        "optimize-empty-bounds": ("optimize", {"optimize": {"bounds": {}}}, "bounds"),
        "calibrate-zero-j": ("calibrate", {"calibrate": {"delta_ghz": 10.0, "j_ghz": 0,
                                                         "t1_inverse_ghz": 0.1}}, "J >= Delta"),
        "noise-alpha-true": ("purity", {"hamiltonian": {"construction": "cnot_onestep_refined"},
                                        "noise": {"alpha": True}}, "noise.alpha"),
        "sweep-n1-true": ("sweep", {"sweep": {**SWEEP, "n1": True}}, "sweep.n1"),
        "params-true": ("spectrum", {"hamiltonian": {"params": {"jz": True}}},
                        "hamiltonian.params.jz"),
        "bounds-true": ("optimize", {"optimize": {"bounds": {"jz": [False, 1.0]}}},
                        "optimize.bounds.jz"),
        "seed-true": ("spectrum", {"hamiltonian": {"construction": "cnot_onestep_refined"},
                                   "seed": True}, "seed"),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_section_is_config_error(self, tmp_path, capsys, case):
        command, payload, message = self.MALFORMED[case]
        code, _ = run(tmp_path, command, "--config", write_config(tmp_path, payload))
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_format_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "spectrum", "--experiment", "paper:cnot", "--format", "csv")
        assert exc.value.code == 2


def reference_csv(header, rows, failure=None):
    """The per-cell renderer write_csv must match byte for byte."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format(float(c), ".17g") if isinstance(c, (float, np.floating)) else str(c)
            for c in row
        ))
    if failure is not None:
        lines.append(f"# FAILED: {failure}")
    return ("\n".join(lines) + "\n").encode()


class TestWriteCsv:
    SPECIAL = [0.1, 1.0 / 3.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e-300, 2.5e17]

    def test_mixed_cells_match_reference(self, tmp_path):
        rows = [
            [x, np.float64(x) * 3, k, k % 2 == 0, f"cell {k}", np.float32(x)]
            for k, x in enumerate(self.SPECIAL * 3)
        ]
        header = ["f", "f64", "int", "bool", "str", "f32"]
        write_csv(tmp_path / "a.csv", header, rows)
        assert read(tmp_path / "a.csv") == reference_csv(header, rows)

    @pytest.mark.parametrize("n_rows", [1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 3])
    def test_array_rows_across_chunks(self, tmp_path, rng, n_rows):
        rows = rng.normal(size=(n_rows, 18)) * 10.0 ** rng.integers(-20, 20, size=(n_rows, 18))
        rows[0, :len(self.SPECIAL)] = self.SPECIAL
        header = [f"c{j}" for j in range(18)]
        write_csv(tmp_path / "a.csv", header, rows)
        assert read(tmp_path / "a.csv") == reference_csv(header, rows)

    def test_list_rows_across_chunks(self, tmp_path):
        rows = [[float(k) / 7.0, k, "x"] for k in range(CSV_CHUNK_ROWS + 5)]
        write_csv(tmp_path / "a.csv", ["a", "b", "c"], rows)
        assert read(tmp_path / "a.csv") == reference_csv(["a", "b", "c"], rows)

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))], ids=["list", "array"])
    def test_empty_rows_with_failure(self, tmp_path, rows):
        write_csv(tmp_path / "a.csv", ["a", "b", "c"], rows, failure="negative eigenvalue")
        assert read(tmp_path / "a.csv") == reference_csv(
            ["a", "b", "c"], [], failure="negative eigenvalue"
        )


class TestSpectrum:
    def test_refined_cnot(self, tmp_path, capsys):
        code, out = run(tmp_path, "spectrum", "--experiment", "paper:cnot")
        assert code == EXIT_OK
        payload = json.loads(read(out / "spectrum.json"))
        assert payload["classification"] == "single"
        np.testing.assert_allclose(
            payload["energies_reduced"], [-2.25, -1.25, 1.75, 1.75], atol=1e-9
        )

    def test_bgate_double(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--experiment", "paper:bgate")
        payload = json.loads(read(out / "spectrum.json"))
        assert payload["classification"] == "double"

    def test_zero_hamiltonian_all_gaps_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"hamiltonian": {"params": {"delta1": 0.0}}})
        code, out = run(tmp_path, "spectrum", "--config", cfg)
        assert code == EXIT_OK
        payload = json.loads(read(out / "spectrum.json"))
        np.testing.assert_array_equal(payload["energies_reduced"], [0, 0, 0, 0])


class TestInvariants:
    def test_cnot(self, tmp_path):
        code, out = run(tmp_path, "invariants", "--gate", "CNOT")
        assert code == EXIT_OK
        payload = json.loads(read(out / "invariants.json"))
        np.testing.assert_allclose(payload["G1"], [0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(payload["G2"], [1.0, 0.0], atol=1e-12)

    def test_identity(self, tmp_path):
        code, out = run(tmp_path, "invariants", "--gate", "IDENTITY")
        payload = json.loads(read(out / "invariants.json"))
        np.testing.assert_allclose(payload["G1"], [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(payload["G2"], [3.0, 0.0], atol=1e-12)

    def test_construction_config(self, tmp_path):
        cfg = write_config(
            tmp_path, {"hamiltonian": {"construction": "bgate_onestep_refined"}}
        )
        code, out = run(tmp_path, "invariants", "--config", cfg)
        assert code == EXIT_OK


class TestPurity:
    def test_zero_noise_all_ones(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "hamiltonian": {"construction": "cnot_onestep_refined"},
                "noise": {"alpha": 0.0, "temperature": 0.0, "cutoff": 20.0},
                "time": {"t_final": 0.2, "dt": 0.001},
            },
        )
        code, out = run(tmp_path, "purity", "--config", cfg)
        assert code == EXIT_OK
        lines = read(out / "purity_trace.csv").decode().strip().split("\n")
        header = lines[0].split(",")
        assert header[:2] == ["t", "P"] and len(header) == 18
        for line in lines[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)
        summary = json.loads(read(out / "purity_summary.json"))
        assert summary["loss"] == pytest.approx(0.0, abs=1e-9)

    def test_embedded_config_revalidates(self, tmp_path):
        # every emitted report embeds a config that the package's own
        # strict parser accepts again
        from degengate.config import validate_config

        cfg = write_config(
            tmp_path,
            {
                "hamiltonian": {"construction": "cnot_onestep_refined"},
                "noise": {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0},
                "time": {"t_final": 0.1, "dt": 0.001},
            },
        )
        code, out = run(tmp_path, "purity", "--config", cfg)
        summary = json.loads(read(out / "purity_summary.json"))
        assert validate_config(summary["meta"]["config"]) is not None

    def test_trace_roundtrips_and_matches_summary(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "hamiltonian": {"construction": "cnot_onestep_refined"},
                "noise": {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0},
                "time": {"t_final": 0.5, "dt": 0.001},
            },
        )
        code, out = run(tmp_path, "purity", "--config", cfg)
        data = np.genfromtxt(out / "purity_trace.csv", delimiter=",", names=True)
        summary = json.loads(read(out / "purity_summary.json"))
        assert 1.0 - data["P"][-1] == pytest.approx(summary["loss"], rel=1e-12)
        np.testing.assert_allclose(
            data["P"], np.mean([data[f"p{j + 1:02d}"] for j in range(16)], axis=0),
            atol=1e-12,
        )


    def test_comparison_keeps_library_noise_defaults(self, tmp_path):
        from degengate import protocol_comparison

        cfg = write_config(tmp_path, {"comparison": {"amplitude_bound": 2.0}})
        code, out = run(tmp_path, "purity", "--config", cfg)
        assert code == EXIT_OK
        summary = json.loads(read(out / "comparison_summary.json"))
        comp = protocol_comparison(amplitude_bound=2.0)
        assert summary["onestep_loss"] == comp["onestep_loss"]
        assert summary["fivestep_loss"] == comp["fivestep_loss"]


class TestByteReproducibility:
    def test_purity_reruns_identical(self, tmp_path):
        cfg = {
            "hamiltonian": {"construction": "cnot_onestep_refined"},
            "noise": {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0},
            "time": {"t_final": 0.3, "dt": 0.001},
            "seed": 7,
        }
        path = write_config(tmp_path, cfg)
        code1, out1 = main([
            "purity", "--config", path, "--out", str(tmp_path / "a")
        ]), tmp_path / "a"
        code2, out2 = main([
            "purity", "--config", path, "--out", str(tmp_path / "b")
        ]), tmp_path / "b"
        assert read(out1 / "purity_trace.csv") == read(out2 / "purity_trace.csv")
        assert read(out1 / "purity_summary.json") == read(out2 / "purity_summary.json")

    def test_sweep_thread_invariance(self, tmp_path):
        cfg = {
            "sweep": {
                "param1": "jy", "param2": "jz",
                "start1": 0.4, "stop1": 1.6, "n1": 7,
                "start2": 0.4, "stop2": 1.6, "n2": 7,
                "fixed": {"delta1": 1.0, "delta2": 1.0},
                "closure": "jx_from_norm",
                "coupling_norm": 2.0615528128088303,
            },
            "noise": {"alpha": 0.01, "temperature": 0.0, "cutoff": 20.0},
            "seed": 1,
        }
        path = write_config(tmp_path, cfg)
        main(["sweep", "--config", path, "--threads", "1", "--out", str(tmp_path / "t1")])
        main(["sweep", "--config", path, "--threads", "4", "--out", str(tmp_path / "t4")])
        assert read(tmp_path / "t1" / "sweep.csv") == read(tmp_path / "t4" / "sweep.csv")
        assert read(tmp_path / "t1" / "sweep_summary.json") == read(
            tmp_path / "t4" / "sweep_summary.json"
        )

    def test_timestamp_only_when_requested(self, tmp_path):
        code, out = run(tmp_path, "invariants", "--gate", "CNOT")
        payload = json.loads(read(out / "invariants.json"))
        assert "timestamp" not in payload["meta"]
        code, out2 = main(
            ["invariants", "--gate", "CNOT", "--timestamp", "--out", str(tmp_path / "ts")]
        ), tmp_path / "ts"
        payload2 = json.loads(read(out2 / "invariants.json"))
        assert "timestamp" in payload2["meta"]


class TestSweepCommand:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_feasible_cell_summary_is_strict_json(self, tmp_path):
        cfg = {
            "sweep": {
                "param1": "jy", "param2": "jz",
                "start1": 3.0, "stop1": 4.0, "n1": 3,
                "start2": 3.0, "stop2": 4.0, "n2": 3,
                "closure": "jx_from_norm", "coupling_norm": 1.0,
            },
        }
        code, out = run(tmp_path, "sweep", "--config", write_config(tmp_path, cfg))
        assert code == EXIT_OK

        def reject(name):
            raise ValueError(f"not strict JSON: {name}")

        summary = json.loads(read(out / "sweep_summary.json"), parse_constant=reject)
        assert summary["argmin_cells"] == []
        assert summary["min_rate"] is None
        assert summary["feasible_cells"] == 0

    def test_single_cell_matches_purity_summary(self, tmp_path):
        # A 1x1 grid equals the decay rate the purity summary reports.
        sweep_cfg = {
            "sweep": {
                "param1": "jy", "param2": "jz",
                "start1": 0.58, "stop1": 0.58, "n1": 1,
                "start2": 1.71, "stop2": 1.71, "n2": 1,
                "fixed": {"delta1": 1.0, "delta2": 1.0},
            },
            "noise": {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0},
        }
        path = write_config(tmp_path, sweep_cfg)
        code, out = run(tmp_path, "sweep", "--config", path)
        assert code == EXIT_OK
        data = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True,
                             usecols=(0, 1, 3))
        purity_cfg = {
            "hamiltonian": {"params": {"delta1": 1.0, "delta2": 1.0, "jy": 0.58, "jz": 1.71}},
            "noise": {"alpha": 0.01, "temperature": 0.2, "cutoff": 20.0},
            "time": {"t_final": 0.05},
        }
        path2 = write_config(tmp_path, purity_cfg, name="p.json")
        code, out2 = main(["purity", "--config", path2, "--out", str(tmp_path / "p")]), tmp_path / "p"
        summary = json.loads(read(out2 / "purity_summary.json"))
        assert float(data["dpdt0"]) == pytest.approx(summary["decay_rate"], rel=1e-12)

    def test_zero_noise_sweep_zero_column(self, tmp_path):
        cfg = {
            "sweep": {
                "param1": "jy", "param2": "jz",
                "start1": 0.5, "stop1": 1.5, "n1": 3,
                "start2": 0.5, "stop2": 1.5, "n2": 3,
                "fixed": {"delta1": 1.0, "delta2": 1.0},
            },
            "noise": {"alpha": 0.0, "temperature": 0.0, "cutoff": 20.0},
        }
        path = write_config(tmp_path, cfg)
        code, out = run(tmp_path, "sweep", "--config", path)
        data = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True, usecols=(3,))
        np.testing.assert_allclose(data["dpdt0"], 0.0, atol=1e-14)


class TestOptimizeCommand:
    def test_seeded_runs_reproducible(self, tmp_path):
        cfg = {
            "target": "SWAP",
            "optimize": {
                "bounds": {"jx": [0.05, 0.5], "jy": [0.05, 0.5], "jz": [0.05, 0.5]},
                "frozen": {"delta1": 0, "delta2": 0, "eps1": 0, "eps2": 0},
                "restarts": 4,
                "max_iter": 200,
            },
            "seed": 11,
        }
        path = write_config(tmp_path, cfg)
        code1 = main(["optimize", "--config", path, "--out", str(tmp_path / "o1")])
        code2 = main(["optimize", "--config", path, "--out", str(tmp_path / "o2")])
        assert code1 == code2 == EXIT_OK
        assert read(tmp_path / "o1" / "optimize_report.json") == read(
            tmp_path / "o2" / "optimize_report.json"
        )

    def test_nonconverged_exit_code(self, tmp_path):
        cfg = {
            "target": "SQRT_SWAP",
            "optimize": {
                "bounds": {"jy": [0.2, 3.0], "jz": [0.2, 3.0]},
                "frozen": {"delta1": 1.0, "delta2": 1.0, "jx": 0.0},
                "degeneracy": "double",
                "restarts": 2,
                "max_iter": 150,
            },
            "seed": 3,
        }
        path = write_config(tmp_path, cfg)
        code, out = run(tmp_path, "optimize", "--config", path)
        assert code == EXIT_NONCONVERGED
        payload = json.loads(read(out / "optimize_report.json"))
        assert payload["converged"] is False
        assert payload["invariant_gap"] >= 0.1


class TestCalibrateCommand:
    def test_device_numbers(self, tmp_path):
        code, out = run(tmp_path, "calibrate", "--experiment", "paper:calibration")
        assert code == EXIT_OK
        payload = json.loads(read(out / "calibration_report.json"))
        assert 0.005 <= payload["alpha"] <= 0.02
        assert 0.021 <= payload["purity_loss_bgate"] <= 0.039
        assert 0.105 <= payload["purity_loss_cnot_class"] <= 0.195


class TestEnvironmentOutput:
    def test_outdir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DEGENGATE_OUT", str(tmp_path / "envout"))
        code = main(["invariants", "--gate", "CNOT"])
        assert code == EXIT_OK
        assert os.path.exists(tmp_path / "envout" / "invariants.json")
