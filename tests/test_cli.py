import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kwrob import DiscretePMF, DomainError, Myerson, TablePrior, Uniform, revenue_exact
from kwrob.cli import build_parser, main


def run_cli(args):
    return main(args)


class TestCounterexample:
    def test_myerson_report(self, tmp_path, capsys):
        code = run_cli(["counterexample", "myerson", "--n", "10", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "counterexample_myerson_n10.json").read_text())
        assert report["pass"]
        assert report["ratio_lower_bound"] >= 10 / 3
        assert report["adversarial_revenue"] == pytest.approx(3 - 2 / 10, abs=1e-5)

    def test_q2_report(self, tmp_path, capsys):
        code = run_cli(["counterexample", "q2", "--n", "10", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "counterexample_q2_n10.json").read_text())
        assert report["q2_adversarial"] == 0.01
        assert report["q2_independent"] == pytest.approx(0.3026431198, abs=1e-9)


class TestReproduce:
    def test_2_63(self, tmp_path, capsys):
        assert run_cli(["reproduce", "2.63", "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "reproduce_2.63.json").read_text())
        assert s["pass"] and abs(s["beta_star"] - 1 / 3) < 0.01
        rows = (tmp_path / "ratio_curve.csv").read_text().splitlines()
        assert rows[0] == "beta,lb1_inv_beta,lb2_inv_beta,ratio_lower_bound"
        assert len(rows) == 1001

    def test_18_07(self, tmp_path, capsys):
        assert run_cli(["reproduce", "18.07", "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "reproduce_18.07.json").read_text())
        assert s["pass"] and s["certified_constant"] <= 18.07

    def test_18_07_vacuous_p_exits_2(self, tmp_path, capsys):
        assert run_cli(["reproduce", "18.07", "--p-bar", "0.3", "--out", str(tmp_path)]) == 2

    def test_case1(self, tmp_path, capsys):
        assert run_cli(["reproduce", "case1-2.91", "--out", str(tmp_path)]) == 0
        s = json.loads((tmp_path / "reproduce_case1.json").read_text())
        assert s["constant"] == pytest.approx(2.90976, abs=1e-9)

    def test_figure2(self, tmp_path, capsys):
        assert run_cli(["reproduce", "figure2", "--out", str(tmp_path)]) == 0
        for name in ["figure2a_uniform.csv", "figure2a_equal_revenue.csv", "figure2b_convexity.csv"]:
            assert (tmp_path / name).exists()


class TestRevenue:
    def test_exact_uniform_pair(self, tmp_path, capsys):
        cfg = {
            "marginals": [{"type": "uniform", "lo": 0, "hi": 1}] * 2,
            "prior": {"type": "product", "marginals": [{"type": "uniform", "lo": 0, "hi": 1}] * 2},
            "mechanism": {"type": "ar", "r": 0.5},
            "mode": "exact",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 0
        est = json.loads((tmp_path / "revenue.json").read_text())
        assert est["mean"] == pytest.approx(5 / 12, abs=1e-9)
        assert est["exact"]

    def test_mc_needs_seed(self, tmp_path, capsys):
        cfg = {
            "prior": {"type": "uniform_q2", "n": 3},
            "mechanism": {"type": "ar", "r": 0.5},
            "mode": "mc",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_mc_deterministic_rerun(self, tmp_path, capsys):
        cfg = {
            "prior": {"type": "myerson_counterexample", "n": 4, "eps": 1e-6},
            "mechanism": {"type": "myerson"},
            "mode": "mc",
            "samples": 20000,
            "seed": 11,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 0
        first = (tmp_path / "revenue.json").read_bytes()
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "revenue.json").read_bytes() == first

    def test_threshold_curve_csv(self, tmp_path, capsys):
        cfg = {
            "prior": {"type": "uniform_q2", "n": 4},
            "mechanism": {"type": "ar", "r": 0.75},
            "mode": "exact",
            "curve": {"lo": 0.0, "hi": 1.0, "count": 11},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "threshold_curve.csv").read_text().splitlines()
        assert lines[0] == "tau,q1,q2,q1_ind,q2_ind"
        assert len(lines) == 12
        # Q2 column at tau = 0.75 should be the adversarial 1/16
        row = dict(zip(lines[0].split(","), lines[-3].split(",")))
        assert float(row["tau"]) == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "marginal, spec, support",
        [
            (Uniform(0.0, 1.0), {"type": "uniform", "lo": 0, "hi": 1}, [0.5, 2.0]),
            (DiscretePMF([1.0, 3.0], [0.5, 0.5]), {"type": "discrete", "points": [1, 3], "masses": [0.5, 0.5]}, [1.0, 2.0]),
        ],
        ids=["outside_support", "between_points"],
    )
    def test_myerson_table_value_its_marginal_cannot_produce(self, marginal, spec, support, tmp_path, capsys):
        # every cell has mass, so every table value reaches the mechanism
        pmf = np.full((2, 2), 0.25)
        with pytest.raises(DomainError):
            revenue_exact(TablePrior([support] * 2, pmf), Myerson([marginal] * 2))
        cfg = {
            "marginals": [spec] * 2,
            "prior": {"type": "table", "supports": [support] * 2, "pmf": pmf.tolist()},
            "mechanism": {"type": "myerson"},
            "mode": "exact",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 1

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"mechanism": {"type": "ar", "r": 1}}))
        assert run_cli(["revenue", "--config", str(path), "--out", str(tmp_path)]) == 1


class TestLpCommand:
    def test_worst_case_round_trip(self, tmp_path, capsys):
        inst = {
            "marginals": [
                {"type": "discrete", "points": [0, 1], "masses": [0.5, 0.5]},
                {"type": "discrete", "points": [0, 1], "masses": [0.5, 0.5]},
                {"type": "discrete", "points": [0, 1], "masses": [0.5, 0.5]},
            ]
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        assert (
            run_cli(
                ["lp", "worst-case", "--instance", str(path), "--k", "2",
                 "--mechanism", "ar", "--r", "0.5", "--out", str(tmp_path)]
            )
            == 0
        )
        sol = json.loads((tmp_path / "worst_case.json").read_text())
        assert sol["duality_gap"] <= 1e-7
        from kwrob.io import table_from_csv

        table = table_from_csv(tmp_path / "worst_case_table.csv")
        assert table.pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_min_event(self, tmp_path, capsys):
        inst = {
            "marginals": [
                {"type": "discrete", "points": [0, 1], "masses": [0.5, 0.5]},
            ] * 4
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst))
        assert (
            run_cli(
                ["lp", "min-event", "--instance", str(path), "--k", "2",
                 "--tau", "1.0", "--count", "2", "--out", str(tmp_path)]
            )
            == 0
        )
        sol = json.loads((tmp_path / "worst_case.json").read_text())
        assert sol["objective"] >= 1 / 3 - 1e-9


class TestDeterminism:
    def test_reproduce_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["reproduce", "figure1", "--out", str(a)])
        run_cli(["reproduce", "figure1", "--out", str(b)])
        assert (a / "ratio_curve.csv").read_bytes() == (b / "ratio_curve.csv").read_bytes()

    def test_bounds_table_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli(["bounds", "table", "--out", str(a)])
        run_cli(["bounds", "table", "--out", str(b)])
        assert (a / "bounds.csv").read_bytes() == (b / "bounds.csv").read_bytes()


class TestReadme:
    def test_cli_block_parses(self):
        """Every `kwrob ...` line of the README's CLI block is a valid
        command line, so a removed subcommand cannot stay documented."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
        commands = [argv[1:] for argv in lines if argv and argv[0] == "kwrob"]
        assert len(commands) >= 10
        for argv in commands:
            build_parser().parse_args(argv)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # the checkout's src/ goes on the child's path too, so this also runs
        # from a checkout that is not installed
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "kwrob.cli", "reproduce", "case1-2.91", "--out", str(tmp_path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "2.90976" in out.stdout


class TestBenchmarkHooks:
    def test_layer_trace_rebinds_every_hook(self):
        """bench/layertrace.py wraps program names from outside and reads the
        sizes of a built polytope; removing or renaming one must fail here,
        not only in the traced benchmark."""
        root = Path(__file__).resolve().parents[1]
        code = (
            "import numpy as np, kwrob.cli, kwrob.lp, layertrace\n"
            "from kwrob import AnonymousReserve, revenue\n"
            "tracer = layertrace.Tracer()\n"
            "layertrace.instrument(tracer)\n"
            "tracer.begin_job()\n"
            "revenue.mechanism_payments(AnonymousReserve(0.5), np.ones((3, 2)))\n"
            "kwrob.lp.build_polytope([([0.0, 1.0], [0.5, 0.5])] * 3, 2)\n"
            "m = tracer.end_job()\n"
            "assert m['revenue.mechanism_payments.rows'] == 3\n"
            "assert (m['lp.cells'], m['lp.rows_full'], m['lp.rows_solver']) == (8, 19, 7)\n"
        )
        path = [str(root / "src"), str(root / "bench"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
