import json

import numpy as np
import pytest

from conftest import write_csv_reference
from kwrob import Myerson, Uniform
from kwrob.cli import main
from kwrob.io import ConfigError, mechanism_from_dict, write_csv


class TestWriteCsv:
    """write_csv against the cell-by-cell writer, byte for byte."""

    ROWS = [
        (-0.0, 0.0, 5e-324, -5e-324),
        (1e308, -1e308, float("inf"), float("-inf")),
        (float("nan"), 0.1, 1 / 3, 2.0**60),
        [np.float64(0.1), np.float64(-np.inf), np.float64(np.nan), np.float64(1e-310)],
        (1, 2.5, -3, 0.0),
        (True, False, np.bool_(True), 1.0),
        ("label", 0.5, "x=1", -0.0),
        (np.int64(7), np.float32(0.1), 2.0, np.uint8(255)),
        (),
    ]

    def _same(self, tmp_path, header, rows):
        write_csv(tmp_path / "got.csv", header, rows)
        write_csv_reference(tmp_path / "want.csv", header, rows)
        got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
        assert got == want
        return got

    def test_edge_cells(self, tmp_path):
        text = self._same(tmp_path, ["a", "b", "c", "d"], self.ROWS).decode()
        assert text.splitlines()[1] == "-0,0,4.9406564584124654e-324,-4.9406564584124654e-324"
        assert text.splitlines()[6] == "true,false,true,1"

    @pytest.mark.parametrize("width", [1, 4, 9])
    def test_random_floats(self, tmp_path, width):
        rng = np.random.default_rng(width)
        bits = np.frombuffer(rng.bytes(8 * 500 * width), dtype=np.float64).reshape(500, width)
        scaled = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-300, 300, (500, width))
        rows = [tuple(r) for r in bits.tolist()] + [list(r) for r in scaled.tolist()] + list(map(tuple, scaled))
        self._same(tmp_path, [f"c{k}" for k in range(width)], rows)

    def test_rows_from_generators(self, tmp_path):
        def rows():
            return ((x for x in (float(k), k / 7)) for k in range(50))

        write_csv(tmp_path / "got.csv", ["x", "y"], rows())
        write_csv_reference(tmp_path / "want.csv", ["x", "y"], rows())
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestMechanismFromDict:
    MARGINALS = [Uniform(0, 1)] * 2

    @pytest.mark.parametrize("spec", [{"type": "myerson"}, {"type": "myerson", "tie_break": "lex"}])
    def test_myerson_is_the_one_rule(self, spec):
        assert mechanism_from_dict(spec, self.MARGINALS) == Myerson(self.MARGINALS)

    @pytest.mark.parametrize("tie_break", ["highest_value", "LEX", "", None, 1])
    def test_other_tie_break_is_a_config_error(self, tie_break):
        with pytest.raises(ConfigError, match=r"^mechanism\.tie_break: "):
            mechanism_from_dict({"type": "myerson", "tie_break": tie_break}, self.MARGINALS)

    def test_cli_exits_1_naming_the_field(self, tmp_path, capsys):
        uniform = {"type": "uniform", "lo": 0, "hi": 1}
        cfg = {
            "marginals": [uniform] * 2,
            "prior": {"type": "product", "marginals": [uniform] * 2},
            "mechanism": {"type": "myerson", "tie_break": "highest_value"},
            "mode": "exact",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["revenue", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: mechanism.tie_break: only \"lex\" is supported, got 'highest_value'\n"
        assert not (tmp_path / "out").exists()
