import csv
import io
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicf.cli import main, parse_poly, parse_rational, poly_to_string
from cubicf.errors import PolyParseError, ZeroPolynomialError
from cubicf.poly import IntPoly

SCHEMA = json.loads((Path(__file__).parent.parent / "schema" / "expansion.schema.json").read_text())


class TestParsePoly:
    def test_cbrt2(self):
        assert parse_poly("x^3 - 2") == IntPoly((-2, 0, 0, 1))

    def test_c7(self):
        assert parse_poly("x^3 + x^2 - 2x - 1") == IntPoly((-1, -2, 1, 1))

    def test_disc49_companion(self):
        assert parse_poly("x^3 - 7x^2 + 49") == IntPoly((49, 0, -7, 1))

    def test_star_and_spaces(self):
        assert parse_poly(" 2*x^2-3 * x + 1") == IntPoly((1, -3, 2))

    def test_repeated_powers_summed(self):
        assert parse_poly("x + x + 1") == IntPoly((1, 2))

    def test_leading_minus(self):
        assert parse_poly("-x^3 + 3x^2 + 3x + 1") == IntPoly((1, 3, 3, -1))

    def test_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("x^3 - ?")
        assert exc.value.position == 6

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            parse_poly("x - x")

    def test_empty_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("   ")

    def test_missing_separator(self):
        with pytest.raises(PolyParseError):
            parse_poly("x^2 3")


@given(
    coeffs=st.lists(st.integers(-99, 99), min_size=1, max_size=6).filter(
        lambda cs: any(cs)
    )
)
@settings(max_examples=120, deadline=None)
def test_parse_pretty_round_trip(coeffs):
    f = IntPoly(tuple(coeffs))
    assert parse_poly(poly_to_string(f)) == f


class TestParseRational:
    def test_forms(self):
        assert parse_rational("5/4") == Fraction(5, 4)
        assert parse_rational("-3") == Fraction(-3)
        assert parse_rational("1.25") == Fraction(5, 4)
        assert parse_rational("1e-6") == Fraction(1, 10**6)

    def test_bad(self):
        with pytest.raises(PolyParseError):
            parse_rational("one half")


class TestExpandCommand:
    def test_csv_a_column(self, capsys):
        rc = main(["expand", "--poly", "x^3-2", "--root", "1", "--depth", "7", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["n", "a", "p", "q", "tail_poly", "C", "bits"]
        assert [r[1] for r in rows[1:]] == ["1", "3", "1", "5", "1", "1", "4"]

    def test_json_validates_against_schema(self, capsys):
        rc = main(["expand", "--poly", "x^3-2", "--root", "1", "--depth", "5", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["steps"][0]["a"] == "1"
        assert doc["steps"][0]["tail_poly"] == ["-1", "-3", "-3", "1"]

    def test_cos27_quotients(self, capsys):
        rc = main(["expand", "--poly", "x^3+x^2-2x-1", "--root", "3", "--depth", "3", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[1] for r in rows[1:]] == ["1", "4", "20"]

    def test_reducible_exit_4(self, capsys):
        assert main(["expand", "--poly", "x^2-1", "--root", "1", "--depth", "5"]) == 4

    def test_parse_error_exit_2(self, capsys):
        assert main(["expand", "--poly", "x^3 - - 2", "--root", "1"]) == 2

    def test_bad_root_exit_3(self, capsys):
        assert main(["expand", "--poly", "x^3-2", "--root", "2", "--depth", "3"]) == 3

    def test_interval_selector(self, capsys):
        rc = main(
            ["expand", "--poly", "x^3+x^2-2x-1", "--interval", "1", "3/2", "--depth", "3", "--format", "csv"]
        )
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [r[1] for r in rows[1:]] == ["1", "4", "20"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        rc = main(
            ["expand", "--poly", "x^3-2", "--root", "1", "--depth", "3", "--format", "json", "--out", str(target)]
        )
        assert rc == 0
        jsonschema.validate(json.loads(target.read_text()), SCHEMA)

    def test_env_depth(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBICF_DEPTH", "4")
        rc = main(["expand", "--poly", "x^3-2", "--root", "1", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5  # header + 4 steps

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CUBICF_DEPTH", "4")
        monkeypatch.setenv("CUBICF_FORMAT", "json")
        rc = main(["expand", "--poly", "x^3-2", "--root", "1", "--depth", "2", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 3

    def test_precision_flag_removed(self, capsys):
        # only verify reads a tolerance
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--poly", "x^3-2", "--depth", "4", "--precision", "1e-9"])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_cbrt2_text(self, capsys):
        rc = main(["verify", "--poly", "x^3-2", "--root", "1", "--depth", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "discriminant -108" in out
        assert "onset: 2" in out
        assert "ALL PASS" in out

    def test_disc49_json(self, capsys):
        rc = main(["verify", "--poly", "x^3+x^2-2x-1", "--root", "3", "--depth", "10", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        rep = doc["reports"]
        assert rep["discriminant"] == "49"
        assert rep["discriminant_constant"] is True
        assert rep["exact_ok"] is True
        flags = rep["reduced"]
        assert all(b or not a for a, b in zip(flags, flags[1:]))  # nondecreasing

    def test_csv_columns(self, capsys):
        rc = main(["verify", "--poly", "x^3-2", "--root", "1", "--depth", "6", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:4] == ["n", "a", "disc", "reduced"]
        assert all(r[2] == "-108" for r in rows[1:])

    def test_precision_honoured_below_default(self, capsys):
        rc = main(["verify", "--poly", "x^3-2", "--depth", "8", "--precision", "1e-20", "--format", "json"])
        assert rc == 0
        limit = json.loads(capsys.readouterr().out)["reports"]["limit"]
        assert len(limit) == 8
        for rec in limit:
            lo, hi = (Fraction(v) for v in rec["value"])
            assert hi - lo <= lo * Fraction(1, 10**20), rec["n"]

    def test_non_cubic_exit_4(self, capsys):
        assert main(["verify", "--poly", "x^2-2", "--root", "2", "--depth", "8"]) == 4

    def test_violation_exit_1(self, capsys, monkeypatch):
        import dataclasses

        import cubicf.cli as climod

        real_report = climod.verification_report

        def fake_report(e, rel):
            return dataclasses.replace(real_report(e, rel), discriminant_constant=False)

        monkeypatch.setattr(climod, "verification_report", fake_report)
        rc = main(["verify", "--poly", "x^3-2", "--root", "1", "--depth", "6", "--format", "csv"])
        assert rc == 1


class TestExpressCommand:
    def test_beta_squared(self, capsys):
        rc = main(["express", "--poly", "x^3-2", "0", "0", "1"])
        assert rc == 0
        assert capsys.readouterr().out.split() == ["0", "2", "1", "0", "det", "-2"]

    def test_rational(self, capsys):
        rc = main(["express", "--poly", "x^3-2", "3/2", "0", "0"])
        assert rc == 0
        assert capsys.readouterr().out.split() == ["0", "3", "0", "2", "det", "0"]

    def test_json(self, capsys):
        rc = main(["express", "--poly", "x^3-2", "0", "1", "0", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"a": "1", "b": "0", "c": "0", "d": "1", "det": "1"}

    def test_reducible_exit_4(self, capsys):
        assert main(["express", "--poly", "x^3-1", "0", "1", "0"]) == 4


class TestStatsCommand:
    def test_two_classics(self, capsys):
        rc = main(
            ["stats", "--poly", "x^2-x-1", "--root", "2", "--poly", "x^2-2", "--root", "2", "--depth", "30", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        lam1 = [Fraction(v) for v in doc["inputs"][0]["lambda"]]
        lam2 = [Fraction(v) for v in doc["inputs"][1]["lambda"]]
        assert abs(float(sum(lam1) / 2) - 0.4472135955) < 1e-3
        assert abs(float(sum(lam2) / 2) - 0.3535533906) < 1e-3

    def test_relate_transfer(self, capsys):
        rc = main(
            [
                "stats",
                "--poly", "x^3-2", "--root", "1",
                "--poly", "x^3-4", "--root", "1",
                "--relate", "0,2,1,0",
                "--depth", "25",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lambda_transfer"]["det"] == "-2"
        assert doc["lambda_transfer"]["relation_verified"] is True

    def test_single_input_profile_only(self, capsys):
        rc = main(["stats", "--poly", "x^3-2", "--depth", "15", "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["inputs"]) == 1
        assert "tails_match" not in doc

    def test_relate_without_roots(self, capsys):
        # zero --root flags select root 1 of every input
        rc = main(
            ["stats", "--poly", "x^3-2", "--poly", "x^3-4", "--relate", "0,2,1,0",
             "--depth", "25", "--format", "json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["inputs"]) == 2
        assert doc["lambda_transfer"]["relation_verified"] is True

    @pytest.mark.parametrize(
        "selection",
        [
            ["--poly", "x^3-2", "--root", "1", "--root", "1", "--root", "2"],
            ["--poly", "x^3-2", "--poly", "x^3-4", "--root", "1"],
        ],
        ids=["extra", "missing"],
    )
    def test_root_count_mismatch_exit_3(self, capsys, selection):
        rc = main(["stats", *selection, "--depth", "15"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--root" in captured.err

    def test_precision_flag_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--poly", "x^3-2", "--precision", "1e-20"])
        assert exc.value.code == 2

    def test_text_mode(self, capsys):
        rc = main(["stats", "--poly", "x^2-x-1", "--root", "2", "--depth", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "max quotient 1" in out

    def test_csv_mode(self, capsys):
        rc = main(["stats", "--poly", "x^2-x-1", "--root", "2", "--depth", "12", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["input", "n", "a", "running_max"]
        assert len(rows) == 13


class TestMiscFlags:
    def test_crosscheck_cadence_flag(self, capsys):
        rc = main(
            ["expand", "--poly", "x^3-2", "--root", "1", "--depth", "12",
             "--crosscheck-every", "4", "--format", "csv"]
        )
        assert rc == 0

    def test_express_csv(self, capsys):
        rc = main(["express", "--poly", "x^3-2", "0", "0", "1", "--format", "csv"])
        assert rc == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["a", "b", "c", "d", "det"]
        assert rows[1] == ["0", "2", "1", "0", "-2"]
