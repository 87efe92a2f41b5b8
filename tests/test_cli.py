import csv
import hashlib
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import oracles
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

    def test_reducible_with_irrational_first_root_exit_4(self, capsys):
        # (x - 1)(x^2 - 2): root 1 is -sqrt(2), so only the degree shows it
        assert main(["express", "--poly", "x^3-x^2-2x+2", "0", "1", "0"]) == 4


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


def _cli(argv, capsys):
    start = time.perf_counter()
    rc = main(argv)
    return rc, capsys.readouterr().out, time.perf_counter() - start


BIG = 10**39


class TestLargeCoefficients:
    """Input validation costs time polynomial in the coefficients' bit size."""

    @pytest.mark.parametrize(
        "text, coeffs",
        [
            ("x^3+2x+100000000000000000002", (100000000000000000002, 2, 0, 1)),
            ("123456789012345678901234567891x^3+2x+2", (2, 2, 0, 123456789012345678901234567891)),
            (f"x^3+2x+{4 * BIG + 2}", (4 * BIG + 2, 2, 0, 1)),
            (f"{BIG + 9}x^3+2x+2", (2, 2, 0, BIG + 9)),
            (f"{BIG + 9}x^3-{3 * BIG}x^2+2x+{4 * BIG + 2}", (4 * BIG + 2, 2, -3 * BIG, BIG + 9)),
        ],
    )
    def test_expand_and_express(self, text, coeffs, capsys):
        depth = 20
        rc, out, seconds = _cli(["expand", "--poly", text, "--depth", str(depth), "--format", "csv"], capsys)
        assert rc == 0 and seconds < 1.0
        rows = list(csv.reader(io.StringIO(out)))
        assert [int(r[1]) for r in rows[1:]] == oracles.cf_quotients(coeffs, 1, depth)

        rc, out, seconds = _cli(["express", "--poly", text, "1", "2", "3", "--format", "json"], capsys)
        assert rc == 0 and seconds < 1.0
        rep = {k: int(v) for k, v in json.loads(out).items()}
        with mp.workdps(120):
            beta = oracles.real_roots(coeffs, dps=120)[0]
            value = (rep["a"] * beta + rep["b"]) / (rep["c"] * beta + rep["d"])
            elem = 1 + 2 * beta + 3 * beta**2
            assert abs(value - elem) <= mpf(10) ** -60 * abs(elem)


# sha256 prefixes of `verify --depth 12` and `stats --depth 30` output in every
# format, recorded before refine and _bisect moved to integer bisection.
PINNED_OUTPUT = {
    ("x^3-2", 1): ("a792083191c85d14", "04feb8b371578a9c", "862b502313ae607e",
                   "212bb34a84e61ec0", "fbb57fa5fbc4dd47", "45e8f134b1e6bf8c"),
    ("x^3+x^2-2x-1", 3): ("3b59dd663a2c63be", "7aa3a499bfce94ff", "3b486c28795e31e6",
                          "f2f35b0e86f211a6", "e7dac5de89ad6b9d", "4ec816670bbc2229"),
    ("x^3-3x+1", 2): ("c46559aae846ed43", "1c281745c8befa8f", "027ceaa6d37ca718",
                      "f8da269acc715bdc", "6d5ed3ee3a01f0e1", "82cb8240505a9fba"),
    # seeded small cubics: conftest.random_irreducible_cubic(random.Random(2024), 9)
    ("5x^3+9x^2-4x+6", 1): ("52857245377e3b04", "ddc364d65caceadc", "7c1381c5ec40242d",
                            "4b6231fb3fc72237", "9873e1e90551c3e7", "e79644a299cd9fbc"),
    ("4x^3+8x^2-x+4", 1): ("b510c1ffe3bc1f68", "dea7e203665e7131", "f1fc8f47b58c0b47",
                           "4d80c73369245c25", "f0a4ad0a251e91f0", "bf506afa97cdbe08"),
    ("4x^3+7x^2+4x+2", 1): ("535937841567a89c", "a92edca55179bee3", "446656e07fabf95c",
                            "8fe9f5b44eaba9c4", "9aba1b0eec42603f", "6fda1131f9fcb4ca"),
    ("2x^3+7x^2+x+8", 1): ("fcd5cbae35cb1d03", "4dd02a74bb828559", "37446f23f3344df4",
                           "af01722ac1b15880", "f39727c3ec5e4bfb", "5a11863002b96e2e"),
}


@pytest.mark.parametrize("poly, root", sorted(PINNED_OUTPUT))
def test_verify_and_stats_output_pinned(poly, root, capsys):
    runs = [(cmd, depth, fmt) for cmd, depth in (("verify", "12"), ("stats", "30"))
            for fmt in ("json", "csv", "text")]
    digests = []
    for cmd, depth, fmt in runs:
        rc = main([cmd, "--poly", poly, "--root", str(root), "--depth", depth, "--format", fmt])
        assert rc == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert tuple(digests) == PINNED_OUTPUT[(poly, root)]
