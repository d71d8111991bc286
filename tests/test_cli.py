import json
import math
import re
from time import perf_counter

import pytest

from htbif import errors
from htbif.cli import main
from htbif.model import ModelParams
from htbif.nodal import nodal_pair


def run_cli(args):
    return main(args)


class TestCritical:
    def test_threshold_table(self, tmp_path):
        out = tmp_path / "critical.csv"
        assert run_cli(["critical", "--b", "1", "--d", "1", "--kappa-max", "3", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "kappa,mu_kappa"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert float(rows[1][1]) == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
        assert float(rows[2][1]) == pytest.approx(16.0 * math.pi ** 2, rel=1e-15)


class TestEigencurves:
    def test_rows_and_roundtrip(self, tmp_path):
        out = tmp_path / "eig.csv"
        assert run_cli(["eigencurves", "--mu", "50", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "mu,ell,lambda_minus,lambda_plus,is_real"
        row1 = lines[2].split(",")
        assert row1[1] == "1" and row1[4] == "True"
        # 17 significant digits round-trip exactly
        assert float(row1[2]) == 13.531792644640047
        row2 = lines[3].split(",")
        assert row2[4] == "False" and math.isnan(float(row2[2]))


class TestTimemapCSV:
    def test_columns_consistent(self, tmp_path, desk):
        out = tmp_path / "tm.csv"
        assert run_cli(["timemap", "--mu", "50", "--lambda", "25", "--samples", "4", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "w_minus,w_plus,T,energy_level"
        from htbif.model import potential_F

        for line in lines[1:]:
            wm, wp, t, level = map(float, line.split(","))
            assert 0.0 < wm < 1.0 < wp
            assert t > 0.0
            assert float(potential_F(wm, desk)) == pytest.approx(level, rel=1e-12)
            assert float(potential_F(wp, desk)) == pytest.approx(level, rel=1e-9)


class TestNodalCSV:
    def test_profiles(self, tmp_path):
        out = tmp_path / "nodal.csv"
        assert run_cli(["nodal", "--n", "1", "--lambda", "25", "--mu", "50",
                        "--n-points", "501", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,w_lower,w_upper"
        assert len(lines) == 502
        first = lines[1].split(",")
        assert float(first[1]) < 1.0 < float(first[2])


class TestMorseCSV:
    def test_branches(self, tmp_path):
        out = tmp_path / "morse.csv"
        assert run_cli(["morse", "--mu", "50", "--n", "1", "--n-lambda", "3",
                        "--n-points", "501", "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,branch,morse_index,tau_low,tau_high"
        branches = {line.split(",")[1] for line in lines[1:]}
        assert branches == {"constant", "nodal-lower", "nodal-upper"}
        for line in lines[1:]:
            cells = line.split(",")
            if cells[1] == "constant":
                assert cells[2] == "2"
            else:
                assert cells[2] == "1"


    def test_skipped_lams_are_warned(self, tmp_path, capsys):
        # 19 of the 25 mode-3 lams at mu = 640 have no pair on 301 points (the
        # march drifts off its energy); each is one stderr line, and the rows
        # and the exit status stay
        out = tmp_path / "morse.csv"
        assert run_cli(["morse", "--mu", "640", "--n", "3", "--n-points", "301", "-o", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        solved = {row[0] for row in rows if row[1] == "nodal-lower"}
        assert len({row[0] for row in rows}) == 25 and len(solved) == 6
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 19
        pattern = r"htbif morse: UserWarning: morse skipped lam = (\S+): energy drift \S+ exceeds 1e-09"
        skipped = [float(re.fullmatch(pattern, line).group(1)) for line in lines]
        assert all(min(abs(float(lam) - s) for lam in solved) > 1e-3 * s for s in skipped)

    def test_threshold_mu_has_no_window(self, tmp_path, capsys):
        # at mu = mu_1 the mode-1 root pair is a double root: no window, no rows
        out = tmp_path / "morse.csv"
        assert run_cli(["morse", "--mu", repr(4.0 * math.pi ** 2), "--n", "1", "-o", str(out)]) == 1
        assert "NoSolutionError: mode 1 has no real root window" in capsys.readouterr().err
        assert not out.exists()


class TestBifdirJSON:
    def test_schema_and_content(self, tmp_path):
        out = tmp_path / "bd.json"
        assert run_cli(["bifdir", "--n", "1", "--side", "plus", "--mu", "50",
                        "--n-points", "1001", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "htbif/1"
        assert data["kind"] == "expansion_check"
        assert data["eta2_estimate"] < 0.0
        assert data["eta2_closed_form"] < 0.0


class TestCensusJSON:
    def test_contents(self, tmp_path):
        out = tmp_path / "census.json"
        assert run_cli(["census", "--n", "1", "--lambda", "25", "--mu", "50",
                        "--eps", "1e-3", "--n-points", "1001", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["schema"] == "htbif/1"
        assert data["distinct_count"] == 3
        assert data["shortfall"] is False
        assert {s["origin"] for s in data["states"]} == {"constant", "nodal(1,lower)", "nodal(1,upper)"}
        assert all(s["residual_sup"] < 1e-9 for s in data["states"])
        assert all(len(s["w"]) == 1001 for s in data["states"])

    def test_shortfall_warning_is_one_line(self, tmp_path, capsys):
        # at eps = 10 every seed's Newton solve leaves the positive cone: the
        # census warns, and the CLI prints that warning in its one-line form
        out = tmp_path / "census.json"
        assert run_cli(["census", "--mu", "50", "--lambda", "25", "--n", "1", "--eps", "10",
                        "-o", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"htbif census: UserWarning: census failures: constant: [^\n]+\n", captured.err)
        data = json.loads(out.read_text())
        assert data["shortfall"] is True and data["distinct_count"] == 0


class TestPerturbJSON:
    def test_contents(self, tmp_path):
        out = tmp_path / "perturb.json"
        assert run_cli(["perturb", "--n", "1", "--lambda", "25", "--mu", "50",
                        "--eps", "1e-3", "--n-points", "1001", "-o", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "perturb"
        assert len(data["states"]) == 3


class TestDiagram:
    def test_single_mode_regime_has_no_loops(self, tmp_path):
        out = tmp_path / "d.svg"
        assert run_cli(["diagram", "--mu", "30", "-o", str(out)]) == 0
        svg = out.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polygon") == 0
        assert svg.count("<polyline") == 1  # the constant branch only

    def test_two_mode_regime_has_two_loops(self, tmp_path):
        out = tmp_path / "d2.svg"
        assert run_cli(["diagram", "--mu", "170", "--n-lambda", "7", "-o", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<polygon") == 2
        csv_out = tmp_path / "d2.csv"
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "n,lambda,w_minus_lower,sup_norm_lower,sup_norm_upper"
        modes = {line.split(",")[0] for line in lines[1:]}
        assert modes == {"1", "2"}


    def test_one_double_above_a_threshold_draws_only_certified_pairs(self, tmp_path, capsys):
        # mu one double above mu_3: the mode-3 window is about 7e-6 wide, so
        # of its five samples two solve and three are refused by name, each
        # its own stderr line; every mode-3 row is the pair nodal_pair returns
        mu = "3434.622331579097"
        out = tmp_path / "d.svg"
        assert run_cli(["diagram", "--b", "0.3", "--d", "2.9", "--mu", mu, "--n-lambda", "5", "-o", str(out)]) == 0
        rows = [line.split(",") for line in (tmp_path / "d.csv").read_text().strip().splitlines()[1:]]
        mode3 = [[float(cell) for cell in row[1:]] for row in rows if row[0] == "3"]
        assert len(mode3) == 2
        p = ModelParams(b=0.3, d=2.9, mu=float(mu))
        for lam, w_minus, sup_lower, sup_upper in mode3:
            lower, upper = nodal_pair(3, p.with_lam(lam))
            assert (w_minus, sup_lower, sup_upper) == (
                lower.w_minus, lower.profile.sup_norm(), upper.profile.sup_norm()
            )
        lines = capsys.readouterr().err.splitlines()
        pattern = (r"htbif diagram: UserWarning: trace_loop skipped lam = (\S+): no 3-crossing solution: "
                   r"amplitude window is below numerical resolution at lam = \S+")
        skipped = {float(re.fullmatch(pattern, line).group(1)) for line in lines}
        assert len(lines) == len(skipped) == 3
        assert skipped.isdisjoint(row[0] for row in mode3)


class TestErrorsAndDeterminism:
    def test_missing_required_flag_names_it(self, tmp_path, capsys):
        code = run_cli(["timemap", "--lambda", "25"])
        err = capsys.readouterr().err
        assert code == 1
        assert "--mu" in err

    def test_domain_error_reported(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = run_cli(["timemap", "--mu", "50", "--lambda", "60", "-o", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "DomainError" in err

    @pytest.mark.parametrize("mu", ["0", "-1"])
    def test_eigencurves_refuse_nonpositive_mu(self, tmp_path, capsys, mu):
        # the mode cutoff takes sqrt(b mu/d), so mu is checked before it
        out = tmp_path / "eig.csv"
        assert run_cli(["eigencurves", "--mu", mu, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"htbif eigencurves: DomainError: eigencurves require mu > 0, got mu = {float(mu)!r}\n"
        assert not out.exists()

    def test_eigencurves_refuse_a_mode_count_above_the_cap(self, tmp_path, capsys):
        # at mu = 1e300 the default cutoff is about 3e149 modes
        out = tmp_path / "eig.csv"
        t0 = perf_counter()
        assert run_cli(["eigencurves", "--mu", "1e300", "-o", str(out)]) == 1
        assert perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            "htbif eigencurves: DomainError: 3.1831e+149 modes (0..ell_max) exceed the cap of 100000 modes\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cmd, args", [
        ("census", ["--lambda", "25", "--n", "1", "--eps", "1e-3"]),
        ("diagram", []),
    ])
    def test_window_walks_refuse_a_count_above_the_cap(self, tmp_path, capsys, cmd, args):
        # about 1.6e149 mode windows are open at mu = 1e300
        out = tmp_path / "x"
        t0 = perf_counter()
        assert run_cli([cmd, "--mu", "1e300"] + args + ["-o", str(out)]) == 1
        assert perf_counter() - t0 < 1.0
        assert capsys.readouterr().err == (
            f"htbif {cmd}: DomainError: about 1.59155e+149 open mode windows at mu = 1e+300 "
            "exceed the cap of 100000 modes\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, flag", [
        (["timemap", "--mu", "50", "--lambda", "25", "--samples", "0"], "--samples must be an integer >= 1"),
        (["critical", "--kappa-max", "-1"], "--kappa-max must be an integer >= 0"),
    ])
    def test_out_of_range_count_flag_names_it(self, tmp_path, capsys, args, flag):
        out = tmp_path / "x.csv"
        assert run_cli(args + ["-o", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory(self, tmp_path, capsys):
        code = run_cli(["critical", "-o", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert "does not exist" in capsys.readouterr().err

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["timemap", "--mu", "50", "--lambda", "25", "--samples", "6"]
        assert run_cli(args + ["-o", str(out1)]) == 0
        assert run_cli(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_roundtrip_precision(self, tmp_path):
        out = tmp_path / "tm.csv"
        run_cli(["timemap", "--mu", "50", "--lambda", "25", "--samples", "3", "-o", str(out)])
        from htbif.model import ModelParams
        from htbif.timemap import time_map

        desk = ModelParams()
        line = out.read_text().strip().splitlines()[2]
        wm, wp, t, level = map(float, line.split(","))
        s = time_map(wm, desk)
        assert s.T == t  # parse-back equals the computed double exactly
        assert s.w_plus == wp


# a valid call of every subcommand that takes a count flag, and the flags it takes
VALID = {
    "eigencurves": (["--mu", "50"], ["--ell-max"]),
    "critical": ([], ["--kappa-max"]),
    "timemap": (["--mu", "50", "--lambda", "25"], ["--samples"]),
    "nodal": (["--mu", "50", "--lambda", "25", "--n", "1"], ["--n", "--n-points"]),
    "diagram": (["--mu", "170"], ["--n-lambda"]),
    "morse": (["--mu", "50", "--n", "1"], ["--n", "--n-lambda", "--n-points"]),
    "bifdir": (["--mu", "50", "--n", "1", "--side", "plus"], ["--n", "--n-points"]),
    "perturb": (["--mu", "50", "--lambda", "25", "--n", "1", "--eps", "1e-3"], ["--n", "--n-points"]),
    "census": (["--mu", "50", "--lambda", "25", "--n", "1", "--eps", "1e-3"], ["--n", "--n-points"]),
}
# mode numbers start at 0, so --ell-max 0 and --kappa-max 0 are valid
FLOOR = {"--ell-max": 0, "--kappa-max": 0, "--n-points": 3}


def _refusals():
    for cmd, (base, flags) in VALID.items():
        for flag in flags:
            values = ["0", "-1"] if FLOOR.get(flag, 1) > 0 else ["-1"]
            values += ["2"] if flag == "--n-points" else []
            for value in values:
                yield pytest.param(cmd, base + [flag, value], id=f"{cmd} {flag} {value}")
    for value in ("0", "-1"):
        yield pytest.param("diagram", ["--mu", "170", "--ceiling", value], id=f"diagram --ceiling {value}")
    # mu = 30 opens no mode window, so no loop is traced to check --n-lambda
    yield pytest.param("diagram", ["--mu", "30", "--n-lambda", "0"], id="diagram no window --n-lambda 0")
    yield pytest.param("diagram", ["--mu", "30", "--points-csv", "missing/d.csv"], id="diagram --points-csv missing/")
    for spec in ("const:abc", "const:-1", "csv:missing.csv", "csv:.", "linear:1"):
        yield pytest.param("nodal", VALID["nodal"][0] + ["--a", spec], id=f"nodal --a {spec}")
    yield pytest.param("census", VALID["census"][0] + ["--c", "csv:missing.csv"], id="census --c csv:missing.csv")
    yield pytest.param("eigencurves", ["--mu", "-1"], id="eigencurves --mu -1")
    yield pytest.param("eigencurves", ["--mu", "1e300"], id="eigencurves --mu 1e300")
    # one line each, with no overflow warning ahead of it
    for cmd in ("nodal", "perturb", "census"):
        yield pytest.param(cmd, ["--mu", "1e300"] + VALID[cmd][0][2:], id=f"{cmd} --mu 1e300")
    yield pytest.param("diagram", ["--mu", "1e300"], id="diagram --mu 1e300")
    # the n-crossing amplitude lies below the smallest normal double
    for mu in ("1e7", "1e100"):
        yield pytest.param("nodal", ["--mu", mu, "--lambda", "25", "--n", "1"], id=f"nodal --mu {mu}")
    # eta2 overflows (plus side) or underflows (minus side), so the ladder
    # cannot move lam off the window end
    for mu, side in (("1e300", "plus"), ("1e120", "minus"), ("1e150", "minus"), ("1e300", "minus")):
        yield pytest.param("bifdir", ["--mu", mu, "--n", "1", "--side", side], id=f"bifdir --mu {mu} --side {side}")


# a refusal names one of the library's own error types, never a built-in one
TYPED = "|".join(
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, Exception) and not issubclass(cls, Warning)
)


@pytest.mark.parametrize("cmd, args", _refusals())
def test_refusal_is_one_line_and_writes_nothing(tmp_path, monkeypatch, capsys, cmd, args):
    monkeypatch.chdir(tmp_path)  # csv:., csv:missing.csv and missing/ resolve here
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert run_cli([cmd] + args + ["-o", str(out_dir / "result")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"htbif {cmd}: (?:{TYPED}): [^\n]+\n", captured.err)
    assert list(out_dir.iterdir()) == []



@pytest.mark.parametrize("mu, lam", [("50", "49.99999999"), ("1", "0.9999999")])
def test_timemap_near_the_window_top(tmp_path, mu, lam):
    # centers w0 = 2e-10 and 1e-7, where the gap's x terms are 1/w0 times
    # the gap: every sample has w_- < w0 < w_+ and T above the center limit
    out = tmp_path / "tm.csv"
    assert run_cli(["timemap", "--mu", mu, "--lambda", lam, "-o", str(out)]) == 0
    from htbif.model import ModelParams, w0_const
    from htbif.timemap import time_map_center

    p = ModelParams(mu=float(mu), lam=float(lam))
    rows = [list(map(float, line.split(","))) for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 50
    for wm, wp, t, _ in rows:
        assert wm < w0_const(p) < wp
        assert t > time_map_center(p)


def test_timemap_energy_levels_near_the_window_top(tmp_path):
    # w0 = 2e-10: each energy level F(w_-) is the gap below the saddle, within
    # 1e-14 of 80 digits (the two-term form was 3.4e-6 off)
    import mpmath

    out = tmp_path / "tm.csv"
    assert run_cli(["timemap", "--mu", "50", "--lambda", "49.99999999", "-o", str(out)]) == 0
    rows = [list(map(float, line.split(","))) for line in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 50
    with mpmath.workdps(80):
        lam = mpmath.mpf(49.99999999)
        for wm, _, _, level in rows:
            exact = lam / 2 * mpmath.mpf(wm) ** 2 - 50 * (wm - mpmath.log1p(wm))
            assert abs(mpmath.mpf(level) / exact - 1) <= 1e-14


EXTREME = ("1e-300", "1e-200", "1e-100", "1e-30", "1e-8", "1", "50", "1e8", "1e30", "1e100", "1e200", "1e300")


def test_extreme_planes_answer_or_refuse_by_name(tmp_path, capsys):
    # every (mu, lam) of the grid, mu/lam from 1e-600 to 1e600: timemap and
    # nodal exit 0, or exit 1 with one line naming a library error, never a
    # built-in one such as OverflowError
    out = str(tmp_path / "out.csv")
    for mu in EXTREME:
        for lam in EXTREME:
            for args in (["timemap", "--samples", "5"], ["nodal", "--n", "1", "--n-points", "201"]):
                cmd = args + ["--mu", mu, "--lambda", lam, "-o", out]
                code = run_cli(cmd)
                err = capsys.readouterr().err
                if code != 0:
                    assert code == 1 and re.fullmatch(rf"htbif {args[0]}: (?:{TYPED}): [^\n]+\n", err), (cmd, err)
