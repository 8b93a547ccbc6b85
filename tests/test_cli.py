import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

import sdet
from sdet import cli, identities, quadrature
from sdet.determinants import PrecisionError
from sdet.identities import IdentityKind
from sdet.scalars import format_scalar
from sdet.symbols import FHProduct, JumpPoint, descriptor_from_json, th_to_moment_symbol


@pytest.fixture
def write_config(tmp_path):
    def _write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    return _write


@pytest.fixture
def delta_path(write_config):
    return write_config(
        "delta.json",
        {"kind": "coeffs", "symmetry": "even", "entries": [[0, 1, 0]]},
    )


class TestVerifyCommand:
    def test_unit_sequence_all_identities(self, delta_path, capsys):
        code = cli.run(
            ["verify", "--identity", "all", "--symbol", delta_path, "--nmax", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("check ")]
        assert len(lines) == 9
        assert sum("verdict=pass" in l for l in lines) == 4
        assert sum("verdict=skipped" in l for l in lines) == 5
        assert "identity=hankel_congruence mode=exact nmax=4 verdict=pass" in out

    def test_quadrature_backed_symbol_skips_exact_mode(self, write_config, capsys):
        # exact mode runs only on exact rational inputs: on an FH symbol with
        # even support every kind is skipped, and the run exits 0
        config = {"kind": "fh", "log_smooth": [[2, 0.1, 0], [-2, 0.1, 0]], "jumps": []}
        path = write_config("fh.json", config)
        code = cli.run(["verify", "--identity", "all", "--symbol", path, "--nmax", "4"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("check ")]
        assert len(lines) == 9
        assert all("mode=exact" in l and "verdict=skipped" in l for l in lines)

    def test_single_identity_json_report(self, delta_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = cli.run(
            [
                "verify",
                "--identity",
                "skew_square",
                "--symbol",
                delta_path,
                "--nmax",
                "3",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc[0]["kind"] == "skew_square"
        assert doc[0]["verdict"] == "pass"
        assert len(doc[0]["records"]) == 3

    def test_reports_are_byte_identical_across_runs(self, delta_path, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            code = cli.run(
                [
                    "verify",
                    "--identity",
                    "all",
                    "--symbol",
                    delta_path,
                    "--nmax",
                    "4",
                    "--out",
                    str(p),
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_format(self, delta_path, capsys):
        code = cli.run(
            [
                "verify",
                "--identity",
                "skew_square",
                "--symbol",
                delta_path,
                "--nmax",
                "2",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "kind,N,lhs,rhs,abs_resid,rel_resid,mode,bits" in out

    def test_hp_mode_uses_env_default_bits(self, delta_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SDET_DEFAULT_BITS", "96")
        out_path = tmp_path / "r.json"
        code = cli.run(
            [
                "verify",
                "--identity",
                "skew_square",
                "--symbol",
                delta_path,
                "--nmax",
                "2",
                "--mode",
                "hp",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc[0]["bits"] == 96
        assert doc[0]["records"][0]["bits"] == 96

    def test_invalid_env_bits(self, delta_path, monkeypatch, capsys):
        monkeypatch.setenv("SDET_DEFAULT_BITS", "plenty")
        code = cli.run(
            ["verify", "--identity", "all", "--symbol", delta_path, "--nmax", "2"]
        )
        assert code == 2
        assert "SDET_DEFAULT_BITS" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, bits",
        [
            pytest.param("skew_square", "32", id="skew_square"),
            pytest.param("all", "32", id="all"),
            pytest.param("all", "0", id="all-0"),
            pytest.param("dump", "8", id="dump"),
            pytest.param("dump", "0", id="dump-0"),
            pytest.param("study", "32", id="study"),
            pytest.param("study", "0", id="study-0"),
        ],
    )
    def test_low_bits_is_usage_error_in_exact_mode(
        self, delta_path, write_config, capsys, command, bits
    ):
        # an explicit 0 is a request for 0 bits, not for the default
        fh = write_config("fh.json", {"kind": "fh", "log_smooth": [[1, 0.15, 0], [-1, 0.15, 0]]})
        argv = {
            "dump": ["dump", "--symbol", fh, "--nmax", "3"],
            "study": ["study", "--kind", "prop52_ratio", "--desc", fh, "--N", "4,8"],
        }.get(command, ["verify", "--identity", command, "--symbol", delta_path, "--nmax", "3"])
        code = cli.run(argv + ["--bits", bits])
        assert code == 2
        assert "bits must be >= 64" in capsys.readouterr().err

    def test_unknown_identity(self, delta_path, capsys):
        code = cli.run(
            ["verify", "--identity", "magic", "--symbol", delta_path, "--nmax", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown identity" in err
        assert "hankel_congruence" in err

    def test_species_mismatch_is_usage_error(self, delta_path, capsys):
        code = cli.run(
            [
                "verify",
                "--identity",
                "cseq_square",
                "--symbol",
                delta_path,
                "--nmax",
                "2",
            ]
        )
        assert code == 2

    def test_malformed_json_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text('{"kind": "coeffs",', encoding="utf-8")
        code = cli.run(
            ["verify", "--identity", "all", "--symbol", str(bad), "--nmax", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert "broken.json" in err

    def test_missing_file(self, tmp_path, capsys):
        code = cli.run(
            [
                "verify",
                "--identity",
                "all",
                "--symbol",
                str(tmp_path / "nope.json"),
                "--nmax",
                "2",
            ]
        )
        assert code == 2


class TestExactJumpAngles:
    """A jump angle written {"pi": p, "offset": x} is p*pi + x, kept exact."""

    PAIR = {
        "kind": "fh",
        "log_smooth": [[1, 0.1, 0], [-1, 0.1, 0]],
        "jumps": [
            {"theta": 1.0, "beta": [0, 0.2]},
            {"theta": {"pi": 2, "offset": -1.0}, "beta": [0, -0.2]},
        ],
    }

    def _th_vs_moment(self, write_config, capsys, second):
        config = json.loads(json.dumps(self.PAIR))
        config["jumps"][1]["theta"] = second
        path = write_config("pair.json", config)
        argv = ["verify", "--identity", "all", "--symbol", path, "--mode", "hp"]
        cli.run(argv + ["--bits", "128", "--nmax", "5"])
        lines = capsys.readouterr().out.splitlines()
        return next(l for l in lines if l.startswith("check identity=th_vs_moment "))

    def test_mirrored_pair_is_exactly_even(self, write_config, capsys):
        line = self._th_vs_moment(write_config, capsys, {"pi": 2, "offset": -1.0})
        assert "verdict=pass" in line

    def test_float_mirror_is_not(self, write_config, capsys):
        line = self._th_vs_moment(write_config, capsys, 5.283185307179586)
        assert "verdict=fail worst_rel=2.9" in line

    def test_mirrored_pair_has_a_real_even_profile(self):
        # the pair's jumps are (1, 0.2i) and (2pi - 1, -0.2i): real and even
        a = FHProduct(descriptor_from_json(self.PAIR))
        kind, profile = a.real_profile()
        assert kind == "even"
        with mp.workprec(160):
            for t in (0.3, 1.7, 2.9, 4.0):
                v = a.eval_at(mp.mpf(t))
                assert abs(v.imag) + abs(v.real - profile(mp.mpf(t))) < mp.mpf(2) ** -150
        moments = th_to_moment_symbol(a).moment_table(5, 128)
        assert all(isinstance(v, mp.mpf) for v in moments.values())
        assert identities.verify(IdentityKind.THvsMoment, a, 5, mode="hp", bits=128).passed

    @pytest.mark.parametrize("second", [5.283185307179586, {"pi": 2, "offset": -1.0}])
    def test_pairs_that_are_not_real_and_even_stay_complex(self, second):
        config = json.loads(json.dumps(self.PAIR))
        config["jumps"][1]["theta"] = second
        if isinstance(second, dict):
            config["jumps"][1]["beta"] = [0.1, -0.2]  # beta' = -beta fails
        assert FHProduct(descriptor_from_json(config)).real_profile() is None

    def test_json_round_trip(self):
        desc = descriptor_from_json(self.PAIR)
        first, second = desc.points
        assert (first.coeff, first.offset) == (0, 1.0)
        assert isinstance(second, JumpPoint)
        assert (second.coeff, second.offset, second.arc) == (2, -1.0, 0)
        assert desc.to_json()["jumps"] == [
            {"theta": 1.0, "beta": [0.0, 0.2]},
            {"theta": {"pi": "2", "offset": -1.0}, "beta": [0.0, -0.2]},
        ]
        assert descriptor_from_json(desc.to_json()).to_json() == desc.to_json()

    def test_malformed_angle_is_usage_error(self, write_config, capsys):
        config = json.loads(json.dumps(self.PAIR))
        config["jumps"][1]["theta"] = {"pi": 2}
        path = write_config("pair.json", config)
        assert cli.run(["verify", "--identity", "all", "--symbol", path, "--nmax", "3"]) == 2
        assert "'pi' and 'offset'" in capsys.readouterr().err


class TestStudyCommand:
    def test_constant_sqrt_ratio_study(self, write_config, tmp_path, capsys):
        desc = write_config(
            "b.json",
            {"kind": "moment", "weight": "sqrt_ratio", "poly": [[0, 1, 0]], "parity": "even"},
        )
        out_path = tmp_path / "study.json"
        code = cli.run(
            [
                "study",
                "--kind",
                "cor56",
                "--desc",
                desc,
                "--N",
                "4,8,12,16",
                "--bits",
                "128",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "check study=cor56 bits=128 verdict=pass" in out
        doc = json.loads(out_path.read_text())
        assert doc["kind"] == "cor56"
        assert doc["N_list"] == [4, 8, 12, 16]

    def test_growth_mismatch_is_reported_as_failure(self, write_config, capsys):
        # the symbol's smooth factor vanishes on the boundary, so the plain
        # growth model the study assumes cannot match; the honest verdict
        # is a fail and the exit code says so
        desc = write_config(
            "bx2.json",
            {"kind": "moment", "weight": "sqrt_ratio", "poly": [[2, 2, 0]], "parity": "even"},
        )
        code = cli.run(
            ["study", "--kind", "cor56", "--desc", desc, "--N", "4,8,12,16", "--bits", "128"]
        )
        assert code == 1
        assert "verdict=fail" in capsys.readouterr().out

    def test_conjecture_flag_shows_up(self, write_config, capsys):
        desc = write_config(
            "fh.json",
            {"kind": "fh", "log_smooth": [[1, 0.1, 0], [-1, 0.1, 0]], "jumps": []},
        )
        code = cli.run(
            [
                "study",
                "--kind",
                "conjecture_sym",
                "--desc",
                desc,
                "--N",
                "4,8,12,16",
                "--bits",
                "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=informational" in out
        assert "flags=CONJECTURE" in out

    def test_range_syntax_and_csv(self, write_config, capsys):
        desc = write_config(
            "b.json",
            {"kind": "moment", "weight": "sqrt_ratio", "poly": [[0, 1, 0]], "parity": "even"},
        )
        code = cli.run(
            [
                "study",
                "--kind",
                "cor56",
                "--desc",
                desc,
                "--N",
                "4..8",
                "--bits",
                "96",
                "--format",
                "csv",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "N,value,compensated" in out

    def test_bad_n_list(self, write_config, capsys):
        desc = write_config("d.json", {"kind": "fh", "log_smooth": [], "jumps": []})
        for bad in ("4,x,8", "9..4", "0,4,8,12"):
            code = cli.run(
                ["study", "--kind", "prop52_ratio", "--desc", desc, "--N", bad]
            )
            assert code == 2

    def test_bad_sign(self, write_config):
        desc = write_config("d.json", {"kind": "fh", "log_smooth": [], "jumps": []})
        code = cli.run(
            [
                "study",
                "--kind",
                "prop52_ratio",
                "--desc",
                desc,
                "--N",
                "4,8,12,16",
                "--sign",
                "1/3",
            ]
        )
        assert code == 2

    def test_species_mismatch(self, write_config):
        desc = write_config(
            "skew.json", {"kind": "fh", "log_smooth": [[1, 0.2, 0]], "jumps": []}
        )
        code = cli.run(
            [
                "study",
                "--kind",
                "conjecture_sym",
                "--desc",
                desc,
                "--N",
                "4,8,12,16",
                "--bits",
                "96",
            ]
        )
        assert code == 2

    def test_complex_determinants_are_a_hypothesis_error(self, write_config, capsys):
        # one real jump at theta = 2 makes the Toeplitz determinants genuinely
        # complex: no bit count can make them real, so this is exit 2, not 3
        desc = write_config(
            "fhj.json",
            {
                "kind": "fh",
                "log_smooth": [[1, 0.1, 0], [-1, 0.1, 0]],
                "jumps": [{"theta": 2.0, "beta": [0.2, 0]}],
            },
        )
        argv = ["study", "--kind", "prop52_ratio", "--desc", desc, "--N", "8,16,24,32"]
        assert cli.run(argv + ["--bits", "128"]) == 2
        assert "expected a real determinant" in capsys.readouterr().err


class TestTransformCommand:
    def test_unit_sequence_b_values(self, delta_path, capsys):
        code = cli.run(
            ["transform", "--op", "a_to_b", "--seq", delta_path, "--nmax", "5"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "1,1,2,3,6"

    def test_even_output_includes_center(self, write_config, capsys):
        seq = write_config(
            "c.json", {"kind": "coeffs", "symmetry": "odd", "entries": [[1, 3, 0], [2, 5, 0]]}
        )
        code = cli.run(
            ["transform", "--op", "recover_even_from_c", "--seq", seq, "--nmax", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "3/2,3/2,1/2"

    def test_complex_coefficients_print_as_complex(self, write_config, capsys):
        seq = write_config(
            "z.json", {"kind": "coeffs", "entries": [[0, 0.5, 0], [1, 0.1, 0.2]]}
        )
        code = cli.run(["transform", "--op", "a_to_b", "--seq", seq, "--nmax", "4"])
        assert code == 0
        values = capsys.readouterr().out.strip().split(",")
        assert all(v.startswith("(") and v.endswith("j)") for v in values)
        want = [0.6 + 0.2j, 0.7 + 0.4j, 1.3 + 0.6j, 2.1 + 1.2j]
        assert [complex(v) for v in values] == pytest.approx(want)

    def test_symmetry_mismatch(self, delta_path, capsys):
        code = cli.run(
            ["transform", "--op", "c_to_b", "--seq", delta_path, "--nmax", "3"]
        )
        assert code == 2

    def test_non_coeff_config_rejected(self, write_config, capsys):
        chi = write_config("chi.json", {"kind": "chi"})
        code = cli.run(["transform", "--op", "a_to_b", "--seq", chi, "--nmax", "3"])
        assert code == 2


class TestDumpCommand:
    def test_exact_coefficients_print_exactly(self, delta_path, capsys):
        code = cli.run(["dump", "--symbol", delta_path, "--nmax", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["coeffs"] == [[-2, "0"], [-1, "0"], [0, "1"], [1, "0"], [2, "0"]]

    def test_moment_dump(self, write_config, capsys):
        b = write_config(
            "b.json",
            {"kind": "moment", "weight": "sqrt_ratio", "poly": [[0, 1, 0]], "parity": "even"},
        )
        code = cli.run(["dump", "--symbol", b, "--nmax", "3", "--bits", "96"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        values = [float(v) for _, v in doc["moments"]]
        assert values == pytest.approx([1.0, 1.0, 2.0])

    def test_moment_dump_reads_one_table(self, write_config, monkeypatch, capsys):
        calls = []
        real = quadrature.cospower_transform

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(quadrature, "cospower_transform", counted)
        b = write_config(
            "weight.json",
            {"kind": "moment", "weight": "sqrt_ratio", "poly": [[0, 1, 0], [2, "1/3", 0]]},
        )
        code = cli.run(["dump", "--symbol", b, "--nmax", "8", "--bits", "128"])
        assert code == 0
        assert len(calls) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [n for n, _ in doc["moments"]] == list(range(1, 9))

    def test_chi_dump_uses_closed_forms(self, write_config, capsys):
        chi = write_config("chi.json", {"kind": "chi"})
        code = cli.run(["dump", "--symbol", chi, "--nmax", "1", "--bits", "96"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        table = {n: v for n, v in doc["coeffs"]}
        assert float(table[1]) == pytest.approx(0.6366197723675814)
        assert float(table[0]) == 0.0

    def test_low_bits_print_only_backed_digits(self, write_config, capsys):
        # the tables promise 2^-(bits-16): 14 digits at 64 bits, 30 at 256
        fh = write_config(
            "exp_cos.json", {"kind": "fh", "log_smooth": [[1, 0.15, 0], [-1, 0.15, 0]], "jumps": []}
        )
        tables = {}
        for bits in (64, 256):
            code = cli.run(["dump", "--symbol", fh, "--nmax", "4", "--bits", str(bits)])
            assert code == 0
            tables[bits] = dict(json.loads(capsys.readouterr().out)["coeffs"])
        for n, text in tables[64].items():
            mantissa = text.split("e")[0].replace(".", "").lstrip("0")
            assert len(mantissa) <= 14, text
            with mp.workprec(256):
                assert format_scalar(mp.mpf(tables[256][n]), 14) == text
        assert len(tables[256][0].replace(".", "")) == 30


def test_python_m_sdet_runs_the_cli(delta_path):
    src = str(Path(sdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "sdet", "dump", "--symbol", delta_path, "--nmax", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"coeffs": [[-1, "0"], [0, "1"], [1, "0"]]}



COS_CONFIG = {"kind": "coeffs", "symmetry": "even", "entries": [[-1, "1/2", 0], [0, 1, 0], [1, "1/2", 0]]}
FH_CONFIG = {"kind": "fh", "log_smooth": [[1, 0.1, 0], [-1, 0.1, 0]], "jumps": []}


class TestUsageErrors:
    """Each usage error exits 2 and prints its message on stderr."""

    @pytest.mark.parametrize(
        "config, argv, message",
        [
            (COS_CONFIG, ["verify", "--identity", "all", "--symbol", "{}", "--nmax", "0"], "--nmax must be >= 1"),
            (COS_CONFIG, ["transform", "--op", "a_to_b", "--seq", "{}", "--nmax", "0"], "--nmax must be >= 1"),
            (COS_CONFIG, ["dump", "--symbol", "{}", "--nmax", "0"], "--nmax must be >= 1"),
            (
                FH_CONFIG,
                ["study", "--kind", "prop52_ratio", "--desc", "{}", "--N", "4,8,12,16", "--sign", "x"],
                "bad sign 'x' (use -1/2 or +1/2)",
            ),
            ({"entries": []}, ["verify", "--identity", "all", "--symbol", "{}", "--nmax", "2"], "config needs a 'kind' field"),
            ([1, 2], ["study", "--kind", "cor53", "--desc", "{}", "--N", "4,8,12,16"], "config must be a JSON object"),
            (
                {"kind": "fh", "log_smooth": [], "jumps": [{"theta": 1.0, "beta": [0.5, 0]}]},
                ["study", "--kind", "cor53", "--desc", "{}", "--N", "4,8,12,16"],
                "|Re beta| < 1/2 is required",
            ),
            (FH_CONFIG, ["study", "--kind", "cor53", "--desc", "{}", "--N", "4,8,12"], "at least 4 sizes are required"),
        ],
        ids=["verify_nmax", "transform_nmax", "dump_nmax", "sign", "no_kind", "study_list", "study_beta", "three_sizes"],
    )
    def test_exits_two_with_its_message(self, write_config, capsys, config, argv, message):
        path = write_config("config.json", config)
        assert cli.run([path if a == "{}" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.rstrip("\n").endswith(message)


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert cli.run([]) == 2

    def test_unknown_command(self):
        assert cli.run(["summarize"]) == 2

    def test_precision_failures_map_to_three(self, monkeypatch, delta_path, capsys):
        def boom(args):
            raise PrecisionError("unstable at 64 bits", recommended_bits=128)

        monkeypatch.setitem(cli._DISPATCH, "verify", boom)
        code = cli.run(
            ["verify", "--identity", "all", "--symbol", delta_path, "--nmax", "2"]
        )
        assert code == 3
        assert "precision failure" in capsys.readouterr().err

    def test_error_report_maps_to_three(self, monkeypatch, write_config, capsys):
        # the first kind to run meets a PrecisionError: verify_all reports it
        # as an error, the other kinds still run, and the exit code is 3
        real = identities.leading_minors
        calls = []

        def first_call_fails(M, orders, bits=None):
            calls.append(M.order)
            if len(calls) == 1:
                raise PrecisionError("unstable at 64 bits", recommended_bits=128)
            return real(M, orders, bits)

        monkeypatch.setattr(identities, "leading_minors", first_call_fails)
        cos = write_config(
            "cos.json",
            {"kind": "coeffs", "symmetry": "even", "entries": [[-1, "1/2", 0], [0, 1, 0], [1, "1/2", 0]]},
        )
        code = cli.run(["verify", "--identity", "all", "--symbol", cos, "--nmax", "3"])
        assert code == 3
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "check identity=hankel_congruence mode=exact nmax=3 verdict=error worst_rel=0"
        assert lines[4] == "check identity=skew_square mode=exact nmax=3 verdict=pass worst_rel=0"
        report = json.loads(out[out.index("[\n") :])
        assert report[0]["verdict"] == "error"
        assert report[0]["notes"] == ["PrecisionError: unstable at 64 bits"]
        assert report[0]["records"] == []
