"""Command-line behavior: output shapes, schemas, determinism, exit codes."""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import time

import jsonschema
import pytest

from infinigb import cli

CHAIN_LINES = [
    "hlex: x4 > x1*x3 > x2^2 > x1^2*x2 > x1^4",
    "halex: x1^4 > x1^2*x2 > x1*x3 > x2^2 > x4",
    "hrevlex: x4 > x2^2 > x1*x3 > x1^2*x2 > x1^4",
    "harevlex: x1^4 > x1^2*x2 > x2^2 > x1*x3 > x4",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def schema(name):
    root = importlib.resources.files("infinigb") / "schemas"
    return json.loads((root / f"{name}.schema.json").read_text())


def validate(payload, name):
    jsonschema.validate(payload, schema(name))


@pytest.fixture()
def gens_file(tmp_path):
    path = tmp_path / "family.gens"
    path.write_text("x1^2 - x2\nx2^2 - x4  # comment\n\n# full line comment\n")
    return str(path)


class TestOrdersDemo:
    def test_text_chains(self, capsys):
        code, out, _ = run(capsys, "orders-demo")
        assert code == 0
        assert out.splitlines()[:4] == CHAIN_LINES
        assert out.splitlines()[4] == "verdict: PASS"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "orders-demo", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "orders_demo")
        assert payload["verdict"] == "PASS"


class TestDivide:
    def test_json_output(self, capsys, gens_file):
        code, out, _ = run(
            capsys,
            "divide", "--order", "harevlex",
            "--divisors", gens_file, "--input", "x1^4",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "divide")
        assert payload["remainder"] == "x4"
        assert payload["steps"] == 4

    def test_missing_divisors_is_usage_error(self, capsys):
        code, _, err = run(capsys, "divide", "--order", "harevlex",
                           "--input", "x1^4")
        assert code == 2
        assert "divisors" in err

    def test_internal_value_error_is_not_bad_input(self, capsys, monkeypatch, gens_file):
        # Only library errors are bad input: a ValueError from inside the
        # kernel is a bug and must surface, not exit 2 as a usage error.
        def broken(f, divisors):
            raise ValueError("kernel bug")

        monkeypatch.setattr(cli, "divide", broken)
        with pytest.raises(ValueError, match="kernel bug"):
            cli.main(["divide", "--order", "harevlex",
                      "--divisors", gens_file, "--input", "x1^4"])

    def test_undecodable_divisor_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "binary.gens"
        path.write_bytes(b"x1^2 - \xff\xfe\n")
        code, out, err = run(capsys, "divide", "--order", "harevlex",
                             "--divisors", str(path), "--input", "x1^4")
        assert code == 2 and out == ""
        assert "generator file" in err

    def test_exponent_above_the_cap_is_usage_error(self, capsys, tmp_path):
        linear = tmp_path / "linear.gens"
        linear.write_text("x1 - 1\n")
        cap = cli.DIVIDE_EXPONENT_CAP
        # Without the cap this division would take 10^20 steps.
        start = time.monotonic()
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", str(linear),
                             "--input", "x1^99999999999999999999")
        assert time.monotonic() - start < 1
        assert code == 2 and out == ""
        assert f"cap {cap}" in err
        steep = tmp_path / "steep.gens"
        steep.write_text(f"x1^{cap + 1} - 1\n")
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", str(steep), "--input", "x1")
        assert code == 2 and out == ""
        assert "divisor file" in err and f"cap {cap}" in err
        # At the cap the division runs: x1^cap = q*(x1 - 1) + 1.
        code, out, _ = run(capsys, "divide", "--order", "hlex",
                           "--divisors", str(linear), "--input", f"x1^{cap}")
        assert code == 0
        assert json.loads(out)["remainder"] == "1"

    def test_malformed_input_is_usage_error(self, capsys, gens_file):
        code, _, err = run(
            capsys,
            "divide", "--order", "harevlex",
            "--divisors", gens_file, "--input", "x1^$",
        )
        assert code == 2
        assert "position" in err


class TestGb:
    def test_family_run(self, capsys):
        code, out, _ = run(
            capsys,
            "gb", "--order", "harevlex", "--family", "x^p{i}-x{p*i}",
            "--W", "pm1mod3", "--p", "2", "--n", "12", "--deg", "24",
            "--reduced",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gb")
        assert payload["elements"] == [
            "x1^2 - x2", "x2^2 - x4", "x4^2 - x8", "x5^2 - x10",
        ]
        assert payload["certificate"] == "bayer-stillman"
        assert payload["reduced"] is True
        assert payload["stable"] is True

    def test_explicit_generators(self, capsys, gens_file):
        code, out, _ = run(
            capsys,
            "gb", "--order", "harevlex", "--gens", gens_file,
            "--n", "4", "--deg", "12",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gb")
        assert payload["stable"] is None

    def test_plex_completion_that_discards_is_asserted(self, capsys, tmp_path):
        # The completion drops the remainder x1^6 - x1 (degree 6 > 4), so
        # its output is no Groebner base of the window.
        path = tmp_path / "plex.gens"
        path.write_text("x2 - x1^3\nx2^2 - x1\n")
        code, out, _ = run(
            capsys,
            "gb", "--order", "plex", "--gens", str(path),
            "--n", "2", "--deg", "4", "--reduced",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "gb")
        assert payload["elements"] == ["x1^6 - x1", "x2 - x1^3"]
        assert payload["certificate"] == "asserted"

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "gb", "--order", "harevlex", "--family", "mystery",
            "--W", "pm1mod3", "--p", "2", "--n", "4", "--deg", "8",
        )
        assert code == 2
        assert "family" in err


class TestHilbert:
    def test_preset_run(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--preset", "schur-p2",
                           "--N", "16")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "hilbert")
        assert payload["verdict"] == "PASS"
        assert payload["coefficients"][10] == 4

    def test_explicit_parameters(self, capsys):
        code, out, _ = run(capsys, "hilbert", "--W", "odd", "--p", "3",
                           "--N", "12")
        assert code == 0
        assert json.loads(out)["routes_agree"] is True

    def test_unknown_preset(self, capsys):
        code, _, err = run(capsys, "hilbert", "--preset", "nope", "--N", "8")
        assert code == 2 and "preset" in err


class TestBijection:
    def test_weight_zero_single_row(self, capsys):
        code, out, _ = run(capsys, "bijection", "--preset", "AB", "--n", "0")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "lambda\tphi(lambda)"
        assert lines[1] == "[]\t[]"
        assert json.loads(lines[2])["ok"] is True

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection", "--preset", "AC", "--n", "9", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "bijection")
        assert payload["report"]["ok"] is True

    def test_single_route(self, capsys):
        code, out, _ = run(
            capsys,
            "bijection", "--preset", "AB", "--n", "10",
            "--route", "oracle", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert {"from": [5, 5], "to": [10]} in payload["pairs"]

    def test_failed_verification_exits_one_with_report(self, capsys, monkeypatch):
        from infinigb import partitions

        monkeypatch.setattr(partitions, "remainder", lambda f, divisors: f)
        code, out, _ = run(capsys, "bijection", "--preset", "AB", "--n", "4")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == "[1, 1, 1, 1]\t[1, 1, 1, 1]"
        report = json.loads(lines[2])
        assert report["ok"] is False and report["maps_into_target"] is False


    @pytest.mark.parametrize("route", ["division", "oracle"])
    def test_single_route_certifies_at_most_once(self, capsys, monkeypatch, route):
        from infinigb import partitions

        calls = []
        certify = partitions.bayer_stillman_basis

        def counted(*args, **kwargs):
            calls.append(1)
            return certify(*args, **kwargs)

        monkeypatch.setattr(partitions, "bayer_stillman_basis", counted)
        code, out, _ = run(
            capsys, "bijection", "--preset", "AB", "--n", "12", "--route", route
        )
        assert code == 0
        assert len(out.splitlines()) > 3
        assert len(calls) == (1 if route == "division" else 0)

    def test_single_route_reports_a_non_injective_map(self, capsys, monkeypatch):
        from infinigb import partitions

        real = partitions.phi_pairs

        def collapsed(family, p, n):
            pairs = real(family, p, n)
            return [(parts, pairs[0][1]) for parts, _ in pairs]

        monkeypatch.setattr(partitions, "phi_pairs", collapsed)
        code, out, _ = run(
            capsys, "bijection", "--preset", "AB", "--n", "6", "--route", "division"
        )
        assert code == 1
        assert json.loads(out.splitlines()[-1])["ok"] is False

    def test_single_route_reports_images_outside_the_target(
        self, capsys, monkeypatch
    ):
        from infinigb import partitions

        monkeypatch.setattr(partitions, "phi", lambda parts, *a, **k: parts)
        code, out, _ = run(
            capsys, "bijection", "--preset", "AB", "--n", "4", "--route", "oracle"
        )
        assert code == 1
        assert json.loads(out.splitlines()[-1])["ok"] is False

    @pytest.mark.parametrize("route", ["both", "division", "oracle"])
    def test_weight_above_the_cap_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, route
    ):
        argv = ("bijection", "--preset", "AC", "--route", route)
        cap = cli.BIJECTION_WEIGHT_CAP
        for n in (cap + 1, 10**20):
            start = time.monotonic()
            code, out, err = run(capsys, *argv, "--n", str(n))
            assert time.monotonic() - start < 1
            assert code == 2 and out == ""
            assert f"bijection weight cap {cap}" in err
        # The cap is inclusive, on the flag and in a config file alike.
        monkeypatch.setattr(cli, "BIJECTION_WEIGHT_CAP", 12)
        code, out, _ = run(capsys, *argv, "--n", "12")
        assert code == 0 and out
        config = tmp_path / "run.toml"
        config.write_text("n = 13\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2 and out == ""
        assert "bijection weight cap 12" in err


class TestIdentities:
    def test_schur_json(self, capsys):
        code, out, _ = run(
            capsys, "identities", "--schur", "--N", "14", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "identities")
        assert payload["schur"]["verdict"] == "PASS"

    def test_both_tsv(self, capsys):
        code, out, _ = run(capsys, "identities", "--schur", "--rr", "--N", "8")
        assert code == 0
        assert "schur\tPASS" in out
        assert "rogers_ramanujan\tPASS" in out

    def test_full_pipeline_verdicts(self, capsys):
        code, out, _ = run(
            capsys, "identities", "--schur", "--N", "40", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["schur"]["verdict"] == "PASS"
        code, out, _ = run(
            capsys, "identities", "--rr", "--N", "50", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rogers_ramanujan"]["verdict"] == "PASS"

    def test_requires_a_selection(self, capsys):
        code, _, err = run(capsys, "identities", "--N", "8")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("identities", "--schur", "--rr"),
            ("hilbert", "--preset", "schur-p3"),
            ("hilbert", "--W", "all", "--p", "2"),
        ],
        ids=" ".join,
    )
    def test_truncation_above_the_cap_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        cap = cli.SERIES_TRUNCATION_CAP
        for N in (cap + 1, 10**20):
            start = time.monotonic()
            code, out, err = run(capsys, *argv, "--N", str(N))
            assert time.monotonic() - start < 1
            assert code == 2 and out == ""
            assert f"series truncation cap {cap}" in err
        # The cap is inclusive, on the flag and in a config file alike.
        monkeypatch.setattr(cli, "SERIES_TRUNCATION_CAP", 12)
        code, out, _ = run(capsys, *argv, "--N", "12")
        assert code == 0 and out
        config = tmp_path / "run.toml"
        config.write_text("N = 13\n")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2 and out == ""
        assert "series truncation cap 12" in err

    @pytest.mark.parametrize("flag", ["--schur", "--rr"])
    def test_negative_truncation_is_a_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "identities", flag, "--N", "-1")
        assert code == 2
        assert out == ""
        assert "truncation must be non-negative" in err


class TestConfigAndDeterminism:
    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "run.toml"
        config.write_text('N = 6\nformat = "json"\n')
        code, out, _ = run(
            capsys, "identities", "--schur", "--config", str(config),
        )
        assert code == 0
        assert json.loads(out)["schur"]["N"] == 6
        code, out, _ = run(
            capsys,
            "identities", "--schur", "--config", str(config), "--N", "3",
        )
        assert json.loads(out)["schur"]["N"] == 3

    def test_config_can_enable_boolean_flags(self, capsys, tmp_path):
        config = tmp_path / "run.toml"
        config.write_text('schur = true\nN = 5\nformat = "json"\n')
        code, out, _ = run(capsys, "identities", "--config", str(config))
        assert code == 0
        assert json.loads(out)["schur"]["verdict"] == "PASS"

    @pytest.mark.parametrize(
        "line, key",
        [
            ('N = "60"', "'N'"),
            ("N = true", "'N'"),
            ("N = 6.0", "'N'"),
            ('format = "xml"', "'format'"),
            ("schur = 1", "'schur'"),
        ],
    )
    def test_wrong_config_value_is_a_usage_error(self, capsys, tmp_path, line, key):
        config = tmp_path / "run.toml"
        config.write_text(line + ("\n" if key == "'N'" else "\nN = 5\n"))
        code, out, err = run(capsys, "identities", "--rr", "--config", str(config))
        assert code == 2
        assert out == ""
        assert f"config key {key}" in err

    def test_malformed_config_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.toml"
        config.write_text("N = = 5\n")
        code, out, err = run(capsys, "identities", "--rr", "--config", str(config))
        assert code == 2
        assert out == ""
        assert err.startswith("infinigb: config file ")

    def test_seed_echoed(self, capsys):
        _, out, _ = run(
            capsys, "orders-demo", "--format", "json", "--seed", "99",
        )
        assert json.loads(out)["seed"] == 99

    def test_byte_for_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "hilbert", "--preset", "schur-p3",
                          "--N", "14")
        _, second, _ = run(capsys, "hilbert", "--preset", "schur-p3",
                           "--N", "14")
        assert first == second

    def test_bad_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["orders-demo", "--bogus"])
        assert info.value.code == 2

    def test_verification_failure_exits_one(self, capsys, monkeypatch):
        from infinigb import series

        def sabotaged(basis, truncation, *, variables=None):
            return series.TruncatedSeries.zero(truncation)

        monkeypatch.setattr(
            cli.series, "quotient_series_from_standard_monomials", sabotaged
        )
        code, out, _ = run(capsys, "hilbert", "--preset", "schur-p2", "--N", "6")
        assert code == 1
        assert json.loads(out)["verdict"] == "FAIL"


@pytest.mark.parametrize(
    "argv, option",
    [
        (("hilbert", "--preset", "schur-p3", "--N", "-5"), "--N"),
        (("hilbert", "--W", "odd", "--p", "1", "--N", "5"), "--p"),
        (("identities", "--rr", "--N", "-2"), "--N"),
        (("bijection", "--preset", "AB", "--n", "-1"), "--n"),
        (("gb", "--order", "harevlex", "--family", "power-substitution",
          "--W", "odd", "--p", "1", "--n", "3", "--deg", "6"), "--p"),
        (("gb", "--order", "harevlex", "--family", "power-substitution",
          "--W", "odd", "--p", "3", "--n", "0", "--deg", "6"), "--n"),
        (("gb", "--order", "harevlex", "--family", "power-substitution",
          "--W", "odd", "--p", "3", "--n", "3", "--deg", "0"), "--deg"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else value,
)
def test_numeric_option_below_its_bound_is_a_usage_error(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"infinigb: {option}: ")


# SHA-256 of the whole stdout, pinned so that refactors keep the output
# byte for byte; no --seed, so the echoed seed is null on every run.
GOLDEN_STDOUT = {
    ("bijection", "--preset", "AB", "--n", "12"):
        "16f53b5d0330e5d928c21ddaba8ee5e4dc7b3412a22fc03f916638d59d64dd77",
    ("bijection", "--preset", "AC", "--n", "12", "--format", "json"):
        "da0dc222ce5207d3772480cf96592617bf83fb25ae3ea8f9002be83a39e9eee1",
    ("bijection", "--preset", "AB", "--n", "12", "--route", "division"):
        "e8db964a86a8ba3f7957a09be1df1fb6c51b69c186c4925fabcaec249043063e",
    ("identities", "--schur", "--rr", "--N", "20"):
        "1dd2985168889b5d73cc054c146d6f950929bd635e9a38a07ac1e1d86a34878a",
    ("hilbert", "--preset", "schur-p3", "--N", "20"):
        "0f25bc737c55cf7ef8847b5a9fb80a93961224bf8dcba3cda0fb007f8d7f5a23",
    ("gb", "--order", "harevlex", "--family", "power-substitution",
     "--W", "pm1mod3", "--p", "2", "--n", "12", "--deg", "24"):
        "eb76210100c02b7908bfff73111c4a7eb517c1c33c57bee9f805d535bcf7e94f",
    ("gb", "--order", "hlex", "--family", "power-substitution",
     "--W", "pm1mod3", "--p", "2", "--n", "12", "--deg", "24"):
        "667cf474377922ad820432038ca78228fde32416db76d4db017adb37a5d72e4f",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_stdout_matches_pinned_digest(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


HLEX_GENS = "x1^2 - x2\nx1*x2 - x3\n2*x2^2 - x4\n"
PLEX_GENS = "x2 - x1^3\nx2^2 - x1\n"

# `gb --gens FILE` stdout and exit code: an hlex completion that is not
# reduced (`"reduced": false`), and a plex completion that discards an
# out-of-window remainder (`asserted`; without --reduced it fails
# verification and exits 1), each with and without --reduced.
GB_GENS_STDOUT = {
    (HLEX_GENS, "--order", "hlex", "--n", "4", "--deg", "8"): (
        0, "28ca956ac2fcd3eae08cb1f138de02c9cb749fc2ae5bd5bbc6e2f33912a04204"
    ),
    (HLEX_GENS, "--order", "hlex", "--n", "4", "--deg", "8", "--reduced"): (
        0, "7e02a2c22960b13beff64d63f66d1db782d4b27b204bdbcfbd09656c96ee2ab0"
    ),
    (PLEX_GENS, "--order", "plex", "--n", "2", "--deg", "4"): (
        1, "5affd50c744b7943a6f988e93c868fd8d2c20a69434ef974638ec34fab5b17c0"
    ),
    (PLEX_GENS, "--order", "plex", "--n", "2", "--deg", "4", "--reduced"): (
        0, "6ee636ca60cb3b823bac6828c5fc5161ec80654b35a2819e67539d39f122a7f7"
    ),
}


@pytest.mark.parametrize(
    "case", list(GB_GENS_STDOUT), ids=lambda case: " ".join(case[1:])
)
def test_gb_gens_stdout_matches_pinned_digest(capsys, tmp_path, case):
    text, *argv = case
    path = tmp_path / "input.gens"
    path.write_text(text)
    code, out, _ = run(capsys, "gb", "--gens", str(path), *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GB_GENS_STDOUT[case]
