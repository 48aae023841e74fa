"""Command-line behavior: output shapes, schemas, determinism, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib.resources
import io
import json
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infinigb import cli, groebner, index_sets, monomials
from infinigb.division import DivisionResult

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

    def test_a_wrong_order_key_fails(self, capsys, monkeypatch):
        # Every order read with hlex's key shape: sorting and `compare`
        # agree with each other, but not with the paper's chains.
        hlex = monomials._KEY_SHAPES[monomials.OrderKind.HOM_LEX]
        with monkeypatch.context() as patch:
            for order in monomials.OrderKind:
                patch.setitem(monomials._KEY_SHAPES, order, hlex)
            monomials.sort_key.cache_clear()
            try:
                code, out, _ = run(capsys, "orders-demo")
            finally:
                monomials.sort_key.cache_clear()
        assert code == 1
        hlex_chain = "x4 > x1*x3 > x2^2 > x1^2*x2 > x1^4"
        assert out.splitlines() == [
            f"{name}: {hlex_chain}" for name in ("hlex", "halex", "hrevlex", "harevlex")
        ] + ["verdict: FAIL"]


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

    def test_tsv_stdout_matches_pinned_digest(self, capsys, gens_file):
        # One line per divisor with a quotient, then the remainder and steps.
        code, out, _ = run(
            capsys,
            "divide", "--order", "harevlex", "--divisors", gens_file,
            "--input", "x1^4 + 3*x1^2*x2^3 - x5", "--format", "tsv",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "85d8adb22939c1f08e25efafdbcdcc045efa7c0cde9a36af3c1d3ca2909f95e7"
        )

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

    def test_a_reducible_remainder_fails(self, capsys, monkeypatch, gens_file):
        # A kernel that sent its input to the remainder undivided: x1^4 is
        # divisible by the lead x1^2 of the first divisor.
        def undivided(f, divisors):
            return DivisionResult((), f, 0)

        monkeypatch.setattr(cli, "divide", undivided)
        code, out, err = run(capsys, "divide", "--order", "harevlex",
                             "--divisors", gens_file, "--input", "x1^4")
        assert code == 1
        assert json.loads(out)["remainder"] == "x1^4"
        assert "remainder term x1^4 is divisible" in err

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

    def test_terms_without_a_sign_between_are_a_usage_error(self, capsys, gens_file):
        code, out, err = run(
            capsys,
            "divide", "--order", "hlex", "--divisors", gens_file, "--input", "x1 x2",
        )
        assert code == 2 and out == ""
        assert "expected '+' or '-'" in err

    def test_a_number_past_the_digit_limit_is_a_usage_error(self, capsys, gens_file):
        # Python 3.11 and later refuse to convert it; where no digit limit
        # applies, the exponent cap refuses it.  Either message quotes only
        # the start of the number.
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", gens_file, "--input", "x1^" + "9" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("infinigb: ")
        assert err.count("\n") == 1 and len(err.encode()) < 300

    def test_caps_quote_a_long_number_in_part(self, capsys, gens_file):
        # With no digit limit, as on Python 3.10, the number parses and a
        # cap refuses it.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
        nines = "9" * 5000
        cut = f"{nines[:60]}... (5000 characters)"
        set_limit(0)
        try:
            for text, message in [
                (f"x1^{nines}", f"exponent {cut} of x1 is above the divide "
                 "exponent cap 1000"),
                (f"x{nines}", f"variable x{cut} is above the divide variable "
                 "cap 1000"),
            ]:
                code, out, err = run(capsys, "divide", "--order", "hlex",
                                     "--divisors", gens_file, "--input", text)
                assert (code, out, err) == (2, "", f"infinigb: --input: {message}\n")
        finally:
            set_limit(limit)

    def test_a_variable_above_the_cap_is_a_usage_error(self, capsys, tmp_path):
        cap = cli.DIVIDE_VARIABLE_CAP
        linear = tmp_path / "linear.gens"
        linear.write_text("x1 - 1\n")
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", str(linear), "--input", "x1001")
        assert (code, out, err) == (
            2, "", "infinigb: --input: variable x1001 is above "
            "the divide variable cap 1000\n"
        )
        wide = tmp_path / "wide.gens"
        wide.write_text(f"x{cap + 1} - x1\n")
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", str(wide), "--input", "x1")
        assert (code, out, err) == (
            2, "", f"infinigb: divisor file {wide}: variable x1001 is above "
            "the divide variable cap 1000\n"
        )
        # At the cap the division runs.
        code, out, _ = run(capsys, "divide", "--order", "hlex",
                           "--divisors", str(linear), "--input", f"x{cap}*x1")
        assert code == 0
        assert json.loads(out)["remainder"] == f"x{cap}"

    def test_a_long_input_is_quoted_in_part(self, capsys, gens_file):
        text = "x1 + " * 30 + "$"
        code, out, err = run(capsys, "divide", "--order", "hlex",
                             "--divisors", gens_file, "--input", text)
        assert (code, out) == (2, "")
        assert err == (
            f"infinigb: unexpected character at position 150 in {text[:60]!r}"
            "... (151 characters)\n"
        )

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

    @pytest.mark.parametrize(
        "source, kept",
        [(("--order", "hlex", "--gens", "{gens}", "--n", "3", "--deg", "12"),
          ["x2 - x1^2"]),
         (("--order", "harevlex", "--family", "x^p{{i}}-x{{p*i}}", "--W", "pm1mod3",
           "--p", "2", "--n", "12", "--deg", "24"),
          ["x1^2 - x2", "x2^2 - x4", "x4^2 - x8"])],
        ids=["gens", "family"],
    )
    def test_a_base_that_lost_a_generator_is_not_verified(
        self, capsys, monkeypatch, tmp_path, source, kept
    ):
        # What is left is still a Groebner base, of a smaller ideal: only
        # the generators' remainders show the loss.
        path = tmp_path / "two.gens"
        path.write_text("x1^2 - x2\nx3^3 - x1*x2\n")
        reduce_basis = cli.reduce_basis

        def lossy(basis):
            reduced = reduce_basis(basis)
            return dataclasses.replace(reduced, elements=reduced.elements[:-1])

        monkeypatch.setattr(cli, "reduce_basis", lossy)
        argv = [arg.format(gens=path) for arg in source]
        code, out, _ = run(capsys, "gb", *argv, "--reduced")
        assert code == 1
        payload = json.loads(out)
        validate(payload, "gb")
        assert payload["elements"] == kept
        assert payload["verified"] is False

    def test_unknown_family_rejected(self, capsys):
        code, _, err = run(
            capsys,
            "gb", "--order", "harevlex", "--family", "mystery",
            "--W", "pm1mod3", "--p", "2", "--n", "4", "--deg", "8",
        )
        assert code == 2
        assert "family" in err

    def test_tsv_format_is_refused(self, capsys):
        # gb renders only JSON, so argparse turns away --format tsv.
        with pytest.raises(SystemExit) as info:
            cli.main(["gb", "--order", "hlex", "--gens", "none.gens",
                      "--n", "3", "--deg", "6", "--format", "tsv"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert "--format: invalid choice: 'tsv'" in captured.err

    @pytest.mark.parametrize(
        "option, cap, what",
        [("n", "GB_VARIABLE_BOUND_CAP", "gb variable bound"),
         ("deg", "GB_DEGREE_BOUND_CAP", "gb degree bound")],
    )
    def test_window_above_a_cap_is_a_usage_error(
        self, capsys, tmp_path, monkeypatch, option, cap, what
    ):
        argv = ("gb", "--order", "plex", "--family", "x^p{i}-x{p*i}",
                "--W", "all", "--p", "2")
        window = {"n": "6", "deg": "12"}
        limit = getattr(cli, cap)
        for value in (limit + 1, 10**20):
            flags = {**window, option: str(value)}
            start = time.monotonic()
            code, out, err = run(
                capsys, *argv, *(a for k, v in flags.items() for a in (f"--{k}", v))
            )
            assert time.monotonic() - start < 1
            assert code == 2 and out == ""
            assert err == f"infinigb: --{option}: {value} is above the {what} cap {limit}\n"
        # The cap is inclusive, on the flag and in a config file alike.
        monkeypatch.setattr(cli, cap, 12)
        flags = {**window, option: "12"}
        code, out, _ = run(
            capsys, *argv, *(a for k, v in flags.items() for a in (f"--{k}", v))
        )
        assert code == 0 and out
        config = tmp_path / "run.toml"
        config.write_text(
            "".join(f"{k} = {v}\n" for k, v in {**window, option: 13}.items())
        )
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2 and out == ""
        assert f"{what} cap 12" in err


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

    def test_a_modulus_past_the_digit_limit_is_a_usage_error(self, capsys, monkeypatch):
        def refuse(text):
            raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

        # What int() raises past the interpreter's digit limit, on any Python.
        monkeypatch.setattr(index_sets, "int", refuse, raising=False)
        code, out, err = run(capsys, "hilbert", "--W", "nondiv7", "--p", "2", "--N", "10")
        assert (code, out) == (2, "")
        assert err == "infinigb: the nondiv modulus has too many digits\n"

    def test_both_routes_read_one_instantiation(self, capsys, monkeypatch):
        calls = []
        instantiate = groebner.IdealPresentation.instantiate

        def counted(presentation, window):
            calls.append(window)
            return instantiate(presentation, window)

        monkeypatch.setattr(groebner.IdealPresentation, "instantiate", counted)
        code, out, _ = run(capsys, "hilbert", "--preset", "schur-p3", "--N", "20")
        assert code == 0 and json.loads(out)["routes_agree"] is True
        assert calls == [groebner.TruncationWindow(20, 20)]


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

    @pytest.mark.parametrize("route", ["division", "oracle"])
    def test_single_route_json_schema(self, capsys, route):
        code, out, _ = run(
            capsys,
            "bijection", "--preset", "AC", "--n", "9",
            "--route", route, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload, "bijection")
        assert payload["report"]["route"] == route

    def test_schema_tells_the_two_report_shapes_apart(self, capsys):
        _, out, _ = run(
            capsys, "bijection", "--preset", "AB", "--n", "5", "--format", "json"
        )
        payload = json.loads(out)
        report = payload["report"]
        for bad in (
            {**report, "route": "division"},
            {k: v for k, v in report.items() if k != "injective"},
            {**report, "surjective": "yes"},
        ):
            with pytest.raises(jsonschema.ValidationError):
                validate({**payload, "report": bad}, "bijection")

    @pytest.mark.parametrize("preset", ["AB", "AC"])
    def test_tsv_rows_are_the_json_lists(self, capsys, preset):
        # Each row renders its two partitions as json.dumps renders them
        # as lists, the empty partition included.
        for n in range(41):
            code, out, _ = run(capsys, "bijection", "--preset", preset, "--n", str(n))
            assert code == 0
            _, *rows, report = out.splitlines()
            assert len(rows) == json.loads(report)["x_size"] > 0
            for row in rows:
                a, b = (json.loads(text) for text in row.split("\t"))
                assert row == f"{json.dumps(a)}\t{json.dumps(b)}"
                assert sum(a) == sum(b) == n

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

        monkeypatch.setattr(partitions, "_division_image", lambda parts, table: parts)
        code, out, _ = run(capsys, "bijection", "--preset", "AB", "--n", "4")
        assert code == 1
        lines = out.splitlines()
        assert lines[1] == "[1, 1, 1, 1]\t[1, 1, 1, 1]"
        report = json.loads(lines[2])
        assert report["ok"] is False and report["maps_into_target"] is False


    @pytest.mark.parametrize("route", ["division", "oracle"])
    def test_single_route_certifies_at_most_once(self, capsys, monkeypatch, route):
        from infinigb import groebner

        calls = []
        certify = groebner.bayer_stillman_basis

        def counted(*args, **kwargs):
            calls.append(1)
            return certify(*args, **kwargs)

        monkeypatch.setattr(groebner, "bayer_stillman_basis", counted)
        code, out, _ = run(
            capsys, "bijection", "--preset", "AB", "--n", "12", "--route", route
        )
        assert code == 0
        assert len(out.splitlines()) > 3
        assert len(calls) == (1 if route == "division" else 0)

    def test_single_route_reports_a_non_injective_map(self, capsys, monkeypatch):
        from infinigb import partitions

        real = partitions.phi_pairs

        def collapsed(family, p, n, *, route):
            pairs = real(family, p, n, route=route)
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

        monkeypatch.setattr(partitions, "_rewrite_down", lambda parts, *a: parts)
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

    def test_config_integer_past_the_digit_limit_is_a_usage_error(
        self, capsys, tmp_path
    ):
        # Python 3.11 and later refuse to convert it while reading the file;
        # where no digit limit applies, the truncation cap refuses it.
        config = tmp_path / "big.toml"
        config.write_text("N = " + "9" * 5000 + "\n")
        code, out, err = run(capsys, "identities", "--rr", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("infinigb: ")
        assert err.count("\n") == 1 and len(err.encode()) < 300
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if 0 < limit < 5000:
            assert err.startswith(f"infinigb: config file {config}: ")

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

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("identities", "--rr"), "N"),
            (("bijection", "--preset", "AB"), "n"),
            (("gb", "--order", "hlex", "--n", "3"), "deg"),
            (("hilbert", "--preset", "schur-p2", "--N", "5"), "p"),
            (("orders-demo",), "seed"),
        ],
    )
    def test_an_invalid_int_is_quoted_in_part(self, argv, option):
        # A short value keeps argparse's own message; a long one is cut to
        # its first 60 characters, so the error is one short line.
        for value, shown in [
            ("x12", "'x12'"),
            ("x" * 5000, f"{'x' * 60!r}... (5000 characters)"),
        ]:
            code, err = run_in_process([*argv, f"--{option}", value])
            assert code == 2
            assert err.splitlines()[-1] == (
                f"infinigb {argv[0]}: error: argument --{option}: "
                f"invalid int value: {shown}"
            )
            assert len(err.splitlines()[-1].encode()) < 300

    def test_a_number_past_the_digit_limit_is_one_short_line(self):
        # Python 3.11 and later refuse to convert it; where no digit limit
        # applies, the truncation cap refuses it.  Either way the message
        # quotes only the start of the number.
        code, err = run_in_process(["identities", "--rr", "--N", "9" * 5000])
        assert code == 2
        assert len(err.encode()) < 300
        assert "9" * 61 not in err and "(5000 characters)" in err

    def test_main_calls_share_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        first = run(capsys, "orders-demo")
        second = run(capsys, "orders-demo")
        assert first == second and first[0] == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]

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


# The whole stderr of usage errors, pinned so that the option table keeps
# each message and, where an invocation has several faults, the one that is
# reported: defaults and required options first, then least values
# (required options first), then caps.  The config text, if any, is passed
# with --config.
USAGE_ERRORS = [
    (("divide",), None, "missing required option --order"),
    (("divide", "--order", "hlex"), None, "missing required option --divisors"),
    (("gb", "--order", "hlex", "--n", "3"), None, "missing required option --deg"),
    (("gb", "--order", "hlex", "--n", "3", "--deg", "6"), None,
     "gb needs --gens or --family"),
    (("gb", "--n", "-3", "--deg", "-6"), None, "missing required option --order"),
    (("hilbert", "--preset", "schur-p2"), None, "missing required option --N"),
    (("bijection", "--n", "81"), None, "missing required option --preset"),
    (("bijection", "--preset", "AB"), None, "missing required option --n"),
    (("identities", "--schur"), None, "missing required option --N"),
    (("gb", "--order", "hlex", "--n", "3", "--deg", "0"), None,
     "--deg: the degree bound must be at least 1, got 0"),
    (("gb", "--order", "hlex", "--n", "3", "--deg", "6", "--p", "1"), None,
     "--p: the substitution exponent must be at least 2, got 1"),
    (("hilbert", "--N", "5", "--p", "1"), None,
     "--p: the substitution exponent must be at least 2, got 1"),
    (("bijection", "--preset", "AB", "--n", "-1"), None,
     "--n: the partition weight must be non-negative, got -1"),
    (("identities", "--rr", "--N", "-1"), None,
     "--N: truncation must be non-negative, got -1"),
    (("hilbert", "--preset", "schur-p2", "--N", "2001"), None,
     "--N: 2001 is above the series truncation cap 2000"),
    (("identities", "--rr", "--N", "2001"), None,
     "--N: 2001 is above the series truncation cap 2000"),
    (("bijection", "--preset", "AC", "--n", "81"), None,
     "--n: 81 is above the bijection weight cap 80"),
    (("gb", "--order", "hlex", "--n", "251", "--deg", "501"), None,
     "--n: 251 is above the gb variable bound cap 250"),
    (("gb", "--order", "hlex", "--n", "250", "--deg", "501", "--p", "1"), None,
     "--p: the substitution exponent must be at least 2, got 1"),
    (("gb", "--order", "plex"), "n = 3\ndeg = 501\n",
     "--deg: 501 is above the gb degree bound cap 500"),
    (("gb", "--order", "hlex", "--n", "0", "--deg", "6", "--p", "1"), None,
     "--n: the variable bound must be at least 1, got 0"),
    (("gb", "--order", "hlex", "--n", "-3", "--deg", "-6", "--p", "-1"), None,
     "--n: the variable bound must be at least 1, got -3"),
    (("hilbert", "--N", "-1", "--p", "1"), None,
     "--N: truncation must be non-negative, got -1"),
    (("hilbert", "--N", "2001", "--p", "1"), None,
     "--p: the substitution exponent must be at least 2, got 1"),
    (("bijection",), 'preset = "AB"\nn = -1\n',
     "--n: the partition weight must be non-negative, got -1"),
    (("hilbert", "--preset", "schur-p2"), "N = 2001\n",
     "--N: 2001 is above the series truncation cap 2000"),
    (("gb", "--p", "1"), 'order = "hlex"\nn = 3\ndeg = 6\n',
     "--p: the substitution exponent must be at least 2, got 1"),
    (("identities", "--rr"), 'N = "60"\n',
     "config key 'N' must be an integer, got '60'"),
    (("identities", "--rr"), "N = true\n",
     "config key 'N' must be an integer, got True"),
    (("identities", "--rr"), "N = 6.0\n",
     "config key 'N' must be an integer, got 6.0"),
    (("identities", "--rr"), "N = [1, 2]\n",
     "config key 'N' must be an integer, got [1, 2]"),
    (("identities", "--rr"), 'format = "xml"\nN = 5\n',
     "config key 'format' must be one of json, tsv, got 'xml'"),
    (("identities", "--rr"), "schur = 1\nN = 5\n",
     "config key 'schur' must be true or false, got 1"),
    (("orders-demo",), 'seed = "x"\n',
     "config key 'seed' must be an integer, got 'x'"),
    (("bijection",), 'route = "fast"\npreset = "AB"\nn = 3\n',
     "config key 'route' must be one of both, division, oracle, got 'fast'"),
    (("bijection",), 'route = 3\npreset = "AB"\nn = 3\n',
     "config key 'route' must be a string, got 3"),
    (("gb",), 'order = "grevlex"\n',
     "config key 'order' must be one of plex, hlex, halex, hrevlex, harevlex, "
     "got 'grevlex'"),
    (("gb",), 'reduced = "yes"\n',
     "config key 'reduced' must be true or false, got 'yes'"),
    (("hilbert",), "W = 3\np = 2\nN = 4\n",
     "config key 'W' must be a string, got 3"),
    (("identities", "--rr"), "bogus = 1\ndefault-format = 2\n",
     "missing required option --N"),
    (("gb", "--order", "hlex", "--n", "3", "--deg", "6"), 'format = "tsv"\n',
     "config key 'format' must be one of json, got 'tsv'"),
    (("bijection", "--preset", "ZZ", "--n", "3"), None, "unknown preset 'ZZ'"),
    (("hilbert", "--N", "5"), None, "hilbert needs --preset or both --W and --p"),
    (("hilbert", "--W", "odd", "--N", "5"), None,
     "hilbert needs --preset or both --W and --p"),
    # A nondivQ name has ASCII digits only.
    (("hilbert", "--W", "nondiv\u00b2", "--p", "2", "--N", "10"), None,
     "unknown index set 'nondiv\u00b2'"),
    (("hilbert", "--W", "nondiv\u0663", "--p", "2", "--N", "10"), None,
     "unknown index set 'nondiv\u0663'"),
    (("gb", "--order", "hlex", "--family", "x^p{i}-x{p*i}", "--n", "3",
      "--deg", "6"), None, "a parametric family needs --W and --p"),
    (("gb", "--order", "hlex", "--family", "x^p{i}-x{p*i}", "--W", "odd",
      "--n", "3", "--deg", "6"), None, "a parametric family needs --W and --p"),
]


@pytest.mark.parametrize(
    "argv, config, message", USAGE_ERRORS,
    ids=[" ".join(argv) + (f" [{config!r}]" if config else "")
         for argv, config, _ in USAGE_ERRORS],
)
def test_usage_error_stderr_is_pinned(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "run.toml"
        path.write_text(config)
        argv = (*argv, "--config", str(path))
    assert run(capsys, *argv) == (2, "", f"infinigb: {message}\n")


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
    ("bijection", "--preset", "AB", "--n", "40"):
        "6f26ffc60378e935306bcc33ad3daee655ee26ed23aaf741f3e6c05cfc4a3a52",
    ("bijection", "--preset", "AC", "--n", "40", "--format", "json"):
        "7c34176b71629f8480a96483520a746ecbff6885fa0a3b60074027d6a758c70d",
    ("identities", "--schur", "--rr", "--N", "60"):
        "d390d6146e5b09e782ad3dce833cbc8872f806052abd9af6b7be236ff09ac910",
    ("identities", "--rr", "--N", "30", "--format", "json"):
        "efe17dad1fe1618d02dc3803802358d9ca3f655f8448f53c2f20b92bbaa7954e",
    ("hilbert", "--preset", "schur-p3", "--N", "20"):
        "0f25bc737c55cf7ef8847b5a9fb80a93961224bf8dcba3cda0fb007f8d7f5a23",
    ("hilbert", "--preset", "schur-p2", "--N", "20", "--format", "tsv"):
        "03e40e8f85c15724c277104950ada495440492be83d2764632f7a6163e969f2f",
    ("gb", "--order", "harevlex", "--family", "power-substitution",
     "--W", "pm1mod3", "--p", "2", "--n", "12", "--deg", "24"):
        "eb76210100c02b7908bfff73111c4a7eb517c1c33c57bee9f805d535bcf7e94f",
    ("gb", "--order", "hlex", "--family", "power-substitution",
     "--W", "pm1mod3", "--p", "2", "--n", "12", "--deg", "24"):
        "667cf474377922ad820432038ca78228fde32416db76d4db017adb37a5d72e4f",
    ("bijection", "--preset", "AB", "--n", "40", "--route", "oracle"):
        "8252fef2cfdbf2646c46112b23de1f19b901688b858b2cba77a01c6da3ef54aa",
    ("bijection", "--preset", "AC", "--n", "40", "--route", "division",
     "--format", "json"):
        "c1b6b84f229d17e8dd7524301b7e8a81723aafbda31498583e2431719681ceb2",
    ("bijection", "--preset", "AB", "--n", "80", "--route", "oracle"):
        "32f64fc627a18093d5eb7755905e25920abbe1fa4f3c4e0a6a73536325511cc4",
    ("bijection", "--preset", "AC", "--n", "80", "--route", "oracle"):
        "010b15bcef236fb01cf559713412d1aab1b63aa76c36dd256ade096d2afba238",
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


# A small grammar for polynomial text, with the mistakes a user makes:
# the variable x0, exponents far above every cap, a zero denominator and
# stray tokens.
HUGE_EXPONENTS = [1001, 10**20]
STRAY_TOKENS = ["", " ", "x", "^", "*", "+", "-", "/", "(", ")", "#", "1/", "x1^",
                "^2", "xx1", "--", "é", "\t", "\x00", "x1.5", "1e3", "+-"]


def fuzz_monomials():
    factor = st.builds(
        lambda index, exponent: f"x{index}" if exponent is None
        else f"x{index}^{exponent}",
        st.integers(0, 5),
        st.sampled_from([None, None, 0, 1, 2, 3, *HUGE_EXPONENTS]),
    )
    return st.lists(factor, min_size=1, max_size=3).map("*".join)


def fuzz_terms():
    coefficient = st.sampled_from(["1", "-1", "2", "3/4", "-5/3", "0", "1/0"])
    return st.one_of(
        coefficient,
        fuzz_monomials(),
        st.builds(lambda c, m: f"{c}*{m}", coefficient, fuzz_monomials()),
    )


@st.composite
def fuzz_polynomials(draw):
    tokens = []
    for position, term in enumerate(draw(st.lists(fuzz_terms(), max_size=4))):
        if position:
            tokens.append(draw(st.sampled_from([" + ", " - ", "+", "-"])))
        tokens.append(term)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        tokens.insert(at, draw(st.sampled_from(STRAY_TOKENS)))
    return "".join(tokens)


def fuzz_generator_files():
    line = st.one_of(
        fuzz_polynomials(),
        fuzz_polynomials().map(lambda text: f"{text}  # comment"),
        st.sampled_from(["", "# comment"]),
    )
    return st.lists(line, max_size=4).map(lambda lines: "\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_in_process(argv):
    """`cli.main` on argv with stdout and stderr captured: the exit code,
    argparse's usage errors included, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, err.getvalue()


def toml_value(value):
    """A TOML literal: JSON spells booleans, numbers, plain strings and
    arrays the same way."""
    return json.dumps(value)


class TestFuzzedInput:
    """Every input drawn from the grammar above, and every config file
    drawn below, exits 0, 1 or 2 with no traceback, in process and
    quickly: `divide`'s exponent cap and `gb`'s window turn away the huge
    exponents before any division or completion starts, and the caps on
    --N, --n and --deg the sizes above them."""

    @settings(max_examples=60, deadline=2000)
    @given(
        text=fuzz_polynomials(),
        divisors=fuzz_generator_files(),
        order=st.sampled_from(cli.ORDER_NAMES),
    )
    def test_divide(self, fuzz_dir, text, divisors, order):
        path = fuzz_dir / "divisors.gens"
        path.write_text(divisors, encoding="utf-8")
        code, err = run_in_process(
            ["divide", "--order", order, "--divisors", str(path), "--input", text]
        )
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=2000)
    @given(gens=fuzz_generator_files(), order=st.sampled_from(cli.ORDER_NAMES))
    def test_gb_gens(self, fuzz_dir, gens, order):
        path = fuzz_dir / "input.gens"
        path.write_text(gens, encoding="utf-8")
        code, err = run_in_process(
            ["gb", "--order", order, "--gens", str(path), "--n", "3", "--deg", "6"]
        )
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    # Option values of every TOML kind: booleans, small integers and one
    # above each cap, option strings and mistakes, floats and arrays.
    TYPED_VALUES = {
        bool: st.booleans(),
        int: st.one_of(
            st.integers(-3, 12),
            st.sampled_from(
                [cli.SERIES_TRUNCATION_CAP + 1, cli.BIJECTION_WEIGHT_CAP + 1,
                 cli.GB_VARIABLE_BOUND_CAP + 1, cli.GB_DEGREE_BOUND_CAP + 1]
            ),
        ),
        str: st.sampled_from(
            ["json", "tsv", "xml", "both", "division", "oracle", "fast", "AB",
             "AC", "ZZ", "schur-p2", "schur-p3", "odd", "pm1mod3", "all", "",
             "mystery"]
        ),
    }
    CONFIG_VALUES = st.one_of(
        *TYPED_VALUES.values(),
        st.floats(-3, 12, allow_nan=False),
        st.lists(st.integers(-3, 12), max_size=3),
    )
    CONFIG_FLAGS = {
        "identities": [["--schur"], ["--rr"], ["--N", "5"], ["--format", "json"]],
        "bijection": [["--preset", "AC"], ["--n", "6"], ["--route", "oracle"]],
        "hilbert": [["--preset", "schur-p2"], ["--W", "odd"], ["--p", "3"],
                    ["--N", "8"]],
        "gb": [["--order", "harevlex"], ["--family", "x^p{i}-x{p*i}"],
               ["--W", "pm1mod3"], ["--p", "2"], ["--n", "6"], ["--deg", "12"],
               ["--reduced"]],
    }

    @settings(max_examples=60, deadline=2000)
    @given(data=st.data(), command=st.sampled_from(sorted(CONFIG_FLAGS)))
    def test_config(self, fuzz_dir, data, command):
        """A config file of keys drawn from the command's options, one
        unknown key and one dashed key (read as `default_format`), with some
        flags also on the command line."""
        options = cli._COMMANDS[command].options
        keys = data.draw(
            st.lists(
                st.sampled_from([*options, "bogus", "default-format"]),
                unique=True, max_size=6,
            )
        )
        # At least half the values, on average, have the option's kind.
        config = {
            key: data.draw(
                st.one_of(self.TYPED_VALUES[options[key].kind], self.CONFIG_VALUES)
                if key in options else self.CONFIG_VALUES
            )
            for key in keys
        }
        flags = data.draw(st.lists(st.sampled_from(self.CONFIG_FLAGS[command])))
        path = fuzz_dir / "run.toml"
        path.write_text(
            "".join(f"{key} = {toml_value(value)}\n" for key, value in config.items()),
            encoding="utf-8",
        )
        argv = [command, *(arg for flag in flags for arg in flag)]
        code, err = run_in_process([*argv, "--config", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
