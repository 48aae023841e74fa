"""Command-line front end: `infinigb <command> [options]`.

Exit status 0 means every requested verification passed, 1 means a
verification failed (a structured report is still emitted), 2 means a
usage or input error.  Flags override config-file values override
defaults; output is deterministic byte for byte for a fixed invocation.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import index_sets, partitions, series
from .division import divide
from .errors import InfinigbError, InputError
from .groebner import (
    STABILITY_WINDOW,
    IdealPresentation,
    TruncationWindow,
    bayer_stillman_basis,
    buchberger_truncated,
    reduce_basis,
    stabilized_reduced_basis,
    verify_buchberger,
)
from .monomials import OrderKind, compare, parse_monomial, sort_key
from .polynomials import RingContext, parse_polynomial

ORDER_NAMES = [kind.value for kind in OrderKind]

# The degree-4 showcase: one monomial per partition of 4.
_DEMO_TEXTS = ["x4", "x1*x3", "x2^2", "x1^2*x2", "x1^4"]
_DEMO_ORDERS = ["hlex", "halex", "hrevlex", "harevlex"]


def _load_config(path):
    if path is None:
        return {}
    try:
        import tomllib as toml
    except ModuleNotFoundError:
        try:
            import tomli as toml
        except ModuleNotFoundError:
            raise InfinigbError(
                "config files need Python 3.11+ (tomllib) or the tomli package"
            ) from None
    with open(path, "rb") as handle:
        try:
            return toml.load(handle)
        except (toml.TOMLDecodeError, UnicodeDecodeError) as error:
            raise InputError(f"config file {path}: {error}") from None


_CONFIG_KINDS = {bool: "true or false", int: "an integer", str: "a string"}


def _apply_config(args, config, options):
    """Fill options left unset on the command line from the config file,
    checked against the option's own type and choices (flags take a TOML
    boolean)."""
    for key, value in config.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            action = options[attr]
            kind = bool if action.nargs == 0 else action.type or str
            if type(value) is not kind:
                raise InputError(
                    f"config key {key!r} must be {_CONFIG_KINDS[kind]}, got {value!r}"
                )
            if action.choices is not None and value not in action.choices:
                raise InputError(
                    f"config key {key!r} must be one of "
                    f"{', '.join(action.choices)}, got {value!r}"
                )
            setattr(args, attr, value)


def _options(parser, command):
    """The actions of one subcommand's options, by destination."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {a.dest: a for a in action.choices[command]._actions}


def _emit(text):
    sys.stdout.write(text + "\n")


def _emit_json(payload):
    _emit(json.dumps(payload, indent=2))


def _family_presentation(order_name, set_name, p):
    order = OrderKind.from_name(order_name)
    parts = index_sets.from_name(set_name)
    return IdealPresentation.power_substitution(parts, p, order)


def cmd_orders_demo(args):
    chains = {}
    failures = 0
    for name in _DEMO_ORDERS:
        order = OrderKind.from_name(name)
        monomials = [parse_monomial(text) for text in _DEMO_TEXTS]
        ordered = sorted(monomials, key=sort_key(order), reverse=True)
        chains[name] = [str(m) for m in ordered]
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                if compare(ordered[i], ordered[j], order) != 1:
                    failures += 1
                if compare(ordered[j], ordered[i], order) != -1:
                    failures += 1
    verdict = "PASS" if failures == 0 else "FAIL"
    if args.format == "json":
        _emit_json(
            {
                "chains": chains,
                "pairwise_comparisons": 2 * len(_DEMO_ORDERS) * 10,
                "verdict": verdict,
                "seed": args.seed,
            }
        )
    else:
        for name in _DEMO_ORDERS:
            _emit(f"{name}: " + " > ".join(chains[name]))
        _emit(f"verdict: {verdict}")
    return 0 if failures == 0 else 1


def _read_generators(path, context):
    gens = []
    with open(path, "r", encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as error:
            raise InputError(f"generator file {path}: {error}") from None
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            gens.append(parse_polynomial(stripped, context))
    return gens


# The largest exponent `divide` accepts in its input and divisors.  A
# division's work grows with the exponents: by x1 - 1, x1^e takes e + 1
# steps and has a quotient of e terms.
DIVIDE_EXPONENT_CAP = 1000

# The largest series truncation --N that `identities` and `hilbert` accept.
# Their work grows about like N^2 with coefficients of N^(1/2) digits: at
# N = 2000, `identities --schur --rr` takes about 2 s and `hilbert --W all
# --p 2` about 1 s on one core of a shared 2-vCPU x86-64 host.
SERIES_TRUNCATION_CAP = 2000

# The largest partition weight --n that `bijection` accepts.  Its work grows
# like the partition numbers: preset AB takes about 2 s at n = 80, 7 s at
# n = 100 and 34 s at n = 120 on the same host.
BIJECTION_WEIGHT_CAP = 80


def _check_exponents(polynomials, source):
    for f in polynomials:
        for _, m in f.terms:
            for index, exponent in m.exps:
                if exponent > DIVIDE_EXPONENT_CAP:
                    raise InputError(
                        f"{source}: exponent {exponent} of x{index} is above "
                        f"the divide exponent cap {DIVIDE_EXPONENT_CAP}"
                    )


def cmd_divide(args):
    order = OrderKind.from_name(args.order)
    context = RingContext(order)
    divisors = _read_generators(args.divisors, context)
    _check_exponents(divisors, f"divisor file {args.divisors}")
    f = parse_polynomial(args.input, context)
    _check_exponents([f], "--input")
    result = divide(f, divisors)
    payload = {
        "input": str(f),
        "order": args.order,
        "quotients": [
            {"divisor": str(divisors[position]), "quotient": str(q)}
            for position, q in result.quotients
        ],
        "remainder": str(result.remainder),
        "steps": result.step_count,
        "seed": args.seed,
    }
    if args.format == "tsv":
        for entry in payload["quotients"]:
            _emit(f"{entry['divisor']}\t{entry['quotient']}")
        _emit(f"remainder\t{payload['remainder']}")
        _emit(f"steps\t{payload['steps']}")
    else:
        _emit_json(payload)
    return 0


_FAMILY_SPELLINGS = {"x^p{i}-x{p*i}", "x{i}^p-x{p*i}", "power-substitution"}


def cmd_gb(args):
    order = OrderKind.from_name(args.order)
    window = TruncationWindow(args.n, args.deg)
    stable = None
    unstable = []
    if args.gens is not None:
        context = RingContext(order)
        gens = _read_generators(args.gens, context)
        basis = buchberger_truncated(gens, window, context=context)
    else:
        if args.family not in _FAMILY_SPELLINGS:
            raise InputError(
                f"unknown family {args.family!r}; expected one of "
                f"{sorted(_FAMILY_SPELLINGS)}"
            )
        if args.W is None or args.p is None:
            raise InputError("a parametric family needs --W and --p")
        presentation = _family_presentation(args.order, args.W, args.p)
        gens = presentation.instantiate(window)
        basis = bayer_stillman_basis(
            gens, window=window, context=presentation.context
        )
        if basis is None:
            basis = buchberger_truncated(
                gens, window, context=presentation.context
            )
        if args.n >= STABILITY_WINDOW:
            scan = stabilized_reduced_basis(
                presentation, max_n=args.n, degree_bound=args.deg
            )
            stable = scan.stabilized
            unstable = [str(g) for g in scan.unstable]
    if args.reduced:
        basis = reduce_basis(basis)
    verified = verify_buchberger(basis)
    payload = {
        "elements": [str(g) for g in basis.elements],
        "order": args.order,
        "window": {"var_bound": args.n, "degree_bound": args.deg},
        "certificate": basis.certificate.value,
        "reduced": basis.reduced,
        "verified": verified,
        "stable": stable,
        "unstable": unstable,
        "seed": args.seed,
    }
    _emit_json(payload)
    return 0 if verified else 1


_HILBERT_PRESETS = {
    "schur-p2": ("pm1mod3", 2),
    "schur-p3": ("odd", 3),
}


def cmd_hilbert(args):
    if args.preset is not None:
        if args.preset not in _HILBERT_PRESETS:
            raise InputError(f"unknown preset {args.preset!r}")
        set_name, p = _HILBERT_PRESETS[args.preset]
    elif args.W is not None and args.p is not None:
        set_name, p = args.W, args.p
    else:
        raise InputError("hilbert needs --preset or both --W and --p")
    N = args.N
    presentation = _family_presentation("harevlex", set_name, p)
    window = TruncationWindow(max(1, N), max(1, N))
    gens = presentation.instantiate(window)
    basis = bayer_stillman_basis(gens, window=window, context=presentation.context)
    counted = series.quotient_series_from_standard_monomials(
        basis, N, variables=presentation.variables
    )
    predicted = series.regular_sequence_series(presentation, N)
    agree = counted == predicted
    payload = {
        "preset": args.preset,
        "W": set_name,
        "p": p,
        "N": N,
        "coefficients": list(counted.coefficients),
        "predicted": list(predicted.coefficients),
        "routes_agree": agree,
        "verdict": "PASS" if agree else "FAIL",
        "seed": args.seed,
    }
    if args.format == "tsv":
        for n, c in enumerate(counted.coefficients):
            _emit(f"{n}\t{c}")
        _emit(f"verdict\t{payload['verdict']}")
    else:
        _emit_json(payload)
    return 0 if agree else 1


_BIJECTION_PRESETS = {
    "AB": ("pm1mod3", 2),
    "AC": ("odd", 3),
}


def cmd_bijection(args):
    if args.preset not in _BIJECTION_PRESETS:
        raise InputError(f"unknown preset {args.preset!r}")
    set_name, p = _BIJECTION_PRESETS[args.preset]
    family = index_sets.from_name(set_name)
    if args.route == "both":
        pairs, report = partitions.verify_bijection(family, p, args.n)
    else:
        if args.route == "division":
            pairs = partitions.phi_pairs(family, p, args.n)
        else:
            x_side = sorted(
                partitions.enumerate_family(
                    partitions.FamilySpec("X", family, p), args.n
                )
            )
            pairs = [
                (parts, partitions.phi(parts, family, p, route="oracle"))
                for parts in x_side
            ]
        # One route: `ok` means distinct images, all in the target family.
        images = {b for _, b in pairs}
        y_side = partitions.enumerate_family(
            partitions.FamilySpec("Y", family, p), args.n
        )
        report = {
            "n": args.n,
            "family": family.name,
            "p": p,
            "x_size": len(pairs),
            "route": args.route,
            "ok": len(images) == len(pairs) and images <= y_side,
        }
    report["seed"] = args.seed
    if args.format == "json":
        _emit_json(
            {
                "pairs": [
                    {"from": list(a), "to": list(b)} for a, b in pairs
                ],
                "report": report,
            }
        )
    else:
        _emit("lambda\tphi(lambda)")
        for a, b in pairs:
            _emit(f"{json.dumps(list(a))}\t{json.dumps(list(b))}")
        _emit(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_identities(args):
    if not args.schur and not args.rr:
        raise InputError("identities needs --schur and/or --rr")
    payload = {"seed": args.seed}
    ok = True
    if args.schur:
        report = partitions.schur_identity_check(args.N)
        payload["schur"] = {
            "N": report["N"],
            "columns": report["columns"],
            "verdict": "PASS" if report["equal"] else "FAIL",
        }
        ok &= report["equal"]
    if args.rr:
        report = partitions.rr_identity_check(args.N)
        payload["rogers_ramanujan"] = {
            "N": report["N"],
            "columns": report["columns"],
            "verdict": "PASS" if report["equal"] else "FAIL",
        }
        ok &= report["equal"]
    if args.format == "tsv":
        for name in ("schur", "rogers_ramanujan"):
            if name not in payload:
                continue
            block = payload[name]
            columns = block["columns"]
            headers = list(columns)
            _emit("n\t" + "\t".join(headers))
            for n in range(block["N"] + 1):
                _emit(
                    f"{n}\t" + "\t".join(str(columns[h][n]) for h in headers)
                )
            _emit(f"{name}\t{block['verdict']}")
    else:
        _emit_json(payload)
    return 0 if ok else 1


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="TOML config file")
    common.add_argument(
        "--format", choices=["json", "tsv"], default=None, help="output format"
    )
    common.add_argument("--seed", type=int, default=None, help="echoed seed")

    parser = argparse.ArgumentParser(
        prog="infinigb",
        description="Groebner bases over infinitely many variables, "
        "partition bijections and series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orders-demo", parents=[common],
                       help="print the degree-4 comparison chains")
    p.set_defaults(handler=cmd_orders_demo, default_format="tsv")

    p = sub.add_parser("divide", parents=[common], help="division with remainder")
    p.add_argument("--order", choices=ORDER_NAMES, default=None)
    p.add_argument("--divisors", default=None, help="generator file")
    p.add_argument("--input", default=None, help="polynomial text")
    p.set_defaults(handler=cmd_divide, default_format="json")

    p = sub.add_parser("gb", parents=[common], help="Groebner base of a window")
    p.add_argument("--order", choices=ORDER_NAMES, default=None)
    p.add_argument("--family", default=None, help='e.g. "x^p{i}-x{p*i}"')
    p.add_argument("--W", default=None, help="variable set name, e.g. pm1mod3")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, default=None, help="variable bound")
    p.add_argument("--deg", type=int, default=None, help="degree bound")
    p.add_argument("--gens", default=None, help="explicit generator file")
    p.add_argument("--reduced", action="store_true", default=None)
    p.set_defaults(handler=cmd_gb, default_format="json")

    p = sub.add_parser("hilbert", parents=[common], help="two-route Hilbert series")
    p.add_argument("--preset", default=None, help="schur-p2 or schur-p3")
    p.add_argument("--W", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--N", type=int, default=None, help="series truncation")
    p.set_defaults(handler=cmd_hilbert, default_format="json")

    p = sub.add_parser("bijection", parents=[common], help="partition bijection table")
    p.add_argument("--preset", default=None, help="AB or AC")
    p.add_argument("--n", type=int, default=None, help="partition weight")
    p.add_argument(
        "--route", choices=["both", "division", "oracle"], default=None
    )
    p.set_defaults(handler=cmd_bijection, default_format="tsv")

    p = sub.add_parser("identities", parents=[common], help="series identity checks")
    p.add_argument("--schur", action="store_true", default=None)
    p.add_argument("--rr", action="store_true", default=None)
    p.add_argument("--N", type=int, default=None, help="series truncation")
    p.set_defaults(handler=cmd_identities, default_format="tsv")
    return parser


_REQUIRED = {
    cmd_divide: ("order", "divisors", "input"),
    cmd_gb: ("order", "n", "deg"),
    cmd_hilbert: ("N",),
    cmd_bijection: ("preset", "n"),
    cmd_identities: ("N",),
}


# Per command, the least value of each numeric option and what it bounds.
_LEAST = {
    cmd_gb: (
        ("n", 1, "the variable bound"),
        ("deg", 1, "the degree bound"),
        ("p", 2, "the substitution exponent"),
    ),
    cmd_hilbert: (("N", 0, "truncation"), ("p", 2, "the substitution exponent")),
    cmd_bijection: (("n", 0, "the partition weight"),),
    cmd_identities: (("N", 0, "truncation"),),
}


def _check_numbers(args):
    for name, least, what in _LEAST.get(args.handler, ()):
        value = getattr(args, name)
        if value is not None and value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise InputError(f"--{name}: {what} must be {bound}, got {value}")
    capped = args.handler in (cmd_hilbert, cmd_identities)
    if capped and args.N > SERIES_TRUNCATION_CAP:
        raise InputError(
            f"--N: {args.N} is above the series truncation cap "
            f"{SERIES_TRUNCATION_CAP}"
        )
    if args.handler is cmd_bijection and args.n > BIJECTION_WEIGHT_CAP:
        raise InputError(
            f"--n: {args.n} is above the bijection weight cap "
            f"{BIJECTION_WEIGHT_CAP}"
        )


# The value of each option that neither a flag nor the config set, on the
# commands that have it.
_DEFAULTS = {"route": "both", "reduced": False, "schur": False, "rr": False}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, _load_config(args.config), _options(parser, args.command))
        if args.format is None:
            args.format = args.default_format
        for name, value in _DEFAULTS.items():
            if getattr(args, name, value) is None:
                setattr(args, name, value)
        for required in _REQUIRED.get(args.handler, ()):
            if getattr(args, required) is None:
                raise InputError(f"missing required option --{required}")
        _check_numbers(args)
        return args.handler(args)
    except (InfinigbError, OSError) as error:
        print(f"infinigb: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
