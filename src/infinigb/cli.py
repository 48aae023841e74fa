"""Command-line front end: `infinigb <command> [options]`.

Exit status 0 means every requested verification passed, 1 means a
verification failed (a structured report is still emitted), 2 means a
usage or input error.  Flags override config-file values override
defaults; output is deterministic byte for byte for a fixed invocation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations

from . import index_sets, partitions, series
from .division import DivisorTable, divide, remainder
from .errors import InfinigbError, InputError, echo
from .groebner import (
    STABILITY_WINDOW,
    IdealPresentation,
    TruncationWindow,
    buchberger_truncated,
    coprime_basis,
    reduce_basis,
    stabilized_reduced_basis,
    verify_buchberger,
)
from .monomials import OrderKind, compare, parse_monomial, sort_key
from .polynomials import RingContext, parse_polynomial

ORDER_NAMES = [kind.value for kind in OrderKind]

# The degree-4 showcase: one monomial per partition of 4, and the paper's
# chain of them, largest first, under each order.
_DEMO_TEXTS = ["x4", "x1*x3", "x2^2", "x1^2*x2", "x1^4"]
_DEMO_CHAINS = {
    "hlex": ["x4", "x1*x3", "x2^2", "x1^2*x2", "x1^4"],
    "halex": ["x1^4", "x1^2*x2", "x1*x3", "x2^2", "x4"],
    "hrevlex": ["x4", "x2^2", "x1*x3", "x1^2*x2", "x1^4"],
    "harevlex": ["x1^4", "x1^2*x2", "x2^2", "x1*x3", "x4"],
}


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
        except ValueError as error:
            # A TOMLDecodeError, a UnicodeDecodeError, or an integer past
            # the interpreter's digit limit.
            raise InputError(f"config file {path}: {error}") from None


_CONFIG_KINDS = {bool: "true or false", int: "an integer", str: "a string"}


def _apply_config(args, config, options):
    """Fill options left unset on the command line from the config file,
    checked against the option's own type and choices (flags take a TOML
    boolean)."""
    for key, value in config.items():
        option = options.get(key.replace("-", "_"))
        if option is not None and getattr(args, option.name) is None:
            if type(value) is not option.kind:
                raise InputError(
                    f"config key {key!r} must be {_CONFIG_KINDS[option.kind]}, "
                    f"got {echo(repr(value))}"
                )
            choices = option.keywords.get("choices")
            if choices is not None and value not in choices:
                raise InputError(
                    f"config key {key!r} must be one of "
                    f"{', '.join(choices)}, got {echo(repr(value))}"
                )
            setattr(args, option.name, value)


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
    for name, expected in _DEMO_CHAINS.items():
        order = OrderKind.from_name(name)
        monomials = [parse_monomial(text) for text in _DEMO_TEXTS]
        ordered = sorted(monomials, key=sort_key(order), reverse=True)
        chains[name] = [str(m) for m in ordered]
        # Both the sort and `compare` are checked against the paper.
        failures += chains[name] != expected
        chain = [parse_monomial(text) for text in expected]
        for a, b in combinations(chain, 2):
            failures += (compare(a, b, order), compare(b, a, order)) != (1, -1)
    verdict = "PASS" if failures == 0 else "FAIL"
    if args.format == "json":
        _emit_json(
            {
                "chains": chains,
                "pairwise_comparisons": 2 * len(_DEMO_CHAINS) * 10,
                "verdict": verdict,
                "seed": args.seed,
            }
        )
    else:
        for name in _DEMO_CHAINS:
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

# The largest variable index `divide` accepts in its input and divisors.
# Its table has a field for every variable up to the largest index, so
# each packed key is an int of that many fields.  At the cap, `divide
# --order hlex` of x1000 by x4 - x3 - x2 - x1 takes 0.13 s as a whole
# process, as x1 does, and of x1000^1000 by x1000 - x1 (1001 steps) 0.16 s
# on a shared 2-vCPU x86-64 host.
DIVIDE_VARIABLE_CAP = 1000

# The largest series truncation --N that `identities` and `hilbert` accept.
# Their work grows about like N^2 with coefficients of N^(1/2) digits: at
# N = 2000, `identities --schur --rr` takes about 2 s and `hilbert --W all
# --p 2` about 1 s on one core of a shared 2-vCPU x86-64 host.
SERIES_TRUNCATION_CAP = 2000

# The largest partition weight --n that `bijection` accepts.  Its work grows
# like the partition numbers: preset AB takes about 2 s at n = 80, 7 s at
# n = 100 and 34 s at n = 120 on the same host.
BIJECTION_WEIGHT_CAP = 80

# The largest variable bound --n and degree bound --deg that `gb` accepts.
# With --family and n >= 3 it scans every window n' = 1..n, and under `plex`
# each is completed from scratch, so its work grows about like n^3; no
# window admits more generators once --deg reaches 2 n.  The largest
# allowed run, `gb --order plex --family ... --W all --p 2 --n 250 --deg
# 500`, takes about 2.2 s in process on the same host.
GB_VARIABLE_BOUND_CAP = 250
GB_DEGREE_BOUND_CAP = 500


def _check_caps(polynomials, source):
    for f in polynomials:
        for _, m in f.terms:
            for index, exponent in m.exps:
                if index > DIVIDE_VARIABLE_CAP:
                    raise InputError(
                        f"{source}: variable x{echo(str(index))} is above "
                        f"the divide variable cap {DIVIDE_VARIABLE_CAP}"
                    )
                if exponent > DIVIDE_EXPONENT_CAP:
                    raise InputError(
                        f"{source}: exponent {echo(str(exponent))} of "
                        f"x{index} is above the divide exponent cap "
                        f"{DIVIDE_EXPONENT_CAP}"
                    )


def cmd_divide(args):
    order = OrderKind.from_name(args.order)
    context = RingContext(order)
    divisors = _read_generators(args.divisors, context)
    _check_caps(divisors, f"divisor file {args.divisors}")
    f = parse_polynomial(args.input, context)
    _check_caps([f], "--input")
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
    # Checked by `Monomial.divides`, apart from the packed divisor search.
    leads = [g.lm() for g in divisors]
    for _, m in result.remainder.terms:
        if any(lead.divides(m) for lead in leads):
            print(
                f"infinigb: the remainder term {m} is divisible by a divisor's "
                "leading monomial",
                file=sys.stderr,
            )
            return 1
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
        if args.family is None:
            raise InputError("gb needs --gens or --family")
        if args.family not in _FAMILY_SPELLINGS:
            raise InputError(
                f"unknown family {echo(args.family, repr)}; expected one of "
                f"{sorted(_FAMILY_SPELLINGS)}"
            )
        if args.W is None or args.p is None:
            raise InputError("a parametric family needs --W and --p")
        presentation = _family_presentation(args.order, args.W, args.p)
        basis = coprime_basis(presentation, window)
        gens = basis.elements
        if args.n >= STABILITY_WINDOW:
            scan = stabilized_reduced_basis(
                presentation, max_n=args.n, degree_bound=args.deg
            )
            stable = scan.stabilized
            unstable = [str(g) for g in scan.unstable]
    if args.reduced:
        basis = reduce_basis(basis)
    # verify_buchberger sees only the output, which may have lost a generator.
    table = DivisorTable(basis.context, basis.elements, args.deg)
    verified = verify_buchberger(basis) and all(
        remainder(g, table).is_zero for g in gens
    )
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
            raise InputError(f"unknown preset {echo(args.preset, repr)}")
        set_name, p = _HILBERT_PRESETS[args.preset]
    elif args.W is not None and args.p is not None:
        set_name, p = args.W, args.p
    else:
        raise InputError("hilbert needs --preset or both --W and --p")
    N = args.N
    presentation = _family_presentation("harevlex", set_name, p)
    basis = coprime_basis(presentation, TruncationWindow(max(1, N), max(1, N)))
    variables = presentation.variables
    counted = series.quotient_series_from_standard_monomials(
        basis, N, variables=variables
    )
    predicted = series.regular_sequence_series(basis, N, variables=variables)
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
        raise InputError(f"unknown preset {echo(args.preset, repr)}")
    set_name, p = _BIJECTION_PRESETS[args.preset]
    family = index_sets.from_name(set_name)
    if args.route == "both":
        pairs, report = partitions.verify_bijection(family, p, args.n)
    else:
        pairs = partitions.phi_pairs(family, p, args.n, route=args.route)
        # One route: `ok` means distinct images, each a partition of n in
        # the target family.
        target = partitions.FamilySpec("Y", family, p)
        images = {b for _, b in pairs}
        report = {
            "n": args.n,
            "family": family.name,
            "p": p,
            "x_size": len(pairs),
            "route": args.route,
            "ok": len(images) == len(pairs)
            and all(sum(b) == args.n and target.contains(b) for b in images),
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
            _emit(f"[{', '.join(map(str, a))}]\t[{', '.join(map(str, b))}]")
        _emit(json.dumps(report))
    return 0 if report["ok"] else 1


def cmd_identities(args):
    if not args.schur and not args.rr:
        raise InputError("identities needs --schur and/or --rr")
    blocks = {}
    for name, flag, check in (
        ("schur", args.schur, partitions.schur_identity_check),
        ("rogers_ramanujan", args.rr, partitions.rr_identity_check),
    ):
        if flag:
            report = check(args.N)
            blocks[name] = {
                "N": report["N"],
                "columns": report["columns"],
                "verdict": "PASS" if report["equal"] else "FAIL",
            }
    if args.format == "tsv":
        for name, block in blocks.items():
            columns = block["columns"]
            headers = list(columns)
            _emit("n\t" + "\t".join(headers))
            for n in range(block["N"] + 1):
                _emit(
                    f"{n}\t" + "\t".join(str(columns[h][n]) for h in headers)
                )
            _emit(f"{name}\t{block['verdict']}")
    else:
        _emit_json({"seed": args.seed, **blocks})
    return 0 if all(b["verdict"] == "PASS" for b in blocks.values()) else 1


def _int_value(text):
    """int(text) for an int option; argparse's own message when it fails,
    quoting at most ECHO_LIMIT characters of the text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {echo(text, repr)}"
        ) from None


class _Option:
    """One option of a command: its argparse keywords and its facts.  An
    option that neither a flag nor the config file set (argparse default
    None) takes `default` unless it is `required`; `least` is the least
    value with what it bounds; `cap` names the module constant that holds
    the largest value, read when the option is checked."""

    def __init__(self, name, *, required=False, default=None, least=None,
                 cap=None, **keywords):
        self.name, self.required, self.default = name, required, default
        self.least, self.cap, self.keywords = least, cap, keywords
        flag = keywords.get("action") == "store_true"
        self.kind = bool if flag else keywords.get("type", str)
        if self.kind is int:
            keywords["type"] = _int_value


class _Command:
    """One subcommand: its handler, the output formats the handler
    renders (the default first), its help text and its options, the common
    --config, --format and --seed first."""

    def __init__(self, handler, formats, help, *options):
        self.handler = handler
        self.help = help
        common = (
            _Option("config", help="TOML config file"),
            _Option("format", default=formats[0], choices=sorted(formats),
                    help="output format"),
            _Option("seed", type=int, help="echoed seed"),
        )
        self.options = {option.name: option for option in common + options}


_ORDER = _Option("order", required=True, choices=ORDER_NAMES)
_P = _Option("p", least=(2, "the substitution exponent"), type=int)
_N = _Option("N", required=True, least=(0, "truncation"),
             cap="SERIES_TRUNCATION_CAP", type=int, help="series truncation")

_COMMANDS = {
    "orders-demo": _Command(
        cmd_orders_demo, ("tsv", "json"), "print the degree-4 comparison chains"
    ),
    "divide": _Command(
        cmd_divide, ("json", "tsv"), "division with remainder",
        _ORDER,
        _Option("divisors", required=True, help="generator file"),
        _Option("input", required=True, help="polynomial text"),
    ),
    "gb": _Command(
        cmd_gb, ("json",), "Groebner base of a window",
        _ORDER,
        _Option("family", help='e.g. "x^p{i}-x{p*i}"'),
        _Option("W", help="variable set name, e.g. pm1mod3"),
        _P,
        _Option("n", required=True, least=(1, "the variable bound"),
                cap="GB_VARIABLE_BOUND_CAP", type=int, help="variable bound"),
        _Option("deg", required=True, least=(1, "the degree bound"),
                cap="GB_DEGREE_BOUND_CAP", type=int, help="degree bound"),
        _Option("gens", help="explicit generator file"),
        _Option("reduced", default=False, action="store_true"),
    ),
    "hilbert": _Command(
        cmd_hilbert, ("json", "tsv"), "two-route Hilbert series",
        _Option("preset", help="schur-p2 or schur-p3"),
        _Option("W"),
        _P,
        _N,
    ),
    "bijection": _Command(
        cmd_bijection, ("tsv", "json"), "partition bijection table",
        _Option("preset", required=True, help="AB or AC"),
        _Option("n", required=True, least=(0, "the partition weight"),
                cap="BIJECTION_WEIGHT_CAP", type=int, help="partition weight"),
        _Option("route", default="both", choices=["both", "division", "oracle"]),
    ),
    "identities": _Command(
        cmd_identities, ("tsv", "json"), "series identity checks",
        _Option("schur", default=False, action="store_true"),
        _Option("rr", default=False, action="store_true"),
        _N,
    ),
}


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="infinigb",
        description="Groebner bases over infinitely many variables, "
        "partition bijections and series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for option in command.options.values():
            p.add_argument(f"--{option.name}", default=None, **option.keywords)
    return parser


def _check_options(args, options):
    """Give each unset option its default or report it missing, then check
    the least values, required options first, then the caps."""
    for option in options:
        if getattr(args, option.name) is None:
            if option.required:
                raise InputError(f"missing required option --{option.name}")
            setattr(args, option.name, option.default)
    for option in sorted(options, key=lambda option: not option.required):
        value = getattr(args, option.name)
        if option.least and value is not None and value < option.least[0]:
            least, what = option.least
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise InputError(f"--{option.name}: {what} must be {bound}, got {value}")
    for option in options:
        value, cap = getattr(args, option.name), globals().get(option.cap)
        if cap is not None and value is not None and value > cap:
            # SERIES_TRUNCATION_CAP is "the series truncation cap".
            what = option.cap.removesuffix("_CAP").replace("_", " ").lower()
            raise InputError(
                f"--{option.name}: {echo(str(value))} is above the {what} cap {cap}"
            )


def main(argv=None):
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        _apply_config(args, _load_config(args.config), command.options)
        _check_options(args, command.options.values())
        return command.handler(args)
    except (InfinigbError, OSError) as error:
        print(f"infinigb: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
