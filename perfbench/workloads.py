"""The four benchmark workloads, their jobs and the pinned reference check.

A workload is a fixed list of jobs run as a closed loop: one client, one
process, no threads, each job started only after the previous one ended.
The seed shuffles the generator order (`gb-*`) or the job order (the CLI
workloads); neither changes a correct output, so one set of pinned
references in `references.json` holds for every seed.

Jobs reach `infinigb` through module attributes at call time
(`groebner.buchberger_truncated`, `cli.main`), never through names bound
at set-up, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCES = Path(__file__).with_name("references.json")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "gb-binomial": "Family F binomials, n=40 D=80: divisor search dominates and most S-pairs reduce to zero",
    "gb-dense": "homogenized cyclic-5 under hrevlex and hlex: few divisors, long rational polynomials, term merging dominates",
    "partitions": "bijection AB and AC at n=40 plus Schur and RR identities at N=60 via cli.main: tiny divisions and enumeration",
    "hilbert-windows": "hilbert schur-p2/p3 at N=60, the Family F filtration and stabilization scan: standard monomials and small completions",
}
WORKLOADS = tuple(WHY)

_SEED_FIELD = re.compile(r',\s*"seed": (?:-?\d+|null)')


@dataclass(frozen=True)
class Job:
    """One unit of work: `run` calls the program, `observe` turns its
    return value into the fingerprint compared with the reference."""

    name: str
    run: Callable[[], object]
    observe: Callable[[object], dict]


def family_f(modules):
    """Family F: i -> x_i*x_{i+1} - x_{2i+1}, homogeneous under d_i = i,
    under harevlex and with no restriction on the variables."""
    groebner, monomials, polynomials = (
        modules["groebner"], modules["monomials"], modules["polynomials"]
    )
    context = polynomials.RingContext(monomials.OrderKind.HOM_ANTI_REV_LEX)
    Monomial, Polynomial = monomials.Monomial, polynomials.Polynomial

    def rule(i):
        return Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs(((i, 1), (i + 1, 1)))),
                (-1, Monomial.variable(2 * i + 1)),
            ),
        )

    return groebner.IdealPresentation(context, family=rule)


def cyclic5_homogenized(modules, order_name):
    """Cyclic-5 with x6 homogenizing the last generator, every weight 1."""
    monomials, polynomials = modules["monomials"], modules["polynomials"]
    weights = monomials.WeightedAlphabet.with_weights({i: 1 for i in range(1, 7)})
    context = polynomials.RingContext(
        monomials.OrderKind.from_name(order_name), weights
    )
    Monomial, Polynomial = monomials.Monomial, polynomials.Polynomial
    gens = []
    for k in range(1, 5):
        gens.append(
            Polynomial.from_terms(
                context,
                (
                    (1, Monomial.from_pairs(((s + j) % 5 + 1, 1) for j in range(k)))
                    for s in range(5)
                ),
            )
        )
    gens.append(
        Polynomial.from_terms(
            context,
            (
                (1, Monomial.from_pairs((i, 1) for i in range(1, 6))),
                (-1, Monomial.variable(6, 5)),
            ),
        )
    )
    return context, gens


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def observe_basis(value):
    basis, verified = value
    texts = [str(g) for g in basis.elements]
    return {"size": len(texts), "digest": _digest(texts), "verified": verified}


def observe_cli(value):
    code, stdout = value
    return {"exit": code, "stdout_sha256": _digest([_SEED_FIELD.sub("", stdout)])}


def _gb_job(name, groebner, gens, window, context):
    def run():
        basis = groebner.reduce_basis(
            groebner.buchberger_truncated(gens, window, context=context)
        )
        return basis, groebner.verify_buchberger(basis)

    return Job(name, run, observe_basis)


def _cli_job(cli, argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return Job(" ".join(argv[: argv.index("--seed")]), run, observe_cli)


def build(workload, seed, modules):
    """The workload's jobs in run order; everything here is set-up."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    groebner, cli = modules["groebner"], modules["cli"]
    if workload == "gb-binomial":
        presentation = family_f(modules)
        window = groebner.TruncationWindow(40, 80)
        gens = presentation.instantiate(window)
        rng.shuffle(gens)
        return [_gb_job("family-f n=40 D=80", groebner, gens, window, presentation.context)]
    if workload == "gb-dense":
        jobs = []
        for order in ("hrevlex", "hlex"):
            context, gens = cyclic5_homogenized(modules, order)
            rng.shuffle(gens)
            window = groebner.TruncationWindow(6, 12)
            jobs.append(_gb_job(f"cyclic5h {order}", groebner, gens, window, context))
        return jobs
    tag = ["--seed", str(seed)]
    if workload == "partitions":
        jobs = [
            _cli_job(cli, ["bijection", "--preset", "AB", "--n", "40", *tag]),
            _cli_job(cli, ["bijection", "--preset", "AC", "--n", "40", *tag]),
            _cli_job(cli, ["identities", "--schur", "--rr", "--N", "60", *tag]),
        ]
    else:
        presentation = family_f(modules)
        windows = [groebner.TruncationWindow(n, 40) for n in (10, 20)]

        def filtration():
            return groebner.assemble_filtration(
                presentation, windows, check_coherence=True
            )

        def stabilization():
            return groebner.stabilized_reduced_basis(presentation, 30, 60)

        jobs = [
            _cli_job(cli, ["hilbert", "--preset", "schur-p2", "--N", "60", *tag]),
            _cli_job(cli, ["hilbert", "--preset", "schur-p3", "--N", "60", *tag]),
            Job("filtration (10,20) D=40", filtration,
                lambda basis: {"elements": len(basis.elements)}),
            Job("stabilization n=30 D=60", stabilization,
                lambda scan: {"history": [list(h) for h in scan.history]}),
        ]
    rng.shuffle(jobs)
    return jobs


def load_references(workload):
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def check(job, outcome, references):
    """None when the job's outcome matches its pinned reference, else a
    one-line reason.  `outcome` is the job's return value or the
    exception it raised."""
    if isinstance(outcome, BaseException):
        return f"{job.name}: raised {type(outcome).__name__}: {outcome}"
    expected = references.get(job.name)
    if expected is None:
        return f"{job.name}: no pinned reference"
    observed = job.observe(outcome)
    if observed != expected:
        wrong = sorted(k for k in expected.keys() | observed.keys()
                       if observed.get(k) != expected.get(k))
        return f"{job.name}: differs from the reference in {', '.join(wrong)}"
    return None
