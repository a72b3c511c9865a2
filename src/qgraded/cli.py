"""Command-line front end: check descriptors, generate examples, run suites.

Exit codes: 0 all requested checks passed, 1 a check failed or a suite
row disagreed, 2 unparseable input, invalid parameters or an unwritable
output path, 3 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .algebras import (b_symmetric_dim, build_b_symmetric_truncation,
                       build_truncated_poly, build_twisted_group_algebra,
                       check_quantum_commutativity)
from .commutation import check_cqt_axioms
from .descriptors import (MAX_ALGEBRA_DIM, Descriptor, canonical_json,
                          dump_descriptor, factor_from_dict, load_descriptor)
from .errors import CapExceededError, DescriptorError
from .galois import check_equivalence_theorem
from .group_hopf import check_hopf_axioms
from .groups import GradingGroup
from .reports import combination_text
from .scalars import Scalar

DEFAULT_MAX_GROUP_ORDER = 256

EXPECT_TOKENS = {
    "strong": ("grading.strong", True),
    "not-strong": ("grading.strong", False),
    "galois": ("galois.bijective", True),
    "not-galois": ("galois.bijective", False),
    "quantum-commutative": ("algebra.quantum-commutativity", True),
    "not-quantum-commutative": ("algebra.quantum-commutativity", False),
}


def _row(check_id: str, verdict: bool, expected: bool = True,
         witness: str | None = None, note: str | None = None) -> dict:
    out = {"id": check_id, "verdict": verdict, "expected": expected,
           "passed": verdict == expected}
    if witness is not None:
        out["witness"] = witness
    if note is not None:
        out["note"] = note
    return out


def _rows_from_report(report, expect: dict[str, bool]) -> list[dict]:
    return [_row(r.check_id, r.passed, expect.get(r.check_id, True), r.witness, r.note)
            for r in report.results]


def _check_group_size(group: GradingGroup, cap: int):
    """Refuse a grading group above the order cap; a group of order <= cap
    has at most floor(log2 cap) generators (moduli are >= 2), so that bound
    is applied before any order is multiplied out."""
    if group.ngens >= cap.bit_length():
        raise CapExceededError(
            f"{_count(group.ngens)} group generators exceed the "
            f"{cap.bit_length() - 1} allowed by the cap {cap}")
    if group.order > cap:
        raise CapExceededError(f"group order {_count(group.order)} exceeds the cap {cap}")


def _check_algebra_dim(dim: int):
    if dim > MAX_ALGEBRA_DIM:
        raise CapExceededError(
            f"algebra dimension {_count(dim)} exceeds the cap {MAX_ALGEBRA_DIM}")


def _admit(path: str, max_group_order: int) -> Descriptor:
    """Load a descriptor without validating its algebra and refuse an
    algebra (its loader applies the dimension cap) or a grading group above
    its cap, so that no check runs on a refused input."""
    desc = load_descriptor(path, validate_algebra=False)
    _check_group_size(desc.group, max_group_order)
    return desc


def _write(path: str, text: str | None = None) -> bool:
    """Write an output file or, with no text, refuse it before any work by
    opening it for appending (which truncates nothing; a file the probe
    creates is removed); on failure print one error line naming the path."""
    created = text is None and not Path(path).exists()
    try:
        if text is None:
            with open(path, "a", encoding="utf-8"):
                pass
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    if created:
        Path(path).unlink()
    return True


def _count(n: int) -> str:
    # Python refuses to print integers of more than a few thousand digits
    return str(n) if n.bit_length() <= 64 else f"at least 2^{n.bit_length() - 1}"


def _check_descriptor(desc: Descriptor, expect: dict[str, bool]) -> list[dict]:
    rows = _rows_from_report(check_hopf_axioms(desc.group), expect)
    if desc.factor is not None:
        rows += _rows_from_report(check_cqt_axioms(desc.factor), expect)
    if desc.algebra is not None:
        algebra = desc.algebra
        validation = algebra.validation_report()
        rows += _rows_from_report(validation, expect)
        if desc.factor is not None:
            qc = check_quantum_commutativity(algebra, desc.factor)
            witness = None
            if qc.witness_pair:
                witness = f"({qc.witness_pair[0]}, {qc.witness_pair[1]})"
            rows.append(_row("algebra.quantum-commutativity",
                             qc.quantum_commutative,
                             expect.get("algebra.quantum-commutativity", True),
                             witness))
        if not validation.passed:
            rows.append(_row("grading.strong", False,
                             note="skipped: algebra failed structural validation"))
        else:
            eq = check_equivalence_theorem(algebra)
            strong, galois = eq.strong, eq.galois
            witness = None
            if strong.witness_pair:
                g, h = strong.witness_pair
                missing = combination_text([(Scalar.one(), algebra.label(strong.missing))])
                witness = f"pair ({g}, {h}), missing {missing}"
            rows.append(_row("grading.strong", strong.strong,
                             expect.get("grading.strong", True), witness))
            witness = None
            if not galois.galois:
                if galois.kernel_witness is not None:
                    witness = "kernel: " + galois.describe_kernel(algebra)
                else:
                    i, g = galois.cokernel_witness
                    witness = f"cokernel at [{algebra.label(i)} (x) {g}]"
            rows.append(_row("galois.bijective", galois.galois,
                             expect.get("galois.bijective", True), witness,
                             note=f"rank {galois.rank} of "
                                  f"{galois.domain_dim} -> {galois.codomain_dim}"))
            rows.append(_row("equivalence.agreement", eq.agree,
                             note="strong grading and Galois verdicts must coincide"))
    return rows


def cmd_check(args) -> int:
    expect = dict(EXPECT_TOKENS[token] for token in args.expect)
    # strong grading and the Galois property must agree, so an
    # expectation on one side carries over to the other
    for a, b in (("grading.strong", "galois.bijective"),
                 ("galois.bijective", "grading.strong")):
        if a in expect and b not in expect:
            expect[b] = expect[a]
    try:
        desc = _admit(args.file, args.max_group_order)
    except (DescriptorError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceededError) else 2
    if args.report and not _write(args.report):
        return 2
    rows = _check_descriptor(desc, expect)
    report = {"input": Path(args.file).name,
              "passed": all(r["passed"] for r in rows),
              "checks": rows}
    if args.report and not _write(args.report, canonical_json(report)):
        return 2
    for r in rows:
        if args.verbose or not r["passed"]:
            mark = "PASS" if r["passed"] else "FAIL"
            extra = "" if r["verdict"] == r["expected"] else \
                f" (verdict {r['verdict']}, expected {r['expected']})"
            print(f"{mark} {r['id']}{extra}")
    print(f"{'OK' if report['passed'] else 'FAILED'}: "
          f"{sum(r['passed'] for r in rows)}/{len(rows)} checks passed")
    return 0 if report["passed"] else 1


def _parse_matrix(text: str, name: str):
    # factor_from_dict checks that the result is a matrix of integers
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{name} is not valid JSON: {exc}")


def _build_from_args(args) -> Descriptor:
    # no group or algebra above the caps that check and suite apply by
    # default is built
    if args.builder == "truncated-poly":
        if args.m >= 2:  # build_truncated_poly refuses a smaller m itself
            _check_group_size(GradingGroup(0, (args.m,)), DEFAULT_MAX_GROUP_ORDER)
            _check_algebra_dim(args.m)
        algebra = build_truncated_poly(args.m)
        return Descriptor(algebra.group, None, algebra)

    N = args.N
    if N < 1:
        raise ValueError("N must be >= 1")
    group = GradingGroup(0, (args.n,) * N)
    _check_group_size(group, DEFAULT_MAX_GROUP_ORDER)
    sigma = _parse_matrix(args.sigma, "sigma") if args.sigma else \
        [[0] * N for _ in range(N)]
    omega = _parse_matrix(args.omega, "omega") if args.omega else \
        [[0] * N for _ in range(N)]
    factor = factor_from_dict(group, {"sigma": sigma, "omega": omega, "q": args.q})
    if args.builder == "twisted-group-algebra":
        algebra = build_twisted_group_algebra(group, factor)
    else:
        _check_algebra_dim(b_symmetric_dim(factor, args.max_degree))
        algebra = build_b_symmetric_truncation(factor, args.max_degree)
    return Descriptor(group, factor, algebra)


def cmd_generate(args) -> int:
    if args.out and not _write(args.out):
        return 2
    try:
        desc = _build_from_args(args)
    except (ValueError, CapExceededError) as exc:
        # input errors are ValueErrors; an InternalConsistencyError must propagate
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceededError) else 2
    text = dump_descriptor(desc)
    if args.out:
        if not _write(args.out, text):
            return 2
        if args.verbose:
            print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_suite(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    if args.report and not _write(args.report):
        return 2
    files = sorted(directory.glob("*.json"))
    rows = []
    for path in files:
        started = time.monotonic()
        row = {"file": path.name, "strong": None, "galois": None,
               "agree": None, "error": None}
        try:
            desc = _admit(str(path), args.max_group_order)
            if desc.algebra is None:
                row["error"] = "no algebra in descriptor"
            elif not (validation := desc.algebra.validation_report()).passed:
                # the text load_descriptor gives for an invalid algebra
                fail = validation.failures()[0]
                row["error"] = (f"{path}: algebra descriptor: invalid algebra "
                                f"({fail.check_id}): {fail.witness}")
            else:
                eq = check_equivalence_theorem(desc.algebra)
                row["strong"] = eq.strong.strong
                row["galois"] = eq.galois.galois
                row["agree"] = eq.agree
        except (DescriptorError, CapExceededError) as exc:
            row["error"] = str(exc)
        row["seconds"] = round(time.monotonic() - started, 3)
        rows.append(row)

    def cell(v):
        return "-" if v is None else ("yes" if v is True else
                                      ("no" if v is False else str(v)))

    width = max([len(r["file"]) for r in rows], default=10)
    print(f"{'descriptor':<{width}}  {'strong':>6}  {'galois':>6}  "
          f"{'agree':>5}  {'seconds':>7}")
    for r in rows:
        print(f"{r['file']:<{width}}  {cell(r['strong']):>6}  "
              f"{cell(r['galois']):>6}  {cell(r['agree']):>5}  "
              f"{r['seconds']:>7.3f}" + (f"  ERROR: {r['error']}" if r["error"] else ""))
    if args.report and not _write(args.report, canonical_json({
            "rows": [{k: v for k, v in r.items() if k != "seconds"}
                     for r in rows]})):
        return 2
    bad = any(r["error"] is not None or r["agree"] is False for r in rows)
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgraded",
        description="Build and verify group-graded algebras with "
                    "commutation-factor symmetry.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_and_cap(p):
        p.add_argument("--report", dest="report", default=None,
                       help="write a JSON report to this path")
        p.add_argument("--max-group-order", type=int,
                       default=DEFAULT_MAX_GROUP_ORDER)

    p = sub.add_parser("check", help="run all applicable checks on a descriptor")
    p.add_argument("file")
    p.add_argument("--expect", action="append", default=[],
                   choices=sorted(EXPECT_TOKENS),
                   help="assert a verdict instead of requiring it to be true")
    add_report_and_cap(p)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("generate", help="write a descriptor for a built-in family")
    p.add_argument("builder", choices=["twisted-group-algebra",
                                       "truncated-poly", "b-symmetric"])
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--n", type=int, default=0,
                   help="torsion order (>= 2) of each generator of the grading group")
    p.add_argument("--N", type=int, default=1, help="number of generators")
    p.add_argument("--m", type=int, default=2,
                   help="truncation order for truncated-poly")
    p.add_argument("--sigma", default=None, help="JSON integer matrix")
    p.add_argument("--omega", default=None, help="JSON integer matrix")
    p.add_argument("--q", default="1", help="scalar in the canonical grammar")
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("suite", help="run the equivalence suite over a "
                                     "directory of descriptors")
    p.add_argument("directory")
    add_report_and_cap(p)
    return parser


_PARSER = build_parser()  # built once per process: parsing leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "max_group_order", 1) < 1:
        print("error: resource caps must be positive", file=sys.stderr)
        return 2
    if args.command == "check":
        return cmd_check(args)
    if args.command == "generate":
        return cmd_generate(args)
    return cmd_suite(args)


if __name__ == "__main__":
    sys.exit(main())
