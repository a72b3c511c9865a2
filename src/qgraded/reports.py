"""Small result containers shared by the axiom checkers and the CLI.

Every named check follows one rule, kept in `CheckReport.check`: it
passes unless its search yields a failing case, and the first failing
case, already formatted as a string, is its witness.  The checkers pass
lazy searches, so a failing check stops at its first witness.  A proof,
the search over a set of cases that implies the law on all of them, lets
a check pass without its full search; a failed proof runs the full search
for the witness, so a verdict and its witness never depend on the proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


def combination_text(pairs: Iterable[tuple[object, str]]) -> str:
    """The linear combination "c1*t1 + c2*t2 + ..." in pair order, or "0"."""
    return " + ".join(f"{c}*{t}" for c, t in pairs) or "0"


@dataclass
class CheckResult:
    """Outcome of one named check; witness describes the first failure."""

    check_id: str
    passed: bool
    witness: str | None = None
    note: str | None = None


@dataclass
class CheckReport:
    """An ordered list of check results."""

    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def check(self, check_id: str, failing_cases: Iterable[str],
              note: str | None = None, proof: Iterable[str] | None = None) -> None:
        """Append a result that passes unless `failing_cases` yields a
        witness; only the first one is drawn, and only when `proof`, the
        failing cases of a proof set, is None or yields one."""
        proved = proof is not None and next(iter(proof), None) is None
        witness = None if proved else next(iter(failing_cases), None)
        self.results.append(CheckResult(check_id, witness is None,
                                        witness=witness, note=note))

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)
