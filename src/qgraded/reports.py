"""Small result containers shared by the axiom checkers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


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

    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if not r.passed]

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)
