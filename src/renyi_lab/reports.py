"""The records the library returns: verdicts of the checkers, and a
value with the bound on its error."""

from __future__ import annotations

from dataclasses import dataclass, field

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


def worst(verdicts) -> str:
    """The worst of some verdicts: "fails", then "inconclusive", then
    "holds", which is also the verdict of none at all."""
    return min(verdicts, key=(FAILS, INCONCLUSIVE, HOLDS).index, default=HOLDS)


@dataclass(frozen=True)
class DivergenceResult:
    """A divergence or series value and its tail_bound, the estimate of
    what lies beyond the grid window or the last term summed; a
    divergence whose integrand is not resolved is +inf with bound +inf."""
    value: float
    tail_bound: float


@dataclass
class CheckReport:
    """Outcome of a numerical condition check.

    verdict is one of "holds", "fails", "inconclusive".  witnesses is a list
    of (point, margin) pairs; for a failing verdict at least one margin is
    negative beyond the corresponding tolerance.  zero_set lists approximate
    roots relevant to the condition (e.g. points where A(t) vanishes).
    """

    verdict: str
    witnesses: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    zero_set: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [[float(t), float(m)] for t, m in self.witnesses],
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "zero_set": [float(t) for t in self.zero_set],
            "detail": {k: (float(v) if isinstance(v, (int, float))
                           and not isinstance(v, bool) else v)
                       for k, v in self.detail.items()},
        }
