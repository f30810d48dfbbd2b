"""The result value returned by every phylogeny-number computation."""

from __future__ import annotations

from dataclasses import dataclass

from .derived import PhyloCertificate

__all__ = ["PhyloResult"]

KINDS = ("exact", "lower_bound", "interval", "none")


@dataclass(frozen=True)
class PhyloResult:
    """An exact value, a lower bound, an interval, or "nothing applies".

    ``method`` records how the number was obtained (solver, the name of a
    closed form, a reduction chain, ...).  Exact results may carry a
    certifying digraph whose extra count equals the value.
    """

    kind: str
    method: str
    value: int | None = None
    lower: int | None = None
    upper: int | None = None
    witness: PhyloCertificate | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown result kind {self.kind!r}")
        if self.kind in ("exact", "lower_bound"):
            if self.value is None or self.value < 0:
                raise ValueError(f"{self.kind} result needs a non-negative value")
        if self.kind == "interval":
            if self.lower is None or self.upper is None or not 0 <= self.lower <= self.upper:
                raise ValueError("interval result needs 0 <= lower <= upper")
        if self.witness is not None:
            if self.kind != "exact":
                raise ValueError("only exact results carry witnesses")
            if self.witness.extra_count != self.value:
                raise ValueError(
                    f"witness adds {self.witness.extra_count} vertices but value is {self.value}"
                )

    def to_json(self) -> dict:
        payload: dict = {"kind": self.kind, "method": self.method}
        if self.kind == "interval":
            payload["value"] = {"lower": self.lower, "upper": self.upper}
        elif self.kind != "none":
            payload["value"] = self.value
        return payload
