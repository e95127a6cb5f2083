"""The one row type: a grid cell's result, finished or failed.

The serial sweep, the distributed run directory and ablation campaigns
all record a cell as a :class:`CellRow`; :class:`CampaignRow` adds
campaign identity.  :meth:`CellRow.as_dict` writes the ``repro sweep
--output`` keys for a finished row; a failed row carries its
:class:`~repro.robustness.faults.FailureRecord` nested (``failure``,
what :meth:`CellRow.from_dict` reads back) and flattened.  ``from_dict``
ignores unknown keys, so a run directory may publish attribution
(worker id, cache counters) beside the row.  Nothing here imports
:mod:`repro.experiments`, so the scheduler imports it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Dict, Optional, Tuple

from ..errors import ResumeError
from .faults import FailureRecord

#: Fields whose serialized key differs from the attribute name.
_KEYS = {
    "accuracy_drop": "drop",
    "effective_input_bits": "eff_input_bits",
    "effective_mac_bits": "eff_mac_bits",
}

#: A finished row's serialized fields, in ``repro sweep --output`` order.
_RESULT_FIELDS = (
    "model",
    "accuracy_drop",
    "objective",
    "sigma",
    "effective_input_bits",
    "effective_mac_bits",
    "baseline_accuracy",
    "validated_accuracy",
    "meets_constraint",
    "bitwidths",
    "degraded",
    "elapsed_seconds",
)

#: A failed row's serialized fields (plus the failure record).
_FAILURE_FIELDS = (
    "model",
    "accuracy_drop",
    "objective",
    "status",
    "elapsed_seconds",
)


@dataclass
class CellRow:
    """One grid cell: a finished allocation or a classified failure."""

    model: str
    accuracy_drop: Optional[float]
    objective: Optional[str]
    elapsed_seconds: float = 0.0
    sigma: Optional[float] = None
    effective_input_bits: Optional[float] = None
    effective_mac_bits: Optional[float] = None
    baseline_accuracy: Optional[float] = None
    validated_accuracy: Optional[float] = None
    #: Validated accuracy >= target (None when validation was skipped).
    meets_constraint: Optional[bool] = None
    bitwidths: Optional[Dict[str, int]] = None
    #: The xi came from a fallback, not the Eq. 8 solver.
    degraded: Optional[bool] = None
    #: Why the cell failed; None for a finished cell.
    failure: Optional[FailureRecord] = None

    #: Serialized ahead of the row's own fields (campaign identity).
    PREFIX_FIELDS: ClassVar[Tuple[str, ...]] = ()

    @property
    def status(self) -> str:
        return "ok" if self.failure is None else "failed"

    @property
    def target_accuracy(self) -> Optional[float]:
        """The accuracy the sigma search had to keep (Sec. V-C).

        Computed exactly as :func:`repro.analysis.sigma_search.
        find_sigma` does, so it is bit-identical to the outcome's
        ``sigma_result.target_accuracy``.
        """
        if self.baseline_accuracy is None or self.accuracy_drop is None:
            return None
        return self.baseline_accuracy * (1.0 - self.accuracy_drop)

    def as_dict(self) -> Dict[str, Any]:
        names = self.PREFIX_FIELDS + (
            _RESULT_FIELDS if self.failure is None else _FAILURE_FIELDS
        )
        row = {_KEYS.get(name, name): getattr(self, name) for name in names}
        if self.failure is not None:
            record = self.failure.as_dict()
            row["failure"] = record
            row.update(record)
        return row

    def identity_dict(self) -> Dict[str, Any]:
        """The row minus wall-clock timing: the bit-identity surface.

        Two cells computed from the same inputs must agree on exactly
        this dict — across serial vs distributed execution, any worker
        count, and any crash/re-dispatch history.  Only
        ``elapsed_seconds`` legitimately differs between runs.
        """
        row = self.as_dict()
        del row["elapsed_seconds"]
        return row

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellRow":
        """Rebuild a row from :meth:`as_dict` output (extra keys ignored).

        Raises :class:`~repro.errors.ResumeError` when the payload is
        not a row — a required field is missing or malformed.
        """
        values: Dict[str, Any] = {}
        for spec in fields(cls):
            key = _KEYS.get(spec.name, spec.name)
            if key in payload:
                values[spec.name] = payload[key]
        try:
            if values.get("failure") is not None:
                values["failure"] = FailureRecord.from_dict(values["failure"])
            return cls(**values)
        except (KeyError, TypeError) as exc:
            raise ResumeError(f"malformed cell row: {exc!r}") from exc


@dataclass
class CampaignRow(CellRow):
    """A campaign cell's row: :class:`CellRow` plus campaign identity."""

    cell_id: str = ""
    #: "component" (matrix variant) or "scenario" (substrate perturbed).
    kind: str = ""
    #: Component name for matrix cells, scenario name for scenario
    #: cells, "" for the baseline.
    group: str = ""
    variant: str = ""
    #: True when the row was loaded from the run directory, not executed.
    resumed: bool = False
    cache_counters: Dict[str, int] = field(default_factory=dict)

    PREFIX_FIELDS: ClassVar[Tuple[str, ...]] = (
        "cell_id",
        "kind",
        "group",
        "variant",
        "status",
        "resumed",
        "cache_counters",
    )


__all__ = ["CampaignRow", "CellRow"]
