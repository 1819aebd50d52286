"""Pulse-plan generation and verification.

All plans are pure sign algebra.  A 2 pi pulse acting on a set of spatial
parts is a mask of -1 entries on those parts; a stored excitation's state is
the elementwise product of every mask applied since its capture.  Write
masks are consecutive-row ratios of the Sylvester-Hadamard matrix, which
pins the four-part case to the canonical BD / BC / BD order, and read masks
are chosen so that exactly one stored row returns to (minus) the all-plus
superradiant row at each read slot.

The passive scheme replaces pulses by bi-phase modulators placed after each
spatial part.  A modulator pattern m (entry -1 = on) acts through its
downstream products s_j = prod_{i >= j} m_i; a pattern is equivalent to the
active scheme's running flip product c when s = c, i.e.
m_j = c_j * c_{j+1} (with c beyond the last part taken as +1).

A plan is its event times plus one (events x parts) matrix of +-1 masks:
flips for active stages, absolute modulator patterns for passive ones.
Planners build that matrix, and the verifier and ``storage`` read it
directly; ``PulsePlan.events`` formats it as ``PulseEvent`` views for JSON
and for the mask-by-mask reference model.

Planner and verifier share one kernel: running products from
``np.multiply.accumulate``, and the test that a row parked under running
product r radiates under running product c exactly when |r . c| = parts,
with the sign of r . c.  ``verify_plan`` is the only replay on a run:
``storage`` takes every read slot's bin and sign from its report, and
``storage.ModeLedger.apply_mask`` uses the kernel only as the reference
model that replays one mask at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, PlanError
from .states import SignPattern

__all__ = [
    "PulseEvent",
    "PulsePlan",
    "PiPairConfig",
    "PlanReport",
    "sylvester",
    "plan_write",
    "plan_read",
    "plan_passive",
    "validate_pi_pair",
    "verify_plan",
]


def sylvester(order: int) -> np.ndarray:
    """Sylvester-Hadamard matrix: entry (i, j) is (-1)^popcount(i & j)."""
    if order < 2 or order & (order - 1):
        raise DomainError(f"order {order} is not a power of two >= 2")
    i = np.arange(order, dtype=np.int64)
    bits = i[:, None] & i
    # fold the parity of the index bits into bit 0
    shift = 1
    while shift < int(order).bit_length() - 1:
        bits ^= bits >> shift
        shift <<= 1
    return 1 - 2 * (bits & 1)


@dataclass(frozen=True)
class PulseEvent:
    """One event of a plan, as read through ``PulsePlan.events``."""

    time: float
    mask: SignPattern
    kind: str  # two_pi | modulator_set


def _event_kind(stage: str) -> str:
    return "modulator_set" if stage.startswith("passive") else "two_pi"


@dataclass(frozen=True, eq=False)
class PulsePlan:
    """Ordered pulse schedule over a fixed number of spatial parts.

    Event k fires at ``times[k]`` with the +-1 mask ``masks[k]``, a
    read-only int64 (events x parts) matrix.  ``stage`` records what the
    plan is for ("write", "read", "read_reversed", "passive_write",
    "passive_read", "passive_read_reversed") so the checker knows which
    postconditions apply.
    """

    parts: int
    times: tuple[float, ...]
    masks: np.ndarray
    bin_duration: float
    stage: str = "write"
    bins: int = 0

    def __post_init__(self):
        if self.bin_duration <= 0:
            raise PlanError("bin_duration must be positive")
        times = tuple(self.times)
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise PlanError("event times must be strictly increasing")
        try:
            masks = np.array(self.masks)  # a copy, owned by the plan
        except ValueError as exc:
            raise PlanError(f"masks are not one matrix: {exc}") from exc
        if not times and not masks.size:
            masks = masks.reshape(0, self.parts)
        if masks.shape != (len(times), self.parts):
            raise PlanError(f"masks have shape {masks.shape}, want one mask of "
                            f"{self.parts} parts per event ({len(times)})")
        if not np.all((masks == 1) | (masks == -1)):
            raise PlanError("mask entries must be +1 or -1")
        # int64, not int8: products of 256-part rows reach +-256
        masks = masks.astype(np.int64, copy=False)
        masks.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "masks", masks)

    def __eq__(self, other):
        if not isinstance(other, PulsePlan):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    @property
    def events(self) -> tuple[PulseEvent, ...]:
        """The plan's events, built on demand from ``times`` and ``masks``."""
        kind = _event_kind(self.stage)
        return tuple(PulseEvent(t, SignPattern(tuple(m)), kind)
                     for t, m in zip(self.times, self.masks.tolist()))

    @property
    def t_end(self) -> float:
        """End of the last bin covered by the plan."""
        if not self.times:
            return 0.0
        return self.times[-1] + self.bin_duration

    def to_json(self) -> str:
        doc = {
            "parts": self.parts,
            "bins": self.bins,
            "stage": self.stage,
            "bin_duration_s": self.bin_duration,
            "events": [
                {"time_s": e.time, "kind": e.kind, "mask": e.mask.to_string()}
                for e in self.events
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PulsePlan":
        doc = json.loads(text)
        kind = _event_kind(doc["stage"])
        for e in doc["events"]:
            if e["kind"] != kind:
                raise PlanError(f"event kind {e['kind']!r} does not match stage "
                                f"{doc['stage']!r} (want {kind!r})")
        masks = [SignPattern.from_string(e["mask"]).signs for e in doc["events"]]
        return cls(doc["parts"], [e["time_s"] for e in doc["events"]], masks,
                   doc["bin_duration_s"], doc["stage"], doc.get("bins", 0))


def _check_geometry(parts: int, bins: int) -> None:
    if parts < 2 or parts & (parts - 1):
        raise DomainError(f"parts = {parts} must be a power of two >= 2")
    if not 1 <= bins <= parts - 1:
        raise PlanError(f"bins = {bins} must be between 1 and parts - 1 = {parts - 1}")


def _emission_signs(rows: np.ndarray, cums: np.ndarray) -> np.ndarray:
    """Sign with which each row radiates under each running product.

    Row r is turned into s times the all-plus superradiant row by running
    product c exactly when |r . c| = parts, and then s = sign(r . c).  Entry
    (i, k) is that sign for rows[i] under cums[k], or 0 where the row stays
    subradiant.
    """
    dots = rows @ cums.T
    return np.where(np.abs(dots) == rows.shape[1], np.sign(dots), 0)


def _flip_masks(plan: PulsePlan,
                start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A plan's flip masks, (masks x parts), and the running product after them.

    Active masks are flips already and continue from ``start``.  A passive
    pattern sets the running product outright to its downstream products,
    so its flip mask is the product of two consecutive downstream-product
    vectors.  A passive read's first flip is taken against ``start``, the
    product its write ended on; a passive write's opening pattern closes no
    bin and only sets the product its first bin is captured under.
    """
    if not plan.stage.startswith("passive"):
        return plan.masks, start * plan.masks.prod(axis=0)
    down = np.multiply.accumulate(plan.masks[:, ::-1], axis=1)[:, ::-1]
    if plan.stage == "passive_write" and len(down):
        start, down = down[0], down[1:]
    flips = down * np.vstack([start, down[:-1]])
    return flips, (down[-1] if len(down) else start)


def plan_write(parts: int, bins: int, bin_duration: float,
               t0: float = 0.0) -> PulsePlan:
    """Write schedule: one 2 pi mask at the end of each capture bin.

    Mask k is the elementwise ratio of Sylvester rows k+1 and k, so the
    excitation captured in bin n ends in row_{bins+1} * row_n: pairwise
    distinct and orthogonal to all-plus.  For parts=4, bins=3 this is the
    canonical BD, BC, BD sequence.
    """
    _check_geometry(parts, bins)
    h = sylvester(parts)
    times = [t0 + k * bin_duration for k in range(1, bins + 1)]
    return PulsePlan(parts, times, h[:bins] * h[1:bins + 1], bin_duration,
                     "write", bins)


def plan_read(parts: int, bins: int, bin_duration: float,
              time_reversed: bool = False, t0: float = 0.0) -> PulsePlan:
    """Read schedule: mask k fires at the start of read bin k.

    After mask k the running product equals minus the stored row of the
    bin emitted in that slot (bin k forward, bin bins+1-k reversed); the
    leading minus fixes the emitted phase to match the incoming packet.  For
    parts=4 this gives the canonical AD, BD, BC (forward) and
    AC, BC, BD (time-reversed) sequences.
    """
    _check_geometry(parts, bins)
    h = sylvester(parts)
    order = np.arange(bins, 0, -1) if time_reversed else np.arange(1, bins + 1)
    targets = -(h[bins] * h[order - 1])
    masks = targets * np.vstack([np.ones(parts, dtype=np.int64), targets[:-1]])
    times = [t0 + k * bin_duration for k in range(bins)]
    stage = "read_reversed" if time_reversed else "read"
    return PulsePlan(parts, times, masks, bin_duration, stage, bins)


def plan_passive(parts: int, bins: int, bin_duration: float,
                 stage: str = "write", time_reversed: bool = False,
                 t0: float = 0.0) -> PulsePlan:
    """Bi-phase modulator schedule equivalent to the active one.

    Events carry the absolute on/off pattern (-1 = modulator on), not a
    flip.  Write: an all-off event at t0, then one pattern per active mask;
    the pattern's downstream products equal the active scheme's running
    product.  Read: the running products continue from the write total, so
    the sequence continues seamlessly after a passive write.
    """
    if stage not in ("write", "read"):
        raise PlanError("stage must be 'write' or 'read'")
    _check_geometry(parts, bins)
    ones = np.ones(parts, dtype=np.int64)
    if stage == "write":
        active = plan_write(parts, bins, bin_duration, t0)
        start, times = ones, [t0]  # opens with all modulators off
        base_stage = "passive_write"
    else:
        active = plan_read(parts, bins, bin_duration, time_reversed, t0)
        start, times = _flip_masks(plan_write(parts, bins, bin_duration), ones)[1], []
        base_stage = "passive_read_reversed" if time_reversed else "passive_read"
    times += active.times
    cums = np.multiply.accumulate(np.vstack([start, active.masks]), axis=0)
    cums = cums[-len(times):]  # one running product per event
    # pattern m_j = c_j * c_{j+1}, with c beyond the last part taken as +1
    patterns = cums * np.pad(cums[:, 1:], ((0, 0), (0, 1)), constant_values=1)
    return PulsePlan(parts, times, patterns, bin_duration, base_stage, bins)


@dataclass(frozen=True)
class PiPairConfig:
    """Two non-collinear pi pulses replacing a single 2 pi pulse."""

    k1: tuple[float, float, float]
    k2: tuple[float, float, float]
    sample_length: float
    m_index: int


def validate_pi_pair(cfg: PiPairConfig) -> tuple[bool, float]:
    """Check |k1 - k2| = 2 pi m / L_z and the smallness |k1 - k2| << w0/c.

    Returns (valid, m_residual) where m_residual is the distance of
    |k1 - k2| L_z / 2 pi from the nearest integer (in units of one).
    m = 0 leaves the superradiant mode unchanged and is flagged invalid.
    """
    k1 = np.asarray(cfg.k1, dtype=float)
    k2 = np.asarray(cfg.k2, dtype=float)
    dk = float(np.linalg.norm(k1 - k2))
    m_real = dk * cfg.sample_length / (2.0 * math.pi)
    m_near = round(m_real)
    residual = abs(m_real - m_near)
    k_mag = max(float(np.linalg.norm(k1)), float(np.linalg.norm(k2)))
    on_grid = residual <= 1e-9 * max(m_real, 1.0)
    small = k_mag == 0 or dk < 1e-2 * k_mag
    matches = m_near == cfg.m_index
    valid = on_grid and small and matches and m_near != 0
    return valid, residual


@dataclass(frozen=True)
class PlanReport:
    """Outcome of the symbolic sign-tracking checker."""

    ok: bool
    violations: tuple[str, ...]
    emission_order: tuple[int, ...] = ()
    emission_signs: tuple[int, ...] = ()
    orthogonality: np.ndarray | None = None
    # +-1 rows a write plan stores its bins in, one per bin
    _rows: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def final_rows(self) -> tuple[str, ...]:
        """The stored rows as "+"/"-" strings, formatted when read."""
        if self._rows is None:
            return ()
        return tuple("".join(r) for r in np.where(self._rows > 0, "+", "-"))


def verify_plan(plan: PulsePlan, write_plan: PulsePlan | None = None) -> PlanReport:
    """Replay a plan's sign algebra and check its postconditions.

    Passive patterns are first turned into flip masks, so both schemes go
    through the same replay.  Write plans: every stored row must be
    distinct, pairwise orthogonal and not (minus) all-plus.  Read plans:
    each mask must turn exactly one not-yet-emitted stored row into (minus)
    all-plus while the rest stay subradiant; the emission order must be the
    identity or the reversal.  A read plan is replayed on the rows stored by
    ``write_plan``, by default the active write plan of the same geometry.
    """
    stage = plan.stage.removeprefix("passive_")
    if stage not in ("write", "read", "read_reversed"):
        return PlanReport(False, (f"unknown plan stage {plan.stage!r}",))
    ones = np.ones(plan.parts, dtype=np.int64)
    write = plan if stage == "write" else (
        write_plan or plan_write(plan.parts, plan.bins, plan.bin_duration))
    if write.parts != plan.parts:
        return PlanReport(False, (f"read plan has {plan.parts} parts, its write "
                                  f"plan {write.parts}",))
    write_masks, write_end = _flip_masks(write, ones)
    # bin n is captured on the all-plus row just before mask n fires and
    # ends in the product of masks n..bins: the reversed running product
    rows = np.multiply.accumulate(write_masks[::-1], axis=0)[::-1]
    violations: list[str] = []

    if stage == "write":
        if len(rows) != plan.bins:
            violations.append(f"{len(rows)} bins stored, plan declares {plan.bins}")
        for n in np.flatnonzero(_emission_signs(rows, ones[None])[:, 0]):
            violations.append(f"bin {n + 1} ends on the superradiant row")
        # rows i and j agree up to sign exactly when |row_i . row_j| = parts
        gram = rows @ rows.T
        for i, j in np.argwhere(np.triu(np.abs(gram) == rows.shape[1], k=1)):
            violations.append(f"bins {i + 1} and {j + 1} share a row")
        if np.any(gram - np.diag(np.diag(gram))):
            violations.append("stored rows are not pairwise orthogonal")
        return PlanReport(not violations, tuple(violations), orthogonality=gram,
                          _rows=rows)

    read_masks, _ = _flip_masks(plan, write_end)
    hits = _emission_signs(rows, np.multiply.accumulate(read_masks, axis=0))
    live = np.ones(len(rows), dtype=bool)
    order: list[int] = []
    signs: list[int] = []
    for k, slot in enumerate(hits.T, start=1):
        hot = np.flatnonzero(slot * live)
        if len(hot) != 1:
            violations.append(f"read slot {k}: {len(hot)} rows became "
                              "superradiant (want exactly 1)")
            continue
        live[hot] = False
        order.append(int(hot[0]) + 1)
        signs.append(int(slot[hot[0]]))
    expected = (list(range(plan.bins, 0, -1)) if stage == "read_reversed"
                else list(range(1, plan.bins + 1)))
    if order != expected:
        violations.append(f"emission order {order} != expected {expected}")
    return PlanReport(not violations, tuple(violations),
                      emission_order=tuple(order), emission_signs=tuple(signs))
