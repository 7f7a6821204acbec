"""Bug-report construction, grouping, and known-bug suppression."""

from __future__ import annotations

import json
from dataclasses import dataclass

# Consequence classes, most severe first; exactly one class per report.
DOMINANCE = (
    "unmountable",
    "spurious_entry",
    "file_missing",
    "data_mismatch",
    "metadata_mismatch",
    "unwritable_dir",
)

_CATEGORY_CLASS = {
    "unmountable": "unmountable",
    "spurious": "spurious_entry",
    "missing": "file_missing",
    "probe": "unwritable_dir",
}


@dataclass(frozen=True)
class DiffEntry:
    """One expected-vs-actual discrepancy between oracle and crash state."""

    category: str  # unmountable | spurious | missing | field | probe
    path: str = ""
    field: str = ""
    expected: str = ""
    actual: str = ""

    def consequence_class(self) -> str:
        if self.category == "field":
            return "data_mismatch" if self.field == "data_hash" else "metadata_mismatch"
        return _CATEGORY_CLASS[self.category]


def classify(diff: list[DiffEntry]) -> str:
    """Deterministic dominant class of a non-empty bug diff. A metadata
    mismatch names the field of its first entry by path, for example
    ``metadata_mismatch(size)``."""
    if not diff:
        raise ValueError("classify() requires a bug diff")
    present = {entry.consequence_class() for entry in diff}
    kind = next(k for k in DOMINANCE if k in present)
    if kind != "metadata_mismatch":
        return kind
    first = min(
        (e for e in diff if e.consequence_class() == kind), key=lambda e: (e.path, e.field)
    )
    return f"{kind}({first.field})"


@dataclass
class BugReport:
    workload_dsl: str
    skeleton: str
    crash_descriptor: str
    consequence: str
    diff: list[dict]
    fs_target: str
    fs_format_version: int
    workload_index: int
    bounds: str = ""
    seed: int = 0
    fsck: dict | None = None  # structural-check report, unmountable states only
    seed_id: str = ""  # kept in the schema; campaigns leave it empty

    def key(self) -> tuple[str, str]:
        return (self.skeleton, self.consequence)

    def to_json(self) -> str:
        # vars, not asdict, which deep-copies every diff entry
        payload = {"schema": 1, **vars(self)}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "BugReport":
        payload = json.loads(line)
        payload.pop("schema", None)
        return cls(**payload)


@dataclass
class BugGroup:
    skeleton: str
    consequence: str
    representative: BugReport
    size: int


def group(reports: list[BugReport]) -> list[BugGroup]:
    """One representative (lowest workload index) per (skeleton, consequence)."""
    buckets: dict[tuple[str, str], list[BugReport]] = {}
    for rep in reports:
        buckets.setdefault(rep.key(), []).append(rep)
    out = []
    for key in sorted(buckets):
        members = sorted(
            buckets[key], key=lambda r: (r.workload_index, r.crash_descriptor)
        )
        out.append(
            BugGroup(
                skeleton=key[0],
                consequence=key[1],
                representative=members[0],
                size=len(members),
            )
        )
    return out


def load_known_bugs(path) -> set[tuple[str, str]]:
    """The (skeleton, consequence) pairs of a known-bug file,
    ``{"schema": 1, "entries": [{"skeleton": ..., "consequence": ...}]}``;
    other keys are ignored. A missing file holds no known bugs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return set()
    except ValueError as e:
        raise ValueError(f"known-bug file {path}: {e}") from None
    try:
        return {(item["skeleton"], item["consequence"]) for item in payload.get("entries", [])}
    except (AttributeError, KeyError, TypeError):
        raise ValueError(
            f"known-bug file {path}: expected "
            '{"entries": [{"skeleton": ..., "consequence": ...}, ...]}'
        ) from None


def suppress_known(
    groups: list[BugGroup], known: set[tuple[str, str]]
) -> tuple[list[BugGroup], int]:
    """Drop groups whose (skeleton, consequence) is known; returns survivors
    and the count of suppressed *reports* (sum of suppressed group sizes)."""
    new_groups = []
    suppressed_reports = 0
    for g in groups:
        if (g.skeleton, g.consequence) in known:
            suppressed_reports += g.size
        else:
            new_groups.append(g)
    return new_groups, suppressed_reports


def write_reports(path, reports: list[BugReport]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")


def read_reports(path) -> list[BugReport]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                out.append(BugReport.from_json(line))
            except (AttributeError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: not a bug report: {e}") from None
    return out
