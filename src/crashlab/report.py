"""Bug-report construction, grouping, and known-bug suppression."""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, field


class ConsequenceKind(enum.Enum):
    FILE_MISSING = "file_missing"
    DATA_MISMATCH = "data_mismatch"
    METADATA_MISMATCH = "metadata_mismatch"
    SPURIOUS_ENTRY = "spurious_entry"
    UNMOUNTABLE = "unmountable"
    UNWRITABLE_DIR = "unwritable_dir"


# Most severe first; exactly one class per report.
DOMINANCE = (
    ConsequenceKind.UNMOUNTABLE,
    ConsequenceKind.SPURIOUS_ENTRY,
    ConsequenceKind.FILE_MISSING,
    ConsequenceKind.DATA_MISMATCH,
    ConsequenceKind.METADATA_MISMATCH,
    ConsequenceKind.UNWRITABLE_DIR,
)


@dataclass(frozen=True)
class Consequence:
    kind: ConsequenceKind
    detail: str = ""  # metadata field for metadata_mismatch

    def __str__(self) -> str:
        if self.detail:
            return f"{self.kind.value}({self.detail})"
        return self.kind.value

    @classmethod
    def parse(cls, text: str) -> "Consequence":
        text = text.strip()
        if "(" in text and text.endswith(")"):
            base, _, detail = text[:-1].partition("(")
            return cls(ConsequenceKind(base), detail)
        return cls(ConsequenceKind(text))


@dataclass(frozen=True)
class DiffEntry:
    """One expected-vs-actual discrepancy between oracle and crash state."""

    category: str  # unmountable | spurious | missing | field | probe
    path: str = ""
    field: str = ""
    expected: str = ""
    actual: str = ""

    def consequence_kind(self) -> ConsequenceKind:
        if self.category == "unmountable":
            return ConsequenceKind.UNMOUNTABLE
        if self.category == "spurious":
            return ConsequenceKind.SPURIOUS_ENTRY
        if self.category == "missing":
            return ConsequenceKind.FILE_MISSING
        if self.category == "probe":
            return ConsequenceKind.UNWRITABLE_DIR
        if self.field == "data_hash":
            return ConsequenceKind.DATA_MISMATCH
        return ConsequenceKind.METADATA_MISMATCH


def classify(diff: list[DiffEntry]) -> Consequence:
    """Deterministic dominant class of a non-empty bug diff."""
    if not diff:
        raise ValueError("classify() requires a bug diff")
    by_kind: dict[ConsequenceKind, list[DiffEntry]] = {}
    for entry in diff:
        by_kind.setdefault(entry.consequence_kind(), []).append(entry)
    for kind in DOMINANCE:
        if kind in by_kind:
            if kind is ConsequenceKind.METADATA_MISMATCH:
                first = min(by_kind[kind], key=lambda e: (e.path, e.field))
                return Consequence(kind, first.field)
            return Consequence(kind)
    raise ValueError("diff entries mapped to no consequence")


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
    seed_id: str = ""  # instrumented variant id, debug builds only

    def key(self) -> tuple[str, str]:
        return (self.skeleton, self.consequence)

    def to_json(self) -> str:
        payload = {"schema": 1, **asdict(self)}
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


@dataclass
class KnownBugDb:
    """Append-only (skeleton, consequence) pairs with provenance notes."""

    entries: dict[tuple[str, str], str] = field(default_factory=dict)

    def __contains__(self, key: tuple[str, str]) -> bool:
        return key in self.entries

    def add(self, skeleton: str, consequence: str, note: str = "") -> None:
        self.entries.setdefault((skeleton, consequence), note)

    def merge_groups(self, groups: list[BugGroup], note: str = "") -> None:
        for g in groups:
            self.add(g.skeleton, g.consequence, note)

    def save(self, path) -> None:
        payload = {
            "schema": 1,
            "entries": [
                {"skeleton": s, "consequence": c, "note": n}
                for (s, c), n in sorted(self.entries.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "KnownBugDb":
        db = cls()
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return db
        for item in payload.get("entries", []):
            db.add(item["skeleton"], item["consequence"], item.get("note", ""))
        return db


def suppress_known(
    groups: list[BugGroup], db: KnownBugDb
) -> tuple[list[BugGroup], int]:
    """Drop groups already in the database; returns survivors and the count of
    suppressed *reports* (sum of suppressed group sizes)."""
    new_groups = []
    suppressed_reports = 0
    for g in groups:
        if (g.skeleton, g.consequence) in db:
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
        for line in fh:
            line = line.strip()
            if line:
                out.append(BugReport.from_json(line))
    return out
