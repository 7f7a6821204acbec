"""Consequence classification, grouping, and known-bug suppression."""

import pytest

from crashlab.report import (
    BugReport,
    Consequence,
    ConsequenceKind,
    DiffEntry,
    KnownBugDb,
    classify,
    group,
    read_reports,
    suppress_known,
    write_reports,
)


def _report(skeleton, consequence, index, descriptor="checkpoint=1"):
    return BugReport(
        workload_dsl="creat foo\nfsync foo\n---crash---\n",
        skeleton=skeleton,
        crash_descriptor=descriptor,
        consequence=consequence,
        diff=[],
        fs_target="bugfs-b1",
        fs_format_version=1,
        workload_index=index,
    )


# -- classify -------------------------------------------------------------------


def test_missing_persisted_path_is_file_missing():
    diff = [DiffEntry("missing", path="foo", expected="file", actual="absent")]
    assert str(classify(diff)) == "file_missing"


def test_size_mismatch_is_metadata_mismatch_size():
    diff = [DiffEntry("field", path="foo", field="size", expected="16384", actual="0")]
    assert str(classify(diff)) == "metadata_mismatch(size)"


def test_unmountable_dominates_everything():
    diff = [
        DiffEntry("field", path="foo", field="size", expected="1", actual="0"),
        DiffEntry("missing", path="bar", expected="file", actual="absent"),
        DiffEntry("unmountable", expected="mountable file system", actual="broken"),
        DiffEntry("spurious", path="baz", expected="absent", actual="file"),
    ]
    assert str(classify(diff)) == "unmountable"


def test_dominance_order_total():
    ladder = [
        ([DiffEntry("probe", path="A", expected="w", actual="e")], "unwritable_dir"),
        (
            [
                DiffEntry("probe", path="A", expected="w", actual="e"),
                DiffEntry("field", path="f", field="link_count", expected="2", actual="1"),
            ],
            "metadata_mismatch(link_count)",
        ),
        (
            [
                DiffEntry("field", path="f", field="link_count", expected="2", actual="1"),
                DiffEntry("field", path="f", field="data_hash", expected="a", actual="b"),
            ],
            "data_mismatch",
        ),
        (
            [
                DiffEntry("field", path="f", field="data_hash", expected="a", actual="b"),
                DiffEntry("missing", path="g", expected="file", actual="absent"),
            ],
            "file_missing",
        ),
        (
            [
                DiffEntry("missing", path="g", expected="file", actual="absent"),
                DiffEntry("spurious", path="h", expected="absent", actual="file"),
            ],
            "spurious_entry",
        ),
    ]
    for diff, expected in ladder:
        assert str(classify(diff)) == expected


def test_classify_requires_bug_diff():
    with pytest.raises(ValueError):
        classify([])


def test_metadata_detail_deterministic():
    diff = [
        DiffEntry("field", path="z", field="size", expected="1", actual="0"),
        DiffEntry("field", path="a", field="block_count", expected="8", actual="0"),
    ]
    assert str(classify(diff)) == "metadata_mismatch(block_count)"  # (a, block_count) first


def test_consequence_string_roundtrip():
    c = Consequence(ConsequenceKind.METADATA_MISMATCH, "size")
    assert Consequence.parse(str(c)) == c
    assert Consequence.parse("unmountable") == Consequence(ConsequenceKind.UNMOUNTABLE)


# -- grouping --------------------------------------------------------------------


def test_group_same_skeleton_one_group():
    reports = [_report("creat-link", "file_missing", i) for i in (3, 1, 2, 0)]
    groups = group(reports)
    assert len(groups) == 1
    assert groups[0].size == 4
    assert groups[0].representative.workload_index == 0


def test_group_empty_input():
    assert group([]) == []


def test_two_consequences_two_groups():
    reports = [
        _report("creat-link", "file_missing", 0),
        _report("creat-link", "data_mismatch", 1),
    ]
    groups = group(reports)
    assert len(groups) == 2
    assert {g.consequence for g in groups} == {"file_missing", "data_mismatch"}


def test_group_sum_equals_total():
    reports = [
        _report("a", "file_missing", 0),
        _report("a", "file_missing", 1),
        _report("b", "file_missing", 2),
        _report("b", "unmountable", 3),
    ]
    groups = group(reports)
    assert sum(g.size for g in groups) == len(reports)


# -- suppression -----------------------------------------------------------------


def test_suppress_known_key():
    db = KnownBugDb()
    db.add("creat-link", "file_missing", "seen before")
    groups = group([_report("creat-link", "file_missing", i) for i in range(3)])
    remaining, suppressed = suppress_known(groups, db)
    assert remaining == []
    assert suppressed == 3


def test_empty_db_is_identity():
    groups = group([_report("creat-link", "file_missing", 0)])
    remaining, suppressed = suppress_known(groups, KnownBugDb())
    assert remaining == groups and suppressed == 0


def test_export_then_rerun_suppresses_everything(tmp_path):
    reports = [
        _report("creat-link", "file_missing", 0),
        _report("link-link", "file_missing", 1),
    ]
    groups = group(reports)
    db = KnownBugDb()
    db.merge_groups(groups, note="campaign-1")
    path = tmp_path / "known.json"
    db.save(path)
    db2 = KnownBugDb.load(path)
    remaining, suppressed = suppress_known(group(reports), db2)
    assert remaining == [] and suppressed == 2


def test_db_load_missing_file_is_empty():
    db = KnownBugDb.load("/nonexistent/known.json")
    assert db.entries == {}


def test_db_append_only_merge(tmp_path):
    db = KnownBugDb()
    db.add("a", "file_missing", "first")
    db.add("a", "file_missing", "second")  # does not overwrite provenance
    assert db.entries[("a", "file_missing")] == "first"


# -- serialization ------------------------------------------------------------------


def test_bug_report_jsonl_roundtrip(tmp_path):
    reports = [
        _report("creat-link", "file_missing", 0),
        _report("rename-rename", "spurious_entry", 5, "prefix=1;kept=0;gran=op"),
    ]
    reports[0].diff = [
        {"category": "missing", "path": "foo", "field": "", "expected": "file", "actual": "absent"}
    ]
    path = tmp_path / "reports.jsonl"
    write_reports(path, reports)
    loaded = read_reports(path)
    assert loaded == reports
