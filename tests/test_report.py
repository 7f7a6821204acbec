"""Consequence classification, grouping, and known-bug suppression."""

import json

import pytest

from crashlab.report import (
    BugReport,
    DiffEntry,
    classify,
    group,
    load_known_bugs,
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
    assert classify(diff) == "file_missing"


def test_size_mismatch_is_metadata_mismatch_size():
    diff = [DiffEntry("field", path="foo", field="size", expected="16384", actual="0")]
    assert classify(diff) == "metadata_mismatch(size)"


def test_unmountable_dominates_everything():
    diff = [
        DiffEntry("field", path="foo", field="size", expected="1", actual="0"),
        DiffEntry("missing", path="bar", expected="file", actual="absent"),
        DiffEntry("unmountable", expected="mountable file system", actual="broken"),
        DiffEntry("spurious", path="baz", expected="absent", actual="file"),
    ]
    assert classify(diff) == "unmountable"


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
        assert classify(diff) == expected


def test_classify_requires_bug_diff():
    with pytest.raises(ValueError):
        classify([])


def test_metadata_detail_deterministic():
    diff = [
        DiffEntry("field", path="z", field="size", expected="1", actual="0"),
        DiffEntry("field", path="a", field="block_count", expected="8", actual="0"),
    ]
    assert classify(diff) == "metadata_mismatch(block_count)"  # (a, block_count) first


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
    known = {("creat-link", "file_missing")}
    groups = group([_report("creat-link", "file_missing", i) for i in range(3)])
    remaining, suppressed = suppress_known(groups, known)
    assert remaining == []
    assert suppressed == 3


def test_empty_db_is_identity():
    groups = group([_report("creat-link", "file_missing", 0)])
    remaining, suppressed = suppress_known(groups, set())
    assert remaining == groups and suppressed == 0


def test_export_then_rerun_suppresses_everything(tmp_path):
    """A known-bug file in the documented format, written from a campaign's
    groups; keys other than skeleton and consequence are ignored."""
    reports = [
        _report("creat-link", "file_missing", 0),
        _report("link-link", "file_missing", 1),
    ]
    entries = [
        {"skeleton": g.skeleton, "consequence": g.consequence, "note": "campaign-1"}
        for g in group(reports)
    ]
    path = tmp_path / "known.json"
    path.write_text(json.dumps({"schema": 1, "entries": entries}))
    known = load_known_bugs(path)
    assert known == {("creat-link", "file_missing"), ("link-link", "file_missing")}
    remaining, suppressed = suppress_known(group(reports), known)
    assert remaining == [] and suppressed == 2


def test_db_load_missing_file_is_empty():
    assert load_known_bugs("/nonexistent/known.json") == set()


@pytest.mark.parametrize(
    "payload",
    ['{"entries": [{"skeleton": "a"}]}', "[]", "{not json"],
    ids=["no-consequence", "array", "syntax"],
)
def test_malformed_known_bug_file_names_itself(tmp_path, payload):
    path = tmp_path / "known.json"
    path.write_text(payload)
    with pytest.raises(ValueError, match="known-bug file .*known.json"):
        load_known_bugs(path)


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


def test_bug_report_json_line_is_pinned():
    """The report line, diff and fsck included, stays byte for byte what it
    was when the payload was built with ``dataclasses.asdict``."""
    rep = _report("unlink-creat", "unmountable", 7)
    rep.diff = [
        {"category": "unmountable", "path": "", "field": "", "expected": "mountable file system",
         "actual": "inode 3 link count 2 does not match 1 directory references"}
    ]
    rep.fsck = {"mountable": False, "repairable": True, "issues": ["inode 3 link count 2"]}
    assert rep.to_json() == (
        '{"bounds": "", "consequence": "unmountable", "crash_descriptor": "checkpoint=1", '
        '"diff": [{"actual": "inode 3 link count 2 does not match 1 directory references", '
        '"category": "unmountable", "expected": "mountable file system", "field": "", "path": ""}], '
        '"fs_format_version": 1, "fs_target": "bugfs-b1", "fsck": {"issues": ["inode 3 link count 2"], '
        '"mountable": false, "repairable": true}, "schema": 1, "seed": 0, "seed_id": "", '
        '"skeleton": "unlink-creat", "workload_dsl": "creat foo\\nfsync foo\\n---crash---\\n", '
        '"workload_index": 7}'
    )
    assert BugReport.from_json(rep.to_json()) == rep
