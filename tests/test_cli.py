"""Campaign runner, replay, and corpus commands."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from crashlab import ace, cli, harness, report
from crashlab.cli import (
    CampaignConfig,
    _collect_tiers,
    _run_partition,
    _run_tier,
    corpus_variant_map,
    default_corpus_dir,
    main,
    replay_report,
    run_campaign,
    run_corpus,
    run_mapped_corpus,
)
from crashlab.fstarget import FsError
from crashlab.harness import RunFlags, run_workload


def _b6_config(**kw):
    base = dict(
        fs="bugfs-b6",
        seq=(2,),
        ops=("unlink", "creat"),
        files=("foo", "bar"),
        dirs=(),
    )
    base.update(kw)
    return CampaignConfig(**base)


def test_soundfs_seq1_campaign_exits_zero(tmp_path):
    config = CampaignConfig(
        fs="soundfs",
        seq=(1,),
        ops=("creat", "link", "rename"),
        files=("foo", "bar"),
        dirs=(),
        out=str(tmp_path / "out"),
    )
    result = run_campaign(config, quiet=True)
    assert result.exit_code == 0
    assert result.bug_verdicts == 0
    assert result.harness_errors == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_buggy_campaign_exits_nonzero_with_groups(tmp_path):
    result = run_campaign(_b6_config(out=str(tmp_path / "out")), quiet=True)
    assert result.exit_code == 1
    assert result.new_groups
    assert any(
        g.consequence == "unmountable" and "unlink" in g.skeleton
        for g in result.new_groups
    )
    lines = (tmp_path / "out" / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == result.bug_verdicts


def _report_files(tmp_path, name, **kw):
    out = tmp_path / name
    result = run_campaign(_b6_config(out=str(out), **kw), quiet=True)
    return result, [(out / f).read_bytes() for f in ("reports.jsonl", "groups.json", "summary.json")]


def test_group_arithmetic_and_db_idempotence(tmp_path):
    db_path = tmp_path / "known.json"
    result = run_campaign(_b6_config(known_bugs=str(db_path)), quiet=True)
    assert sum(g.size for g in result.groups) + 0 == result.bug_verdicts
    entries = [{"skeleton": g.skeleton, "consequence": g.consequence} for g in result.groups]
    db_path.write_text(json.dumps({"schema": 1, "entries": entries}))
    again = run_campaign(_b6_config(known_bugs=str(db_path)), quiet=True)
    assert again.new_groups == []
    assert again.exit_code == 0
    assert again.suppressed_reports == again.bug_verdicts
    assert sum(g.size for g in again.groups) == again.suppressed_reports + sum(
        g.size for g in again.new_groups
    )


def test_campaign_deterministic_across_runs_and_workers(tmp_path):
    r1, files1 = _report_files(tmp_path, "a", workers=1)
    r2, files2 = _report_files(tmp_path, "b", workers=1)
    assert files1 == files2
    assert r1.group_hash == r2.group_hash
    r3, files3 = _report_files(tmp_path, "c", workers=3)
    assert files1 == files3
    assert r1.group_hash == r3.group_hash


def test_report_files_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_campaign(_b6_config(out=str(out1)), quiet=True)
    run_campaign(_b6_config(out=str(out2)), quiet=True)
    for name in ("reports.jsonl", "groups.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# sha256 of reports.jsonl, groups.json and summary.json, recorded before the
# seeded-bug bookkeeping moved from SoundFS into the variants; the
# sector-granularity case, which writes partial blocks into crash states, was
# recorded before disk images were keyed by block. bugfs-b3's reports.jsonl
# digests were re-recorded when a lost directory entry block came to be named
# in the unmountable reason; its groups.json and summary.json did not change.
_PINNED_CAMPAIGNS = [
    (
        "--fs bugfs-b1 --seq 1 --all-checkpoints",
        (
            "99fad5d3fa9581b479105a6f1f9a40a8ba977440a4b094e68cc036168b1d5d19",
            "7b2b3fea6eaee9be73e1c288b4fd129fef563243a38170f917612af60ca5accb",
            "7c473e322bb65f9915d74df9100c58e52ee2e39aee717c801e10955d2e8bc347",
        ),
    ),
    (
        "--fs bugfs-b2 --seq 1 --all-checkpoints",
        (
            "14a87fdc8c71eac6b1ac38a9f16aad6f72e89b8a5dc4a517f45a6fe9a84d4602",
            "c5e1f94fd894512bd0a4dceaeb99f194fe4cfd4a9da080310fb990f3d134e7f9",
            "822fe33864646f2d97ad5818358a9503fdecb28300e608fc2df5dbf02fdae894",
        ),
    ),
    (
        "--fs bugfs-b3 --seq 1 --all-checkpoints",
        (
            "bd43467c033d695f0a9e3e724935267a59912803d1a53ac5856fadb0433b838f",
            "2cd7733eda741b312169177ab8d2c4b61d26afcaa47c9aa1f402423e4c2d077a",
            "e070ade8e07ddf3a09ad086113df19f8f9b23717fa09f7ff619b321b19c570a1",
        ),
    ),
    (
        "--fs bugfs-b4 --seq 1 --all-checkpoints",
        (
            "28d481a6863da111559401a7c855033f216e102f8d981a67a50f96a25fa1689a",
            "5e9ebb0ddf3a4bf84b560bec144b3c392d1e8f82e4093660d9527c7fe2c17ba2",
            "5d38ddf46da47dfae7c728dc716939beada6e6c8746548b83aac2dbe2740af36",
        ),
    ),
    (
        "--fs bugfs-b5 --seq 2 --ops write,rename --files foo,bar --dirs= --range 1000:1248",
        (
            "34d2a87a5ddcd970ca052f6010b2a64f8ca8dc5e00b33162a1e4414253d13e7f",
            "bc9d13e79abfd0ff7da55eeddcc94d1cf0444e89af6de14209046cd565f3879e",
            "c9dd5eb53427da016e2c39ff6f0a10305cd6a885f44bd11c66de6e4df471605c",
        ),
    ),
    (
        "--fs bugfs-b6 --seq 2 --ops unlink,creat --files foo,bar --dirs= --all-checkpoints",
        (
            "b6dd30884124fb1e5c5fec6a1b11901eff2b1c77da8ae4f64e8373743e62bd52",
            "a00f22678727dde2e3df63b86ec470410522ae4450beee1a96a7faf8e3164706",
            "39bef1cfaf5762f818740ef61c143bac59ada263c964abdfe4f38703101e1f94",
        ),
    ),
    (
        "--fs bugfs-b3 --seq 1 --ops falloc --subset --granularity sector --seed 7 --range 120:140",
        (
            "29ec435a5bac88ee3a7f09771b7f038e23f62c76898e4de34cd3ccd1ec23618e",
            "4a8e84e900234b491bd8479025f80d8127067287fc62d9bd4f18476112c6b4c6",
            "a87208fd25fa810d5dc7b27cf99825b60cbe22f3b073bc6d942491d544b80d6f",
        ),
    ),
]


@pytest.mark.parametrize(
    "args,digests",
    _PINNED_CAMPAIGNS,
    ids=[a.split()[1] + ("-sector" if "sector" in a else "") for a, _ in _PINNED_CAMPAIGNS],
)
def test_variant_report_files_are_pinned(tmp_path, args, digests):
    """The seeded bugs report byte for byte what they reported before."""
    import hashlib

    out = tmp_path / "out"
    assert main(["campaign", *args.split(), "--out", str(out)]) == 1  # bugs found
    names = ("reports.jsonl", "groups.json", "summary.json")
    got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names)
    assert got == digests


def test_no_group_flag_keeps_every_report(tmp_path):
    grouped = run_campaign(_b6_config(), quiet=True)
    ungrouped = run_campaign(_b6_config(no_group=True), quiet=True)
    assert len(ungrouped.groups) == ungrouped.bug_verdicts
    assert len(grouped.groups) <= len(ungrouped.groups)


def test_campaign_index_range(tmp_path):
    full = run_campaign(
        CampaignConfig(fs="soundfs", seq=(1,), ops=("creat",), files=("foo", "bar"), dirs=()),
        quiet=True,
    )
    sliced = run_campaign(
        CampaignConfig(
            fs="soundfs", seq=(1,), ops=("creat",), files=("foo", "bar"), dirs=(),
            index_range=(0, 3),
        ),
        quiet=True,
    )
    assert sliced.total_workloads == 3
    assert full.total_workloads > 3


def test_campaign_orders_seq_tiers():
    result = run_campaign(
        CampaignConfig(fs="soundfs", seq=(2, 1), ops=("creat",), files=("foo",), dirs=()),
        quiet=True,
    )
    # seq-1 workloads come first in the combined index space
    assert result.exit_code == 0
    assert result.total_workloads > 0


def _slice_pairs(monkeypatch, config) -> list[tuple[int, ace.Workload]]:
    """``(campaign index, workload)`` of each workload the campaign's tiers
    hold, in order, as one partition per tier numbers them: every workload
    is flagged, so each comes back as a finding."""
    flagged = [harness.Verdict(outcome="bug")]
    with monkeypatch.context() as m:
        m.setattr(cli, "run_workload", lambda *args: flagged)
        return [
            (idx, workload)
            for tier in _collect_tiers(config)
            for idx, workload, _v in _run_partition((config.fs, config.run_flags(), *tier))[2]
        ]


def test_campaign_index_is_stable_across_ranges(monkeypatch):
    """A seq-2 workload is numbered after the whole seq-1 tier (1,415
    workloads), whatever part of that tier the range covers."""

    def numbered(index_range):
        pairs = _slice_pairs(monkeypatch, CampaignConfig(seq=(1, 2), index_range=index_range))
        return {i: ace.serialize(w) for i, w in pairs}

    a = numbered((1413, 1417))
    b = numbered((1416, 1418))
    assert sorted(a) == [1413, 1414, 1415, 1416]
    assert sorted(b) == [1416, 1417]
    assert a[1416] == b[1416]
    ((idx, workload),) = _slice_pairs(monkeypatch, CampaignConfig(seq=(2,), index_range=(1, 2)))
    assert idx == workload.index == 1


def test_group_representative_index_reruns_its_workload(tmp_path):
    config = dict(fs="bugfs-b1", seq=(1, 2), ops=("creat", "link"), files=("foo", "bar"), dirs=())
    result = run_campaign(CampaignConfig(**config), quiet=True)
    assert result.groups
    for group in result.groups:
        i = group.representative.workload_index
        rerun = run_campaign(CampaignConfig(**config, index_range=(i, i + 1)), quiet=True)
        assert rerun.total_workloads == 1
        assert {r.workload_dsl for r in rerun.reports} == {group.representative.workload_dsl}


def test_harness_errors_are_written_with_reasons(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ghost.wl").write_text("unlink ghost\nsync\n")
    (corpus / "ok.wl").write_text("creat foo\nfsync foo\n")
    out = tmp_path / "out"
    result = run_campaign(CampaignConfig(corpus=str(corpus), out=str(out)))
    assert result.harness_errors == 1
    lines = (out / "errors.jsonl").read_text().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert sorted(error) == ["reason", "workload_dsl", "workload_index"]
    assert error["workload_index"] == 0 and "ENOENT" in error["reason"]
    assert error["workload_dsl"].startswith("unlink ghost\n")
    assert "first: workload 0: " in capsys.readouterr().out
    clean = tmp_path / "clean"
    run_campaign(CampaignConfig(fs="soundfs", seq=(1,), ops=("creat",), out=str(clean)), quiet=True)
    assert (clean / "errors.jsonl").read_text() == ""


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(workers=0).validate()
    with pytest.raises(ValueError):
        CampaignConfig(fs="not-a-target").validate()
    with pytest.raises(ValueError):
        CampaignConfig(corpus="/tmp/x", index_range=(0, 5)).validate()
    with pytest.raises(ValueError, match="granularity"):
        CampaignConfig(granularity="bytes").validate()
    with pytest.raises(ValueError, match="seq"):
        CampaignConfig(seq=()).validate()
    with pytest.raises(ValueError, match="ops"):
        CampaignConfig(ops=()).validate()
    for config, message in (
        (CampaignConfig(ops=("creat", "creat")), "ops names 'creat' twice"),
        (CampaignConfig(ops=("creat", "link", "link")), "ops names 'link' twice"),
        (CampaignConfig(files=("foo", "bar", "foo")), "files names 'foo' twice"),
        (CampaignConfig(dirs=("A", "A")), "dirs names 'A' twice"),
    ):
        with pytest.raises(ValueError, match=message):
            config.validate()
    for index_range in ((9, 3), (-1, 3), (-1, None)):
        with pytest.raises(ValueError, match="index range"):
            CampaignConfig(index_range=index_range).validate()


def test_cli_main_campaign_and_config_file(tmp_path):
    cfg = {
        "fs": "bugfs-b6",
        "seq": [2],
        "ops": ["unlink", "creat"],
        "files": "foo,bar",
        "dirs": "",
        "out": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["campaign", "--config", str(cfg_path)])
    assert code == 1  # bugs found
    # flag wins over config file
    code = main(["campaign", "--config", str(cfg_path), "--fs", "soundfs"])
    assert code == 0


def test_config_file_switch_is_honoured_and_flags_win(tmp_path):
    """The file's switch tests every checkpoint (171 verdicts for 100
    workloads, 85 for 50); an explicit --range overrides the file's."""
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps({"seq": [2], "range": "0:100", "all_checkpoints": True}))
    for extra, workloads, verdicts in (([], 100, 171), (["--range", "0:50"], 50, 85)):
        out = tmp_path / str(workloads)
        assert main(["campaign", "--config", str(cfg_path), "--out", str(out), *extra]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["workloads"], summary["verdicts"]) == (workloads, verdicts)


# one well-formed report line; a replay index other than 0 names no report
_REPORT_LINE = json.dumps(
    dict(
        schema=1,
        workload_dsl="creat foo\nsync\n",
        skeleton="creat",
        crash_descriptor="checkpoint=1",
        consequence="missing_file",
        diff=[],
        fs_target="soundfs",
        fs_format_version=1,
        workload_index=0,
    )
)


@pytest.mark.parametrize(
    "text, args, message",
    [
        (None, ["campaign", "--config", "{f}"], "config file {f}: "),
        ('{"seq": 2}', ["campaign", "--config", "{f}"], "config file {f}: "),
        ('[{"fs": "bugfs-b6"}]', ["campaign", "--config", "{f}"], "config file {f}: expected a JSON object"),
        (
            '{"schema": 1, "entries": [{"skeleton": "creat"}]}',
            ["campaign", "--ops", "creat", "--known-bugs", "{f}"],
            "known-bug file {f}: ",
        ),
        ('{"schema": 1, "workload_dsl": "creat foo\\n"}\n', ["replay", "{f}", "0"], "{f}:1: "),
        (_REPORT_LINE, ["replay", "{f}", "-1"], "report file has 1 entries; no index -1"),
        (_REPORT_LINE, ["replay", "{f}", "1"], "report file has 1 entries; no index 1"),
        (None, ["corpus", "--fs", "nosuchfs"], "unknown file system target 'nosuchfs'"),
        (None, ["corpus", "--dir", "{f}"], "corpus directory {f} does not exist"),
        (None, ["campaign", "--corpus", "{f}"], "corpus directory {f} does not exist"),
        (None, ["corpus", "--dir", "{d}/x.wl"], "corpus directory {d}/x.wl holds no *.wl file"),
        (
            None,
            ["campaign", "--corpus", "{d}/x.wl"],
            "corpus directory {d}/x.wl holds no *.wl file",
        ),
        (
            '{"all-checkpoints": true}',
            ["campaign", "--config", "{f}"],
            "config file {f}: unknown key 'all-checkpoints'",
        ),
        (
            '{"subset": "false"}',
            ["campaign", "--config", "{f}"],
            'config file {f}: subset: expected bool, got "false"',
        ),
        (None, ["campaign", "--range", "9:3"], "index range 9:3"),
        (None, ["campaign", "--ops", "creat,nosuchop"], "--ops: unknown op kind 'nosuchop'"),
        (None, ["campaign", "--ops", ""], "ops names no op kind"),
        ('{"ops": []}', ["campaign", "--config", "{f}"], "ops names no op kind"),
        (None, ["campaign", "--ops", "creat,creat"], "ops names 'creat' twice"),
        (None, ["campaign", "--files", "foo,foo"], "files names 'foo' twice"),
        ('{"dirs": ["A", "B", "A"]}', ["campaign", "--config", "{f}"], "dirs names 'A' twice"),
        (
            '{"ops": "nosuchop"}',
            ["campaign", "--config", "{f}"],
            "config file {f}: ops: unknown op kind 'nosuchop'",
        ),
        ("{}", ["campaign", "--range", "0:1", "--out", "{f}"], "File exists: '{f}'"),
        (None, ["campaign", "--range", "0:1", "--known-bugs", "{d}"], "Is a directory: '{d}'"),
        (None, ["corpus", "--dir", "{d}"], "Is a directory: '{d}/x.wl'"),
    ],
    ids=[
        "config-missing",
        "config-seq-int",
        "config-array",
        "known-bug-entry",
        "report-fields",
        "replay-negative-index",
        "replay-index-past-the-end",
        "corpus-unknown-fs",
        "corpus-missing-dir",
        "campaign-missing-corpus",
        "corpus-empty-dir",
        "campaign-empty-corpus",
        "config-unknown-key",
        "config-switch-string",
        "range-reversed",
        "ops-unknown-kind",
        "ops-empty",
        "config-ops-empty",
        "ops-repeated",
        "files-repeated",
        "config-dirs-repeated",
        "config-ops-unknown-kind",
        "out-is-a-file",
        "known-bugs-is-a-dir",
        "corpus-wl-is-a-dir",
    ],
)
def test_malformed_input_exits_2_naming_the_file(tmp_path, capsys, text, args, message):
    """Exit 1 means new bug groups, so bad input must not end in a traceback.
    ``{d}`` is a directory holding ``input.json`` (``{f}``, when ``text`` is
    given) and an empty directory named ``x.wl``."""
    f = tmp_path / "input.json"
    if text is not None:
        f.write_text(text)
    (tmp_path / "x.wl").mkdir()
    assert main([a.format(f=f, d=tmp_path) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message.format(f=f, d=tmp_path) in err


def test_a_corpus_campaign_names_the_file_that_does_not_parse(tmp_path, capsys):
    (tmp_path / "a.wl").write_text("creat foo\nfsync foo\n")
    for line, message in (
        ("frobnicate foo", "unknown operation 'frobnicate'"),
        ("truncate -5 foo", "bad arguments for truncate: negative size -5"),
        ("write (8K-4K) foo", "bad arguments for write: range '(8K-4K)' ends before it starts"),
    ):
        (tmp_path / "b.wl").write_text(f"creat foo\n{line}\n")
        assert main(["campaign", "--corpus", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {tmp_path / 'b.wl'}: line 2: {message}\n"


def test_bounds_that_give_no_workload_are_a_config_error(capsys):
    """Bounds that leave no op a candidate would run nothing and exit 0 like
    a clean campaign, so they exit 2 naming the bounds, with or without
    ``--range`` and on any number of workers."""
    args = ["campaign", "--seq", "1", "2", "--ops", "creat", "--files", "", "--dirs", ""]
    for extra in ([], ["--range", "0:10"], ["--workers", "2"]):
        assert main([*args, *extra]) == 2, extra
        err = capsys.readouterr().err
        assert err == "error: bounds seq=1;ops=creat;files=;dirs= give no workload\n", extra


def test_a_range_past_a_tier_end_is_a_clean_run(monkeypatch, capsys):
    """A ``--range`` past the end of a tier that has workloads selects none
    on purpose and exits 0. Only a tier whose partitions return no workload
    looks for a first one: a campaign with workloads seeks only its
    partitions."""
    seeks = []
    workload_range = ace.workload_range

    def recording(bounds, start, end):
        seeks.append((bounds.seq_length, start, end))
        return workload_range(bounds, start, end)

    monkeypatch.setattr(ace, "workload_range", recording)
    args = ["campaign", "--seq", "1", "--ops", "creat", "--files", "foo", "--dirs", ""]
    assert main([*args, "--range", "100:200"]) == 0
    assert "] 0 workloads, 0 verdicts" in capsys.readouterr().out
    assert seeks == [(1, 100, 200), (1, 0, 1)]
    seeks.clear()
    assert main([*args, "--range", "1:3"]) == 0
    assert "] 2 workloads" in capsys.readouterr().out
    assert seeks == [(1, 1, 3)]


def _b3_subset_config(**kw):
    # one falloc workload whose 34 bug reports are nearly all subset states
    return CampaignConfig(
        fs="bugfs-b3", seq=(1,), ops=("falloc",), subset=True, index_range=(122, 123), **kw
    )


def _b3_sector_config(**kw):
    # the README's sector slice: 264 bug reports, 260 of them sector subsets
    return CampaignConfig(
        fs="bugfs-b3", seq=(1,), ops=("falloc",), subset=True, granularity="sector", seed=7,
        index_range=(120, 140), **kw
    )


def test_replay_reproduces_consequence_and_diff_hash(tmp_path):
    """Replay gives back each report's consequence, descriptor and full diff,
    for checkpoint descriptors and for subset descriptors at op and sector
    granularity alike."""
    descriptors = {}
    for name, config, pick in (
        ("b6", _b6_config, lambda n: (0, n - 1)),
        ("b3", _b3_subset_config, range),
        ("b3sector", _b3_sector_config, lambda n: range(1, n, 37)),
    ):
        out = tmp_path / name
        run_campaign(config(out=str(out)), quiet=True)
        reports = report.read_reports(out / "reports.jsonl")
        assert reports
        descriptors[name] = [r.crash_descriptor for r in reports]
        for idx in pick(len(reports)):
            verdict = replay_report(out / "reports.jsonl", idx, quiet=True)
            assert verdict.consequence == reports[idx].consequence
            assert verdict.crash_descriptor == reports[idx].crash_descriptor
            assert [vars(d) for d in verdict.diff] == reports[idx].diff
    assert len(descriptors["b3"]) == 34
    assert sum(d.startswith("prefix=") for d in descriptors["b3"]) == 33
    sector = descriptors["b3sector"]
    assert len(sector) == 264
    assert sum(d.endswith(";gran=sector") for d in sector) == 260
    assert all(sector[idx].endswith(";gran=sector") for idx in range(1, 264, 37))


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("checkpoint=9", "has 1 checkpoints"),
        # a checkpoint is a log position, and checkpoints[-1] would exist
        ("checkpoint=0", "has 1 checkpoints"),
        ("checkpoint=-1", "has 1 checkpoints"),
        ("prefix=7;kept=0;gran=op", "log has 3 epochs"),
        ("prefix=1;kept=5;gran=op", "has 1 units"),
        ("prefix=1;kept=3,1;gran=op", "strictly increasing"),
        ("bogus", "expected prefix=P;kept="),
        ("prefix=0;kept=;gran=bytes", "unknown granularity"),
    ],
    ids=[
        "checkpoint", "checkpoint-zero", "checkpoint-negative", "prefix", "kept", "unordered",
        "bogus", "granularity",
    ],
)
def test_replay_rejects_descriptor_that_does_not_fit(tmp_path, capsys, descriptor, message):
    out = tmp_path / "out"
    run_campaign(_b3_subset_config(out=str(out)), quiet=True)
    payload = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    payload["crash_descriptor"] = descriptor
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(payload) + "\n")
    assert main(["replay", str(bad), "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(descriptor) in err and message in err


@pytest.mark.parametrize(
    "dsl, message",
    [("frobnicate foo\n", "unknown operation 'frobnicate'"), ("unlink ghost\nsync\n", "ghost")],
    ids=["parse", "harness"],
)
def test_replay_rejects_workload_it_cannot_rebuild(tmp_path, capsys, dsl, message):
    out = tmp_path / "out"
    run_campaign(_b6_config(out=str(out)), quiet=True)
    payload = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    payload["workload_dsl"] = dsl
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(payload) + "\n")
    assert main(["replay", str(bad), "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_replay_refuses_version_mismatch(tmp_path):
    out = tmp_path / "out"
    run_campaign(_b6_config(out=str(out)), quiet=True)
    lines = (out / "reports.jsonl").read_text().strip().splitlines()
    payload = json.loads(lines[0])
    payload["fs_format_version"] = 999
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(payload) + "\n")
    with pytest.raises(ValueError, match="refusing"):
        replay_report(bad, 0, quiet=True)


def test_run_corpus_soundfs_all_clean():
    rows = run_corpus(default_corpus_dir(), "soundfs", quiet=True)
    assert len(rows) == 37
    assert all(r.match for r in rows), [(r.file, r.observed) for r in rows if not r.match]
    assert all(r.expected == "none" for r in rows)


def test_run_corpus_empty_dir(tmp_path):
    assert run_corpus(tmp_path, "soundfs", quiet=True) == []


def test_run_corpus_parse_error_names_the_file(tmp_path, capsys):
    """A corpus entry that does not parse is bad input, as it is to
    ``campaign --corpus``: no row is printed, the error names the file and
    ``corpus`` exits 2, never 1, which means new bug groups."""
    (tmp_path / "bad.wl").write_text("frobnicate foo\n")
    (tmp_path / "good.wl").write_text("creat foo\nfsync foo\n---crash---\n")
    message = f"{tmp_path / 'bad.wl'}: line 1: unknown operation 'frobnicate'"
    with pytest.raises(ace.GenerationError) as e:
        run_corpus(tmp_path, "soundfs", quiet=True)
    assert str(e.value) == message
    for mapped in ([], ["--mapped"]):
        assert main(["corpus", "--dir", str(tmp_path), *mapped]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_corpus_parses_every_entry_before_running_one(tmp_path, capsys, monkeypatch):
    """A bad last entry fails the corpus before its good entries run, as it
    fails ``campaign --corpus``: exit 2, the error names the file, and no
    workload runs."""
    import shutil

    for path in sorted(default_corpus_dir().glob("*.wl"))[:3]:
        shutil.copy(path, tmp_path)
    (tmp_path / "zz.wl").write_text("creat foo\nfrobnicate foo\n")
    ran = []
    monkeypatch.setattr(cli, "run_workload", lambda *a, **kw: ran.append(a) or [])
    message = f"error: {tmp_path / 'zz.wl'}: line 2: unknown operation 'frobnicate'\n"
    for mapped in ([], ["--mapped"]):
        assert main(["corpus", "--dir", str(tmp_path), *mapped]) == 2
        assert capsys.readouterr() == ("", message)
    with pytest.raises(ace.GenerationError):
        run_mapped_corpus(tmp_path)
    assert ran == []


def test_corpus_mapped_variants_reproduce_annotations():
    mapping = corpus_variant_map(default_corpus_dir())
    assert set(mapping.values()) >= {
        ("bugfs-b1", "file_missing"),
        ("bugfs-b2", "spurious_entry"),
        ("bugfs-b3", "metadata_mismatch(block_count)"),
        ("bugfs-b4", "metadata_mismatch(size)"),
        ("bugfs-b6", "unmountable"),
    }
    mapped = run_mapped_corpus(default_corpus_dir())
    assert [(r.file, variant) for variant, r in mapped] == [
        (fname, variant) for fname, (variant, _expected) in mapping.items()
    ]
    for variant, r in mapped:
        assert r.match, (variant, r)


def test_cli_main_corpus_command(capsys):
    code = main(["corpus", "--fs", "soundfs"])
    assert code == 0
    out = capsys.readouterr().out
    assert "known_01.wl" in out


def test_cli_main_corpus_mapped_command(capsys):
    assert main(["corpus", "--mapped"]) == 0
    out = capsys.readouterr().out
    assert "ok  known_02.wl on bugfs-b3: expected=metadata_mismatch(block_count)" in out
    assert "FAIL" not in out


def test_partition_independence_worker_counts(tmp_path):
    """Report files byte-identical for 1 and N workers (acceptance support)."""
    _, files1 = _report_files(tmp_path, "w1", workers=1)
    _, files4 = _report_files(tmp_path, "w4", workers=4)
    assert files1 == files4


@pytest.mark.parametrize(
    "config, workers",
    [
        (_b6_config(index_range=(1_000_000, 1_000_010)), 2),
        (CampaignConfig(seq=(1, 2), index_range=(1400, 1420)), 4),
        (CampaignConfig(seq=(1,), index_range=(0, 2)), 4),
    ],
    ids=["past-the-tier-end", "across-the-tier-boundary", "fewer-workloads-than-workers"],
)
def test_fan_out_edge_cases_match_one_worker(tmp_path, config, workers):
    """An empty tier, or one with fewer non-empty partitions than workers,
    runs without a pool of zero workers and writes the 1-worker files."""
    files = []
    for n in (1, workers):
        out = tmp_path / f"w{n}"
        run_campaign(dataclasses.replace(config, workers=n, out=str(out)), quiet=True)
        names = ("reports.jsonl", "groups.json", "summary.json", "errors.jsonl")
        files.append([(out / name).read_bytes() for name in names])
    assert files[0] == files[1]


def _counted_runs(monkeypatch) -> list:
    """The workloads ``_run_partition`` runs, in order, from now on."""
    ran = []

    def counting(workload, *args):
        ran.append(workload)
        return run_workload(workload, *args)

    monkeypatch.setattr(cli, "run_workload", counting)
    return ran


@pytest.mark.parametrize(
    "config, duplicates",
    [
        (CampaignConfig(seq=(1,), subset=True, index_range=(590, 640)), 10),
        (CampaignConfig(fs="bugfs-b3", seq=(1,), ops=("falloc",)), 130),
        (CampaignConfig(seq=(1,)), 208),
    ],
    ids=["soundfs-subset", "bugfs-b3-falloc", "soundfs-seq1"],
)
def test_a_partition_runs_each_distinct_body_once(monkeypatch, config, duplicates):
    """A workload whose body (prologue and steps) an earlier one in the
    partition had gets that one's verdicts, which equal its own run's with
    no mount memo and no prefix fork. The partition returns their count and
    each index's non-pass verdicts, duplicates included."""
    tier = _slice_pairs(monkeypatch, config)
    flags = config.run_flags()
    alone = [(idx, workload, run_workload(workload, config.fs, flags)) for idx, workload in tier]
    ran = _counted_runs(monkeypatch)
    (sliced,) = _collect_tiers(config)
    workloads, count, findings = _run_partition((config.fs, flags, *sliced))
    assert workloads == len(tier)
    assert count == sum(len(verdicts) for _idx, _w, verdicts in alone)
    assert findings == [
        (idx, workload, v)
        for idx, workload, verdicts in alone
        for v in verdicts
        if v.outcome != "pass"
    ]
    bodies = [(workload.prologue, workload.steps) for _idx, workload in tier]
    assert len(ran) == len(set(bodies)) == len(tier) - duplicates
    assert [(w.prologue, w.steps) for w in ran] == list(dict.fromkeys(bodies))


def test_a_body_repeated_after_another_skeleton_runs_again(monkeypatch):
    """The map of bodies run holds one skeleton's bodies: it is emptied
    when the skeleton changes, so a body repeated after another skeleton's
    workload runs again. The verdict count and findings stay those of each
    workload run alone. The partition's source is a tuple of workloads, as
    a corpus campaign's is, numbered from the base."""
    config = CampaignConfig(fs="bugfs-b1", seq=(1,), ops=("creat", "link"))
    tier = _slice_pairs(monkeypatch, config)
    flags = config.run_flags()
    alone = {idx: run_workload(workload, config.fs, flags) for idx, workload in tier}
    idx, buggy = next((i, w) for i, w in tier if any(v.is_bug for v in alone[i]))
    other_idx, other = next((i, w) for i, w in tier if w.skeleton != buggy.skeleton)
    source = (buggy, buggy, other, buggy)
    ran = _counted_runs(monkeypatch)
    workloads, count, findings = _run_partition((config.fs, flags, source, idx, 0, len(source)))
    assert ran == [buggy, other, buggy]
    assert workloads == 4
    assert count == 3 * len(alone[idx]) + len(alone[other_idx])
    assert findings == [
        (idx + k, w, v)
        for k, w in enumerate(source)
        for v in alone[idx if w is buggy else other_idx]
        if v.outcome != "pass"
    ]


def _prologue_runs(tier) -> int:
    """The runs of equal prologues among a tier's distinct bodies, in order."""
    bodies = dict.fromkeys((w.prologue, w.steps) for _idx, w in tier)
    prologues = [prologue for prologue, _steps in bodies]
    return sum(p != q for p, q in zip(prologues, [None, *prologues]))


@pytest.mark.parametrize(
    "ranges, fresh",
    [([(lo, lo + 100) for lo in range(0, 500, 100)], [3, 3, 3, 1, 2]), ([(0, 5000)], [26])],
    ids=["seq2-default-unit", "seq2-0-5000"],
)
def test_a_partition_starts_from_mkfs_once_per_run_of_one_prologue(monkeypatch, ranges, fresh):
    """A partition's profiles resume from its stack of frozen runs, so
    only a workload whose prologue differs from the previous distinct
    body's builds a profile from mkfs."""
    built = [0]
    init = harness.Profile.__init__

    def counted(self, *args):
        built[0] += 1
        return init(self, *args)

    monkeypatch.setattr(harness.Profile, "__init__", counted)
    for (lo, hi), want in zip(ranges, fresh, strict=True):
        config = CampaignConfig(seq=(2,), index_range=(lo, hi))
        tier = _slice_pairs(monkeypatch, config)
        built[0] = 0
        run_campaign(config, quiet=True)
        assert built[0] == _prologue_runs(tier) == want, (lo, hi)


def test_equal_steps_after_another_prologue_run_again(monkeypatch):
    """The body includes the prologue: a workload with a seq-1 workload's
    steps after another prologue runs, and gets its own verdicts: the first
    passes, so only the twin's harness error comes back."""
    tier = _slice_pairs(monkeypatch, CampaignConfig(seq=(1,)))
    idx, workload = next(
        (i, w) for i, w in tier if not w.prologue and ace.serialize(w).startswith("mkdir A\n")
    )
    twin = dataclasses.replace(workload, prologue=workload.steps[:1])
    ran = _counted_runs(monkeypatch)
    _, count, findings = _run_partition(("soundfs", RunFlags(), (workload, twin), idx, 0, 2))
    assert ran == [workload, twin]
    assert count == len(run_workload(workload, "soundfs")) + len(run_workload(twin, "soundfs"))
    assert findings == [(idx + 1, twin, v) for v in run_workload(twin, "soundfs")]
    assert findings[0][2].outcome == "harness_error"  # the body's mkdir A finds A there


def test_an_all_passing_partition_returns_no_findings():
    """Passing verdicts are counted, never returned."""
    config = CampaignConfig(seq=(2,), index_range=(0, 150))
    (tier,) = _collect_tiers(config)
    assert _run_partition((config.fs, config.run_flags(), *tier)) == (150, 150, [])


@pytest.mark.parametrize(
    "config",
    [
        CampaignConfig(seq=(1,), index_range=(1400, 2000)),
        CampaignConfig(seq=(1, 2), index_range=(1400, 1500)),
    ],
    ids=["end-past-the-tier-end", "across-the-tier-boundary"],
)
def test_partitions_yield_the_generator_pairs(monkeypatch, config):
    """Each process seeks its own partition of a tier's slice; on any number
    of workers, the partitions together yield the ``(campaign index,
    workload)`` pairs ``workload_range`` gives for those indices, in order:
    a seq-2 workload's index follows the whole seq-1 tier."""
    seq1, seq2 = config.bounds_for(1), config.bounds_for(2)
    start, end = config.index_range
    size = ace.count_workloads(seq1)
    want = [(w.index, w) for w in ace.workload_range(seq1, start, end)]
    if 2 in config.seq:
        want += [(size + w.index, w) for w in ace.workload_range(seq2, 0, end - size)]
    flagged = [harness.Verdict(outcome="bug")]
    monkeypatch.setattr(cli, "run_workload", lambda *args: flagged)
    for workers in (1, 2, 3, 4):
        cfg = dataclasses.replace(config, workers=workers)
        got, total = [], 0
        for tier in _collect_tiers(cfg):
            count, _verdicts, findings = _run_tier(cfg, cfg.run_flags(), tier)
            got += [(idx, workload) for idx, workload, _v in findings]
            total += count
        assert got == want, workers
        assert total == len(want)


def test_a_tier_is_counted_only_when_its_size_is_needed(monkeypatch):
    """Only the base of a later tier, or the cuts of a last tier with no
    ``--range`` END on more than one worker, need a tier's size."""
    counted = []
    count = ace.count_workloads
    monkeypatch.setattr(ace, "count_workloads", lambda b: counted.append(b.seq_length) or count(b))
    for config, want, end in [
        (CampaignConfig(seq=(1,)), [], None),
        (CampaignConfig(seq=(2,), index_range=(5, 10**9), workers=4), [], 10**9),
        (CampaignConfig(seq=(1,), workers=2), [1], 1415),
        (CampaignConfig(seq=(1, 2), index_range=(1400, 1500), workers=3), [1], 85),
    ]:
        counted.clear()
        assert _collect_tiers(config)[-1][3] == end
        assert counted == want, config


def _campaign_files(out, config) -> list[bytes]:
    run_campaign(dataclasses.replace(config, out=str(out)), quiet=True)
    names = ("reports.jsonl", "groups.json", "summary.json", "errors.jsonl")
    return [(out / name).read_bytes() for name in names]


@pytest.mark.parametrize(
    "config",
    [
        CampaignConfig(seq=(1,), index_range=(1400, 2000)),
        CampaignConfig(seq=(1, 2), index_range=(1400, 1500)),
        CampaignConfig(seq=(2,), index_range=(25000, 25250)),
        _b6_config(),
    ],
    ids=["seq1-end-past-the-tier", "across-the-tier-boundary", "seq2-deep", "bugfs-b6"],
)
def test_report_files_identical_for_one_to_four_workers(tmp_path, config):
    one = _campaign_files(tmp_path / "w1", config)
    for workers in (2, 3, 4):
        config = dataclasses.replace(config, workers=workers)
        assert _campaign_files(tmp_path / f"w{workers}", config) == one, workers


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_partitions(monkeypatch, fail_in_worker):
    """Make ``_run_partition`` call ``fail_in_worker(payload)`` in a forked
    worker, and run normally in the campaign process."""
    campaign = os.getpid()
    real = cli._run_partition

    def partition(payload):
        if os.getpid() != campaign:
            fail_in_worker(payload)
        return real(payload)

    monkeypatch.setattr(cli, "_run_partition", partition)


_WORKERS3 = CampaignConfig(seq=(2,), index_range=(0, 40), workers=3)


def test_an_error_raised_in_a_worker_is_raised_again(monkeypatch):
    """The first worker's exception (cuts 0, 13, 26, 40) comes back with its
    type and message, the worker's traceback as its cause, and every worker
    reaped."""

    def fail(payload):
        raise KeyError(f"partition {payload[4]}")

    _failing_partitions(monkeypatch, fail)
    with pytest.raises(KeyError) as info:
        run_campaign(_WORKERS3, quiet=True)
    assert type(info.value) is KeyError
    assert info.value.args == ("partition 13",)
    assert "in partition worker" in str(info.value.__cause__)
    assert "KeyError: 'partition 13'" in str(info.value.__cause__)
    _assert_no_child_left()


def test_an_error_that_cannot_be_rebuilt_keeps_its_type_name_and_message(monkeypatch):
    """``FsError(code, message)`` cannot be unpickled from its one-string
    args, so it comes back as a RuntimeError that names it."""

    def fail(_payload):
        raise FsError("EIO", "device gone")

    _failing_partitions(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=r"^FsError: EIO: device gone$"):
        run_campaign(_WORKERS3, quiet=True)
    _assert_no_child_left()


def test_a_worker_killed_by_a_signal_names_its_exit_status(monkeypatch):
    _failing_partitions(monkeypatch, lambda _payload: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(RuntimeError, match=r"^partition worker \d+ was killed by signal 9$"):
        run_campaign(_WORKERS3, quiet=True)
    _assert_no_child_left()


def test_a_failing_own_partition_kills_and_reaps_the_workers(monkeypatch):
    """The campaign process's own partition raises while its workers would
    run for a minute: they are killed, not waited for, and reaped."""
    campaign = os.getpid()
    real = cli._run_partition

    def partition(payload):
        if os.getpid() == campaign:
            raise ValueError("own partition failed")
        time.sleep(60)
        return real(payload)

    monkeypatch.setattr(cli, "_run_partition", partition)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match="^own partition failed$"):
        run_campaign(_WORKERS3, quiet=True)
    assert time.monotonic() - t0 < 30
    _assert_no_child_left()


def test_a_campaign_leaves_no_child_and_flushes_no_stdio_twice():
    """A worker ends without flushing the stdio buffers it inherited, so
    output the campaign process had buffered before the fork appears once."""
    code = (
        "from crashlab.cli import CampaignConfig, run_campaign\n"
        "print('buffered', end='')\n"
        "run_campaign(CampaignConfig(seq=(2,), index_range=(0, 40), workers=3), quiet=True)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "buffered", "")
    run_campaign(_WORKERS3, quiet=True)
    _assert_no_child_left()
