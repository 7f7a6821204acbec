"""Campaign runner, replay, and corpus commands."""

import json

import pytest

from crashlab import report
from crashlab.cli import (
    CampaignConfig,
    corpus_variant_map,
    default_corpus_dir,
    main,
    replay_report,
    run_campaign,
    run_corpus,
)


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


def test_group_arithmetic_and_db_idempotence(tmp_path):
    db_path = tmp_path / "known.json"
    result = run_campaign(_b6_config(known_bugs=str(db_path)), quiet=True)
    assert sum(g.size for g in result.groups) + 0 == result.bug_verdicts
    db = report.KnownBugDb()
    db.merge_groups(result.groups, note="export")
    db.save(db_path)
    again = run_campaign(_b6_config(known_bugs=str(db_path)), quiet=True)
    assert again.new_groups == []
    assert again.exit_code == 0
    assert again.suppressed_reports == again.bug_verdicts
    assert sum(g.size for g in again.groups) == again.suppressed_reports + sum(
        g.size for g in again.new_groups
    )


def test_campaign_deterministic_across_runs_and_workers(tmp_path):
    r1 = run_campaign(_b6_config(workers=1), quiet=True)
    r2 = run_campaign(_b6_config(workers=1), quiet=True)
    assert r1.verdict_multiset() == r2.verdict_multiset()
    assert r1.group_hash == r2.group_hash
    r3 = run_campaign(_b6_config(workers=3), quiet=True)
    assert r1.verdict_multiset() == r3.verdict_multiset()
    assert r1.group_hash == r3.group_hash


def test_report_files_byte_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_campaign(_b6_config(out=str(out1)), quiet=True)
    run_campaign(_b6_config(out=str(out2)), quiet=True)
    for name in ("reports.jsonl", "groups.json", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(workers=0).validate()
    with pytest.raises(ValueError):
        CampaignConfig(fs="not-a-target").validate()
    with pytest.raises(ValueError):
        CampaignConfig(corpus="/tmp/x", index_range=(0, 5)).validate()
    with pytest.raises(ValueError, match="granularity"):
        CampaignConfig(granularity="bytes").validate()


def test_cli_main_campaign_and_config_file(tmp_path):
    cfg = {
        "fs": "bugfs-b6",
        "seq": [2],
        "ops": "unlink,creat",
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


def _b3_subset_config(**kw):
    # one falloc workload whose 34 bug reports are nearly all subset states
    return CampaignConfig(
        fs="bugfs-b3", seq=(1,), ops=("falloc",), subset=True, index_range=(122, 123), **kw
    )


def test_replay_reproduces_consequence_and_diff_hash(tmp_path):
    """Replay gives back each report's consequence, descriptor and full diff,
    for checkpoint and subset descriptors alike."""
    for name, config in (("b6", _b6_config), ("b3", _b3_subset_config)):
        out = tmp_path / name
        run_campaign(config(out=str(out)), quiet=True)
        reports = report.read_reports(out / "reports.jsonl")
        assert reports
        indices = range(len(reports)) if name == "b3" else (0, len(reports) - 1)
        for idx in indices:
            verdict = replay_report(out / "reports.jsonl", idx, quiet=True)
            assert verdict.consequence == reports[idx].consequence
            assert verdict.crash_descriptor == reports[idx].crash_descriptor
            assert [vars(d) for d in verdict.diff] == reports[idx].diff
    descriptors = [r.crash_descriptor for r in reports]
    assert len(descriptors) == 34
    assert sum(d.startswith("prefix=") for d in descriptors) == 33


@pytest.mark.parametrize(
    "descriptor, message",
    [
        ("checkpoint=9", "has 1 checkpoints"),
        ("prefix=7;kept=0;gran=op", "log has 3 epochs"),
        ("prefix=1;kept=5;gran=op", "has 1 units"),
        ("bogus", "expected prefix=P;kept="),
        ("prefix=0;kept=;gran=bytes", "unknown granularity"),
    ],
    ids=["checkpoint", "prefix", "kept", "bogus", "granularity"],
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


def test_run_corpus_parse_errors_reported_rest_continue(tmp_path):
    (tmp_path / "bad.wl").write_text("frobnicate foo\n")
    (tmp_path / "good.wl").write_text("creat foo\nfsync foo\n---crash---\n")
    rows = run_corpus(tmp_path, "soundfs", quiet=True)
    assert len(rows) == 2
    assert rows[0].observed.startswith("parse_error")
    assert rows[1].match


def test_corpus_mapped_variants_reproduce_annotations():
    mapping = corpus_variant_map(default_corpus_dir())
    assert set(mapping.values()) >= {
        ("bugfs-b1", "file_missing"),
        ("bugfs-b2", "spurious_entry"),
        ("bugfs-b3", "metadata_mismatch(block_count)"),
        ("bugfs-b4", "metadata_mismatch(size)"),
        ("bugfs-b6", "unmountable"),
    }
    for fname, (variant, _expected) in mapping.items():
        rows = [r for r in run_corpus(default_corpus_dir(), variant, quiet=True) if r.file == fname]
        assert rows and all(r.match for r in rows), (fname, variant, rows)


def test_cli_main_corpus_command(capsys):
    code = main(["corpus", "--fs", "soundfs"])
    assert code == 0
    out = capsys.readouterr().out
    assert "known_01.wl" in out


def test_partition_independence_worker_counts():
    """Verdict multiset identical for 1 and N workers (acceptance support)."""
    cfg1 = _b6_config(workers=1)
    cfg4 = _b6_config(workers=4)
    assert run_campaign(cfg1, quiet=True).verdict_multiset() == run_campaign(
        cfg4, quiet=True
    ).verdict_multiset()
