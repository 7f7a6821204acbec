"""Tests for the benchmark's tracer.

    python3 perfbench/check_tracer.py

Counts taken from the spans must satisfy exact invariants on every run, and
tracing must not change a campaign's output.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from crashlab import cli, harness  # noqa: E402
from crashlab.cli import CampaignConfig  # noqa: E402
from crashlab.fstarget import SoundFs  # noqa: E402

COUNTS = (
    "ace.workloads",
    "harness.profile_calls",
    "harness.crash_states",
    "fstarget.mounts",
    "fstarget.unmountable",
    "fstarget.state_views",
    "fstarget.apply_calls",
    "fstarget.persist_calls",
    "blockdev.replay_calls",
    "crashgen.subset_states",
    "harness.bug_verdicts",
    "report.reports",
)


def traced(config: CampaignConfig):
    t = tracing.Tracer()
    with t:
        res = cli.run_campaign(config, quiet=True)
    spans, stats = t.take()
    return res, tracing.layer_metrics(spans, stats, config.workers, t.owner), spans


class CountInvariants(unittest.TestCase):
    def assert_invariants(self, res, m):
        self.assertEqual(m["harness.profile_calls"], res.total_workloads)
        self.assertEqual(m["harness.crash_states"], res.total_verdicts)
        self.assertEqual(m["fstarget.mounts"], m["harness.crash_states"])
        self.assertEqual(
            m["blockdev.replay_calls"] + m["crashgen.subset_states"], m["harness.crash_states"]
        )
        self.assertEqual(
            m["fstarget.state_views"], m["harness.crash_states"] - m["fstarget.unmountable"]
        )
        self.assertEqual(m["harness.bug_verdicts"], res.bug_verdicts)

    def test_default_mode(self):
        res, m, _ = traced(CampaignConfig(fs="soundfs", seq=(2,), index_range=(0, 150)))
        self.assert_invariants(res, m)
        self.assertEqual(m["crashgen.subset_states"], 0)
        self.assertEqual(m["blockdev.replay_calls"], 150)

    def test_subset_mode(self):
        config = CampaignConfig(fs="soundfs", seq=(1,), index_range=(600, 606), subset=True)
        res, m, _ = traced(config)
        self.assert_invariants(res, m)
        self.assertGreater(m["crashgen.subset_states"], 0)

    def test_counts_repeat_run_to_run(self):
        config = CampaignConfig(fs="soundfs", seq=(1,), index_range=(600, 606), subset=True)
        _, first, _ = traced(config)
        _, second, _ = traced(config)
        self.assertEqual({k: first[k] for k in COUNTS}, {k: second[k] for k in COUNTS})

    def test_worker_spans_reach_the_trace(self):
        config = CampaignConfig(fs="soundfs", seq=(2,), index_range=(0, 120), workers=2)
        res, m, spans = traced(config)
        self.assert_invariants(res, m)
        self.assertGreater(m["trace.worker_spans"], 0)
        self.assertEqual(sum(1 for s in spans if s[3] == "cli.run_partition"), 2)
        self.assertEqual(len({s[1] for s in spans}), len(spans))

    def test_tracing_keeps_group_hash(self):
        for config in (
            CampaignConfig(fs="bugfs-b1", seq=(1,), ops=("creat", "link")),
            CampaignConfig(
                fs="bugfs-b6", seq=(2,), ops=("unlink", "creat"), files=("foo", "bar"), dirs=()
            ),
        ):
            plain = cli.run_campaign(config, quiet=True)
            res, m, spans = traced(config)
            self.assertTrue(plain.new_groups)
            self.assertEqual(res.group_hash, plain.group_hash)
            self.assert_invariants(res, m)
            self.assertEqual(
                sum(1 for s in spans if s[3] == "fstarget.fsck"), m["fstarget.unmountable"]
            )

    def test_uninstall_restores_every_name(self):
        before = (cli.run_campaign, cli.run_workload, harness.replay, SoundFs.__dict__["mount"])
        with tracing.Tracer():
            self.assertIsNot(cli.run_campaign, before[0])
        after = (cli.run_campaign, cli.run_workload, harness.replay, SoundFs.__dict__["mount"])
        self.assertEqual(before, after)


class SelfTime(unittest.TestCase):
    def test_parallel_children_count_once(self):
        owner, worker_a, worker_b = 1, 2, 3
        spans = [
            (-1, 1, 0, "cli.run_tier", 0.0, 10.0, owner, None),
            (-1, 2, 1, "cli.run_partition", 1.0, 7.0, worker_a, None),
            (-1, 3, 1, "cli.run_partition", 2.0, 9.0, worker_b, None),
            (0, 4, 2, "harness.run_workload", 1.0, 3.0, worker_a, None),
        ]
        own = tracing.self_times(spans)
        self.assertAlmostEqual(own[1], 2.0)  # 10 s minus the union [1, 9]
        self.assertAlmostEqual(own[2], 4.0)
        self.assertAlmostEqual(own[4], 2.0)


if __name__ == "__main__":
    unittest.main()
