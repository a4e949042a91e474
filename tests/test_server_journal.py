"""Restart semantics: the journal replays warm state exactly.

The battery simulates a server killed mid-queue by writing journals the
way a dying process would leave them — complete terminal records,
submit records with no matching end, a half-written trailing line — and
asserts a second life re-reports terminal jobs byte-identically,
re-admits or marks orphans, seeds only epoch-version-exact cache
entries, and never re-queries the hidden database for replayed results.
"""

import json
import os
import threading

import pytest

from repro.api import (
    DatasetSpec,
    Estimation,
    EstimationSpec,
    RegimeSpec,
    TargetSpec,
)
from repro.server import FRESH_VERSION, Journal, OpError, ServiceProtocol
from repro.service import EstimationService


def make_spec(seed=0, rounds=4, m=400, k=24, dataset_seed=3):
    return EstimationSpec(
        target=TargetSpec(
            dataset=DatasetSpec(name="iid", m=m, seed=dataset_seed), k=k
        ),
        regime=RegimeSpec(rounds=rounds, seed=seed),
    )


def canonical(record):
    return json.dumps(record, sort_keys=True, allow_nan=False) + "\n"


def submit_record(job_id, spec, tenant="default", stream=False):
    return canonical({
        "kind": "submit", "job": job_id, "tenant": tenant,
        "stream": stream, "spec": spec.to_dict(),
    })


#: Orphan ids far above anything the in-process id counter
#: reaches during the suite (ids are global, tests share the counter).
ORPHAN_PLAIN = 10_097
ORPHAN_STREAM = 10_098


@pytest.fixture()
def journal_path(tmp_path):
    return str(tmp_path / "server.journal")


class TestJournalParsing:
    def test_missing_file_is_empty_state(self, journal_path):
        state = Journal.load(journal_path)
        assert state.terminal == {} and state.orphans == []
        assert state.cache_entries == [] and state.max_job_id == 0

    def test_truncated_and_garbage_lines_are_skipped(self, journal_path):
        with open(journal_path, "w") as fh:
            fh.write("not json at all\n")
            fh.write(canonical({"kind": "wat"}))
            fh.write(canonical({"kind": "submit"}))  # no job id
            fh.write(submit_record(4, make_spec()))
            fh.write('{"kind": "submit", "job": 5, "ten')  # the kill
        state = Journal.load(journal_path)
        assert state.corrupt_lines == 4
        assert [o["job"] for o in state.orphans] == [4]
        assert state.max_job_id == 4

    def test_cache_filtering_is_epoch_version_exact(self, journal_path):
        with open(journal_path, "w") as fh:
            fh.write(canonical({
                "kind": "cache", "token": "dataset:iid:400:3",
                "version": FRESH_VERSION, "spec": "{}", "report": "{}",
            }))
            fh.write(canonical({
                "kind": "cache", "token": "dataset:iid:400:3",
                "version": FRESH_VERSION + 2, "spec": '{"x": 1}',
                "report": "{}",
            }))
            fh.write(canonical({
                "kind": "cache", "token": "injected:deadbeef",
                "version": FRESH_VERSION, "spec": "{}", "report": "{}",
            }))
        state = Journal.load(journal_path)
        assert len(state.cache_entries) == 1
        assert state.cache_entries[0][2] == FRESH_VERSION
        assert state.dropped_cache_stale == 1
        assert state.dropped_cache_injected == 1

    def test_last_cache_write_wins(self, journal_path):
        with open(journal_path, "w") as fh:
            for payload in ('{"v": "old"}', '{"v": "new"}'):
                fh.write(canonical({
                    "kind": "cache", "token": "dataset:t", "version": 0,
                    "spec": "{}", "report": payload,
                }))
        state = Journal.load(journal_path)
        assert len(state.cache_entries) == 1
        assert state.cache_entries[0][3] == '{"v": "new"}'

    def test_open_compacts_to_live_state(self, journal_path):
        spec = make_spec()
        with open(journal_path, "w") as fh:
            fh.write(submit_record(1, spec))
            fh.write(canonical({
                "kind": "end", "job": 1, "mode": "static",
                "tenant": "default", "status": "done", "state": "done",
                "cached": False, "report": {"fake": True},
            }))
            fh.write(submit_record(2, spec, stream=True))  # orphan: dropped
            fh.write("garbage that the kill left behind")
        journal, state = Journal.open(journal_path)
        journal.close()
        lines = [json.loads(line) for line in open(journal_path)]
        # Compacted: exactly the terminal record survives on disk.
        assert [line["kind"] for line in lines] == ["end"]
        assert lines[0]["job"] == 1
        # ...while the parsed state still names the orphan for replay.
        assert [o["job"] for o in state.orphans] == [2]

    def test_appends_survive_a_reload(self, journal_path):
        journal, _ = Journal.open(journal_path)
        journal.record_cache("dataset:t", '{"s": 1}', 0, '{"r": 1}')
        journal.close()
        state = Journal.load(journal_path)
        assert state.cache_entries == [("dataset:t", '{"s": 1}', 0, '{"r": 1}')]

    def test_closed_journal_drops_writes(self, journal_path):
        journal, _ = Journal.open(journal_path)
        journal.close()
        journal.record_cache("dataset:t", "{}", 0, "{}")  # no raise
        assert Journal.load(journal_path).cache_entries == []


class TestRestartSemantics:
    def run_first_life(self, journal_path, spec):
        """Life 1: one job to terminal, then die with a queued orphan."""
        journal, state = Journal.open(journal_path)
        with EstimationService(workers=1) as service:
            protocol = ServiceProtocol(service, journal=journal)
            out = protocol.dispatch(
                {"op": "submit", "spec": spec.to_dict()}, "r1"
            )
            out.job.wait()
            report_json = out.job.report.to_json()
        # The kill: a submit with no end (queued when the process died),
        # plus a half-written line.  journal.close() never runs.
        with open(journal_path, "a") as fh:
            fh.write(submit_record(ORPHAN_PLAIN, spec))
            fh.write(submit_record(ORPHAN_STREAM, spec, stream=True))
            fh.write('{"kind": "end", "job": 10097, "sta')
        return out.job.id, report_json

    def second_life(self, journal_path, resubmit_orphans=True):
        journal, state = Journal.open(journal_path)
        service = EstimationService(workers=1)
        protocol = ServiceProtocol(service, journal=journal)
        stats = protocol.restore(state, resubmit_orphans=resubmit_orphans)
        return journal, service, protocol, stats

    def test_terminal_jobs_re_report_byte_identically(self, journal_path):
        spec = make_spec(seed=11)
        done_id, report_json = self.run_first_life(journal_path, spec)
        journal, service, protocol, stats = self.second_life(journal_path)
        try:
            assert stats["terminal_jobs"] == 1
            res = protocol.dispatch({"op": "result", "job": done_id}, "x")
            assert res.job is None
            assert res.response["status"] == "done"
            assert res.response["replayed"] is True
            assert (
                json.dumps(res.response["report"], sort_keys=True)
                == json.dumps(json.loads(report_json), sort_keys=True)
            )
        finally:
            service.close()
            journal.close()

    def test_orphans_readmit_and_serve_from_warm_cache(
        self, journal_path, monkeypatch
    ):
        """The acceptance criterion: a replayed result costs zero new
        hidden-database queries — the warm cache answers it."""
        spec = make_spec(seed=12)
        self.run_first_life(journal_path, spec)
        # The re-admitted orphan is a cache hit and could retire before
        # the result op below is dispatched; hold the worker before it
        # resolves the job's target until that op has seen the live job.
        result_dispatched = threading.Event()
        original_resolve = EstimationService._resolve_target

        def gated_resolve(service, job):
            result_dispatched.wait(60)
            return original_resolve(service, job)

        monkeypatch.setattr(
            EstimationService, "_resolve_target", gated_resolve
        )
        journal, service, protocol, stats = self.second_life(journal_path)
        try:
            assert stats["orphans_resubmitted"] == 1  # the non-streaming one
            assert stats["orphans_marked"] == 1       # the streaming one
            assert stats["cache_entries"] == 1
            res = protocol.dispatch({"op": "result", "job": ORPHAN_PLAIN}, "x")
            result_dispatched.set()
            assert res.job is not None  # re-admitted under an alias
            res.job.wait()
            assert res.job.cached is True  # zero new queries: cache hit
            assert service.cache.report()["hits"] == 1
            assert service.cache.report()["misses"] == 0
            # The streaming orphan's snapshots are unrecoverable.
            marked = protocol.dispatch({"op": "result", "job": ORPHAN_STREAM}, "y")
            assert marked.response["status"] == "orphaned"
        finally:
            result_dispatched.set()
            service.close()
            journal.close()

    def test_orphan_resubmission_can_be_disabled(self, journal_path):
        spec = make_spec(seed=13)
        self.run_first_life(journal_path, spec)
        journal, service, protocol, stats = self.second_life(
            journal_path, resubmit_orphans=False
        )
        try:
            assert stats["orphans_resubmitted"] == 0
            assert stats["orphans_marked"] == 2
            res = protocol.dispatch({"op": "result", "job": ORPHAN_PLAIN}, "x")
            assert res.response["status"] == "orphaned"
        finally:
            service.close()
            journal.close()

    def _restore_one_orphan(self, journal_path, spec_dict):
        """Restore a journal holding one orphan whose spec is *spec_dict*."""
        with open(journal_path, "w") as fh:
            fh.write(canonical({
                "kind": "submit", "job": ORPHAN_PLAIN, "tenant": "default",
                "stream": False, "spec": spec_dict,
            }))
        journal, service, protocol, stats = self.second_life(journal_path)
        try:
            res = protocol.dispatch({"op": "result", "job": ORPHAN_PLAIN}, "x")
        finally:
            service.close()
            journal.close()
        return stats, res.response

    def test_orphan_with_unknown_spec_key_is_marked(self, journal_path):
        """A spec this version cannot parse must not stop the restart."""
        spec_dict = make_spec(seed=15).to_dict()
        spec_dict["method"] = {"retired_knob": None}
        stats, response = self._restore_one_orphan(journal_path, spec_dict)
        assert stats["orphans_marked"] == 1
        assert stats["orphans_resubmitted"] == 0
        assert response["status"] == response["state"] == "orphaned"
        assert response["job"] == ORPHAN_PLAIN
        assert "no longer parses" in response["error"]
        assert "retired_knob" in response["error"]

    def test_orphan_journaled_by_1_6_is_marked(self, journal_path):
        """1.6 journals carry the spec keys this version dropped."""
        spec_dict = make_spec(seed=16).to_dict()
        spec_dict["method"].update(batch_probes=None, cohort=None)
        spec_dict["target"]["backend"] = "scan"
        stats, response = self._restore_one_orphan(journal_path, spec_dict)
        assert stats["orphans_marked"] == 1
        assert stats["orphans_resubmitted"] == 0
        assert response["status"] == "orphaned"
        assert "no longer parses" in response["error"]

    def test_fresh_ids_never_collide_with_replayed_ids(self, journal_path):
        spec = make_spec(seed=14)
        self.run_first_life(journal_path, spec)
        journal, service, protocol, stats = self.second_life(journal_path)
        try:
            out = protocol.dispatch(
                {"op": "submit", "spec": make_spec(seed=15).to_dict()}, "n"
            )
            assert out.job.id > ORPHAN_STREAM  # past every journaled id
            out.job.wait()
        finally:
            service.close()
            journal.close()

    def test_stale_epoch_cache_entries_are_dropped_on_replay(
        self, journal_path
    ):
        spec = make_spec(seed=16)
        journal, state = Journal.open(journal_path)
        with EstimationService(workers=1) as service:
            protocol = ServiceProtocol(service, journal=journal)
            out = protocol.dispatch(
                {"op": "submit", "spec": spec.to_dict()}, 1
            )
            out.job.wait()
            # Epoch bump, then a re-run caches at version 1 — that entry
            # must NOT survive a restart (the rebuilt table is pristine).
            protocol.dispatch(
                {"op": "update",
                 "dataset": {"name": "iid", "m": 400, "seed": 3},
                 "deletes": [0]},
                2,
            )
            out2 = protocol.dispatch(
                {"op": "submit", "spec": spec.to_dict()}, 3
            )
            out2.job.wait()
        journal.close()
        journal2, state2 = Journal.open(journal_path)
        journal2.close()
        assert state2.dropped_cache_stale >= 1
        assert all(
            entry[2] == FRESH_VERSION for entry in state2.cache_entries
        )

    def test_replayed_failure_re_reports_as_error(self, journal_path):
        with open(journal_path, "w") as fh:
            fh.write(canonical({
                "kind": "end", "job": 5, "mode": "static",
                "tenant": "default", "status": "error", "state": "failed",
                "error": "boom",
            }))
        journal, service, protocol, stats = self.second_life(journal_path)
        try:
            res = protocol.dispatch({"op": "result", "job": 5}, "x")
            assert res.response["status"] == "error"
            assert res.response["error"] == "boom"
            assert res.response["replayed"] is True
            # Unknown ids still refuse after a replay.
            with pytest.raises(OpError, match="unknown job"):
                protocol.dispatch({"op": "result", "job": 6}, "x")
        finally:
            service.close()
            journal.close()

    def test_second_life_compaction_is_idempotent(self, journal_path):
        spec = make_spec(seed=17)
        self.run_first_life(journal_path, spec)
        journal, service, protocol, stats = self.second_life(journal_path)
        service.close()
        journal.close()
        before = os.path.getsize(journal_path)
        # A third open replays the same state and does not grow the file.
        journal3, state3 = Journal.open(journal_path)
        journal3.close()
        assert os.path.getsize(journal_path) <= before
        assert len(state3.terminal) >= 1
