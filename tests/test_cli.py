"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig06"])
        assert args.figure == "fig06"
        assert args.scale is None
        assert not args.full

    def test_estimate_defaults(self):
        args = build_parser().parse_args(["estimate"])
        assert args.dataset == "yahoo"
        assert args.rounds is None  # resolved to 20 when no other stop
        assert args.query_budget is None
        assert args.target_precision is None
        assert args.workers == 1

    def test_federate_defaults(self):
        args = build_parser().parse_args(["federate"])
        assert args.command == "federate"
        assert args.sources == 3
        assert args.policy == "neyman"
        assert args.budget == 2_000
        assert args.workers == 1

    def test_federate_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["federate", "--policy", "magic"])

    def test_estimate_backend_and_workers_flags(self):
        args = build_parser().parse_args(["estimate", "--workers", "4"])
        assert args.workers == 4
        # One backend serves every table: the CLI takes no backend choice.
        for command in ("estimate", "track", "federate"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--backend", "scan"])

    def test_estimate_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["estimate", "--backend", "nope"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_track_defaults(self):
        args = build_parser().parse_args(["track"])
        assert args.command == "track"
        assert args.policy == "reissue"
        assert args.epochs == 5
        assert args.churn == pytest.approx(0.05)
        assert args.reissue is None  # reissue-only knob, defaulted later
        assert args.workers == 1

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.workers == 2
        assert args.cache_size == 256
        assert args.tenant_budget is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--workers", "8", "--cache-size", "0",
             "--tenant-budget", "5000"]
        )
        assert args.workers == 8
        assert args.cache_size == 0
        assert args.tenant_budget == pytest.approx(5000.0)

    def test_serve_network_flag_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.tcp is None
        assert args.http is False
        assert args.journal is None
        assert args.max_pending == 64
        assert args.idle_timeout == pytest.approx(300.0)

    def test_serve_network_flags(self):
        args = build_parser().parse_args(
            ["serve", "--tcp", "0.0.0.0:9999", "--http",
             "--journal", "/tmp/x.journal", "--max-pending", "4",
             "--idle-timeout", "1.5"]
        )
        assert args.tcp == "0.0.0.0:9999"
        assert args.http is True
        assert args.journal == "/tmp/x.journal"
        assert args.max_pending == 4
        assert args.idle_timeout == pytest.approx(1.5)

    def test_track_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["track", "--policy", "magic"])

    def test_track_invalid_estimator_params_exit_cleanly(self, capsys):
        code = main(["track", "--dataset", "iid", "--m", "200", "--k", "20",
                     "--epochs", "2", "--rounds", "1"])
        assert code == 2
        assert "rounds" in capsys.readouterr().err
        code = main(["track", "--dataset", "iid", "--m", "200", "--k", "20",
                     "--epochs", "2", "--churn", "-0.1"])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_track_rejects_reissue_knobs_with_restart(self, capsys):
        assert main(["track", "--policy", "restart", "--reissue", "4"]) == 2
        assert "reissue" in capsys.readouterr().err
        assert main(["track", "--policy", "restart",
                     "--epoch-budget", "100"]) == 2
        assert "reissue" in capsys.readouterr().err


class TestServeExecution:
    SPEC_LINE = json.dumps({
        "target": {"dataset": {"name": "iid", "m": 400, "seed": 3},
                   "federation": None, "k": 24, "churn": None},
        "aggregate": {"kind": "size", "measure": None, "condition": None},
        "regime": {"rounds": 3, "query_budget": None,
                   "target_precision": None, "seed": 1, "workers": 1},
        "method": {"r": None, "dub": None, "weight_adjustment": None,
                   "policy": None, "pilot_rounds": None,
                   "reissue_per_epoch": None, "epoch_query_budget": None},
        "schema_version": 1,
    })

    def serve(self, lines, argv, monkeypatch, capsys):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["serve", *argv])
        return code, capsys.readouterr()

    def test_rejects_bad_flags(self, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        import io, sys  # noqa: F401 - stdin untouched for flag errors

        assert main(["serve", "--cache-size", "-1"]) == 2
        assert "--cache-size" in capsys.readouterr().err

    def test_malformed_lines_become_error_responses(self, monkeypatch, capsys):
        lines = ["not json", "[1, 2]", '{"op": "wat"}',
                 '{"op": "update"}', self.SPEC_LINE]
        code, captured = self.serve(lines, [], monkeypatch, capsys)
        assert code == 0
        responses = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert [r["status"] for r in responses] == [
            "error", "error", "error", "error", "done",
        ]
        assert "JSON object" in responses[1]["error"]
        assert "unknown request op" in responses[2]["error"]

    def test_tenant_budget_refuses_over_the_wire(self, monkeypatch, capsys):
        # The metrics barrier settles job 1's spend, so line 3 is refused
        # deterministically (admission reads settled spend only).
        lines = [self.SPEC_LINE, json.dumps({"op": "metrics"}),
                 self.SPEC_LINE]
        code, captured = self.serve(
            lines, ["--tenant-budget", "1", "--cache-size", "0"],
            monkeypatch, capsys,
        )
        assert code == 0
        responses = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert responses[0]["status"] == "done"
        ledger = responses[1]["metrics"]["tenants"]["default"]
        assert ledger["spent"] > 1
        assert responses[2]["status"] == "error"
        assert "exhausted" in responses[2]["error"]

    def test_rejects_bad_network_flags(self, capsys):
        assert main(["serve", "--http"]) == 2
        assert "--http requires --tcp" in capsys.readouterr().err
        assert main(["serve", "--tcp", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["serve", "--tcp", "host:notaport"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert main(["serve", "--max-pending", "0"]) == 2
        assert "--max-pending" in capsys.readouterr().err

    def test_cancel_and_result_ops_over_stdio(self, monkeypatch, capsys):
        lines = [
            json.dumps({"op": "submit", "id": "a",
                        "spec": json.loads(self.SPEC_LINE)}),
            json.dumps({"op": "result", "id": "b", "job": 10**9}),
        ]
        code, captured = self.serve(lines, [], monkeypatch, capsys)
        assert code == 0
        responses = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert responses[0]["id"] == "a"
        assert responses[0]["status"] == "done"
        assert responses[0]["state"] == "done"
        assert responses[1]["status"] == "error"
        assert "unknown job" in responses[1]["error"]

    def test_journal_round_trips_across_serve_invocations(
        self, tmp_path, monkeypatch, capsys
    ):
        journal = str(tmp_path / "serve.journal")
        code, captured = self.serve(
            [self.SPEC_LINE], ["--journal", journal], monkeypatch, capsys
        )
        assert code == 0
        first = json.loads(captured.out.strip().splitlines()[0])
        assert first["status"] == "done"
        job_id = first["job"]
        # Second invocation replays the journal: the terminal job is
        # re-reported (replayed) and the warm cache serves a resubmission
        # without re-running the estimation.
        code, captured = self.serve(
            [json.dumps({"op": "result", "id": "r", "job": job_id}),
             self.SPEC_LINE],
            ["--journal", journal], monkeypatch, capsys,
        )
        assert code == 0
        responses = [json.loads(l) for l in captured.out.strip().splitlines()]
        assert responses[0]["status"] == "done"
        assert responses[0]["replayed"] is True
        assert responses[0]["report"] == first["report"]
        assert responses[1]["status"] == "done"
        assert responses[1]["cached"] is True


class TestExecution:
    def test_list_prints_figures(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig06" in out and "fig19" in out and "table_r" in out

    def test_run_unknown_figure(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_run_figure_tiny(self, capsys):
        assert main(["run", "fig18", "--scale", "tiny", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "fig18" in out

    def test_run_figure_json(self, capsys):
        assert main(["run", "fig18", "--scale", "tiny", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["figure_id"] == "fig18"
        assert len(payload["rows"]) == 10

    def test_estimate_command(self, capsys):
        code = main([
            "estimate", "--dataset", "iid", "--m", "1000", "--k", "20",
            "--rounds", "5", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "estimate=" in out and "m=1000" in out

    def test_estimate_parallel_workers(self, capsys):
        code = main([
            "estimate", "--dataset", "iid", "--m", "500", "--k", "20",
            "--rounds", "4", "--seed", "3", "--workers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workers=2" in out and "estimate=" in out

    def test_estimate_query_budget(self, capsys):
        base = ["estimate", "--dataset", "iid", "--m", "500", "--k", "20",
                "--query-budget", "150", "--seed", "3"]
        assert main(base) == 0
        out = capsys.readouterr().out
        assert "stop=" in out
        # Budgets compose with --workers now (leases, not raw counters).
        assert main(base + ["--workers", "2"]) == 0
        assert "stop=budget" in capsys.readouterr().out

    def test_estimate_target_precision(self, capsys):
        code = main([
            "estimate", "--dataset", "iid", "--m", "500", "--k", "20",
            "--target-precision", "0.25", "--seed", "3",
        ])
        assert code == 0
        assert "stop=precision" in capsys.readouterr().out

    def test_estimate_precision_rejects_workers(self, capsys):
        code = main([
            "estimate", "--dataset", "iid", "--m", "500", "--k", "20",
            "--target-precision", "0.25", "--workers", "2",
        ])
        assert code == 2
        assert "--workers" in capsys.readouterr().err

    def test_estimate_invalid_budget_and_precision(self, capsys):
        assert main(["estimate", "--query-budget", "0"]) == 2
        capsys.readouterr()
        assert main(["estimate", "--target-precision", "-1"]) == 2

    def test_federate_command(self, capsys):
        code = main([
            "federate", "--sources", "3", "--m", "250", "--k", "16",
            "--budget", "500", "--policy", "neyman", "--pilot-rounds", "2",
            "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=neyman" in out
        assert out.count("source_0") == 3
        assert "total=" in out and "truth=" in out

    def test_federate_json_and_worker_invariance(self, capsys):
        base = ["federate", "--sources", "2", "--m", "250", "--k", "16",
                "--budget", "400", "--policy", "uniform",
                "--pilot-rounds", "2", "--seed", "7", "--json"]
        assert main(base + ["--workers", "1"]) == 0
        one = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--workers", "3"]) == 0
        many = json.loads(capsys.readouterr().out.strip())
        assert one == many  # worker-count invariance of the whole payload
        assert one["policy"] == "uniform"
        assert len(one["per_source"]) == 2
        assert one["truth"] > 0
        assert one["total_queries"] == sum(
            entry["queries"] for entry in one["per_source"]
        )

    def test_federate_budget_too_small_exits_cleanly(self, capsys):
        code = main([
            "federate", "--sources", "3", "--m", "250", "--budget", "5",
            "--seed", "7",
        ])
        assert code == 2
        assert "pilot" in capsys.readouterr().err

    def test_track_command(self, capsys):
        code = main([
            "track", "--dataset", "iid", "--m", "500", "--k", "25",
            "--epochs", "3", "--churn", "0.1", "--rounds", "8",
            "--reissue", "3", "--seed", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "policy=reissue" in out
        assert out.count("epoch") == 3
        assert "total queries:" in out

    def test_track_json_and_worker_invariance(self, capsys):
        base = ["track", "--dataset", "iid", "--m", "500", "--k", "25",
                "--epochs", "3", "--churn", "0.1", "--rounds", "8",
                "--reissue", "3", "--seed", "2", "--json"]
        assert main(base + ["--workers", "1"]) == 0
        one = json.loads(capsys.readouterr().out.strip())
        assert main(base + ["--workers", "3"]) == 0
        many = json.loads(capsys.readouterr().out.strip())
        assert one == many  # worker-count invariance of the whole payload
        assert one["policy"] == "reissue"
        assert len(one["epochs"]) == 3
        assert one["epochs"][1]["reissued"] == 3

    def test_track_restart_policy(self, capsys):
        code = main([
            "track", "--dataset", "iid", "--m", "400", "--k", "25",
            "--epochs", "2", "--policy", "restart", "--rounds", "6",
            "--seed", "2",
        ])
        assert code == 0
        assert "policy=restart" in capsys.readouterr().out

    def test_tune_command(self, capsys):
        code = main([
            "tune", "--dataset", "iid", "--m", "1000", "--k", "20",
            "--budget", "300", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested r=" in out and "DUB=" in out
