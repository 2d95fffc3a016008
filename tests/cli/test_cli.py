"""End-to-end tests of the ``repro-uv`` command-line interface.

Every test calls :func:`repro.cli.main` in-process with the ``tiny`` preset
(256 regions) and reduced epochs so the whole module stays fast.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def packaged_registry(tmp_path_factory):
    """One packaged ``tiny`` model for the tests that only need something
    to serve, stream or replay (packaging itself is tested on its own)."""
    root = tmp_path_factory.mktemp("models")
    assert main(["package", "--preset", "tiny", "--epochs", "8",
                 "--registry", str(root), "--name", "tiny"]) == 0
    return root


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        subparsers = next(action for action in parser._actions
                          if isinstance(action, type(parser._subparsers._group_actions[0])))
        assert set(subparsers.choices) == {"generate-city", "build-graph", "show-city",
                                           "train", "evaluate", "reproduce", "registry",
                                           "package", "serve", "score", "stream",
                                           "workload", "fleet", "experiment", "load",
                                           "rollout"}


class TestGenerateAndBuild:
    def test_generate_city_writes_directory(self, tmp_path, capsys):
        exit_code = main(["generate-city", "--preset", "tiny", "--seed", "3",
                          "--output", str(tmp_path / "city")])
        assert exit_code == 0
        assert (tmp_path / "city" / "config.json").exists()
        assert "true UV regions" in capsys.readouterr().out

    def test_build_graph_from_preset(self, tmp_path, capsys):
        exit_code = main(["build-graph", "--preset", "tiny",
                          "--output", str(tmp_path / "graph.npz")])
        assert exit_code == 0
        assert (tmp_path / "graph.npz").exists()
        assert "undirected edges" in capsys.readouterr().out

    def test_build_graph_with_ablation_from_saved_city(self, tmp_path, capsys):
        main(["generate-city", "--preset", "tiny", "--output", str(tmp_path / "city")])
        exit_code = main(["build-graph", "--city-dir", str(tmp_path / "city"),
                          "--ablation", "noImage",
                          "--output", str(tmp_path / "graph_noimage.npz")])
        assert exit_code == 0
        assert "image features: 0" in capsys.readouterr().out

    def test_unknown_ablation_is_reported(self, tmp_path, capsys):
        exit_code = main(["build-graph", "--preset", "tiny", "--ablation", "noSuchThing",
                          "--output", str(tmp_path / "graph.npz")])
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_show_city_prints_map_and_stats(self, capsys):
        exit_code = main(["show-city", "--preset", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "latent land use" in out
        assert "regions: 256" in out


class TestTrainAndEvaluate:
    def test_train_mlp_and_export(self, tmp_path, capsys):
        predictions = tmp_path / "predictions.csv"
        geojson = tmp_path / "regions.geojson"
        exit_code = main(["train", "--preset", "tiny", "--method", "MLP",
                          "--epochs", "10", "--predictions", str(predictions),
                          "--geojson", str(geojson)])
        assert exit_code == 0
        with open(predictions) as handle:
            rows = list(csv.DictReader(handle))
        assert rows and "uv_probability" in rows[0]
        with open(geojson) as handle:
            assert json.load(handle)["type"] == "FeatureCollection"
        assert "screening list" in capsys.readouterr().out

    def test_train_on_prebuilt_graph(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.npz"
        main(["build-graph", "--preset", "tiny", "--output", str(graph_path)])
        exit_code = main(["train", "--graph", str(graph_path), "--method", "MLP",
                          "--epochs", "5"])
        assert exit_code == 0

    def test_evaluate_prints_table(self, capsys):
        exit_code = main(["evaluate", "--preset", "tiny", "--methods", "MLP",
                          "--folds", "2", "--epochs", "10"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "AUC" in out and "MLP" in out

    def test_evaluate_markdown_output(self, capsys):
        exit_code = main(["evaluate", "--preset", "tiny", "--methods", "MLP",
                          "--folds", "2", "--epochs", "5", "--markdown"])
        assert exit_code == 0
        assert "| City | Method |" in capsys.readouterr().out.replace("  ", " ")

    def test_unknown_method_is_reported(self, capsys):
        exit_code = main(["evaluate", "--preset", "tiny", "--methods", "NotAMethod"])
        assert exit_code == 2
        assert "unknown method" in capsys.readouterr().err


class TestPackageServeScore:
    def test_package_into_registry_and_score_through_service(self, tmp_path, capsys):
        from repro.serve import ModelRegistry, ScoringServer

        registry_root = tmp_path / "models"
        exit_code = main(["package", "--preset", "tiny", "--epochs", "8",
                          "--registry", str(registry_root), "--name", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "packaged tiny:1" in out

        server = ScoringServer(ModelRegistry(registry_root), quiet=True).start()
        try:
            predictions = tmp_path / "scores.csv"
            exit_code = main(["score", "--url", server.url, "--preset", "tiny",
                              "--model", "tiny", "--top-percent", "5",
                              "--predictions", str(predictions)])
            assert exit_code == 0
            out = capsys.readouterr().out
            assert "cold" in out and "shortlist" in out
            with open(predictions) as handle:
                rows = list(csv.DictReader(handle))
            assert rows and "uv_probability" in rows[0]

            exit_code = main(["score", "--url", server.url, "--preset", "tiny",
                              "--model", "tiny"])
            assert exit_code == 0
            assert "cache hit" in capsys.readouterr().out
        finally:
            server.stop()

    def test_package_to_output_directory(self, tmp_path, capsys):
        bundle_dir = tmp_path / "bundle"
        exit_code = main(["package", "--preset", "tiny", "--epochs", "8",
                          "--output", str(bundle_dir), "--version", "7"])
        assert exit_code == 0
        assert (bundle_dir / "bundle.json").exists()
        assert "tiny:7" in capsys.readouterr().out

    def test_package_rejects_non_cmsf_method(self, capsys):
        exit_code = main(["package", "--preset", "tiny", "--method", "MLP",
                          "--output", "/tmp/never-written"])
        assert exit_code == 2
        assert "only CMSF variants" in capsys.readouterr().err

    def test_score_unknown_model_is_reported(self, packaged_registry, capsys):
        from repro.serve import ModelRegistry, ScoringServer

        server = ScoringServer(ModelRegistry(packaged_registry),
                               quiet=True).start()
        try:
            exit_code = main(["score", "--url", server.url, "--preset", "tiny",
                              "--model", "missing"])
        finally:
            server.stop()
        assert exit_code == 3
        assert "404" in capsys.readouterr().err

    def test_serve_refuses_empty_registry(self, tmp_path, capsys):
        exit_code = main(["serve", "--registry", str(tmp_path / "none")])
        assert exit_code == 2
        assert "empty" in capsys.readouterr().err

    def test_serve_reports_busy_port(self, packaged_registry, capsys):
        import socket

        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            exit_code = main(["serve", "--registry", str(packaged_registry),
                              "--port", str(port)])
        assert exit_code == 2
        assert "cannot bind" in capsys.readouterr().err

    def test_package_default_keeps_preset_city_seed(self, tmp_path, capsys):
        from repro.serve import read_manifest
        from repro.synth import generate_city, get_preset
        from repro.urg import build_urg

        bundle_dir = tmp_path / "bundle"
        assert main(["package", "--preset", "tiny", "--epochs", "8",
                     "--output", str(bundle_dir)]) == 0
        manifest = read_manifest(bundle_dir)
        canonical = build_urg(generate_city(get_preset("tiny")))
        assert manifest.graph["fingerprint"] == canonical.fingerprint()


class TestStream:
    def test_stream_local_registry_mode(self, packaged_registry, tmp_path, capsys):
        report_path = tmp_path / "drift.json"
        exit_code = main(["stream", "--preset", "tiny",
                          "--registry", str(packaged_registry),
                          "--model", "tiny", "--steps", "4",
                          "--scenarios", "poi_churn,road_rewiring",
                          "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plan reused" in out
        assert "rank-ρ" in out
        report = json.loads(report_path.read_text())
        assert report["num_steps"] == 4
        assert report["stats"]["plan_reuses"] == 2
        assert report["stats"]["plan_rebuilds"] == 2
        assert [step["kind"] for step in report["steps"]] == \
            ["poi_churn", "road_rewiring", "poi_churn", "road_rewiring"]

    def test_stream_against_running_service(self, packaged_registry, capsys):
        from repro.serve import ModelRegistry, ScoringServer

        server = ScoringServer(ModelRegistry(packaged_registry), quiet=True).start()
        try:
            exit_code = main(["stream", "--preset", "tiny", "--url", server.url,
                              "--model", "tiny", "--steps", "2",
                              "--scenarios", "imagery_refresh"])
        finally:
            server.stop()
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "plan reused on 2/2 updates" in out
        assert "imagery_refresh" in out

    def test_stream_incremental_with_stats(self, packaged_registry, capsys):
        exit_code = main(["stream", "--preset", "tiny",
                          "--registry", str(packaged_registry),
                          "--model", "tiny", "--steps", "5",
                          "--scenarios", "poi_churn,imagery_refresh",
                          "--incremental", "always", "--stats"])
        assert exit_code == 0
        out = capsys.readouterr().out
        # the warm initial score primes the activation cache, so every
        # update takes the incremental path (denominator = initial score
        # + 5 updates)
        assert "incremental rescore on 5/6 scores" in out
        assert "plan cache:" in out and "builds=" in out
        assert "incremental_rescores=5" in out
        assert "verify_failures=0" in out

    def test_stream_incremental_against_service(self, packaged_registry,
                                                capsys):
        from repro.serve import ModelRegistry, ScoringServer

        server = ScoringServer(ModelRegistry(packaged_registry), quiet=True).start()
        try:
            exit_code = main(["stream", "--preset", "tiny", "--url", server.url,
                              "--model", "tiny", "--steps", "3",
                              "--scenarios", "poi_churn",
                              "--incremental", "always", "--stats"])
        finally:
            server.stop()
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "incremental rescore on 3/3" in out
        assert "plan cache:" in out

    def test_stream_unknown_scenario_is_reported(self, packaged_registry, capsys):
        exit_code = main(["stream", "--preset", "tiny",
                          "--registry", str(packaged_registry),
                          "--model", "tiny", "--scenarios", "earthquake"])
        assert exit_code == 2
        assert "unknown scenarios" in capsys.readouterr().err


class TestRegistry:
    def test_registry_materialize_and_list(self, tmp_path, capsys):
        exit_code = main(["registry", "--root", str(tmp_path / "datasets"),
                          "--materialize", "tiny"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "tiny" in out
        assert Path(tmp_path / "datasets" / "manifest.json").exists()

    def test_registry_empty_listing(self, tmp_path, capsys):
        exit_code = main(["registry", "--root", str(tmp_path / "empty")])
        assert exit_code == 0
        assert "empty" in capsys.readouterr().out


class TestWorkloadFleet:
    @pytest.fixture(scope="class")
    def recorded_trace(self, tmp_path_factory, capsys=None):
        path = tmp_path_factory.mktemp("traces") / "trace.npz"
        assert main(["workload", "--preset", "tiny", "--cities", "2",
                     "--ops", "12", "--output", str(path)]) == 0
        return path

    def test_workload_records_a_loadable_trace(self, recorded_trace, capsys):
        from repro.bench import load_trace
        trace = load_trace(recorded_trace)
        assert len(trace) == 12
        assert len(trace.cities) == 2

    def test_fleet_replays_trace_and_verifies_oracle(self, packaged_registry,
                                                     recorded_trace, tmp_path,
                                                     capsys):
        report_path = tmp_path / "fleet.json"
        exit_code = main(["fleet", "--registry", str(packaged_registry),
                          "--model", "tiny", "--shards", "2",
                          "--trace", str(recorded_trace),
                          "--verify-single", "--json", str(report_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bit-identical to single-engine oracle: yes" in out
        report = json.loads(report_path.read_text())
        assert report["replay"]["ops"] == 12
        assert report["stats"]["fleet"]["no_replica_errors"] == 0

    def test_fleet_chaos_demo_fails_over(self, packaged_registry,
                                         recorded_trace, capsys):
        exit_code = main(["fleet", "--registry", str(packaged_registry),
                          "--model", "tiny", "--shards", "3",
                          "--trace", str(recorded_trace),
                          "--kill-shard", "0", "--kill-after", "2",
                          "--verify-single"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "bit-identical to single-engine oracle: yes" in out
        # the killed shard shows up in the printed stats
        assert "DOWN" in out

    def test_fleet_ad_hoc_workload_without_trace(self, packaged_registry,
                                                 capsys):
        exit_code = main(["fleet", "--registry", str(packaged_registry),
                          "--model", "tiny", "--preset", "tiny",
                          "--shards", "2", "--ops", "8"])
        assert exit_code == 0
        assert "completed 8/8 ops" in capsys.readouterr().out

    def test_fleet_kill_without_replication_is_reported(
            self, packaged_registry, recorded_trace, capsys):
        exit_code = main(["fleet", "--registry", str(packaged_registry),
                          "--model", "tiny", "--shards", "2",
                          "--replication", "1",
                          "--trace", str(recorded_trace),
                          "--kill-shard", "0"])
        assert exit_code == 2
        assert "--replication >= 2" in capsys.readouterr().err

    def test_workload_rejects_bad_mix(self, capsys):
        exit_code = main(["workload", "--preset", "tiny", "--ops", "4",
                          "--score-weight", "0", "--update-weight", "0",
                          "--evict-weight", "0", "--output", "/tmp/x.npz"])
        assert exit_code == 2
        assert "weights" in capsys.readouterr().err
