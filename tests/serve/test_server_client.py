"""End-to-end tests of the HTTP scoring service and its client.

The headline test walks the full deployment path required of the serving
subsystem: train on a mini city, package via the CLI, start the server
in-process, score the same city through the client, and verify (a) served
probabilities equal direct ``predict_proba`` output and (b) a repeated
``/score`` request is answered from the fingerprint cache.
"""

from __future__ import annotations

import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import ModelRegistry, ScoringClient, ScoringServer
from repro.serve.client import ScoringServiceError
from repro.serve.server import ScoringService, ServiceError
from repro.serve.wire import graph_from_payload, graph_to_payload


@pytest.fixture(scope="module")
def server(model_registry):
    with ScoringServer(model_registry, quiet=True) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    client = ScoringClient(server.url)
    client.wait_until_ready()
    return client


class TestWireFormat:
    @pytest.mark.parametrize("encoding", ["npz", "json"])
    def test_graph_roundtrip_bit_exact(self, tiny_graph_small_image, encoding):
        payload = graph_to_payload(tiny_graph_small_image, encoding=encoding)
        decoded = graph_from_payload(json.loads(json.dumps(payload)))
        assert decoded.name == tiny_graph_small_image.name
        np.testing.assert_array_equal(decoded.edge_index,
                                      tiny_graph_small_image.edge_index)
        np.testing.assert_array_equal(decoded.x_poi, tiny_graph_small_image.x_poi)
        np.testing.assert_array_equal(decoded.x_img, tiny_graph_small_image.x_img)
        np.testing.assert_array_equal(decoded.labels, tiny_graph_small_image.labels)
        assert decoded.fingerprint() == tiny_graph_small_image.fingerprint()

    def test_edge_pair_layout_accepted(self, tiny_graph_small_image):
        payload = graph_to_payload(tiny_graph_small_image, encoding="json")
        # hand-written clients commonly send [u, v] pairs
        pairs = np.asarray(payload["edge_index"]).T.tolist()
        payload["edge_index"] = pairs
        decoded = graph_from_payload(payload)
        np.testing.assert_array_equal(decoded.edge_index,
                                      tiny_graph_small_image.edge_index)

    def test_ambiguous_edge_layout_rejected(self, tiny_graph_small_image):
        payload = graph_to_payload(tiny_graph_small_image, encoding="json")
        payload["edge_index"] = [[[0, 1]]]  # 3-d: neither layout
        with pytest.raises(ValueError, match="edge_index"):
            graph_from_payload(payload)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ValueError, match="wire version"):
            graph_from_payload({"encoding": "npz"})
        with pytest.raises(ValueError, match="encoding"):
            graph_from_payload({"wire_version": 1, "encoding": "xml"})
        with pytest.raises(ValueError, match="npz_base64"):
            graph_from_payload({"wire_version": 1, "encoding": "npz",
                                "npz_base64": "!!not-base64!!"})

    def test_corrupt_archive_bytes_are_value_errors(self, tiny_graph_small_image):
        import base64

        # valid base64 of bytes that are not an npz archive (numpy reports
        # these as ValueError itself, with allow_pickle safely off)
        with pytest.raises(ValueError):
            graph_from_payload({"wire_version": 1, "encoding": "npz",
                                "npz_base64": base64.b64encode(b"PK-garbage"
                                                               ).decode()})
        # truncated but once-valid archive: zipfile.BadZipFile must be
        # normalised to ValueError so transports can answer 400
        payload = graph_to_payload(tiny_graph_small_image)
        raw = base64.b64decode(payload["npz_base64"])[:100]
        payload["npz_base64"] = base64.b64encode(raw).decode()
        with pytest.raises(ValueError, match="invalid graph archive"):
            graph_from_payload(payload)


class TestEndToEndServing:
    def test_train_package_serve_score(self, tmp_path, tiny_graph_small_image):
        """The full path: CLI package -> in-process server -> client score."""
        from repro.cli import main
        from repro.data import save_graph_npz

        graph = tiny_graph_small_image
        graph_path = save_graph_npz(graph, tmp_path / "mini.npz")
        registry_root = tmp_path / "models"
        assert main(["package", "--graph", str(graph_path), "--epochs", "8",
                     "--registry", str(registry_root), "--name", "mini"]) == 0

        registry = ModelRegistry(registry_root)
        direct = registry.load("mini").detector.predict_proba(graph)

        with ScoringServer(registry, quiet=True) as server:
            client = ScoringClient(server.url)
            client.wait_until_ready()

            first = client.score(graph, "mini")
            np.testing.assert_array_equal(
                np.asarray(first["probabilities"]), direct)
            assert first["cache_hit"] is False

            second = client.score(graph, "mini")
            assert second["cache_hit"] is True
            np.testing.assert_array_equal(
                np.asarray(second["probabilities"]), direct)
            # the engine's cache-hit counter confirms the repeated request
            # was served from the fingerprint cache
            assert second["cache"]["hits"] == 1
            assert second["cache"]["misses"] == 1

    def test_served_probabilities_match_direct(self, client, model_registry,
                                               tiny_graph_small_image,
                                               reference_scores):
        scores = client.score_array(tiny_graph_small_image, "tiny")
        np.testing.assert_array_equal(scores, reference_scores)

    def test_json_encoding_served_identically(self, client,
                                              tiny_graph_small_image,
                                              reference_scores):
        scores = client.score_array(tiny_graph_small_image, "tiny",
                                    encoding="json")
        np.testing.assert_array_equal(scores, reference_scores)

    def test_regions_threshold_and_shortlist(self, client,
                                             tiny_graph_small_image,
                                             reference_scores):
        response = client.score(tiny_graph_small_image, "tiny",
                                regions=[3, 1, 4], top_percent=10.0,
                                threshold=0.5)
        np.testing.assert_array_equal(np.asarray(response["probabilities"]),
                                      reference_scores[[3, 1, 4]])
        assert response["predictions"] == [
            int(p >= 0.5) for p in reference_scores[[3, 1, 4]]]
        assert response["selected"]

    def test_healthz_and_models(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["models_available"] >= 1
        models = client.models()["models"]
        assert any(entry["name"] == "tiny" for entry in models)

    def test_unknown_model_is_404(self, client, tiny_graph_small_image):
        with pytest.raises(ScoringServiceError) as excinfo:
            client.score(tiny_graph_small_image, "ghost")
        assert excinfo.value.status == 404

    def test_malformed_model_name_is_400(self, client, tiny_graph_small_image):
        with pytest.raises(ScoringServiceError) as excinfo:
            client.score(tiny_graph_small_image, "tiny/")
        assert excinfo.value.status == 400
        with pytest.raises(ScoringServiceError) as excinfo:
            client.score(tiny_graph_small_image, "../../escape")
        assert excinfo.value.status == 400

    def test_unknown_endpoint_is_404(self, server):
        request = urllib.request.Request(server.url + "/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404

    def test_invalid_json_body_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/score", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestTransport:
    def test_accepted_sockets_disable_nagle(self, model_registry,
                                            tiny_graph_small_image,
                                            monkeypatch):
        """A response leaves as two sends (headers, then body); with
        Nagle's algorithm on, the body would wait for the client's delayed
        ACK, so every accepted socket must carry TCP_NODELAY."""
        from repro.serve.server import _Handler

        nodelay = []
        setup = _Handler.setup

        def recording_setup(handler):
            setup(handler)
            nodelay.append(handler.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", recording_setup)
        with ScoringServer(model_registry, quiet=True) as running:
            client = ScoringClient(running.url)
            try:
                client.score(tiny_graph_small_image, "tiny")
            finally:
                client.close()
        assert nodelay and all(nodelay)


class TestScoringServiceUnit:
    """Transport-free endpoint logic."""

    def test_score_validates_request_shape(self, model_registry):
        service = ScoringService(model_registry)
        with pytest.raises(ServiceError) as excinfo:
            service.score({"graph": {}})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            service.score({"model": "tiny"})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("field,value", [
        ("top_percent", "lots"), ("threshold", "high"), ("regions", 3),
    ])
    def test_wrong_typed_optional_fields_are_400(self, model_registry,
                                                 tiny_graph_small_image,
                                                 field, value):
        service = ScoringService(model_registry)
        request = {"model": "tiny",
                   "graph": graph_to_payload(tiny_graph_small_image),
                   field: value}
        with pytest.raises(ServiceError) as excinfo:
            service.score(request)
        assert excinfo.value.status == 400

    def test_engines_are_reused_across_requests(self, model_registry,
                                                tiny_graph_small_image):
        service = ScoringService(model_registry)
        payload = {"model": "tiny",
                   "graph": graph_to_payload(tiny_graph_small_image)}
        service.score(payload)
        first_engine = service.engine_for("tiny")
        service.score(payload)
        assert service.engine_for("tiny") is first_engine
        assert service.requests_served == 2
        assert first_engine.cache_stats.hits == 1


class TestModelResolution:
    """The fleet health-check path: clean resolution errors, model_info."""

    def test_unknown_model_404_payload_is_not_a_keyerror_repr(
            self, model_registry):
        """Regression: ``str(KeyError(msg))`` is the *repr* of the message,
        so the 404 payload used to arrive wrapped in stray quotes."""
        service = ScoringService(model_registry)
        with pytest.raises(ServiceError) as excinfo:
            service.engine_for("ghost")
        assert excinfo.value.status == 404
        message = str(excinfo.value)
        assert message.startswith("model 'ghost' is not in the registry")
        assert not message.startswith("'")
        assert not message.startswith('"')

    def test_unknown_version_404_is_clean_too(self, model_registry):
        service = ScoringService(model_registry)
        with pytest.raises(ServiceError) as excinfo:
            service.model_info("tiny", "999")
        assert excinfo.value.status == 404
        message = str(excinfo.value)
        assert message.startswith("model 'tiny' has no version")
        assert not message.startswith("'")

    def test_clean_404_over_http(self, client):
        with pytest.raises(ScoringServiceError) as excinfo:
            client.model_info("ghost")
        assert excinfo.value.status == 404
        detail = str(excinfo.value).split("404: ", 1)[1]
        assert detail.startswith("model 'ghost' is not in the registry")

    def test_model_info_resolves_without_loading(self, model_registry):
        service = ScoringService(model_registry)
        info = service.model_info("tiny")
        assert info["model"] == "tiny"
        assert info["version"] == "1"
        assert info["loaded"] is False          # resolution, not a load
        service.engine_for("tiny")
        info = service.model_info("tiny")
        assert info["loaded"] is True
        assert "engine" in info

    def test_model_info_over_http_with_version_query(self, client):
        info = client.model_info("tiny", version="1")
        assert info["model"] == "tiny"
        assert info["version"] == "1"
        assert "description" in info

    def test_malformed_model_name_is_400(self, client):
        with pytest.raises(ScoringServiceError) as excinfo:
            client.model_info("../../escape")
        assert excinfo.value.status == 400


class TestStreamScoreAndEvict:
    """The fleet shard hot path: /score by stream name, /evict."""

    @pytest.fixture()
    def open_stream(self, client, tiny_graph_small_image):
        name = "hotpath"
        client.open_stream(name, tiny_graph_small_image, model="tiny")
        return name

    def test_score_stream_matches_graph_upload(self, client, open_stream,
                                               tiny_graph_small_image,
                                               reference_scores):
        payload = client.score_stream(open_stream)
        np.testing.assert_array_equal(
            np.asarray(payload["probabilities"], dtype=np.float64),
            reference_scores)
        assert payload["stream"] == open_stream
        assert payload["stream_version"] == 0
        assert payload["num_regions"] == tiny_graph_small_image.num_nodes

    def test_score_stream_supports_regions_and_threshold(self, client,
                                                         open_stream,
                                                         reference_scores):
        payload = client.score_stream(open_stream, regions=[0, 3, 5],
                                      threshold=0.5)
        np.testing.assert_array_equal(
            np.asarray(payload["probabilities"], dtype=np.float64),
            reference_scores[[0, 3, 5]])
        assert payload["predictions"] == [
            int(p >= 0.5) for p in reference_scores[[0, 3, 5]]]

    def test_evict_stream_forces_cold_recompute(self, client, open_stream,
                                                tiny_graph_small_image):
        client.score_stream(open_stream)
        payload = client.evict_stream(open_stream)
        assert payload["evicted"] == tiny_graph_small_image.fingerprint()
        assert payload["stream"] == open_stream
        cold = client.score_stream(open_stream)
        assert cold["cache_hit"] is False

    def test_stream_and_graph_together_is_400(self, client, open_stream,
                                              tiny_graph_small_image):
        service_error = None
        request = urllib.request.Request(
            client.base_url + "/score",
            data=json.dumps({"stream": open_stream, "model": "tiny",
                             "graph": graph_to_payload(
                                 tiny_graph_small_image)}).encode(),
            headers={"Content-Type": "application/json"})
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as error:
            service_error = error
        assert service_error is not None and service_error.code == 400

    def test_unknown_stream_is_404(self, client):
        with pytest.raises(ScoringServiceError) as excinfo:
            client.score_stream("never-opened")
        assert excinfo.value.status == 404
        with pytest.raises(ScoringServiceError) as excinfo:
            client.evict_stream("never-opened")
        assert excinfo.value.status == 404

    def test_evict_requires_a_stream_field(self, model_registry):
        service = ScoringService(model_registry)
        with pytest.raises(ServiceError) as excinfo:
            service.evict({})
        assert excinfo.value.status == 400


class TestServiceDurability:
    """The serve-layer durability satellite: WAL-backed streams plus
    operator-visible status in /healthz and /stats."""

    def test_wal_backed_service_logs_and_reports(self, model_registry,
                                                 tiny_graph_small_image,
                                                 tmp_path):
        from repro.durable import DurabilityLog
        from repro.obs import MetricsRegistry
        from repro.serve.wire import delta_to_payload
        from repro.synth import EvolutionConfig, generate_evolution

        service = ScoringService(model_registry, wal_dir=tmp_path / "wal",
                                 checkpoint_interval_s=3600.0)
        try:
            for payload in (service.healthz(), service.stats()):
                durability = payload["durability"]
                assert durability["wal_enabled"] is True
                assert durability["checkpointer"]["running"] is True
                assert durability["last_checkpoint_age_seconds"] is None

            delta = generate_evolution(tiny_graph_small_image,
                                       EvolutionConfig(steps=1, seed=2))[0]
            service.update({"stream": "durable-city", "model": "tiny",
                            "graph": graph_to_payload(
                                tiny_graph_small_image)})
            service.update({"stream": "durable-city",
                            "delta": delta_to_payload(delta)})
            status = service.durability_status()
            assert status["streams"] == 1
            assert status["log_bytes"] > 0
            # the opening snapshot counts as a checkpoint
            assert status["last_checkpoint_age_seconds"] >= 0.0

            report = service.checkpoint(force=True)
            assert report["durable-city"]["seq"] == 1
            recovered = DurabilityLog(
                tmp_path / "wal",
                metrics=MetricsRegistry()).recover("durable-city")
            assert recovered.version == 1
            assert recovered.records_replayed == 0
        finally:
            service.close()
        assert service.durability_status()["checkpointer"]["running"] is False

    def test_service_without_wal_reports_disabled(self, model_registry):
        service = ScoringService(model_registry)
        assert service.healthz()["durability"] == {"wal_enabled": False}
        assert service.stats()["durability"] == {"wal_enabled": False}
        assert service.checkpoint(force=True) == {}
