"""The wire layer: endpoints, status-code mapping, client behaviour."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServiceError
from repro.service import QuantileService, ServiceClient, ServiceConfig, make_server


@pytest.fixture
def served(rng):
    """A live server (port 0 → free port) plus a matching client."""
    config = ServiceConfig(num_shards=2, run_size=1_000, sample_size=50)
    service = QuantileService(config)
    server = make_server(service, port=0)
    # A short poll: shutdown() waits up to one interval (0.5 s by default).
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield service, server, ServiceClient(server.url, timeout=10.0)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10.0)
        service.close(final_snapshot=False)


def raw_request(url, method="GET", body=None, headers=None):
    """Plain urllib round-trip returning (status, parsed body)."""
    request = urllib.request.Request(
        url,
        method=method,
        data=body,
        headers=headers or {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestEndpoints:
    def test_health(self, served):
        _, _, client = served
        assert client.health() is True

    def test_ingest_snapshot_query_roundtrip(self, served, rng):
        service, server, client = served
        data = rng.normal(size=10_000)
        receipt = client.ingest(data.tolist())
        assert receipt["accepted"] == 10_000

        snapshot = client.snapshot()
        assert snapshot["epoch"] == 1 and snapshot["count"] == 10_000

        vec = client.quantiles([0.5])
        assert vec.epoch == 1
        sorted_data = np.sort(data)
        assert vec.lower[0] <= sorted_data[vec.ranks[0] - 1] <= vec.upper[0]
        assert vec.max_below[0] + vec.max_above[0] <= 2 * vec.guarantee

    def test_quantile_alias_removed_after_deprecation_cycle(self, served, rng):
        """quantiles().to_dict() replaces the removed v1 quantile()."""
        _, _, client = served
        client.ingest(rng.uniform(size=2_000))
        client.snapshot()
        assert not hasattr(client, "quantile")
        answer = client.quantiles([0.5]).to_dict()
        assert answer["epoch"] == 1
        assert [r["phi"] for r in answer["results"]] == [0.5]

    def test_quantile_get_with_params(self, served, rng):
        _, server, client = served
        client.ingest(rng.uniform(size=4_000).tolist())
        client.snapshot()
        status, body = raw_request(f"{server.url}/quantile?phi=0.25&phi=0.75")
        assert status == 200
        assert [r["phi"] for r in body["results"]] == [0.25, 0.75]

    def test_stats(self, served, rng):
        _, _, client = served
        client.ingest(rng.uniform(size=2_000).tolist())
        client.snapshot()
        stats = client.stats()
        assert stats["accepted"] == 2_000
        assert stats["epoch"] == 1
        assert len(stats["per_shard"]) == 2


class TestErrorMapping:
    def test_unknown_route_404(self, served):
        _, server, _ = served
        status, body = raw_request(f"{server.url}/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_malformed_json_400(self, served):
        _, server, _ = served
        status, body = raw_request(
            f"{server.url}/ingest", method="POST", body=b"{oops"
        )
        assert status == 400
        assert "malformed JSON" in body["error"]

    def test_missing_values_400(self, served):
        _, server, _ = served
        status, body = raw_request(
            f"{server.url}/ingest", method="POST", body=json.dumps({}).encode()
        )
        assert status == 400

    def test_empty_values_are_an_empty_batch(self, served):
        service, server, _ = served
        status, body = raw_request(
            f"{server.url}/ingest", method="POST",
            body=json.dumps({"values": []}).encode(),
        )
        assert (status, body) == (200, dict(service.ingest([])))

    def test_nan_ingest_400(self, served):
        _, server, _ = served
        status, body = raw_request(
            f"{server.url}/ingest",
            method="POST",
            body=json.dumps({"values": [1.0, float("nan")]}).encode(),
        )
        assert status == 400
        assert "NaN" in body["error"]

    def test_query_before_epoch_409(self, served):
        _, server, _ = served
        status, body = raw_request(f"{server.url}/quantile?phi=0.5")
        assert status == 409
        assert "no epoch" in body["error"]

    def test_unparseable_phi_400(self, served, rng):
        _, server, client = served
        client.ingest(rng.uniform(size=2_000).tolist())
        client.snapshot()
        status, _ = raw_request(f"{server.url}/quantile?phi=banana")
        assert status == 400

    def test_snapshot_of_empty_service_409(self, served):
        _, server, _ = served
        status, _ = raw_request(f"{server.url}/snapshot", method="POST")
        assert status == 409

    def test_client_raises_service_error_with_server_message(self, served):
        _, _, client = served
        with pytest.raises(ServiceError, match="HTTP 409"):
            client.quantiles([0.5])

    def test_client_unreachable_host(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()


class TestKeyedEndpoints:
    """POST /ingest_keyed and /quantile_keyed on the JSON shim."""

    def test_keyed_roundtrip(self, served, rng):
        _, _, client = served
        data = rng.normal(size=4_000)
        receipt = client.ingest_keyed({("acme", "lat"): data})
        assert receipt == {"elements": 4_000, "keys": 1}
        [answer] = client.quantiles_keyed([("acme", "lat")], [0.5])
        assert (answer.tenant, answer.metric) == ("acme", "lat")
        assert answer.count == 4_000
        sorted_data = np.sort(data)
        assert answer.lower[0] <= sorted_data[answer.psi[0] - 1] <= answer.upper[0]

    def test_keyed_missing_fields_400(self, served):
        _, server, _ = served
        status, _ = raw_request(
            f"{server.url}/ingest_keyed",
            method="POST",
            body=json.dumps({"keys": [["a", "b"]]}).encode(),
        )
        assert status == 400

    def test_keyed_non_numeric_counts_400(self, served):
        _, server, _ = served
        status, body = raw_request(
            f"{server.url}/ingest_keyed",
            method="POST",
            body=json.dumps(
                {"keys": [["a", "b"]], "counts": ["a"], "values": [1.0]}
            ).encode(),
        )
        assert status == 400
        assert "counts" in body["error"]

    def test_keyed_malformed_key_shape_400(self, served):
        _, server, _ = served
        status, body = raw_request(
            f"{server.url}/quantile_keyed",
            method="POST",
            body=json.dumps({"keys": [["only-one"]], "phis": [0.5]}).encode(),
        )
        assert status == 400
        assert "tenant, metric" in body["error"]

    def test_keyed_unknown_key_409(self, served):
        _, server, _ = served
        status, _ = raw_request(
            f"{server.url}/quantile_keyed",
            method="POST",
            body=json.dumps(
                {"keys": [["ghost", "m"]], "phis": [0.5]}
            ).encode(),
        )
        assert status == 409
